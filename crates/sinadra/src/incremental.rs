//! Compiled, memoised SAR risk queries — the SINADRA leg of the
//! incremental EDDI fast path.
//!
//! [`CachedSarRiskModel::assess`] is bit-identical to
//! [`SarRiskModel::assess`] for every input. It answers in one of two
//! ways:
//!
//! 1. a **full-result memo** keyed on the exact bit pattern of the clamped
//!    uncertainty plus the packed situation flags: a repeated situation
//!    (common while a UAV loiters or holds) skips inference. Keys compare
//!    by `f64::to_bits`, so a NaN-bearing uncertainty hits only against
//!    the very same NaN payload. Measured hit rates: 76% over whole
//!    3-UAV missions (seeds 0–3), 12% over the first 200 ticks of a
//!    200-UAV fleet, where most UAVs see a fresh uncertainty every tick.
//! 2. on a memo miss, a **replay of compiled query tapes**. With the four
//!    situation flags observed, the network reduces to a fixed factor
//!    set per flags mask, so each of the two queries (`missed`,
//!    `criticality`) is compiled once per mask and per evidence shape —
//!    with the `[1 − u, u]` likelihood on `uncertainty` (`u > 0`) or
//!    without it (`u == 0` or NaN, which `assess` leaves out). The 64
//!    tapes depend only on the constant network, so one table serves the
//!    whole process (`sar_tapes`). A replay is ~30 flat multiplications
//!    and additions per query; see `crate::inference` for why it matches
//!    the variable elimination bit for bit.
//!
//! [`BnCacheStats`] keeps the counters the platform digests (they feed
//! the `eddi.cache.hit` / `eddi.cache.miss` metrics): memo hits and
//! misses, and per miss whether the flags equal the previous miss's
//! (`base_hits`) or changed (`base_misses`). The base counters date from
//! a cached reduction of the base factors that the tapes replaced; they
//! are kept exactly so the digests do not move.
//!
//! The memo is an insertion-ordered entry `Vec` reserved for `MEMO_CAP`
//! (1024) entries of 32 bytes, found through an open-addressing index of
//! `u16` positions (2048 slots, 4 KB) under a fixed multiplicative hash:
//! ~36 KB per UAV, against the ~84 KB SipHash table it replaced. A build without the memo cut a 200-UAV
//! fleet's peak RSS from 39.0 MB to 23.0 MB, but it changes the digested
//! counters, so removing the memo waits for a change that re-pins the
//! benchmark digests.

use crate::inference::{compile_query, Evidence, QueryTape};
use crate::risk::{RiskAssessment, SarRiskModel, SituationInputs};
use std::sync::OnceLock;

/// Counters of the memo and of the flags check on memo misses.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct BnCacheStats {
    /// Assessments answered from the full-result memo.
    pub memo_hits: u64,
    /// Assessments that ran inference (replayed the tapes).
    pub memo_misses: u64,
    /// Inference runs whose flags equal the previous inference run's.
    pub base_hits: u64,
    /// Inference runs whose flags changed (or the first run).
    pub base_misses: u64,
}

impl BnCacheStats {
    /// Memo hits plus base hits. A base hit is an assessment that *did*
    /// run inference, only under unchanged flags, so this is not the
    /// number of assessments that skipped inference (that is
    /// `memo_hits`).
    pub fn hits(&self) -> u64 {
        self.memo_hits + self.base_hits
    }

    /// Memo misses plus base misses.
    pub fn misses(&self) -> u64 {
        self.memo_misses + self.base_misses
    }
}

/// Upper bound on memo entries; reaching it clears the memo (the key space
/// is effectively unbounded because the uncertainty is continuous).
const MEMO_CAP: usize = 1024;

/// Slots of the memo's index: twice `MEMO_CAP`, so a probe meets an
/// empty slot within a few steps (load factor at most 1/2).
const INDEX_SLOTS: usize = 2 * MEMO_CAP;

/// One memoised assessment and its key, packed into 32 bytes (a
/// `RiskAssessment` field would pad the entry to 40, and the reserved
/// entries of a fleet's memos are resident once the allocator recycles
/// them).
#[derive(Debug, Clone, Copy)]
struct MemoEntry {
    /// `f64::to_bits` of the clamped uncertainty.
    u_bits: u64,
    missed: f64,
    criticality: f64,
    /// The packed situation flags.
    flags: u8,
    rescan: bool,
}

/// The full-result memo: a hit means the key `(u_bits, flags)` was
/// inserted since the last clear, and the memo clears when an insert
/// finds it holding `MEMO_CAP` entries.
#[derive(Debug, Clone)]
struct Memo {
    /// The entries since the last clear, in insertion order. Reserved
    /// for `MEMO_CAP` at construction, so inserts never reallocate.
    entries: Vec<MemoEntry>,
    /// Linear-probing index: 0 marks an empty slot, `k` the entry at
    /// position `k − 1` (`MEMO_CAP` fits a `u16`).
    index: Box<[u16]>,
}

impl Memo {
    fn new() -> Self {
        Memo {
            entries: Vec::with_capacity(MEMO_CAP),
            index: vec![0; INDEX_SLOTS].into_boxed_slice(),
        }
    }

    /// The key's home slot: a Fibonacci hash of the uncertainty's bits
    /// with the flags folded into the low bits, keeping the top
    /// `log2(INDEX_SLOTS)` bits of the product.
    fn home(u_bits: u64, flags: u8) -> usize {
        let h = (u_bits ^ u64::from(flags)).wrapping_mul(0x9E37_79B9_7F4A_7C15);
        (h >> (64 - INDEX_SLOTS.trailing_zeros())) as usize
    }

    fn get(&self, u_bits: u64, flags: u8) -> Option<RiskAssessment> {
        let mut slot = Self::home(u_bits, flags);
        loop {
            // An empty slot ends the probe: the key is absent.
            let e = &self.entries[usize::from(self.index[slot]).checked_sub(1)?];
            if e.u_bits == u_bits && e.flags == flags {
                return Some(RiskAssessment {
                    missed_person_prob: e.missed,
                    criticality_high_prob: e.criticality,
                    rescan_advised: e.rescan,
                });
            }
            slot = (slot + 1) % INDEX_SLOTS;
        }
    }

    /// Inserts a key [`Memo::get`] just missed, clearing first when full.
    fn insert(&mut self, u_bits: u64, flags: u8, out: RiskAssessment) {
        if self.entries.len() >= MEMO_CAP {
            self.entries.clear();
            self.index.fill(0);
        }
        let mut slot = Self::home(u_bits, flags);
        while self.index[slot] != 0 {
            slot = (slot + 1) % INDEX_SLOTS;
        }
        self.entries.push(MemoEntry {
            u_bits,
            missed: out.missed_person_prob,
            criticality: out.criticality_high_prob,
            flags,
            rescan: out.rescan_advised,
        });
        // At most MEMO_CAP entries, so the position fits.
        self.index[slot] = self.entries.len() as u16;
    }
}

/// The two SAR queries, `[missed, criticality]`, for one flags mask and
/// one evidence shape.
type QueryPair = [QueryTape; 2];

/// The compiled queries of one situation-flags mask.
#[derive(Debug)]
struct SituationTapes {
    /// With the `[1 − u, u]` likelihood on `uncertainty`.
    with_u: QueryPair,
    /// Without it.
    without_u: QueryPair,
}

/// The process-wide tape table, indexed by the packed flags of
/// [`CachedSarRiskModel::assess`]. Every [`SarRiskModel`] carries the
/// same network (only its re-scan threshold varies), so one table serves
/// every model.
fn sar_tapes() -> &'static [SituationTapes; 16] {
    static TAPES: OnceLock<[SituationTapes; 16]> = OnceLock::new();
    TAPES.get_or_init(|| {
        let model = SarRiskModel::new();
        let bn = model.network();
        let id = |name: &str| bn.variable_id(name).expect("known variable");
        std::array::from_fn(|flags| {
            // The hard evidence `SarRiskModel::assess` builds, in its order.
            let hard = Evidence::new()
                .observe(id("altitude"), flags & 1)
                .observe(id("visibility"), flags >> 1 & 1)
                .observe(id("presence"), flags >> 2 & 1)
                .observe(id("pressure"), flags >> 3 & 1);
            // Placeholder weights: replay supplies `[1 − u, u]`.
            let soft = hard
                .clone()
                .likelihood_slice(id("uncertainty"), &[0.0, 0.0]);
            let pair = |ev: &Evidence| {
                ["missed", "criticality"]
                    .map(|q| compile_query(bn, id(q), 1, ev).expect("static model is well-formed"))
            };
            SituationTapes {
                with_u: pair(&soft),
                without_u: pair(&hard),
            }
        })
    })
}

/// [`SarRiskModel`] served through the memo and the compiled tapes.
/// Results are bit-identical to the wrapped model's
/// [`SarRiskModel::assess`] for every input — the conformance suite and
/// `tests/risk_tape_lockstep.rs` lockstep the two.
#[derive(Debug, Clone)]
pub struct CachedSarRiskModel {
    model: SarRiskModel,
    /// Flags of the previous memo miss.
    last_flags: Option<u8>,
    memo: Memo,
    stats: BnCacheStats,
}

impl CachedSarRiskModel {
    /// Wraps a risk model (and compiles the shared tape table on first
    /// use in the process).
    pub fn new(model: SarRiskModel) -> Self {
        sar_tapes();
        CachedSarRiskModel {
            model,
            last_flags: None,
            memo: Memo::new(),
            stats: BnCacheStats::default(),
        }
    }

    /// The wrapped model.
    pub fn model(&self) -> &SarRiskModel {
        &self.model
    }

    /// Cache counters.
    pub fn stats(&self) -> BnCacheStats {
        self.stats
    }

    /// [`SarRiskModel::assess`], served through the memo and the tapes.
    pub fn assess(&mut self, inputs: &SituationInputs) -> RiskAssessment {
        let u = inputs.detection_uncertainty.clamp(0.0, 1.0);
        let flags = u8::from(inputs.altitude_high)
            | u8::from(inputs.visibility_poor) << 1
            | u8::from(inputs.person_likely) << 2
            | u8::from(inputs.time_pressure_high) << 3;
        let u_bits = u.to_bits();
        if let Some(hit) = self.memo.get(u_bits, flags) {
            self.stats.memo_hits += 1;
            return hit;
        }
        self.stats.memo_misses += 1;
        if self.last_flags == Some(flags) {
            self.stats.base_hits += 1;
        } else {
            self.stats.base_misses += 1;
            self.last_flags = Some(flags);
        }

        // `assess` attaches the likelihood only when `u > 0`.
        let tapes = &sar_tapes()[usize::from(flags)];
        let [missed, criticality] = if u > 0.0 {
            let weights = [1.0 - u, u];
            tapes.with_u.each_ref().map(|t| t.probability(&weights))
        } else {
            tapes.without_u.each_ref().map(|t| t.probability(&[]))
        };
        let out = RiskAssessment {
            missed_person_prob: missed,
            criticality_high_prob: criticality,
            rescan_advised: criticality >= self.model.rescan_threshold(),
        };
        self.memo.insert(u_bits, flags, out);
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn bits(r: &RiskAssessment) -> (u64, u64, bool) {
        (
            r.missed_person_prob.to_bits(),
            r.criticality_high_prob.to_bits(),
            r.rescan_advised,
        )
    }

    /// A deterministic schedule sweeping uncertainties and flag patterns:
    /// the cached model must agree with the naive one bit for bit.
    #[test]
    fn cached_assess_is_bit_identical_to_naive() {
        let naive = SarRiskModel::new();
        let mut cached = CachedSarRiskModel::new(SarRiskModel::new());
        for step in 0..400u32 {
            // Flags hold for 50-step stretches (base hits), then flip
            // (base misses); uncertainty moves each step.
            let phase = step / 50;
            let inputs = SituationInputs {
                detection_uncertainty: f64::from(step % 97) / 96.0,
                altitude_high: phase % 3 == 0,
                visibility_poor: phase % 5 == 0,
                person_likely: phase % 2 == 0,
                time_pressure_high: phase % 7 == 0,
            };
            let a = naive.assess(&inputs);
            let b = cached.assess(&inputs);
            assert_eq!(bits(&a), bits(&b), "diverged at step {step}");
        }
        let stats = cached.stats();
        assert!(stats.base_hits > 0, "steady flags count as base hits");
        assert!(stats.base_misses > 1, "flag flips count as base misses");
    }

    /// The counters feed the digested `eddi.cache.*` metrics, so they are
    /// pinned on a fixed schedule: flag stretches of 40 steps (some
    /// masks recur), repeating uncertainties, and `0`, NaN and an
    /// out-of-range value every 13 steps. The expected values are those of
    /// the variable-elimination cache the tapes replaced.
    #[test]
    fn cache_counters_match_the_pinned_schedule() {
        let naive = SarRiskModel::new();
        let mut cached = CachedSarRiskModel::new(SarRiskModel::new());
        for step in 0..600u32 {
            let phase = step / 40;
            let inputs = SituationInputs {
                detection_uncertainty: match step % 13 {
                    0 => 0.0,
                    1 => f64::NAN,
                    2 => 1.5,
                    _ => f64::from(step % 29) / 28.0,
                },
                altitude_high: phase % 3 == 0,
                visibility_poor: phase % 5 == 0,
                person_likely: phase % 2 == 0,
                time_pressure_high: phase % 7 == 0,
            };
            assert_eq!(bits(&naive.assess(&inputs)), bits(&cached.assess(&inputs)));
        }
        assert_eq!(
            cached.stats(),
            BnCacheStats {
                memo_hits: 351,
                memo_misses: 249,
                base_hits: 237,
                base_misses: 12,
            }
        );
    }

    /// The memo against a `HashMap` with the same clear-at-cap rule, on
    /// seeded streams that cross several clears: keys repeat (a small
    /// pool of uncertainties and all 16 flag masks), and `0.0` and
    /// `-0.0` are distinct keys.
    #[test]
    fn memo_matches_a_hash_map_oracle() {
        use rand::rngs::StdRng;
        use rand::{RngExt, SeedableRng};
        use std::collections::HashMap;

        for seed in 0..8u64 {
            let mut rng = StdRng::seed_from_u64(seed);
            // Small pools repeat keys often; large ones fill the memo.
            let pool: Vec<f64> = (0..[3, 40, 600, 5000][seed as usize % 4])
                .map(|k| match k % 5 {
                    0 => 0.0,
                    1 => -0.0,
                    _ => rng.random::<f64>(),
                })
                .collect();
            let mut memo = Memo::new();
            let mut oracle: HashMap<(u64, u8), RiskAssessment> = HashMap::new();
            let mut clears = 0;
            for step in 0..6000u32 {
                let u = pool[(rng.random::<u64>() % pool.len() as u64) as usize];
                let flags = (rng.random::<u64>() % 16) as u8;
                let key = (u.to_bits(), flags);
                let got = memo.get(key.0, key.1);
                assert_eq!(got, oracle.get(&key).copied(), "seed {seed} step {step}");
                if got.is_none() {
                    let out = RiskAssessment {
                        missed_person_prob: f64::from(step),
                        criticality_high_prob: u,
                        rescan_advised: step % 3 == 0,
                    };
                    if oracle.len() >= MEMO_CAP {
                        oracle.clear();
                        clears += 1;
                    }
                    oracle.insert(key, out);
                    memo.insert(key.0, key.1, out);
                }
                assert_eq!(memo.entries.len(), oracle.len());
            }
            if pool.len() > 2 * MEMO_CAP {
                assert!(
                    clears >= 3,
                    "seed {seed}: the stream crosses several clears"
                );
            }
        }
    }

    #[test]
    fn signed_zero_uncertainties_are_distinct_keys() {
        let mut cached = CachedSarRiskModel::new(SarRiskModel::new());
        let inputs = |u: f64| SituationInputs {
            detection_uncertainty: u,
            altitude_high: false,
            visibility_poor: false,
            person_likely: true,
            time_pressure_high: true,
        };
        cached.assess(&inputs(0.0));
        cached.assess(&inputs(-0.0));
        assert_eq!(cached.stats().memo_misses, 2, "-0.0 keys apart from 0.0");
        cached.assess(&inputs(-0.0));
        assert_eq!(cached.stats().memo_hits, 1);
    }

    #[test]
    fn identical_inputs_hit_the_memo() {
        let mut cached = CachedSarRiskModel::new(SarRiskModel::new());
        let inputs = SituationInputs {
            detection_uncertainty: 0.42,
            altitude_high: true,
            visibility_poor: false,
            person_likely: true,
            time_pressure_high: true,
        };
        let first = cached.assess(&inputs);
        let second = cached.assess(&inputs);
        assert_eq!(bits(&first), bits(&second));
        assert_eq!(cached.stats().memo_hits, 1);
        assert_eq!(cached.stats().memo_misses, 1);
    }

    #[test]
    fn clamp_happens_before_the_memo_key() {
        let mut cached = CachedSarRiskModel::new(SarRiskModel::new());
        let naive = SarRiskModel::new();
        for u in [7.0, 1.0, -3.0, 0.0] {
            let inputs = SituationInputs {
                detection_uncertainty: u,
                altitude_high: false,
                visibility_poor: false,
                person_likely: true,
                time_pressure_high: false,
            };
            assert_eq!(bits(&naive.assess(&inputs)), bits(&cached.assess(&inputs)));
        }
        // 7.0 and 1.0 clamp to the same key: the second is a memo hit.
        assert!(cached.stats().memo_hits >= 1);
    }
}
