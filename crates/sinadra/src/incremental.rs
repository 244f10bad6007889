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
//! The memo's table is pre-sized to `MEMO_CAP` (1024) entries and pins
//! ~84 KB per UAV. A build without the memo cut a 200-UAV fleet's peak
//! RSS from 39.0 MB to 23.0 MB, but it changes the digested counters, so
//! removing the memo waits for a change that re-pins the benchmark
//! digests.

use crate::inference::{compile_query, Evidence, QueryTape};
use crate::risk::{RiskAssessment, SarRiskModel, SituationInputs};
use std::collections::HashMap;
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
    memo: HashMap<(u64, u8), RiskAssessment>,
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
            // Pre-sized to MEMO_CAP so steady-state inserts never rehash:
            // the memo holds at most MEMO_CAP entries (it is cleared at the
            // cap, which keeps the buckets), so with the capacity reserved
            // up front the memo performs zero allocations after this point.
            memo: HashMap::with_capacity(MEMO_CAP),
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
        let key = (u.to_bits(), flags);
        if let Some(hit) = self.memo.get(&key) {
            self.stats.memo_hits += 1;
            return *hit;
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
        if self.memo.len() >= MEMO_CAP {
            self.memo.clear();
        }
        self.memo.insert(key, out);
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
