//! The compiled SAR risk tapes against the variable-elimination oracle.
//!
//! `CachedSarRiskModel::assess` answers from a memo or by replaying
//! query tapes compiled once per situation-flags mask;
//! `SarRiskModel::assess` runs two full variable-elimination queries.
//! Both must agree bit for bit (`f64::to_bits`) on every input.
//!
//! The property drives one cached model through a schedule of up to 200
//! assessments. The flags mask (all 16 are reachable) holds for a drawn
//! stretch and then flips, so tapes of different masks interleave with
//! memo hits. The uncertainty is drawn from arbitrary bit patterns
//! (NaNs with any payload, infinities, subnormals, huge and negative
//! values), from edge values (±0, the smallest subnormal, `1 − ε`, `1`,
//! `1 + ε`), from `[0, 1]`, or as a repeat of an earlier draw so the memo
//! answers. A deterministic grid over all 16 masks complements it.
//!
//! The case budget defaults to 256 and can be raised in CI via
//! `SESAME_FUZZ_CASES` (see `scripts/check.sh`).

use proptest::collection::vec;
use proptest::prelude::*;
use sesame_sinadra::risk::{RiskAssessment, SarRiskModel, SituationInputs};
use sesame_sinadra::CachedSarRiskModel;

fn cases() -> u32 {
    std::env::var("SESAME_FUZZ_CASES")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(256)
}

fn bits(r: &RiskAssessment) -> (u64, u64, bool) {
    (
        r.missed_person_prob.to_bits(),
        r.criticality_high_prob.to_bits(),
        r.rescan_advised,
    )
}

fn inputs(mask: u8, u: f64) -> SituationInputs {
    SituationInputs {
        detection_uncertainty: u,
        altitude_high: mask & 1 != 0,
        visibility_poor: mask & 2 != 0,
        person_likely: mask & 4 != 0,
        time_pressure_high: mask & 8 != 0,
    }
}

/// Uncertainties at the edges of the clamp and of the likelihood switch.
const EDGES: [f64; 12] = [
    0.0,
    -0.0,
    f64::MIN_POSITIVE,
    5e-324,
    1.0 - f64::EPSILON,
    1.0,
    1.0 + f64::EPSILON,
    f64::NAN,
    f64::INFINITY,
    f64::NEG_INFINITY,
    -1e-300,
    0.5,
];

/// One drawn uncertainty.
#[derive(Debug, Clone)]
enum Draw {
    Bits(u64),
    Edge(usize),
    Unit(f64),
    /// The uncertainty of an earlier step (index modulo steps so far).
    Repeat(usize),
}

fn draw() -> impl Strategy<Value = Draw> {
    prop_oneof![
        (0u64..u64::MAX).prop_map(Draw::Bits),
        (0usize..EDGES.len()).prop_map(Draw::Edge),
        (0.0..1.0f64).prop_map(Draw::Unit),
        (0.0..1.0f64).prop_map(Draw::Unit),
        (0usize..200).prop_map(Draw::Repeat),
    ]
}

/// A stretch of steps under one flags mask: one draw per step.
fn stretch() -> impl Strategy<Value = (u8, Vec<Draw>)> {
    (0u8..16, vec(draw(), 1..12))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(cases()))]

    /// Every assessment of the schedule, memo hit or tape replay, carries
    /// the oracle's bits.
    #[test]
    fn cached_assess_matches_variable_elimination(stretches in vec(stretch(), 1..20)) {
        let oracle = SarRiskModel::new();
        let mut cached = CachedSarRiskModel::new(SarRiskModel::new());
        let mut seen: Vec<f64> = Vec::new();
        for (mask, draws) in &stretches {
            for d in draws {
                let u = match *d {
                    Draw::Bits(b) => f64::from_bits(b),
                    Draw::Edge(k) => EDGES[k],
                    Draw::Unit(u) => u,
                    Draw::Repeat(k) if !seen.is_empty() => seen[k % seen.len()],
                    Draw::Repeat(_) => 0.25,
                };
                seen.push(u);
                let x = inputs(*mask, u);
                let want = oracle.assess(&x);
                let got = cached.assess(&x);
                prop_assert_eq!(
                    bits(&got),
                    bits(&want),
                    "mask {} u {:?} ({:#x}): got {:?}, want {:?}",
                    mask,
                    u,
                    u.to_bits(),
                    got,
                    want
                );
            }
        }
        let s = cached.stats();
        prop_assert_eq!(s.memo_hits + s.memo_misses, seen.len() as u64);
        prop_assert_eq!(s.base_hits + s.base_misses, s.memo_misses);
    }
}

/// All 16 masks over a 1025-point grid of `[0, 1]` plus the edge values,
/// each mask on a fresh model.
#[test]
fn every_mask_matches_on_a_grid() {
    let oracle = SarRiskModel::new();
    for mask in 0..16u8 {
        let mut cached = CachedSarRiskModel::new(SarRiskModel::new());
        let grid = (0..=1024).map(|k| f64::from(k) / 1024.0);
        for u in grid.chain(EDGES) {
            let x = inputs(mask, u);
            assert_eq!(
                bits(&cached.assess(&x)),
                bits(&oracle.assess(&x)),
                "mask {mask} u {u:?}"
            );
        }
    }
}
