//! Lockstep properties of the monitor's rank-indexed fast path: after
//! every sample, `assessment()` must equal the naive `dissimilarity()` and
//! `verdict()` bit for bit.
//!
//! Values come mostly from a small grid so that window and reference
//! values tie often, with `-0.0` and `0.0` both on it; a third of them
//! are continuous. Streams run for several full window turnovers.

use proptest::prelude::*;
use sesame_safeml::distance::DistanceMeasure;
use sesame_safeml::monitor::{SafeMlConfig, SafeMlMonitor};

const GRID: [f64; 7] = [-1.0, -0.5, -0.0, 0.0, 0.5, 1.0, 1.5];

fn value() -> impl Strategy<Value = f64> {
    let grid = || (0..GRID.len()).prop_map(|i| GRID[i]);
    prop_oneof![grid(), grid(), -1.5..2.0f64]
}

/// `(window, reference rows, sample rows)`, all rows `width` wide.
type Case = (usize, Vec<Vec<f64>>, Vec<Vec<f64>>);

fn case(max_width: usize) -> impl Strategy<Value = Case> {
    (1usize..65, 1usize..257, 1..max_width + 1, 2usize..5).prop_flat_map(
        |(window, n_ref, width, turnovers)| {
            let row = move || proptest::collection::vec(value(), width);
            (
                Just(window),
                proptest::collection::vec(row(), n_ref),
                proptest::collection::vec(row(), window * turnovers + 1..window * turnovers + 8),
            )
        },
    )
}

/// Feeds `samples` and checks the fast path against the naive accessors
/// after every push (and once before the first).
fn check_lockstep(
    measure: DistanceMeasure,
    (window, reference, samples): Case,
) -> Result<(), TestCaseError> {
    let config = SafeMlConfig {
        window,
        measure,
        ..SafeMlConfig::default()
    };
    let mut mon = SafeMlMonitor::new(reference, config).expect("generated reference is valid");
    for (t, row) in std::iter::once(None)
        .chain(samples.iter().map(Some))
        .enumerate()
    {
        if let Some(row) = row {
            mon.push_sample(row).expect("generated sample is valid");
        }
        let (fast_d, fast_v) = mon.assessment();
        let naive_d = mon.dissimilarity();
        prop_assert_eq!(
            fast_d.to_bits(),
            naive_d.to_bits(),
            "{measure} window {window}, step {t}: fast {fast_d} vs naive {naive_d}"
        );
        prop_assert_eq!(fast_v, mon.verdict(), "{measure} step {t}");
    }
    prop_assert_eq!(mon.window_len(), window.min(samples.len()));
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(192))]

    /// The KS fast path equals the naive merge walk at every step.
    #[test]
    fn ks_assessment_matches_naive_accessors(c in case(3)) {
        check_lockstep(DistanceMeasure::KolmogorovSmirnov, c)?;
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Every other measure still falls back to the naive path unchanged.
    #[test]
    fn non_ks_assessment_falls_back_unchanged(c in case(2)) {
        for measure in DistanceMeasure::ALL {
            if measure != DistanceMeasure::KolmogorovSmirnov {
                check_lockstep(measure, c.clone())?;
            }
        }
    }
}

/// Every window length in 1..=64 against the smallest and largest
/// reference, with deterministic grid data.
#[test]
fn ks_assessment_matches_every_window_length() {
    let mut state = 0x9e37_79b9_7f4a_7c15u64;
    let mut next = move || {
        state = state
            .wrapping_mul(6_364_136_223_846_793_005)
            .wrapping_add(1_442_695_040_888_963_407);
        GRID[(state >> 33) as usize % GRID.len()]
    };
    for window in 1..=64 {
        for n_ref in [1, 256] {
            let reference = (0..n_ref).map(|_| vec![next()]).collect();
            let samples = (0..window * 3 + 1).map(|_| vec![next()]).collect();
            check_lockstep(
                DistanceMeasure::KolmogorovSmirnov,
                (window, reference, samples),
            )
            .unwrap_or_else(|e| panic!("window {window}, reference {n_ref}: {e}"));
        }
    }
}
