//! Lockstep properties of the monitor's rank-indexed fast path: after
//! every sample, `assessment()` must equal the naive `dissimilarity()` and
//! `verdict()` bit for bit, and the naive `dissimilarity()`, which reads
//! the reference sorted in place, must equal every measure computed on
//! the original, unsorted reference columns.
//!
//! Values come mostly from a small grid so that window and reference
//! values tie often, with `-0.0` and `0.0` both on it; a third of them
//! are continuous. Streams run for several full window turnovers. One
//! case runs the runtime's shape (8 features, 200 reference rows, a
//! 50-sample window) on continuous values.

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

/// Feeds `samples` and checks `dissimilarity()` after every push against
/// `DistanceMeasure::compute` on the original reference columns and the
/// window's columns in arrival order, squashed and averaged as the
/// monitor documents.
fn check_naive_against_original(
    measure: DistanceMeasure,
    (window, reference, samples): Case,
) -> Result<(), TestCaseError> {
    let width = reference[0].len();
    let column = |rows: &[Vec<f64>], c: usize| rows.iter().map(|row| row[c]).collect::<Vec<_>>();
    let originals: Vec<Vec<f64>> = (0..width).map(|c| column(&reference, c)).collect();
    let config = SafeMlConfig {
        window,
        measure,
        ..SafeMlConfig::default()
    };
    let scale = config.squash_scale;
    let mut mon = SafeMlMonitor::new(reference, config).expect("generated reference is valid");
    for t in 0..samples.len() {
        mon.push_sample(&samples[t])
            .expect("generated sample is valid");
        let rows = &samples[(t + 1).saturating_sub(window)..=t];
        let mut acc = 0.0;
        for (c, original) in originals.iter().enumerate() {
            let d = measure.compute(original, &column(rows, c));
            acc += match measure {
                DistanceMeasure::KolmogorovSmirnov => d,
                DistanceMeasure::Kuiper => d / 2.0,
                DistanceMeasure::CramerVonMises => d.min(1.0),
                _ => d / (d + scale),
            };
        }
        let expected = acc / width as f64;
        let naive = mon.dissimilarity();
        prop_assert_eq!(
            naive.to_bits(),
            expected.to_bits(),
            "{measure} window {window}, step {t}: monitor {naive} vs original {expected}"
        );
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Sorting the reference in place leaves the naive path's bits
    /// unchanged for every measure.
    #[test]
    fn naive_dissimilarity_matches_the_original_reference(c in case(2)) {
        for measure in DistanceMeasure::ALL {
            check_naive_against_original(measure, c.clone())?;
        }
    }
}

/// The runtime's shape: 8 features, 200 reference rows, a 50-sample
/// window, continuous values, 4 to 5 window turnovers.
fn production_case() -> impl Strategy<Value = Case> {
    let row = || proptest::collection::vec(-3.0..3.0f64, 8);
    (
        Just(50usize),
        proptest::collection::vec(row(), 200),
        proptest::collection::vec(row(), 50 * 4 + 1..50 * 5),
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// The KS fast path at the runtime's shape.
    #[test]
    fn ks_assessment_matches_naive_at_production_shape(c in production_case()) {
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
