//! The sliding-window SafeML runtime monitor.
//!
//! "SafeML assesses a sliding window of images captured by UAV cameras
//! against a reference set derived from the model's training images"
//! (§III-A2). Here each "image" is a feature vector (produced by
//! `sesame-vision`'s synthetic extractor or any other source); the monitor
//! keeps one reference sample per feature, maintains the runtime window,
//! and aggregates per-feature distances into:
//!
//! * a **dissimilarity** score in `[0, 1]` (bounded measures are used
//!   as-is; unbounded ones are squashed),
//! * a **confidence** `= 1 − dissimilarity` in the ML outcome,
//! * a three-way [`SafeMlVerdict`] against configurable thresholds.

use crate::distance::{kolmogorov_smirnov_rank_pairs, rank_fractions, DistanceMeasure};

/// Verdict levels the ConSert layer maps to mitigations.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SafeMlVerdict {
    /// Runtime data statistically matches the training data.
    Accept,
    /// Noticeable shift: treat ML outputs with caution (e.g. descend to a
    /// more favourable altitude, as in §V-B).
    Caution,
    /// Strong shift: ML outputs should not be trusted.
    Reject,
}

/// Configuration of the monitor.
#[derive(Debug, Clone)]
pub struct SafeMlConfig {
    /// Sliding window length (number of runtime samples); positive.
    pub window: usize,
    /// Distance measure to use.
    pub measure: DistanceMeasure,
    /// Dissimilarity at or above which the verdict is `Caution`.
    pub caution_threshold: f64,
    /// Dissimilarity at or above which the verdict is `Reject`.
    pub reject_threshold: f64,
    /// Scale used to squash unbounded measures: `d ↦ d / (d + scale)`;
    /// finite and positive.
    pub squash_scale: f64,
}

impl Default for SafeMlConfig {
    fn default() -> Self {
        SafeMlConfig {
            window: 50,
            measure: DistanceMeasure::KolmogorovSmirnov,
            caution_threshold: 0.5,
            reject_threshold: 0.9,
            squash_scale: 1.0,
        }
    }
}

/// The runtime monitor. Feed it samples with [`SafeMlMonitor::push_sample`]
/// and read [`SafeMlMonitor::dissimilarity`] / [`SafeMlMonitor::verdict`].
///
/// # Examples
///
/// ```
/// use sesame_safeml::monitor::{SafeMlConfig, SafeMlMonitor, SafeMlVerdict};
///
/// // Reference: two features, values near 0.
/// let reference: Vec<Vec<f64>> = (0..100)
///     .map(|i| vec![(i % 10) as f64 * 0.01, (i % 7) as f64 * 0.01])
///     .collect();
/// let mut mon = SafeMlMonitor::new(reference, SafeMlConfig::default())?;
/// // Runtime data shifted far away.
/// for i in 0..50 {
///     mon.push_sample(&[5.0 + (i % 10) as f64 * 0.01, 5.0]);
/// }
/// assert_eq!(mon.verdict(), SafeMlVerdict::Reject);
/// # Ok::<(), sesame_safeml::monitor::SafeMlError>(())
/// ```
#[derive(Debug, Clone)]
pub struct SafeMlMonitor {
    config: SafeMlConfig,
    /// Features per sample.
    width: usize,
    /// Column-major reference, `width × n` flat: feature `c` is
    /// `reference[c * n..(c + 1) * n]`. The first sample sorts each
    /// column in place, so that construction stays cheap.
    reference: Vec<f64>,
    /// The sliding window as one flat row-major ring of up to
    /// `window × width` values. Once full, row `head` is the oldest.
    ring: Vec<f64>,
    head: usize,
    samples_seen: u64,
    /// The window sorted by value per feature, as three flat
    /// `width × window` arrays indexed alike: feature `c`'s column is
    /// `c * window..c * window + window_len`. Empty until the first
    /// sample. This one holds the same values as the ring's column (up to
    /// the sign of zeros).
    sorted_window: Vec<f64>,
    /// `#ref < v / n` of each `sorted_window` entry `v` in the sorted
    /// reference ([`rank_fractions`]), found once, when `v` entered.
    below: Vec<f64>,
    /// `#ref ≤ v / n` of each `sorted_window` entry `v`, likewise.
    upto: Vec<f64>,
    /// `j / window_len` for `j` in `0..=window_len`; rebuilt only while
    /// the window fills.
    fractions: Vec<f64>,
}

/// Errors from monitor construction and feeding.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SafeMlError {
    /// Reference set was empty.
    EmptyReference,
    /// Reference rows disagree on feature count.
    RaggedReference,
    /// A runtime sample had the wrong number of features.
    FeatureCountMismatch {
        /// Expected feature count.
        expected: usize,
        /// Received feature count.
        got: usize,
    },
    /// Reference or sample contained non-finite values.
    NonFinite,
    /// Config thresholds out of order (`caution >= reject`).
    BadThresholds,
    /// Config window length was zero.
    ZeroWindow,
    /// A config threshold was NaN or infinite.
    NonFiniteThreshold,
    /// Config `squash_scale` was not finite and positive.
    BadSquashScale,
}

impl std::fmt::Display for SafeMlError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SafeMlError::EmptyReference => write!(f, "empty reference set"),
            SafeMlError::RaggedReference => write!(f, "reference rows have differing widths"),
            SafeMlError::FeatureCountMismatch { expected, got } => {
                write!(f, "sample has {got} features, reference has {expected}")
            }
            SafeMlError::NonFinite => write!(f, "non-finite feature value"),
            SafeMlError::BadThresholds => {
                write!(f, "caution threshold must be below reject threshold")
            }
            SafeMlError::ZeroWindow => write!(f, "window length must be positive"),
            SafeMlError::NonFiniteThreshold => write!(f, "non-finite verdict threshold"),
            SafeMlError::BadSquashScale => {
                write!(f, "squash scale must be finite and positive")
            }
        }
    }
}

impl std::error::Error for SafeMlError {}

impl SafeMlMonitor {
    /// Builds a monitor from row-major reference samples.
    ///
    /// # Errors
    ///
    /// See [`SafeMlError`] for the rejected shapes.
    pub fn new(reference_rows: Vec<Vec<f64>>, config: SafeMlConfig) -> Result<Self, SafeMlError> {
        if reference_rows.is_empty() {
            return Err(SafeMlError::EmptyReference);
        }
        if config.window == 0 {
            return Err(SafeMlError::ZeroWindow);
        }
        if !(config.caution_threshold.is_finite() && config.reject_threshold.is_finite()) {
            return Err(SafeMlError::NonFiniteThreshold);
        }
        if config.caution_threshold >= config.reject_threshold {
            return Err(SafeMlError::BadThresholds);
        }
        if !(config.squash_scale.is_finite() && config.squash_scale > 0.0) {
            return Err(SafeMlError::BadSquashScale);
        }
        let width = reference_rows[0].len();
        if width == 0 {
            return Err(SafeMlError::EmptyReference);
        }
        let n = reference_rows.len();
        let mut reference = vec![0.0; width * n];
        for (r, row) in reference_rows.iter().enumerate() {
            if row.len() != width {
                return Err(SafeMlError::RaggedReference);
            }
            for (c, v) in row.iter().enumerate() {
                if !v.is_finite() {
                    return Err(SafeMlError::NonFinite);
                }
                reference[c * n + r] = *v;
            }
        }
        Ok(SafeMlMonitor {
            config,
            width,
            reference,
            ring: Vec::new(),
            head: 0,
            samples_seen: 0,
            sorted_window: Vec::new(),
            below: Vec::new(),
            upto: Vec::new(),
            fractions: Vec::new(),
        })
    }

    /// Number of features per sample.
    pub fn feature_count(&self) -> usize {
        self.width
    }

    /// Pushes one runtime sample into the sliding window.
    ///
    /// # Errors
    ///
    /// Returns [`SafeMlError::FeatureCountMismatch`] or
    /// [`SafeMlError::NonFinite`] on malformed samples.
    pub fn push_sample(&mut self, features: &[f64]) -> Result<(), SafeMlError> {
        if features.len() != self.width {
            return Err(SafeMlError::FeatureCountMismatch {
                expected: self.width,
                got: features.len(),
            });
        }
        if features.iter().any(|v| !v.is_finite()) {
            return Err(SafeMlError::NonFinite);
        }
        let (width, window) = (self.width, self.config.window);
        let n = self.reference.len() / width;
        if self.sorted_window.is_empty() {
            // First sample: sort the reference in place and size the
            // window buffers exactly, so no later sample allocates.
            for column in self.reference.chunks_exact_mut(n) {
                column.sort_by(|a, b| a.partial_cmp(b).expect("finite values compare"));
            }
            let cells = window.saturating_mul(width);
            self.ring.reserve_exact(cells);
            self.sorted_window = vec![0.0; cells];
            self.below = vec![0.0; cells];
            self.upto = vec![0.0; cells];
            self.fractions = Vec::with_capacity(window + 1);
        }
        let len = self.window_len();
        let full = len == window;
        let oldest = self.head * width;
        for (c, &v) in features.iter().enumerate() {
            let (below, upto) = rank_fractions(&self.reference[c * n..(c + 1) * n], v);
            // While the window fills, the column's next slot is vacant and
            // plays the evicted entry.
            let column = c * window..c * window + len + usize::from(!full);
            let values = &mut self.sorted_window[column.clone()];
            let to = values[..len].partition_point(|x| *x < v);
            let from = if full {
                let evicted = self.ring[oldest + c];
                let r = values.partition_point(|x| *x < evicted);
                debug_assert!(values[r] == evicted, "window column tracks the ring");
                r
            } else {
                len
            };
            replace_sorted(values, from, to, v);
            replace_sorted(&mut self.below[column.clone()], from, to, below);
            replace_sorted(&mut self.upto[column], from, to, upto);
        }
        if full {
            self.ring[oldest..oldest + width].copy_from_slice(features);
            self.head = (self.head + 1) % window;
        } else {
            self.ring.extend_from_slice(features);
            let m = len + 1;
            self.fractions.clear();
            self.fractions.extend((0..=m).map(|j| j as f64 / m as f64));
        }
        self.samples_seen += 1;
        Ok(())
    }

    /// The window's rows, oldest first.
    fn rows(&self) -> impl Iterator<Item = &[f64]> {
        let width = self.width;
        let (newer, older) = self.ring.split_at(self.head * width);
        older.chunks_exact(width).chain(newer.chunks_exact(width))
    }

    /// Whether the window holds enough samples to judge (at least half the
    /// configured length).
    pub fn is_warmed_up(&self) -> bool {
        self.window_len() * 2 >= self.config.window
    }

    /// Aggregated dissimilarity in `[0, 1]`: the mean per-feature distance,
    /// squashed for unbounded measures. Returns 0 before any samples
    /// arrive.
    pub fn dissimilarity(&self) -> f64 {
        if self.ring.is_empty() {
            return 0.0;
        }
        // Every measure sorts its inputs first, so the sorted reference
        // columns give the same bits as the original ones.
        let n = self.reference.len() / self.width;
        let mut acc = 0.0;
        for (c, ref_col) in self.reference.chunks_exact(n).enumerate() {
            let col: Vec<f64> = self.rows().map(|row| row[c]).collect();
            let d = self.config.measure.compute(ref_col, &col);
            acc += self.squash(d);
        }
        acc / self.width as f64
    }

    fn squash(&self, d: f64) -> f64 {
        match self.config.measure {
            DistanceMeasure::KolmogorovSmirnov => d,
            DistanceMeasure::Kuiper => d / 2.0,
            DistanceMeasure::CramerVonMises => d.min(1.0),
            // AD, Wasserstein and energy are unbounded: squash smoothly.
            _ => d / (d + self.config.squash_scale),
        }
    }

    /// Computes the dissimilarity **once** and derives the verdict from
    /// it — the fast-path equivalent of calling
    /// [`SafeMlMonitor::dissimilarity`] followed by
    /// [`SafeMlMonitor::verdict`], which walk the full window/reference
    /// comparison twice. For the KS measure it reads the rank-indexed
    /// window columns instead of sorting and merging; both results are
    /// bit-identical to the naive accessors.
    pub fn assessment(&self) -> (f64, SafeMlVerdict) {
        let d = self.dissimilarity_ranked();
        (d, self.classify(d))
    }

    /// [`SafeMlMonitor::dissimilarity`] over the rank-indexed window
    /// columns (KS only; other measures fall back to the naive path).
    fn dissimilarity_ranked(&self) -> f64 {
        if self.ring.is_empty() {
            return 0.0;
        }
        if self.config.measure != DistanceMeasure::KolmogorovSmirnov {
            return self.dissimilarity();
        }
        let (window, len) = (self.config.window, self.window_len());
        let mut acc = 0.0;
        for c in 0..self.width {
            let column = c * window..c * window + len;
            // squash() is the identity for KS.
            acc += kolmogorov_smirnov_rank_pairs(
                &self.sorted_window[column.clone()],
                &self.below[column.clone()],
                &self.upto[column],
                &self.fractions,
            );
        }
        acc / self.width as f64
    }

    /// Confidence in the ML component's outcome: `1 − dissimilarity`.
    pub fn confidence(&self) -> f64 {
        1.0 - self.dissimilarity()
    }

    /// The three-way verdict against the configured thresholds.
    pub fn verdict(&self) -> SafeMlVerdict {
        self.classify(self.dissimilarity())
    }

    fn classify(&self, d: f64) -> SafeMlVerdict {
        if d >= self.config.reject_threshold {
            SafeMlVerdict::Reject
        } else if d >= self.config.caution_threshold {
            SafeMlVerdict::Caution
        } else {
            SafeMlVerdict::Accept
        }
    }

    /// Total samples ever pushed.
    pub fn samples_seen(&self) -> u64 {
        self.samples_seen
    }

    /// Current window occupancy.
    pub fn window_len(&self) -> usize {
        self.ring.len() / self.width
    }
}

/// Removes the entry at `from` of a sorted `column` and inserts `x` at
/// the sorted position `to`, counted before the removal: one memmove of
/// the entries between the two slots.
fn replace_sorted(column: &mut [f64], from: usize, to: usize, x: f64) {
    if to <= from {
        column.copy_within(to..from, to + 1);
        column[to] = x;
    } else {
        column.copy_within(from + 1..to, from);
        column[to - 1] = x;
    }
}

#[cfg(test)]
#[allow(clippy::field_reassign_with_default)]
mod tests {
    use super::*;

    fn reference() -> Vec<Vec<f64>> {
        (0..200)
            .map(|i| {
                vec![
                    (i % 20) as f64 * 0.05,      // uniform-ish 0..1
                    ((i * 7) % 13) as f64 * 0.1, // uniform-ish 0..1.3
                ]
            })
            .collect()
    }

    #[test]
    fn in_distribution_data_accepts() {
        let mut mon = SafeMlMonitor::new(reference(), SafeMlConfig::default()).unwrap();
        for i in 0..50 {
            mon.push_sample(&[(i % 20) as f64 * 0.05, ((i * 7) % 13) as f64 * 0.1])
                .unwrap();
        }
        assert!(mon.is_warmed_up());
        assert!(mon.dissimilarity() < 0.3, "d = {}", mon.dissimilarity());
        assert_eq!(mon.verdict(), SafeMlVerdict::Accept);
        assert!(mon.confidence() > 0.7);
    }

    #[test]
    fn shifted_data_rejects() {
        let mut mon = SafeMlMonitor::new(reference(), SafeMlConfig::default()).unwrap();
        for _ in 0..50 {
            mon.push_sample(&[10.0, -5.0]).unwrap();
        }
        assert_eq!(mon.verdict(), SafeMlVerdict::Reject);
        assert!(mon.confidence() < 0.15);
    }

    #[test]
    fn partial_shift_cautions() {
        // One feature in-distribution, the other fully out: mean KS ≈ 0.5+.
        let mut cfg = SafeMlConfig::default();
        cfg.caution_threshold = 0.4;
        cfg.reject_threshold = 0.8;
        let mut mon = SafeMlMonitor::new(reference(), cfg).unwrap();
        for i in 0..50 {
            mon.push_sample(&[(i % 20) as f64 * 0.05, 99.0]).unwrap();
        }
        assert_eq!(mon.verdict(), SafeMlVerdict::Caution);
    }

    #[test]
    fn window_slides() {
        let mut mon = SafeMlMonitor::new(reference(), SafeMlConfig::default()).unwrap();
        // Fill with shifted data, then flush with in-distribution data.
        for _ in 0..50 {
            mon.push_sample(&[10.0, 10.0]).unwrap();
        }
        let bad = mon.dissimilarity();
        for i in 0..50 {
            mon.push_sample(&[(i % 20) as f64 * 0.05, ((i * 7) % 13) as f64 * 0.1])
                .unwrap();
        }
        let good = mon.dissimilarity();
        assert!(good < bad, "window must forget old shift: {bad} -> {good}");
        assert_eq!(mon.window_len(), 50);
        assert_eq!(mon.samples_seen(), 100);
    }

    #[test]
    fn empty_window_is_neutral() {
        let mon = SafeMlMonitor::new(reference(), SafeMlConfig::default()).unwrap();
        assert_eq!(mon.dissimilarity(), 0.0);
        assert_eq!(mon.verdict(), SafeMlVerdict::Accept);
        assert!(!mon.is_warmed_up());
    }

    #[test]
    fn construction_rejects_bad_shapes() {
        assert_eq!(
            SafeMlMonitor::new(vec![], SafeMlConfig::default()).unwrap_err(),
            SafeMlError::EmptyReference
        );
        assert_eq!(
            SafeMlMonitor::new(vec![vec![]], SafeMlConfig::default()).unwrap_err(),
            SafeMlError::EmptyReference
        );
        assert_eq!(
            SafeMlMonitor::new(vec![vec![1.0], vec![1.0, 2.0]], SafeMlConfig::default())
                .unwrap_err(),
            SafeMlError::RaggedReference
        );
        assert_eq!(
            SafeMlMonitor::new(vec![vec![f64::NAN]], SafeMlConfig::default()).unwrap_err(),
            SafeMlError::NonFinite
        );
        let mut cfg = SafeMlConfig::default();
        cfg.caution_threshold = 0.9;
        cfg.reject_threshold = 0.5;
        assert_eq!(
            SafeMlMonitor::new(vec![vec![1.0]], cfg).unwrap_err(),
            SafeMlError::BadThresholds
        );
    }

    #[test]
    fn zero_window_is_rejected() {
        let mut cfg = SafeMlConfig::default();
        cfg.window = 0;
        assert_eq!(
            SafeMlMonitor::new(reference(), cfg).unwrap_err(),
            SafeMlError::ZeroWindow
        );
    }

    #[test]
    fn non_finite_thresholds_are_rejected() {
        for (caution, reject) in [
            (f64::NAN, 0.9),
            (0.5, f64::NAN),
            (f64::NEG_INFINITY, 0.9),
            (0.5, f64::INFINITY),
        ] {
            let mut cfg = SafeMlConfig::default();
            cfg.caution_threshold = caution;
            cfg.reject_threshold = reject;
            assert_eq!(
                SafeMlMonitor::new(reference(), cfg).unwrap_err(),
                SafeMlError::NonFiniteThreshold,
                "caution {caution}, reject {reject}"
            );
        }
    }

    #[test]
    fn non_positive_squash_scale_is_rejected() {
        for scale in [0.0, -0.0, -1.0, f64::NAN, f64::INFINITY] {
            let mut cfg = SafeMlConfig::default();
            cfg.measure = DistanceMeasure::Wasserstein;
            cfg.squash_scale = scale;
            assert_eq!(
                SafeMlMonitor::new(reference(), cfg).unwrap_err(),
                SafeMlError::BadSquashScale,
                "scale {scale}"
            );
        }
    }

    #[test]
    fn sample_shape_checked() {
        let mut mon = SafeMlMonitor::new(reference(), SafeMlConfig::default()).unwrap();
        assert_eq!(
            mon.push_sample(&[1.0]).unwrap_err(),
            SafeMlError::FeatureCountMismatch {
                expected: 2,
                got: 1
            }
        );
        assert_eq!(
            mon.push_sample(&[1.0, f64::INFINITY]).unwrap_err(),
            SafeMlError::NonFinite
        );
        assert_eq!(mon.feature_count(), 2);
    }

    #[test]
    fn assessment_is_bit_identical_to_naive_accessors() {
        let mut mon = SafeMlMonitor::new(reference(), SafeMlConfig::default()).unwrap();
        // Empty window first, then a drifting stream crossing thresholds.
        assert_eq!(mon.assessment(), (0.0, SafeMlVerdict::Accept));
        for i in 0..120u32 {
            let drift = f64::from(i) * 0.15;
            mon.push_sample(&[(i % 20) as f64 * 0.05 + drift, drift])
                .unwrap();
            let naive = (mon.dissimilarity(), mon.verdict());
            let fast = mon.assessment();
            assert_eq!(naive.0.to_bits(), fast.0.to_bits(), "tick {i}");
            assert_eq!(naive.1, fast.1, "tick {i}");
        }
    }

    #[test]
    fn ks_ties_that_round_differently_keep_the_walk_bits() {
        // Against the reference 1..=10 both windows reach two walk points
        // equal to 1/5 as rationals that round to different doubles: the
        // first at (#ref, #win) = (3, 1) and (5, 3), the second at (4, 2)
        // and (6, 4) (and at (10, 8)). The walk keeps the larger, 0.2.
        assert_eq!(0.3f64 - 0.1, 0.19999999999999998);
        assert_eq!(0.5f64 - 0.3, 0.2);
        assert_eq!(0.4f64 - 0.2, 0.2);
        assert_eq!(0.6f64 - 0.4, 0.19999999999999996);
        let reference: Vec<Vec<f64>> = (1..=10).map(|i| vec![f64::from(i)]).collect();
        for window in [
            [0.5, 3.3, 3.6, 5.5, 5.6, 6.5, 7.5, 8.5, 9.5, 10.5],
            [0.5, 2.5, 4.3, 4.6, 6.3, 6.6, 7.5, 8.5, 10.5, 10.6],
        ] {
            let config = SafeMlConfig {
                window: window.len(),
                ..SafeMlConfig::default()
            };
            let mut mon = SafeMlMonitor::new(reference.clone(), config).unwrap();
            // Newest-first, so the sorted columns are built by insertion.
            for v in window.iter().rev() {
                mon.push_sample(&[*v]).unwrap();
            }
            assert_eq!(mon.dissimilarity().to_bits(), 0.2f64.to_bits());
            assert_eq!(mon.assessment().0.to_bits(), 0.2f64.to_bits());
        }
    }

    #[test]
    fn assessment_falls_back_for_non_ks_measures() {
        let mut cfg = SafeMlConfig::default();
        cfg.measure = DistanceMeasure::Wasserstein;
        let mut mon = SafeMlMonitor::new(reference(), cfg).unwrap();
        for i in 0..50 {
            mon.push_sample(&[f64::from(i) * 0.3, 2.0]).unwrap();
            let naive = (mon.dissimilarity(), mon.verdict());
            let fast = mon.assessment();
            assert_eq!(naive.0.to_bits(), fast.0.to_bits());
            assert_eq!(naive.1, fast.1);
        }
    }

    #[test]
    fn unbounded_measure_squashes_into_unit_interval() {
        let mut cfg = SafeMlConfig::default();
        cfg.measure = DistanceMeasure::Wasserstein;
        let mut mon = SafeMlMonitor::new(reference(), cfg).unwrap();
        for _ in 0..50 {
            mon.push_sample(&[1e6, 1e6]).unwrap();
        }
        let d = mon.dissimilarity();
        assert!((0.0..=1.0).contains(&d));
        assert!(d > 0.99);
    }
}
