//! Two-sample statistical distance measures.
//!
//! The SafeML paper evaluates a family of ECDF-based distances; this module
//! implements the ones it names. All functions take two raw (unsorted)
//! samples and are deterministic. Every measure is ≥ 0, equals 0 for
//! identical samples, and grows with distributional shift — the property
//! the monitor relies on. KS and Kuiper are bounded by 1 (Kuiper by 2);
//! Wasserstein and energy distance carry the scale of the data.
//!
//! # Panics
//!
//! All measures panic if either sample is empty or contains non-finite
//! values — a monitoring window must never be silently empty.

/// The measure selector used by the monitor and the benchmark sweep.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DistanceMeasure {
    /// Kolmogorov–Smirnov: `sup |F(x) − G(x)|`, in `[0, 1]`.
    KolmogorovSmirnov,
    /// Kuiper: `sup (F−G) + sup (G−F)`, in `[0, 2]`, sensitive to tails.
    Kuiper,
    /// Two-sample Anderson–Darling (rank form), tail-weighted.
    AndersonDarling,
    /// Cramér–von Mises (integral form), in `[0, 1]`-ish scale.
    CramerVonMises,
    /// Wasserstein-1 (earth mover's) distance, in data units.
    Wasserstein,
    /// Székely's energy distance, in data units.
    Energy,
}

impl DistanceMeasure {
    /// Every supported measure, for sweeps.
    pub const ALL: [DistanceMeasure; 6] = [
        DistanceMeasure::KolmogorovSmirnov,
        DistanceMeasure::Kuiper,
        DistanceMeasure::AndersonDarling,
        DistanceMeasure::CramerVonMises,
        DistanceMeasure::Wasserstein,
        DistanceMeasure::Energy,
    ];

    /// Computes this measure between samples `a` and `b`.
    pub fn compute(&self, a: &[f64], b: &[f64]) -> f64 {
        match self {
            DistanceMeasure::KolmogorovSmirnov => kolmogorov_smirnov(a, b),
            DistanceMeasure::Kuiper => kuiper(a, b),
            DistanceMeasure::AndersonDarling => anderson_darling(a, b),
            DistanceMeasure::CramerVonMises => cramer_von_mises(a, b),
            DistanceMeasure::Wasserstein => wasserstein_1(a, b),
            DistanceMeasure::Energy => energy_distance(a, b),
        }
    }

    /// A short lowercase name for reports.
    pub fn name(&self) -> &'static str {
        match self {
            DistanceMeasure::KolmogorovSmirnov => "ks",
            DistanceMeasure::Kuiper => "kuiper",
            DistanceMeasure::AndersonDarling => "anderson_darling",
            DistanceMeasure::CramerVonMises => "cramer_von_mises",
            DistanceMeasure::Wasserstein => "wasserstein",
            DistanceMeasure::Energy => "energy",
        }
    }
}

impl std::fmt::Display for DistanceMeasure {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

fn sorted_copy(name: &str, xs: &[f64]) -> Vec<f64> {
    assert!(!xs.is_empty(), "{name} sample is empty");
    assert!(
        xs.iter().all(|x| x.is_finite()),
        "{name} sample contains non-finite values"
    );
    let mut v = xs.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).expect("finite values compare"));
    v
}

/// Walks the merged support of two sorted samples, yielding the signed ECDF
/// difference F(x) − G(x) after each distinct point, along with the gap to
/// the next point (for integral measures).
fn ecdf_diff_walk(a: &[f64], b: &[f64]) -> Vec<(f64, f64, f64)> {
    // Returns (x, diff_after_x, gap_to_next_x); gap of last point is 0.
    let (n, m) = (a.len() as f64, b.len() as f64);
    let mut out = Vec::with_capacity(a.len() + b.len());
    let (mut i, mut j) = (0usize, 0usize);
    while i < a.len() || j < b.len() {
        let x = match (a.get(i), b.get(j)) {
            (Some(&ai), Some(&bj)) => ai.min(bj),
            (Some(&ai), None) => ai,
            (None, Some(&bj)) => bj,
            (None, None) => unreachable!(),
        };
        while i < a.len() && a[i] == x {
            i += 1;
        }
        while j < b.len() && b[j] == x {
            j += 1;
        }
        let diff = i as f64 / n - j as f64 / m;
        out.push((x, diff, 0.0));
    }
    for k in 0..out.len().saturating_sub(1) {
        out[k].2 = out[k + 1].0 - out[k].0;
    }
    out
}

/// Kolmogorov–Smirnov statistic `sup_x |F(x) − G(x)|`.
///
/// # Examples
///
/// ```
/// use sesame_safeml::distance::kolmogorov_smirnov;
///
/// let d = kolmogorov_smirnov(&[1.0, 2.0, 3.0], &[1.0, 2.0, 3.0]);
/// assert_eq!(d, 0.0);
/// ```
pub fn kolmogorov_smirnov(a: &[f64], b: &[f64]) -> f64 {
    let (a, b) = (sorted_copy("first", a), sorted_copy("second", b));
    ecdf_diff_walk(&a, &b)
        .into_iter()
        .map(|(_, d, _)| d.abs())
        .fold(0.0, f64::max)
}

/// The ECDF fractions `(#ref < value / n, #ref ≤ value / n)` of `value`
/// in `reference_sorted` (ascending, finite, `n` values), formed as
/// `i as f64 / n` exactly as the merge walk forms them. One binary search
/// finds `#ref < value`; the second runs only when `value` occurs in the
/// reference, since otherwise the two counts are equal.
pub(crate) fn rank_fractions(reference_sorted: &[f64], value: f64) -> (f64, f64) {
    let n = reference_sorted.len() as f64;
    let below = reference_sorted.partition_point(|r| *r < value);
    let upto = if reference_sorted.get(below) == Some(&value) {
        below + reference_sorted[below..].partition_point(|r| *r <= value)
    } else {
        below
    };
    (below as f64 / n, upto as f64 / n)
}

/// [`kolmogorov_smirnov`] between a reference sample and a window column
/// of `m` values sorted ascending, given entry by entry as the value and
/// its [`rank_fractions`] `below` and `upto` in that reference, plus the
/// table `fractions[j] = j as f64 / m` for `j` in `0..=m`.
///
/// Bit-identical to the merge walk. Each group `j..k` of equal window
/// values `v` (`-0.0 == 0.0` included, grouped as the walk groups them)
/// yields the two candidates `|below(v) − j/m|` and `|upto(v) − k/m|`:
/// the walk's own `i / n − j / m` expression at `(#ref<v, #win<v)` and at
/// `(#ref≤v, #win≤v)`. The second is a walk point; the first is the walk
/// point at the largest reference value below `v` (or the previous window
/// point, or `(0, 0)`). Between two window values `j` is fixed, and the
/// correctly rounded `fl(fl(i/n) − fl(j/m))` is monotone in `i`, so every
/// walk point there is bounded in absolute value by these candidates;
/// after the last window value the walk ends at `(n, m)`, where the
/// difference is 0.
///
/// The candidates are read off adjacent pairs, so no step depends on the
/// previous one: a group starts at entry 0 or where `values[i] !=
/// values[i − 1]`, and ends at entry `m − 1` or where `values[i] !=
/// values[i + 1]`. Every pair's two candidates are evaluated and masked
/// to `+0.0` when its values are equal, and four independent running
/// maxima take them in. Every candidate is a non-negative finite double,
/// and on those numeric order is bit order (`to_bits()` ascends with the
/// value, and equal values have equal bits), so a plain `>` select
/// returns the walk's `f64::max` fold bit for bit — including candidates
/// that are equal as rationals but round to different doubles, since
/// every one of them is evaluated. The select needs none of `f64::max`'s
/// NaN handling and compiles to one packed `max` per two pairs.
///
/// # Panics
///
/// Panics if the column is empty or the slice lengths disagree.
pub(crate) fn kolmogorov_smirnov_rank_pairs(
    values: &[f64],
    below: &[f64],
    upto: &[f64],
    fractions: &[f64],
) -> f64 {
    let m = values.len();
    assert!(m > 0, "second sample is empty");
    assert!(
        below.len() == m && upto.len() == m && fractions.len() == m + 1,
        "rank arrays and fraction table must match the window column"
    );
    let candidate = |rank: f64, fraction: f64| (rank - fraction).abs();
    // Exact on non-negative, non-NaN operands; see above.
    let max = |x: f64, y: f64| if x > y { x } else { y };
    // Entry `i`'s `upto` and entry `i + 1`'s `below`, both against
    // `fractions[i + 1]`, when the pair's values differ.
    let pair = |a: f64, b: f64, up: f64, lo: f64, f: f64| {
        let both = max(candidate(up, f), candidate(lo, f));
        if a != b {
            both
        } else {
            0.0
        }
    };
    let k = m - 1;
    let (left, right) = (&values[..k], &values[1..]);
    let (upto_left, below_right) = (&upto[..k], &below[1..]);
    let fractions_right = &fractions[1..m];
    let ends = max(
        candidate(below[0], fractions[0]),
        candidate(upto[k], fractions[m]),
    );
    let mut lanes = [ends, 0.0, 0.0, 0.0];
    let quads = left
        .chunks_exact(4)
        .zip(right.chunks_exact(4))
        .zip(upto_left.chunks_exact(4))
        .zip(below_right.chunks_exact(4))
        .zip(fractions_right.chunks_exact(4));
    for ((((a, b), up), lo), f) in quads {
        for (l, lane) in lanes.iter_mut().enumerate() {
            *lane = max(*lane, pair(a[l], b[l], up[l], lo[l], f[l]));
        }
    }
    for i in k - k % 4..k {
        let last = pair(
            left[i],
            right[i],
            upto_left[i],
            below_right[i],
            fractions_right[i],
        );
        lanes[0] = max(lanes[0], last);
    }
    lanes.into_iter().fold(0.0, max)
}

/// Kuiper statistic `sup (F−G) + sup (G−F)`.
pub fn kuiper(a: &[f64], b: &[f64]) -> f64 {
    let (a, b) = (sorted_copy("first", a), sorted_copy("second", b));
    let walk = ecdf_diff_walk(&a, &b);
    let d_plus = walk.iter().map(|(_, d, _)| *d).fold(0.0, f64::max);
    let d_minus = walk.iter().map(|(_, d, _)| -*d).fold(0.0, f64::max);
    d_plus + d_minus
}

/// Two-sample Anderson–Darling statistic in ECDF-integral form with tie
/// handling:
///
/// ```text
/// A² = (n·m / N) Σ_j  w_j · (F(x_j) − G(x_j))² / (H(x_j)·(1 − H(x_j)))
/// ```
///
/// summed over distinct pooled values `x_j` with pooled mass `w_j` and
/// pooled ECDF `H` (the final point, where `H = 1`, contributes nothing).
/// The `H(1 − H)` weight makes the statistic tail-sensitive; it is zero for
/// identical samples and symmetric in its arguments.
pub fn anderson_darling(a: &[f64], b: &[f64]) -> f64 {
    let sa = sorted_copy("first", a);
    let sb = sorted_copy("second", b);
    let n = sa.len() as f64;
    let m = sb.len() as f64;
    let nn = n + m;
    let walk = ecdf_diff_walk(&sa, &sb);
    let fa = |x: f64| sa.partition_point(|v| *v <= x) as f64 / n;
    let fb = |x: f64| sb.partition_point(|v| *v <= x) as f64 / m;
    let mut a2 = 0.0;
    let mut h_prev = 0.0;
    for (x, diff, _) in walk {
        let h = (fa(x) * n + fb(x) * m) / nn;
        let w = h - h_prev;
        h_prev = h;
        if h < 1.0 {
            a2 += w * diff * diff / (h * (1.0 - h));
        }
    }
    (n * m / nn) * a2
}

/// Cramér–von Mises criterion in integral form: the ECDF squared difference
/// integrated against the pooled empirical measure,
/// `T = Σ_pooled (F(x) − G(x))² / N`.
pub fn cramer_von_mises(a: &[f64], b: &[f64]) -> f64 {
    let sa = sorted_copy("first", a);
    let sb = sorted_copy("second", b);
    let n = sa.len();
    let m = sb.len();
    let nn = (n + m) as f64;
    let mut t = 0.0;
    // Evaluate at every pooled point (weighting by multiplicity).
    let ea = |x: f64| sa.partition_point(|v| *v <= x) as f64 / n as f64;
    let eb = |x: f64| sb.partition_point(|v| *v <= x) as f64 / m as f64;
    for &x in sa.iter().chain(sb.iter()) {
        let d = ea(x) - eb(x);
        t += d * d;
    }
    t / nn
}

/// Wasserstein-1 (earth mover's) distance: `∫ |F(x) − G(x)| dx` over the
/// merged support.
pub fn wasserstein_1(a: &[f64], b: &[f64]) -> f64 {
    let (a, b) = (sorted_copy("first", a), sorted_copy("second", b));
    ecdf_diff_walk(&a, &b)
        .into_iter()
        .map(|(_, d, gap)| d.abs() * gap)
        .sum()
}

/// Székely's energy distance `2·E|X−Y| − E|X−X'| − E|Y−Y'|` (non-negative,
/// zero iff the distributions coincide).
pub fn energy_distance(a: &[f64], b: &[f64]) -> f64 {
    let sa = sorted_copy("first", a);
    let sb = sorted_copy("second", b);
    let exy = mean_abs_cross(&sa, &sb);
    let exx = mean_abs_within(&sa);
    let eyy = mean_abs_within(&sb);
    (2.0 * exy - exx - eyy).max(0.0)
}

/// `E|X − X'|` for a sorted sample, via the order-statistics identity
/// `Σ_i (2i − n + 1)·x_(i) · 2 / n²` (0-indexed).
fn mean_abs_within(xs: &[f64]) -> f64 {
    let n = xs.len();
    if n < 2 {
        return 0.0;
    }
    let mut s = 0.0;
    for (i, &x) in xs.iter().enumerate() {
        s += (2.0 * i as f64 - (n as f64 - 1.0)) * x;
    }
    2.0 * s / ((n * n) as f64)
}

/// `E|X − Y|` for two sorted samples via prefix sums.
fn mean_abs_cross(xs: &[f64], ys: &[f64]) -> f64 {
    let mut prefix = Vec::with_capacity(ys.len() + 1);
    prefix.push(0.0);
    for &y in ys {
        prefix.push(prefix.last().unwrap() + y);
    }
    let total: f64 = *prefix.last().unwrap();
    let m = ys.len();
    let mut s = 0.0;
    for &x in xs {
        // ys[..k] <= x < ys[k..]
        let k = ys.partition_point(|v| *v <= x);
        let below = prefix[k];
        let above = total - below;
        s += x * k as f64 - below + (above - x * (m - k) as f64);
    }
    s / ((xs.len() * m) as f64)
}

#[cfg(test)]
mod tests {
    use super::*;

    const A: [f64; 8] = [0.1, 0.4, 0.5, 0.7, 1.0, 1.2, 1.4, 2.0];

    fn shifted(by: f64) -> Vec<f64> {
        A.iter().map(|x| x + by).collect()
    }

    #[test]
    fn identical_samples_have_zero_distance() {
        for m in DistanceMeasure::ALL {
            let d = m.compute(&A, &A);
            assert!(d.abs() < 1e-12, "{m} on identical samples gave {d}");
        }
    }

    #[test]
    fn all_measures_grow_with_shift() {
        for m in DistanceMeasure::ALL {
            let small = m.compute(&A, &shifted(0.2));
            let large = m.compute(&A, &shifted(5.0));
            assert!(
                large > small,
                "{m}: shift 5.0 gave {large} <= shift 0.2 gave {small}"
            );
        }
    }

    #[test]
    fn measures_are_symmetric() {
        let b = shifted(0.7);
        for m in DistanceMeasure::ALL {
            let ab = m.compute(&A, &b);
            let ba = m.compute(&b, &A);
            assert!((ab - ba).abs() < 1e-12, "{m} asymmetric: {ab} vs {ba}");
        }
    }

    #[test]
    fn ks_bounds_and_disjoint_supports() {
        assert_eq!(kolmogorov_smirnov(&A, &shifted(100.0)), 1.0);
        let d = kolmogorov_smirnov(&A, &shifted(0.05));
        assert!((0.0..=1.0).contains(&d));
    }

    #[test]
    fn ks_hand_computed_case() {
        // a = {1,2}, b = {1.5, 2.5}: max gap is 0.5.
        let d = kolmogorov_smirnov(&[1.0, 2.0], &[1.5, 2.5]);
        assert!((d - 0.5).abs() < 1e-12);
    }

    #[test]
    fn kuiper_at_least_ks_and_at_most_twice() {
        let b = shifted(0.4);
        let ks = kolmogorov_smirnov(&A, &b);
        let ku = kuiper(&A, &b);
        assert!(ku >= ks - 1e-12);
        assert!(ku <= 2.0 * ks + 1e-12);
    }

    #[test]
    fn kuiper_detects_spread_change_better_than_location() {
        // A spread change moves both tails: Kuiper accumulates both sups.
        let narrow: Vec<f64> = (0..50).map(|i| i as f64 * 0.01).collect();
        let wide: Vec<f64> = (0..50).map(|i| (i as f64 - 25.0) * 0.04 + 0.25).collect();
        let ks = kolmogorov_smirnov(&narrow, &wide);
        let ku = kuiper(&narrow, &wide);
        assert!(
            ku > ks,
            "kuiper {ku} should exceed ks {ks} for spread shift"
        );
    }

    #[test]
    fn wasserstein_of_pure_shift_is_the_shift() {
        let d = wasserstein_1(&A, &shifted(0.5));
        assert!((d - 0.5).abs() < 1e-9, "got {d}");
    }

    #[test]
    fn energy_distance_zero_iff_same_nonneg_otherwise() {
        assert!(energy_distance(&A, &A).abs() < 1e-12);
        assert!(energy_distance(&A, &shifted(1.0)) > 0.0);
    }

    #[test]
    fn energy_distance_of_large_shift_approaches_twice_shift() {
        // For far-separated equal-shape samples, 2E|X−Y| − E|X−X'| − E|Y−Y'|
        // ≈ 2·shift − 2·E|X−X'| ... exactly 2·(shift) − 2·mean_abs_within.
        let shift = 100.0;
        let d = energy_distance(&A, &shifted(shift));
        let within = {
            let mut s = A.to_vec();
            s.sort_by(|a, b| a.partial_cmp(b).unwrap());
            super::mean_abs_within(&s)
        };
        assert!((d - (2.0 * shift - 2.0 * within)).abs() < 1e-9);
    }

    #[test]
    fn anderson_darling_weights_tails() {
        // Same KS gap placed in the tail vs the middle: AD scores the tail
        // shift higher.
        let base: Vec<f64> = (0..100).map(|i| i as f64).collect();
        let mut tail = base.clone();
        for v in tail.iter_mut().take(5) {
            *v -= 50.0;
        }
        let mut middle = base.clone();
        for v in middle.iter_mut().skip(48).take(5) {
            *v += 0.5;
        }
        assert!(anderson_darling(&base, &tail) > anderson_darling(&base, &middle));
    }

    #[test]
    fn cvm_between_zero_and_one() {
        let d = cramer_von_mises(&A, &shifted(0.3));
        assert!((0.0..=1.0).contains(&d));
        // Complete separation tops out at 1/3 under the pooled-integral
        // normalization.
        assert!(cramer_von_mises(&A, &shifted(1e6)) > 0.3);
    }

    #[test]
    fn unequal_sample_sizes_supported() {
        let small = [0.5, 1.5, 2.5];
        for m in DistanceMeasure::ALL {
            let d = m.compute(&A, &small);
            assert!(d.is_finite() && d >= 0.0, "{m} gave {d}");
        }
    }

    #[test]
    fn display_names() {
        assert_eq!(DistanceMeasure::KolmogorovSmirnov.to_string(), "ks");
        assert_eq!(DistanceMeasure::Energy.to_string(), "energy");
    }

    #[test]
    #[should_panic(expected = "sample is empty")]
    fn empty_sample_panics() {
        let _ = kolmogorov_smirnov(&[], &A);
    }

    #[test]
    #[should_panic(expected = "non-finite")]
    fn nan_sample_panics() {
        let _ = wasserstein_1(&[1.0, f64::NAN], &A);
    }

    #[test]
    fn mean_abs_cross_matches_naive() {
        let xs = [0.3f64, 1.2, 2.7];
        let ys = [0.9, 1.1, 3.0, 4.0];
        let naive: f64 = xs
            .iter()
            .flat_map(|x| ys.iter().map(move |y| (x - y).abs()))
            .sum::<f64>()
            / 12.0;
        let mut sx = xs.to_vec();
        let mut sy = ys.to_vec();
        sx.sort_by(|a, b| a.partial_cmp(b).unwrap());
        sy.sort_by(|a, b| a.partial_cmp(b).unwrap());
        assert!((mean_abs_cross(&sx, &sy) - naive).abs() < 1e-12);
    }

    #[test]
    fn mean_abs_within_matches_naive() {
        let xs = [0.3f64, 1.2, 2.7, 5.0];
        let naive: f64 = xs
            .iter()
            .flat_map(|a| xs.iter().map(move |b| (a - b).abs()))
            .sum::<f64>()
            / 16.0;
        let mut s = xs.to_vec();
        s.sort_by(|a, b| a.partial_cmp(b).unwrap());
        assert!((mean_abs_within(&s) - naive).abs() < 1e-12);
    }
}
