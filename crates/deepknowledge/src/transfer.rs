//! Transfer-knowledge neuron identification (design-time phase).
//!
//! DeepKnowledge is "built on foundational concepts of model
//! generalization" (\[33\], \[34\]): it probes which neurons keep a stable
//! activation behaviour when the input domain shifts — those neurons carry
//! *transferable* knowledge, and the model's reliability on new data is
//! judged through them. We quantify per-neuron behaviour change as the
//! Kolmogorov–Smirnov distance between the neuron's activation
//! distributions on the in-domain and shifted datasets and select the
//! most stable fraction as TK neurons.

use crate::activation::{sort_column, sorted_quantile, ActivationStats};
use crate::nn::Mlp;
use sesame_safeml::distance::kolmogorov_smirnov_in_place;

/// Index of a hidden neuron (position in the concatenated trace).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct NeuronId(pub usize);

/// Result of the design-time analysis.
#[derive(Debug, Clone)]
pub struct TransferAnalyzer {
    tk_neurons: Vec<NeuronId>,
    shifts: Vec<f64>,
    /// Reference `[q05, q95]` interval per TK neuron, from in-domain data.
    reference_intervals: Vec<(f64, f64)>,
    generalization_score: f64,
}

impl TransferAnalyzer {
    /// Runs the design-time analysis: trace `model` over the in-domain and
    /// shifted datasets, rank neurons by activation-distribution shift, and
    /// keep the most stable `tk_fraction` as TK neurons.
    ///
    /// # Panics
    ///
    /// Panics if either dataset is empty or `tk_fraction` is outside
    /// `(0, 1]`.
    pub fn analyze(
        model: &Mlp,
        in_domain: &[Vec<f64>],
        shifted: &[Vec<f64>],
        tk_fraction: f64,
    ) -> Self {
        assert!(
            tk_fraction > 0.0 && tk_fraction <= 1.0,
            "tk_fraction must be in (0, 1]"
        );
        let mut base = ActivationStats::collect(model, in_domain).into_columns();
        let mut moved = ActivationStats::collect(model, shifted).into_columns();
        let n = base.len();
        // Each column is sorted once, in place, after the constancy check
        // has read it in trace order; the quantiles below read the sorted
        // base column.
        let shifts: Vec<f64> = base
            .iter_mut()
            .zip(moved.iter_mut())
            .map(|(a, b)| {
                // Constant columns (dead ReLU units) carry no knowledge.
                if is_constant(a) && is_constant(b) {
                    sort_column(a);
                    1.0
                } else {
                    kolmogorov_smirnov_in_place(a, b)
                }
            })
            .collect();
        let mut order: Vec<usize> = (0..n).collect();
        order.sort_by(|&a, &b| shifts[a].partial_cmp(&shifts[b]).expect("finite"));
        let keep = ((n as f64 * tk_fraction).ceil() as usize).max(1);
        let mut tk: Vec<NeuronId> = order[..keep].iter().map(|&i| NeuronId(i)).collect();
        tk.sort();
        let reference_intervals = tk
            .iter()
            .map(|id| {
                let sorted = &base[id.0];
                (sorted_quantile(sorted, 0.05), sorted_quantile(sorted, 0.95))
            })
            .collect();
        // Generalization score: how little the TK neurons move (1 = fully
        // stable).
        let generalization_score =
            1.0 - tk.iter().map(|id| shifts[id.0]).sum::<f64>() / tk.len() as f64;
        TransferAnalyzer {
            tk_neurons: tk,
            shifts,
            reference_intervals,
            generalization_score,
        }
    }

    /// The selected TK neurons, ascending by id.
    pub fn tk_neurons(&self) -> &[NeuronId] {
        &self.tk_neurons
    }

    /// Per-neuron KS shift for every hidden neuron.
    pub fn shifts(&self) -> &[f64] {
        &self.shifts
    }

    /// Reference `[q05, q95]` activation interval of each TK neuron (same
    /// order as [`TransferAnalyzer::tk_neurons`]).
    pub fn reference_intervals(&self) -> &[(f64, f64)] {
        &self.reference_intervals
    }

    /// Design-time generalization score in `[0, 1]` (1 = TK neurons fully
    /// stable under the probe shift).
    pub fn generalization_score(&self) -> f64 {
        self.generalization_score
    }
}

fn is_constant(xs: &[f64]) -> bool {
    xs.windows(2).all(|w| (w[0] - w[1]).abs() < 1e-12)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::nn::Activation;

    fn datasets() -> (Vec<Vec<f64>>, Vec<Vec<f64>>) {
        let in_domain: Vec<Vec<f64>> = (0..80)
            .map(|i| vec![(i as f64 * 0.13).sin(), (i as f64 * 0.29).cos()])
            .collect();
        let shifted: Vec<Vec<f64>> = (0..80)
            .map(|i| vec![(i as f64 * 0.13).sin() + 1.5, (i as f64 * 0.29).cos() - 1.5])
            .collect();
        (in_domain, shifted)
    }

    #[test]
    fn selects_requested_fraction() {
        let m = Mlp::new(&[2, 10, 5, 1], Activation::Tanh, 3);
        let (a, b) = datasets();
        let t = TransferAnalyzer::analyze(&m, &a, &b, 0.4);
        assert_eq!(t.tk_neurons().len(), 6); // ceil(15 * 0.4)
        assert_eq!(t.shifts().len(), 15);
        assert_eq!(t.reference_intervals().len(), 6);
    }

    #[test]
    fn tk_neurons_have_smallest_shifts() {
        let m = Mlp::new(&[2, 12, 1], Activation::Tanh, 5);
        let (a, b) = datasets();
        let t = TransferAnalyzer::analyze(&m, &a, &b, 0.25);
        let tk_max = t
            .tk_neurons()
            .iter()
            .map(|id| t.shifts()[id.0])
            .fold(0.0, f64::max);
        let non_tk_min = (0..t.shifts().len())
            .filter(|i| !t.tk_neurons().contains(&NeuronId(*i)))
            .map(|i| t.shifts()[i])
            .fold(f64::INFINITY, f64::min);
        assert!(tk_max <= non_tk_min + 1e-12);
    }

    #[test]
    fn identical_domains_give_perfect_generalization() {
        let m = Mlp::new(&[2, 8, 1], Activation::Tanh, 7);
        let (a, _) = datasets();
        let t = TransferAnalyzer::analyze(&m, &a, &a, 0.5);
        assert!((t.generalization_score() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn strong_shift_lowers_generalization() {
        let m = Mlp::new(&[2, 8, 1], Activation::Tanh, 7);
        let (a, b) = datasets();
        let same = TransferAnalyzer::analyze(&m, &a, &a, 0.5).generalization_score();
        let moved = TransferAnalyzer::analyze(&m, &a, &b, 0.5).generalization_score();
        assert!(moved < same);
    }

    #[test]
    fn intervals_are_ordered() {
        let m = Mlp::new(&[2, 8, 1], Activation::Relu, 9);
        let (a, b) = datasets();
        let t = TransferAnalyzer::analyze(&m, &a, &b, 1.0);
        for (lo, hi) in t.reference_intervals() {
            assert!(lo <= hi);
        }
    }

    #[test]
    #[should_panic(expected = "tk_fraction")]
    fn bad_fraction_panics() {
        let m = Mlp::new(&[2, 4, 1], Activation::Tanh, 1);
        let (a, b) = datasets();
        let _ = TransferAnalyzer::analyze(&m, &a, &b, 0.0);
    }
}
