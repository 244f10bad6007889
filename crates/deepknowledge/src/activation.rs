//! Per-neuron activation statistics over datasets.

use crate::nn::Mlp;

/// Statistics of one hidden neuron's activations over a dataset.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NeuronStats {
    /// Sample mean.
    pub mean: f64,
    /// Sample standard deviation.
    pub std: f64,
    /// Minimum observed activation.
    pub min: f64,
    /// Maximum observed activation.
    pub max: f64,
    /// 5th percentile.
    pub q05: f64,
    /// 95th percentile.
    pub q95: f64,
}

/// Activation traces of a whole dataset: one column of values per hidden
/// neuron.
///
/// # Examples
///
/// ```
/// use sesame_deepknowledge::activation::ActivationStats;
/// use sesame_deepknowledge::nn::{Activation, Mlp};
///
/// let mlp = Mlp::new(&[2, 4, 1], Activation::Tanh, 1);
/// let data: Vec<Vec<f64>> = (0..50).map(|i| vec![i as f64 * 0.01, 0.5]).collect();
/// let stats = ActivationStats::collect(&mlp, &data);
/// assert_eq!(stats.neuron_count(), 4);
/// ```
#[derive(Debug, Clone)]
pub struct ActivationStats {
    /// columns[neuron] = activations over the dataset.
    columns: Vec<Vec<f64>>,
}

impl ActivationStats {
    /// Runs `model` over every input in `dataset` and collects the hidden
    /// traces.
    ///
    /// # Panics
    ///
    /// Panics if the dataset is empty or inputs have the wrong width.
    pub fn collect(model: &Mlp, dataset: &[Vec<f64>]) -> Self {
        assert!(!dataset.is_empty(), "dataset must not be empty");
        let width = model.hidden_neuron_count();
        let mut columns: Vec<Vec<f64>> = (0..width)
            .map(|_| Vec::with_capacity(dataset.len()))
            .collect();
        // One set of pass buffers for the whole dataset.
        let (mut output, mut trace, mut scratch) = (Vec::new(), Vec::new(), Vec::new());
        for input in dataset {
            model.forward_traced_into(input, &mut output, &mut trace, &mut scratch);
            for (column, v) in columns.iter_mut().zip(&trace) {
                column.push(*v);
            }
        }
        ActivationStats { columns }
    }

    /// The activation columns, one per neuron, in trace order.
    pub(crate) fn into_columns(self) -> Vec<Vec<f64>> {
        self.columns
    }

    /// Number of hidden neurons traced.
    pub fn neuron_count(&self) -> usize {
        self.columns.len()
    }

    /// The raw activation column of one neuron.
    ///
    /// # Panics
    ///
    /// Panics if `neuron` is out of range.
    pub fn column(&self, neuron: usize) -> &[f64] {
        &self.columns[neuron]
    }

    /// Summary statistics for one neuron.
    ///
    /// # Panics
    ///
    /// Panics if `neuron` is out of range.
    pub fn stats(&self, neuron: usize) -> NeuronStats {
        let col = &self.columns[neuron];
        let n = col.len() as f64;
        let mean = col.iter().sum::<f64>() / n;
        let var = col.iter().map(|v| (v - mean) * (v - mean)).sum::<f64>() / n;
        let mut sorted = col.clone();
        sort_column(&mut sorted);
        NeuronStats {
            mean,
            std: var.sqrt(),
            min: sorted[0],
            max: *sorted.last().unwrap(),
            q05: sorted_quantile(&sorted, 0.05),
            q95: sorted_quantile(&sorted, 0.95),
        }
    }
}

/// Sorts an activation column ascending, as [`ActivationStats::stats`]
/// does: a stable sort under `partial_cmp`, so `-0.0` and `0.0` keep
/// their trace order.
///
/// # Panics
///
/// Panics if a comparison meets a NaN.
pub(crate) fn sort_column(column: &mut [f64]) {
    column.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
}

/// The `p`-quantile of an ascending, non-empty column as
/// [`ActivationStats::stats`] takes it: the value at rank `ceil(p·n)`,
/// clamped to `1..=n`.
pub(crate) fn sorted_quantile(sorted: &[f64], p: f64) -> f64 {
    let idx = ((p * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len()) - 1;
    sorted[idx]
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::nn::Activation;

    fn model() -> Mlp {
        Mlp::new(&[2, 6, 3, 1], Activation::Tanh, 11)
    }

    fn dataset(n: usize) -> Vec<Vec<f64>> {
        (0..n)
            .map(|i| vec![(i as f64 * 0.37).sin(), (i as f64 * 0.71).cos()])
            .collect()
    }

    #[test]
    fn collects_one_column_per_hidden_neuron() {
        let m = model();
        let st = ActivationStats::collect(&m, &dataset(40));
        assert_eq!(st.neuron_count(), 9);
        assert_eq!(st.column(0).len(), 40);
    }

    #[test]
    fn stats_are_internally_consistent() {
        let m = model();
        let st = ActivationStats::collect(&m, &dataset(100));
        for n in 0..st.neuron_count() {
            let s = st.stats(n);
            assert!(s.min <= s.q05 && s.q05 <= s.q95 && s.q95 <= s.max);
            assert!(s.min <= s.mean && s.mean <= s.max);
            assert!(s.std >= 0.0);
        }
    }

    #[test]
    fn constant_input_gives_zero_std() {
        let m = model();
        let data = vec![vec![0.5, 0.5]; 30];
        let st = ActivationStats::collect(&m, &data);
        for n in 0..st.neuron_count() {
            assert!(st.stats(n).std < 1e-12);
        }
    }

    #[test]
    #[should_panic(expected = "must not be empty")]
    fn empty_dataset_panics() {
        let m = model();
        let _ = ActivationStats::collect(&m, &[]);
    }
}
