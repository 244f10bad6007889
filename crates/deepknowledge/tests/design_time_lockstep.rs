//! Lockstep of DeepKnowledge's design-time kernels against the
//! allocating implementations they replaced.
//!
//! `oracle` holds verbatim copies of the earlier `Mlp::train_step` (with
//! the `Mlp::new` and allocating forward pass it trains), of
//! `ActivationStats::{collect, stats}`, of `TransferAnalyzer::analyze`,
//! and of the copying, point-materialising Kolmogorov–Smirnov statistic
//! the analysis called. The property trains both networks from one seed
//! on one stream and requires bit equality of the losses, of the trained
//! networks' traces, of every neuron's statistics, and of the analysis
//! (`tk_neurons`, `shifts`, `reference_intervals`,
//! `generalization_score`), or the same panic message from both.
//!
//! Inputs mix a small grid (repeated values, `-0.0` and `0.0`) with
//! continuous values, so activation columns tie often; ReLU networks
//! have dead units, whose constant columns skip the KS statistic. Some
//! cases analyse identical domains, empty datasets, or datasets holding
//! a NaN or ±∞.

use proptest::prelude::*;
use sesame_deepknowledge::activation::{ActivationStats, NeuronStats};
use sesame_deepknowledge::nn::{Activation, Mlp};
use sesame_deepknowledge::transfer::TransferAnalyzer;
use std::cell::Cell;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Once;

#[allow(dead_code)]
mod oracle {
    use rand::rngs::StdRng;
    use rand::{RngExt, SeedableRng};
    use sesame_deepknowledge::activation::NeuronStats;
    use sesame_deepknowledge::nn::Activation;
    use sesame_deepknowledge::transfer::NeuronId;

    trait ActivationExt {
        fn apply(&self, x: f64) -> f64;
        fn derivative(&self, y: f64) -> f64;
    }

    impl ActivationExt for Activation {
        fn apply(&self, x: f64) -> f64 {
            match self {
                Activation::Relu => x.max(0.0),
                Activation::Tanh => x.tanh(),
            }
        }

        fn derivative(&self, y: f64) -> f64 {
            // In terms of the *output* y = f(x).
            match self {
                Activation::Relu => {
                    if y > 0.0 {
                        1.0
                    } else {
                        0.0
                    }
                }
                Activation::Tanh => 1.0 - y * y,
            }
        }
    }

    #[derive(Debug, Clone)]
    struct Layer {
        /// weights[out][in]
        weights: Vec<Vec<f64>>,
        biases: Vec<f64>,
    }

    #[derive(Debug, Clone)]
    pub struct Mlp {
        layers: Vec<Layer>,
        hidden_activation: Activation,
        sizes: Vec<usize>,
    }

    impl Mlp {
        pub fn new(sizes: &[usize], hidden_activation: Activation, seed: u64) -> Self {
            assert!(sizes.len() >= 2, "need at least input and output layers");
            assert!(sizes.iter().all(|s| *s > 0), "layer sizes must be positive");
            let mut rng = StdRng::seed_from_u64(seed);
            let mut layers = Vec::with_capacity(sizes.len() - 1);
            for w in sizes.windows(2) {
                let (n_in, n_out) = (w[0], w[1]);
                let scale = (2.0 / (n_in + n_out) as f64).sqrt();
                let weights = (0..n_out)
                    .map(|_| {
                        (0..n_in)
                            .map(|_| (rng.random::<f64>() * 2.0 - 1.0) * scale)
                            .collect()
                    })
                    .collect();
                layers.push(Layer {
                    weights,
                    biases: vec![0.0; n_out],
                });
            }
            Mlp {
                layers,
                hidden_activation,
                sizes: sizes.to_vec(),
            }
        }

        pub fn hidden_neuron_count(&self) -> usize {
            self.sizes[1..self.sizes.len() - 1].iter().sum()
        }

        pub fn forward_traced(&self, input: &[f64]) -> (Vec<f64>, Vec<f64>) {
            let mut output = Vec::new();
            let mut trace = Vec::with_capacity(self.hidden_neuron_count());
            let mut scratch = Vec::new();
            self.forward_traced_into(input, &mut output, &mut trace, &mut scratch);
            (output, trace)
        }

        pub fn forward_traced_into(
            &self,
            input: &[f64],
            output: &mut Vec<f64>,
            trace: &mut Vec<f64>,
            scratch: &mut Vec<f64>,
        ) {
            assert_eq!(input.len(), self.sizes[0], "input size mismatch");
            trace.clear();
            output.clear();
            output.extend_from_slice(input);
            let last = self.layers.len() - 1;
            for (li, layer) in self.layers.iter().enumerate() {
                scratch.clear();
                for (row, b) in layer.weights.iter().zip(layer.biases.iter()) {
                    let z: f64 = row
                        .iter()
                        .zip(output.iter())
                        .map(|(w, xi)| w * xi)
                        .sum::<f64>()
                        + b;
                    let y = if li == last {
                        sigmoid(z)
                    } else {
                        self.hidden_activation.apply(z)
                    };
                    scratch.push(y);
                }
                if li != last {
                    trace.extend_from_slice(scratch);
                }
                std::mem::swap(output, scratch);
            }
        }

        pub fn train_step(&mut self, input: &[f64], target: &[f64], lr: f64) -> f64 {
            assert!(lr > 0.0, "learning rate must be positive");
            assert_eq!(target.len(), *self.sizes.last().unwrap(), "target size");
            // Forward pass keeping every layer's outputs.
            let mut outputs: Vec<Vec<f64>> = vec![input.to_vec()];
            let last = self.layers.len() - 1;
            for (li, layer) in self.layers.iter().enumerate() {
                let x = outputs.last().unwrap();
                let mut next = Vec::with_capacity(layer.biases.len());
                for (row, b) in layer.weights.iter().zip(layer.biases.iter()) {
                    let z: f64 = row.iter().zip(x.iter()).map(|(w, xi)| w * xi).sum::<f64>() + b;
                    next.push(if li == last {
                        sigmoid(z)
                    } else {
                        self.hidden_activation.apply(z)
                    });
                }
                outputs.push(next);
            }
            let y = outputs.last().unwrap();
            let loss: f64 = y
                .iter()
                .zip(target.iter())
                .map(|(o, t)| (o - t) * (o - t))
                .sum::<f64>()
                / y.len() as f64;

            // Backward pass.
            // delta for output layer: dL/dz = 2(y - t)/n * σ'(z), σ' = y(1-y).
            let mut delta: Vec<f64> = y
                .iter()
                .zip(target.iter())
                .map(|(o, t)| 2.0 * (o - t) / y.len() as f64 * o * (1.0 - o))
                .collect();
            for li in (0..self.layers.len()).rev() {
                let x = outputs[li].clone();
                // Propagate before mutating weights.
                let prev_delta: Vec<f64> = if li > 0 {
                    (0..self.layers[li].weights[0].len())
                        .map(|i| {
                            let upstream: f64 = self.layers[li]
                                .weights
                                .iter()
                                .zip(delta.iter())
                                .map(|(row, d)| row[i] * d)
                                .sum();
                            upstream * self.hidden_activation.derivative(outputs[li][i])
                        })
                        .collect()
                } else {
                    Vec::new()
                };
                let layer = &mut self.layers[li];
                for (j, d) in delta.iter().enumerate() {
                    for (i, xi) in x.iter().enumerate() {
                        layer.weights[j][i] -= lr * d * xi;
                    }
                    layer.biases[j] -= lr * d;
                }
                if li > 0 {
                    delta = prev_delta;
                }
            }
            loss
        }
    }

    fn sigmoid(x: f64) -> f64 {
        1.0 / (1.0 + (-x).exp())
    }

    #[derive(Debug, Clone)]
    pub struct ActivationStats {
        /// columns[neuron] = activations over the dataset.
        columns: Vec<Vec<f64>>,
    }

    impl ActivationStats {
        pub fn collect(model: &Mlp, dataset: &[Vec<f64>]) -> Self {
            assert!(!dataset.is_empty(), "dataset must not be empty");
            let width = model.hidden_neuron_count();
            let mut columns = vec![Vec::with_capacity(dataset.len()); width];
            for input in dataset {
                let (_, trace) = model.forward_traced(input);
                for (c, v) in trace.into_iter().enumerate() {
                    columns[c].push(v);
                }
            }
            ActivationStats { columns }
        }

        pub fn neuron_count(&self) -> usize {
            self.columns.len()
        }

        pub fn column(&self, neuron: usize) -> &[f64] {
            &self.columns[neuron]
        }

        pub fn stats(&self, neuron: usize) -> NeuronStats {
            let col = &self.columns[neuron];
            let n = col.len() as f64;
            let mean = col.iter().sum::<f64>() / n;
            let var = col.iter().map(|v| (v - mean) * (v - mean)).sum::<f64>() / n;
            let mut sorted = col.clone();
            sorted.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
            let q = |p: f64| {
                let idx = ((p * n).ceil() as usize).clamp(1, sorted.len()) - 1;
                sorted[idx]
            };
            NeuronStats {
                mean,
                std: var.sqrt(),
                min: sorted[0],
                max: *sorted.last().unwrap(),
                q05: q(0.05),
                q95: q(0.95),
            }
        }
    }

    /// The analysis result, field for field.
    #[derive(Debug, Clone)]
    pub struct TransferAnalyzer {
        pub tk_neurons: Vec<NeuronId>,
        pub shifts: Vec<f64>,
        pub reference_intervals: Vec<(f64, f64)>,
        pub generalization_score: f64,
    }

    impl TransferAnalyzer {
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
            let base = ActivationStats::collect(model, in_domain);
            let moved = ActivationStats::collect(model, shifted);
            let n = base.neuron_count();
            let shifts: Vec<f64> = (0..n)
                .map(|i| {
                    let a = base.column(i);
                    let b = moved.column(i);
                    // Constant columns (dead ReLU units) carry no knowledge.
                    if is_constant(a) && is_constant(b) {
                        1.0
                    } else {
                        kolmogorov_smirnov(a, b)
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
                    let s = base.stats(id.0);
                    (s.q05, s.q95)
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
    }

    fn is_constant(xs: &[f64]) -> bool {
        xs.windows(2).all(|w| (w[0] - w[1]).abs() < 1e-12)
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
}

/// Runs `f`, turning a panic into its message without printing it.
fn quiet<T>(f: impl FnOnce() -> T) -> Result<T, String> {
    static HOOK: Once = Once::new();
    thread_local! {
        static QUIET: Cell<bool> = const { Cell::new(false) };
    }
    HOOK.call_once(|| {
        let prev = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            if !QUIET.with(Cell::get) {
                prev(info);
            }
        }));
    });
    QUIET.with(|q| q.set(true));
    let result = catch_unwind(AssertUnwindSafe(f));
    QUIET.with(|q| q.set(false));
    result.map_err(|payload| {
        payload
            .downcast_ref::<String>()
            .cloned()
            .or_else(|| payload.downcast_ref::<&str>().map(|s| s.to_string()))
            .unwrap_or_default()
    })
}

fn bits(xs: &[f64]) -> Vec<u64> {
    xs.iter().map(|x| x.to_bits()).collect()
}

/// Every neuron's `[mean, std, min, max, q05, q95]` as bits.
fn stats_bits(stats: impl Fn(usize) -> NeuronStats, neurons: usize) -> Vec<[u64; 6]> {
    (0..neurons)
        .map(|i| {
            let s = stats(i);
            [s.mean, s.std, s.min, s.max, s.q05, s.q95].map(f64::to_bits)
        })
        .collect()
}

/// `(tk_neurons, shifts, reference_intervals, generalization_score)` as
/// bits.
type AnalysisBits = (Vec<usize>, Vec<u64>, Vec<(u64, u64)>, u64);

fn analysis_bits(
    tk: impl Iterator<Item = usize>,
    shifts: &[f64],
    intervals: &[(f64, f64)],
    score: f64,
) -> AnalysisBits {
    (
        tk.collect(),
        bits(shifts),
        intervals
            .iter()
            .map(|(lo, hi)| (lo.to_bits(), hi.to_bits()))
            .collect(),
        score.to_bits(),
    )
}

const GRID: [f64; 7] = [-1.0, -0.5, -0.0, 0.0, 0.5, 1.0, 2.0];

fn value() -> impl Strategy<Value = f64> {
    let grid = || (0..GRID.len()).prop_map(|i| GRID[i]);
    prop_oneof![grid(), grid(), -2.0..2.0f64]
}

fn rows(width: usize) -> impl Strategy<Value = Vec<Vec<f64>>> {
    proptest::collection::vec(proptest::collection::vec(value(), width), 1..48)
}

/// How the analysed datasets are altered after training, if at all.
#[derive(Debug, Clone, Copy)]
enum Corruption {
    None,
    /// The shifted dataset is the in-domain one, so every shift ties.
    SameDomain,
    /// The in-domain (or the shifted) dataset is empty.
    Empty {
        in_domain: bool,
    },
    /// One value of one dataset is replaced by a non-finite one.
    NonFinite {
        in_domain: bool,
        row: usize,
        col: usize,
        value: f64,
    },
}

fn corruption() -> impl Strategy<Value = Corruption> {
    let non_finite = (0..2u8, 0..64usize, 0..16usize, 0..3usize).prop_map(|(d, row, col, v)| {
        Corruption::NonFinite {
            in_domain: d == 0,
            row,
            col,
            value: [f64::NAN, f64::INFINITY, f64::NEG_INFINITY][v],
        }
    });
    prop_oneof![
        Just(Corruption::None),
        Just(Corruption::None),
        Just(Corruption::SameDomain),
        (0..2u8).prop_map(|d| Corruption::Empty { in_domain: d == 0 }),
        non_finite,
    ]
}

fn corrupt(
    corruption: Corruption,
    mut in_domain: Vec<Vec<f64>>,
    mut shifted: Vec<Vec<f64>>,
) -> (Vec<Vec<f64>>, Vec<Vec<f64>>) {
    match corruption {
        Corruption::None => {}
        Corruption::SameDomain => shifted = in_domain.clone(),
        Corruption::Empty { in_domain: true } => in_domain.clear(),
        Corruption::Empty { in_domain: false } => shifted.clear(),
        Corruption::NonFinite {
            in_domain: d,
            row,
            col,
            value,
        } => {
            let data = if d { &mut in_domain } else { &mut shifted };
            let n = data.len();
            let r = &mut data[row % n];
            let w = r.len();
            r[col % w] = value;
        }
    }
    (in_domain, shifted)
}

/// One case: the network, its training and the analysed datasets.
#[derive(Debug, Clone)]
struct Case {
    seed: u64,
    sizes: Vec<usize>,
    activation: Activation,
    epochs: usize,
    lr: f64,
    in_domain: Vec<Vec<f64>>,
    shifted: Vec<Vec<f64>>,
    tk_fraction: f64,
    corruption: Corruption,
}

fn case() -> impl Strategy<Value = Case> {
    (0..2usize, 0..2usize).prop_flat_map(|(shape, act)| {
        let sizes = [vec![8, 12, 1], vec![2, 10, 5, 1]][shape].clone();
        let width = sizes[0];
        (
            (
                0..u64::MAX,
                Just(sizes),
                Just([Activation::Tanh, Activation::Relu][act]),
            ),
            (0..4usize, 0.01..0.5f64),
            (rows(width), rows(width)),
            (0.05..1.0f64, corruption()),
        )
            .prop_map(
                |((seed, sizes, activation), (epochs, lr), (in_domain, shifted), (tk, c))| Case {
                    seed,
                    sizes,
                    activation,
                    epochs,
                    lr,
                    in_domain,
                    shifted,
                    tk_fraction: tk,
                    corruption: c,
                },
            )
    })
}

fn check(c: Case) -> Result<(), TestCaseError> {
    let Case {
        seed,
        sizes,
        activation,
        epochs,
        lr,
        in_domain,
        shifted,
        tk_fraction,
        corruption,
    } = c;
    // Train both networks on the runtime's schedule: every other row
    // per epoch, labelled by the sign of the row sum.
    let mut real = Mlp::new(&sizes, activation, seed);
    let mut old = oracle::Mlp::new(&sizes, activation, seed);
    for epoch in 0..epochs {
        for (i, row) in in_domain.iter().enumerate() {
            if (i + epoch) % 2 == 0 {
                let label = [f64::from(row.iter().sum::<f64>() > 0.0)];
                let (a, b) = (
                    real.train_step(row, &label, lr),
                    old.train_step(row, &label, lr),
                );
                prop_assert_eq!(a.to_bits(), b.to_bits(), "loss, seed {}", seed);
            }
        }
    }
    for row in in_domain.iter().chain(&shifted) {
        let (real_out, real_trace) = real.forward_traced(row);
        let (old_out, old_trace) = old.forward_traced(row);
        prop_assert_eq!(bits(&real_out), bits(&old_out), "output, seed {}", seed);
        prop_assert_eq!(bits(&real_trace), bits(&old_trace), "trace, seed {}", seed);
    }

    let (in_domain, shifted) = corrupt(corruption, in_domain, shifted);
    let width = real.hidden_neuron_count();
    for data in [&in_domain, &shifted] {
        let real_stats = quiet(|| {
            let st = ActivationStats::collect(&real, data);
            stats_bits(|i| st.stats(i), width)
        });
        let old_stats = quiet(|| {
            let st = oracle::ActivationStats::collect(&old, data);
            stats_bits(|i| st.stats(i), width)
        });
        prop_assert_eq!(
            &real_stats,
            &old_stats,
            "stats, seed {} {:?}",
            seed,
            corruption
        );
    }

    let real_analysis = quiet(|| {
        let t = TransferAnalyzer::analyze(&real, &in_domain, &shifted, tk_fraction);
        analysis_bits(
            t.tk_neurons().iter().map(|id| id.0),
            t.shifts(),
            t.reference_intervals(),
            t.generalization_score(),
        )
    });
    let old_analysis = quiet(|| {
        let t = oracle::TransferAnalyzer::analyze(&old, &in_domain, &shifted, tk_fraction);
        analysis_bits(
            t.tk_neurons.iter().map(|id| id.0),
            &t.shifts,
            &t.reference_intervals,
            t.generalization_score,
        )
    });
    prop_assert_eq!(
        &real_analysis,
        &old_analysis,
        "analysis, seed {} {:?}",
        seed,
        corruption
    );
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Training, tracing, statistics and the TK analysis all match the
    /// oracle bit for bit, or panic with the same message.
    #[test]
    fn design_time_matches_the_oracle(c in case()) {
        check(c)?;
    }
}

/// The runtime's own shape and schedule: an 8-12-1 Tanh head trained
/// for three epochs on 200 rows, analysed against 200 shifted rows.
#[test]
fn runtime_shape_matches_the_oracle() {
    let row = |k: usize, shift: f64| -> Vec<f64> {
        (0..8)
            .map(|f| ((k * 8 + f) as f64 * 0.37).sin() + shift)
            .collect()
    };
    for seed in [0, 7, 0xD, u64::MAX] {
        check(Case {
            seed,
            sizes: vec![8, 12, 1],
            activation: Activation::Tanh,
            epochs: 3,
            lr: 0.05,
            in_domain: (0..200).map(|k| row(k, 0.0)).collect(),
            shifted: (0..200).map(|k| row(k, 0.4)).collect(),
            tk_fraction: 0.5,
            corruption: Corruption::None,
        })
        .unwrap();
    }
}
