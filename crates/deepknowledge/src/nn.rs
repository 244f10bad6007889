//! A from-scratch multilayer perceptron with activation capture.
//!
//! Small, dependency-free, deterministic. Hidden layers use a configurable
//! activation; the output layer is sigmoid (the network is used as a
//! detector-confidence head). Training is plain SGD on squared error —
//! enough to make activation-trace analysis meaningful on a *really
//! trained* model rather than random weights.

use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

/// Hidden-layer activation functions.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Activation {
    /// max(0, x)
    Relu,
    /// tanh(x)
    Tanh,
}

impl Activation {
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

/// [`Mlp::train_step`]'s reused buffers. Scratch only: every call
/// clears each one before reading it.
#[derive(Debug, Clone, Default)]
struct TrainScratch {
    /// Every layer's output of the current step, the input first, laid
    /// end to end.
    outputs: Vec<f64>,
    /// The delta row of the layer being updated.
    delta: Vec<f64>,
    /// The delta row of the layer below it.
    prev: Vec<f64>,
}

/// The multilayer perceptron. See the crate docs for a training example.
#[derive(Debug, Clone)]
pub struct Mlp {
    layers: Vec<Layer>,
    hidden_activation: Activation,
    sizes: Vec<usize>,
    train: TrainScratch,
}

impl Mlp {
    /// Creates a network with the given layer sizes (`[input, hidden...,
    /// output]`), Xavier-ish random init from `seed`.
    ///
    /// # Panics
    ///
    /// Panics if fewer than two sizes are given or any size is zero.
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
            train: TrainScratch::default(),
        }
    }

    /// Layer sizes including input and output.
    pub fn sizes(&self) -> &[usize] {
        &self.sizes
    }

    /// Total number of hidden neurons (the trace width).
    pub fn hidden_neuron_count(&self) -> usize {
        self.sizes[1..self.sizes.len() - 1].iter().sum()
    }

    /// Forward pass; returns the output vector.
    ///
    /// # Panics
    ///
    /// Panics if `input` length differs from the input layer size.
    pub fn forward(&self, input: &[f64]) -> Vec<f64> {
        self.forward_traced(input).0
    }

    /// Forward pass returning `(output, hidden_activations)` where the
    /// trace is the concatenation of every hidden layer's activations —
    /// the raw material of DeepKnowledge analysis.
    pub fn forward_traced(&self, input: &[f64]) -> (Vec<f64>, Vec<f64>) {
        let mut output = Vec::new();
        let mut trace = Vec::with_capacity(self.hidden_neuron_count());
        let mut scratch = Vec::new();
        self.forward_traced_into(input, &mut output, &mut trace, &mut scratch);
        (output, trace)
    }

    /// [`Mlp::forward_traced`] into caller-provided buffers — the tick
    /// loop's zero-alloc path. `output` receives the network output,
    /// `trace` the concatenated hidden activations, and `scratch` is the
    /// layer ping-pong buffer; all three are cleared first. The weighted
    /// sums run in the same order as the allocating pass, so the results
    /// are bit-identical.
    ///
    /// # Panics
    ///
    /// Panics if `input` length differs from the input layer size.
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

    /// One SGD step on squared error toward `target`. Returns the loss
    /// before the step.
    ///
    /// Allocation-free after the first call: the forward pass writes
    /// every layer's output (the input first) end to end into one reused
    /// buffer, and the backward pass ping-pongs two reused delta rows.
    /// Every weighted sum is the same `zip(..).map(..).sum()` over the
    /// same operands in the same order as a pass that allocates each
    /// layer's output, so the trained weights are bit-identical to it.
    ///
    /// # Panics
    ///
    /// Panics on size mismatches or a non-positive learning rate.
    pub fn train_step(&mut self, input: &[f64], target: &[f64], lr: f64) -> f64 {
        assert!(lr > 0.0, "learning rate must be positive");
        assert_eq!(input.len(), self.sizes[0], "input size mismatch");
        assert_eq!(target.len(), *self.sizes.last().unwrap(), "target size");
        let Mlp {
            layers,
            hidden_activation: act,
            sizes,
            train,
        } = self;
        let TrainScratch {
            outputs,
            delta,
            prev,
        } = train;
        // Forward pass keeping every layer's outputs: layer `li` reads
        // `outputs[start..end]` and appends its own output after it.
        outputs.clear();
        outputs.extend_from_slice(input);
        let last = layers.len() - 1;
        let mut start = 0;
        for (li, layer) in layers.iter().enumerate() {
            let end = outputs.len();
            for (row, b) in layer.weights.iter().zip(layer.biases.iter()) {
                let z: f64 = row
                    .iter()
                    .zip(outputs[start..end].iter())
                    .map(|(w, xi)| w * xi)
                    .sum::<f64>()
                    + b;
                outputs.push(if li == last { sigmoid(z) } else { act.apply(z) });
            }
            start = end;
        }
        let y = &outputs[start..];
        let loss: f64 = y
            .iter()
            .zip(target.iter())
            .map(|(o, t)| (o - t) * (o - t))
            .sum::<f64>()
            / y.len() as f64;

        // Backward pass.
        // delta for output layer: dL/dz = 2(y - t)/n * σ'(z), σ' = y(1-y).
        delta.clear();
        delta.extend(
            y.iter()
                .zip(target.iter())
                .map(|(o, t)| 2.0 * (o - t) / y.len() as f64 * o * (1.0 - o)),
        );
        // `start` walks back to the start of layer `li`'s input.
        for li in (0..layers.len()).rev() {
            let end = start;
            start -= sizes[li];
            let x = &outputs[start..end];
            // Propagate before mutating weights.
            prev.clear();
            if li > 0 {
                let weights = &layers[li].weights;
                prev.extend((0..sizes[li]).map(|i| {
                    let upstream: f64 = weights
                        .iter()
                        .zip(delta.iter())
                        .map(|(row, d)| row[i] * d)
                        .sum();
                    upstream * act.derivative(x[i])
                }));
            }
            let layer = &mut layers[li];
            for ((row, b), d) in layer
                .weights
                .iter_mut()
                .zip(layer.biases.iter_mut())
                .zip(delta.iter())
            {
                for (w, xi) in row.iter_mut().zip(x) {
                    *w -= lr * d * xi;
                }
                *b -= lr * d;
            }
            std::mem::swap(delta, prev);
        }
        loss
    }
}

fn sigmoid(x: f64) -> f64 {
    1.0 / (1.0 + (-x).exp())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shapes_and_trace_width() {
        let mlp = Mlp::new(&[3, 5, 4, 2], Activation::Relu, 1);
        assert_eq!(mlp.sizes(), &[3, 5, 4, 2]);
        assert_eq!(mlp.hidden_neuron_count(), 9);
        let (out, trace) = mlp.forward_traced(&[0.1, 0.2, 0.3]);
        assert_eq!(out.len(), 2);
        assert_eq!(trace.len(), 9);
        assert!(out.iter().all(|o| (0.0..=1.0).contains(o)), "sigmoid out");
    }

    #[test]
    fn deterministic_init() {
        let a = Mlp::new(&[2, 4, 1], Activation::Tanh, 7);
        let b = Mlp::new(&[2, 4, 1], Activation::Tanh, 7);
        assert_eq!(a.forward(&[0.5, -0.5]), b.forward(&[0.5, -0.5]));
        let c = Mlp::new(&[2, 4, 1], Activation::Tanh, 8);
        assert_ne!(a.forward(&[0.5, -0.5]), c.forward(&[0.5, -0.5]));
    }

    #[test]
    fn training_reduces_loss() {
        let mut mlp = Mlp::new(&[2, 6, 1], Activation::Tanh, 3);
        let x = [0.3, -0.7];
        let t = [0.9];
        let first = mlp.train_step(&x, &t, 0.5);
        let mut last = first;
        for _ in 0..200 {
            last = mlp.train_step(&x, &t, 0.5);
        }
        assert!(last < first / 10.0, "loss {first} -> {last}");
    }

    #[test]
    fn learns_xor() {
        let mut mlp = Mlp::new(&[2, 8, 1], Activation::Relu, 42);
        let xs = [[0.0, 0.0], [0.0, 1.0], [1.0, 0.0], [1.0, 1.0]];
        let ys = [[0.0], [1.0], [1.0], [0.0]];
        for _ in 0..4000 {
            for (x, y) in xs.iter().zip(ys.iter()) {
                mlp.train_step(x, y, 0.1);
            }
        }
        for (x, y) in xs.iter().zip(ys.iter()) {
            let out = mlp.forward(x)[0];
            assert!(
                (out - y[0]).abs() < 0.4,
                "xor({x:?}) = {out}, want {}",
                y[0]
            );
        }
    }

    #[test]
    fn backprop_matches_finite_differences() {
        // One SGD step with learning rate ε changes the loss by about
        // −ε·‖∇L‖². Verify the analytic gradient against a numerical
        // directional derivative: perturbing the input of train_step via
        // the loss decrease it reports.
        let x = [0.4, -0.2];
        let t = [0.7];
        let lr = 1e-4;
        let mut a = Mlp::new(&[2, 5, 1], Activation::Tanh, 9);
        let loss_before = {
            let y = a.forward(&x)[0];
            (y - t[0]) * (y - t[0])
        };
        let reported = a.train_step(&x, &t, lr);
        assert!(
            (reported - loss_before).abs() < 1e-12,
            "train_step reports pre-step loss"
        );
        let loss_after = {
            let y = a.forward(&x)[0];
            (y - t[0]) * (y - t[0])
        };
        let decrease = loss_before - loss_after;
        // The decrease must be positive and of order lr (gradient descent
        // on a smooth function with a tiny step).
        assert!(
            decrease > 0.0,
            "loss must decrease: {loss_before} -> {loss_after}"
        );
        assert!(decrease < loss_before, "a tiny step cannot erase the loss");
        // Second-order check: halving the learning rate roughly halves the
        // first-order decrease.
        let mut b = Mlp::new(&[2, 5, 1], Activation::Tanh, 9);
        b.train_step(&x, &t, lr / 2.0);
        let half_after = {
            let y = b.forward(&x)[0];
            (y - t[0]) * (y - t[0])
        };
        let half_decrease = loss_before - half_after;
        let ratio = decrease / half_decrease;
        assert!(
            (1.6..2.4).contains(&ratio),
            "linear regime ratio {ratio} (expected ≈2)"
        );
    }

    #[test]
    fn relu_trace_is_nonnegative() {
        let mlp = Mlp::new(&[2, 10, 1], Activation::Relu, 5);
        let (_, trace) = mlp.forward_traced(&[1.0, -1.0]);
        assert!(trace.iter().all(|a| *a >= 0.0));
    }

    #[test]
    #[should_panic(expected = "input size mismatch")]
    fn wrong_input_size_panics() {
        let mlp = Mlp::new(&[2, 3, 1], Activation::Relu, 1);
        let _ = mlp.forward(&[1.0]);
    }

    /// A short input does not train on a prefix of the first layer.
    #[test]
    #[should_panic(expected = "input size mismatch")]
    fn short_training_input_panics() {
        let mut mlp = Mlp::new(&[2, 3, 1], Activation::Relu, 1);
        let _ = mlp.train_step(&[1.0], &[0.5], 0.1);
    }

    #[test]
    #[should_panic(expected = "at least input and output")]
    fn too_few_layers_panics() {
        let _ = Mlp::new(&[3], Activation::Relu, 1);
    }
}
