//! Exact inference by variable elimination.
//!
//! Supports both **hard evidence** (a variable observed in a state) and
//! **virtual evidence** (a likelihood vector over a variable's states),
//! which is how SINADRA feeds continuous monitor outputs — a SafeML
//! dissimilarity of 0.93 becomes the likelihood `[0.07, 0.93]` on the
//! detection-uncertainty variable instead of a brittle threshold.
//!
//! [`query`] runs one elimination per call. A caller that asks the same
//! question many times with the same hard evidence and a changing
//! likelihood compiles it once instead (`compile_query`): the
//! elimination runs over tape slots rather than values and records every
//! multiplication and addition it would perform, in order. Replaying the
//! tape is then a few dozen flat `f64` operations with no allocation, no
//! index arithmetic and no name lookup, and its result is bit-identical to
//! [`query`]'s because both walk the one elimination (`eliminate`) and
//! the one product and marginal index plan (`crate::factor`). The SAR
//! risk model's cache (`crate::incremental`) is the consumer.

use crate::bn::BayesianNetwork;
use crate::factor::{Factor, MarginalPlan, ProductPlan};
use sesame_types::inline::InlineVec;
use std::ops::Range;

/// Inline capacity for hard observations in one query's evidence.
const HARD_INLINE: usize = 8;
/// Inline capacity for virtual-evidence likelihood vectors (the SAR and
/// separation networks attach at most one each per query).
const VIRTUAL_INLINE: usize = 2;
/// Inline capacity for one likelihood vector's weights.
const WEIGHTS_INLINE: usize = 4;

/// A virtual-evidence weight vector, inline up to four states.
pub type LikelihoodWeights = InlineVec<f64, WEIGHTS_INLINE>;

/// Evidence accumulated for a query.
#[derive(Debug, Clone, Default)]
pub struct Evidence {
    hard: InlineVec<(usize, usize), HARD_INLINE>,
    virtual_likelihoods: InlineVec<(usize, LikelihoodWeights), VIRTUAL_INLINE>,
}

impl Evidence {
    /// No evidence.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds hard evidence: variable `var` observed in `state`.
    pub fn observe(mut self, var: usize, state: usize) -> Self {
        self.hard.push((var, state));
        self
    }

    /// Adds virtual evidence: a non-negative likelihood over the states of
    /// `var` (need not be normalized).
    pub fn likelihood(self, var: usize, weights: Vec<f64>) -> Self {
        self.likelihood_slice(var, &weights)
    }

    /// [`Self::likelihood`] from a borrowed slice — the allocation-free
    /// form the per-tick risk models use.
    pub fn likelihood_slice(mut self, var: usize, weights: &[f64]) -> Self {
        let mut w = LikelihoodWeights::new();
        w.extend_from_slice(weights);
        self.virtual_likelihoods.push((var, w));
        self
    }

    /// Whether any evidence is present.
    pub fn is_empty(&self) -> bool {
        self.hard.is_empty() && self.virtual_likelihoods.is_empty()
    }

    /// The hard observations, in insertion order.
    pub fn hard(&self) -> &[(usize, usize)] {
        &self.hard
    }

    /// The virtual-evidence likelihoods, in insertion order.
    pub fn virtual_likelihoods(&self) -> &[(usize, LikelihoodWeights)] {
        &self.virtual_likelihoods
    }
}

/// Errors from a query.
#[derive(Debug, Clone, PartialEq)]
pub enum InferenceError {
    /// The network failed validation (call `validate` first).
    NotValidated,
    /// A variable id was out of range.
    UnknownVariable(usize),
    /// Hard evidence used a state index out of range.
    BadState {
        /// Variable id.
        var: usize,
        /// Offending state index.
        state: usize,
    },
    /// A virtual-evidence vector had the wrong length or negative entries.
    BadLikelihood(usize),
    /// The evidence has zero probability under the model.
    ImpossibleEvidence,
}

impl std::fmt::Display for InferenceError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            InferenceError::NotValidated => write!(f, "network not validated"),
            InferenceError::UnknownVariable(v) => write!(f, "unknown variable id {v}"),
            InferenceError::BadState { var, state } => {
                write!(f, "state {state} out of range for variable {var}")
            }
            InferenceError::BadLikelihood(v) => {
                write!(f, "bad virtual-evidence vector for variable {v}")
            }
            InferenceError::ImpossibleEvidence => write!(f, "evidence has probability zero"),
        }
    }
}

impl std::error::Error for InferenceError {}

/// Computes the posterior P(`query` | `evidence`) as a probability vector
/// over the query variable's states.
///
/// # Errors
///
/// See [`InferenceError`].
///
/// # Examples
///
/// ```
/// use sesame_sinadra::bn::BayesianNetwork;
/// use sesame_sinadra::inference::{query, Evidence};
///
/// let mut bn = BayesianNetwork::new();
/// bn.add_variable("rain", &["no", "yes"])?;
/// bn.add_variable("wet", &["no", "yes"])?;
/// bn.set_prior("rain", &[0.8, 0.2])?;
/// bn.set_cpt("wet", &["rain"], &[0.95, 0.05, 0.1, 0.9])?;
/// let bn = bn.validate()?;
///
/// let wet = bn.variable_id("wet").unwrap();
/// let rain = bn.variable_id("rain").unwrap();
/// let posterior = query(&bn, rain, &Evidence::new().observe(wet, 1)).unwrap();
/// assert!(posterior[1] > 0.8, "rain is likely when the grass is wet");
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
pub fn query(
    bn: &BayesianNetwork,
    query_var: usize,
    evidence: &Evidence,
) -> Result<Vec<f64>, InferenceError> {
    if !bn.is_validated() {
        return Err(InferenceError::NotValidated);
    }
    let n = bn.variable_count();
    if query_var >= n {
        return Err(InferenceError::UnknownVariable(query_var));
    }
    // Querying an observed variable yields the degenerate posterior.
    if let Some((_, state)) = evidence.hard.iter().find(|(v, _)| *v == query_var) {
        if *state >= bn.cardinality(query_var) {
            return Err(InferenceError::BadState {
                var: query_var,
                state: *state,
            });
        }
        let mut p = vec![0.0; bn.cardinality(query_var)];
        p[*state] = 1.0;
        return Ok(p);
    }
    let mut factors = evidence_factors(bn, evidence)?;

    // Eliminate every variable except the query (evidence vars are already
    // reduced out of scopes; eliminating them is a no-op).
    let hard_vars: Vec<usize> = evidence.hard.iter().map(|(v, _)| *v).collect();
    let joint = eliminate(&mut Exact, n, query_var, &hard_vars, &mut factors);
    if joint.sum() <= 0.0 {
        return Err(InferenceError::ImpossibleEvidence);
    }
    let posterior = joint.normalized();
    // The posterior must be exactly over the query variable.
    debug_assert_eq!(posterior.vars(), &[(query_var, bn.cardinality(query_var))]);
    Ok(posterior.values().to_vec())
}

/// The factor operations variable elimination performs. [`Factor`]
/// implements them over `f64` ([`Exact`]); [`Recorder`] implements them
/// over tape slots, writing each multiplication and addition down
/// instead of performing it. [`eliminate`] is generic over both, so a
/// compiled tape is the `f64` elimination's own operation sequence.
trait VeAlgebra {
    type Factor;
    fn scope(f: &Self::Factor) -> &[(usize, usize)];
    fn identity(&mut self) -> Self::Factor;
    fn product(&mut self, a: &Self::Factor, b: &Self::Factor) -> Self::Factor;
    fn marginalize(&mut self, f: &Self::Factor, var: usize) -> Self::Factor;
}

/// The `f64` algebra: the factor operations themselves.
struct Exact;

impl VeAlgebra for Exact {
    type Factor = Factor;

    fn scope(f: &Factor) -> &[(usize, usize)] {
        f.vars()
    }

    fn identity(&mut self) -> Factor {
        Factor::identity()
    }

    fn product(&mut self, a: &Factor, b: &Factor) -> Factor {
        a.product(b)
    }

    fn marginalize(&mut self, f: &Factor, var: usize) -> Factor {
        f.marginalize(var)
    }
}

/// Variable elimination: sums out every variable except `query_var` and
/// the hard-observed ones, in id order, and returns the product of the
/// remaining factors (the unnormalised posterior over `query_var`).
///
/// `factors` is consumed in place: multiplying-out then `retain` + `push`
/// keeps the surviving factors in their relative order and lands each
/// summed factor at the back.
fn eliminate<A: VeAlgebra>(
    alg: &mut A,
    n: usize,
    query_var: usize,
    hard_vars: &[usize],
    factors: &mut Vec<A::Factor>,
) -> A::Factor {
    let mentions = |f: &A::Factor, var: usize| A::scope(f).iter().any(|(v, _)| *v == var);
    for var in 0..n {
        if var == query_var || hard_vars.contains(&var) {
            continue;
        }
        // Multiply all factors mentioning `var`, then sum it out.
        let mut combined = alg.identity();
        for f in factors.iter().filter(|f| mentions(f, var)) {
            combined = alg.product(&combined, f);
        }
        factors.retain(|f| !mentions(f, var));
        factors.push(alg.marginalize(&combined, var));
    }
    let mut joint = alg.identity();
    for f in factors.iter() {
        joint = alg.product(&joint, f);
    }
    joint
}

/// The factors a query eliminates: the network's CPTs, then one factor
/// per virtual-evidence likelihood, each with every hard observation
/// reduced out.
fn evidence_factors(
    bn: &BayesianNetwork,
    evidence: &Evidence,
) -> Result<Vec<Factor>, InferenceError> {
    let n = bn.variable_count();
    let mut factors = bn.factors();

    // Apply virtual evidence as extra factors.
    for (var, weights) in &evidence.virtual_likelihoods {
        if *var >= n {
            return Err(InferenceError::UnknownVariable(*var));
        }
        let card = bn.cardinality(*var);
        if weights.len() != card || weights.iter().any(|w| !w.is_finite() || *w < 0.0) {
            return Err(InferenceError::BadLikelihood(*var));
        }
        // `single` carries the weights verbatim — same values as the
        // historical `Factor::new(vec![(var, card)], weights.clone())`.
        factors.push(Factor::single(*var, card, weights));
    }

    // Apply hard evidence by reduction.
    for (var, state) in &evidence.hard {
        if *var >= n {
            return Err(InferenceError::UnknownVariable(*var));
        }
        if *state >= bn.cardinality(*var) {
            return Err(InferenceError::BadState {
                var: *var,
                state: *state,
            });
        }
        for f in factors.iter_mut() {
            if f.contains(*var) {
                *f = f.reduce(*var, *state);
            }
        }
    }
    Ok(factors)
}

/// Slots one [`QueryTape`] may use: its inputs plus one per recorded
/// operation. Replay keeps them in a stack array of this size; each SAR
/// risk query uses fewer than 50.
const TAPE_SLOTS: usize = 64;

/// One recorded operation; its result goes to the next free slot.
#[derive(Debug, Clone, Copy)]
enum Op {
    Mul(u8, u8),
    Add(u8, u8),
}

/// A factor whose entries are tape slots rather than values.
#[derive(Debug, Clone)]
struct SlotFactor {
    vars: crate::factor::Vars,
    slots: InlineVec<usize, 16>,
}

/// The recording algebra. Its inputs (the constant `1.0` and `0.0`, the
/// reduced CPT entries, the likelihood placeholders) take the first
/// slots; every operation takes the next one.
struct Recorder {
    inputs: Vec<f64>,
    ops: Vec<Op>,
}

impl Recorder {
    const ONE: usize = 0;
    const ZERO: usize = 1;

    fn new() -> Self {
        Recorder {
            inputs: vec![1.0, 0.0],
            ops: Vec::new(),
        }
    }

    /// A factor over `vars` whose entries are fresh input slots holding
    /// `values`.
    fn input(&mut self, vars: &[(usize, usize)], values: &[f64]) -> SlotFactor {
        debug_assert!(self.ops.is_empty(), "inputs precede operations");
        let first = self.inputs.len();
        self.inputs.extend_from_slice(values);
        SlotFactor {
            vars: vars.iter().copied().collect(),
            slots: (first..self.inputs.len()).collect(),
        }
    }

    fn emit(&mut self, op: fn(u8, u8) -> Op, a: usize, b: usize) -> usize {
        let slot = |s: usize| u8::try_from(s).expect("slot index fits the tape");
        self.ops.push(op(slot(a), slot(b)));
        self.inputs.len() + self.ops.len() - 1
    }
}

impl VeAlgebra for Recorder {
    type Factor = SlotFactor;

    fn scope(f: &SlotFactor) -> &[(usize, usize)] {
        &f.vars
    }

    fn identity(&mut self) -> SlotFactor {
        SlotFactor {
            vars: Default::default(),
            slots: std::iter::once(Self::ONE).collect(),
        }
    }

    fn product(&mut self, a: &SlotFactor, b: &SlotFactor) -> SlotFactor {
        let plan = ProductPlan::new(&a.vars, &b.vars);
        let slots = plan
            .pairs()
            .map(|(i, j)| self.emit(Op::Mul, a.slots[i], b.slots[j]))
            .collect();
        SlotFactor {
            vars: plan.vars,
            slots,
        }
    }

    fn marginalize(&mut self, f: &SlotFactor, var: usize) -> SlotFactor {
        let Some(plan) = MarginalPlan::new(&f.vars, var) else {
            return f.clone();
        };
        let mut slots: InlineVec<usize, 16> = std::iter::repeat_n(Self::ZERO, plan.len).collect();
        for (idx, &s) in f.slots.iter().enumerate() {
            let t = plan.target(idx);
            slots[t] = self.emit(Op::Add, slots[t], s);
        }
        SlotFactor {
            vars: plan.vars,
            slots,
        }
    }
}

/// One posterior probability of a [`query`] whose hard evidence is fixed,
/// compiled to a straight-line tape of `f64` multiplications and
/// additions. The tape is recorded by running [`query`]'s own
/// elimination over slots, so [`Self::probability`] performs the same
/// operations on the same values in the same order, down to the `1.0 *`
/// identity products and the `0.0 +` starts of every sum: its result is
/// bit-identical to `query(bn, query_var, &evidence)?[state]`.
#[derive(Debug, Clone)]
pub(crate) struct QueryTape {
    /// Initial slot values: constants, reduced CPT entries and
    /// placeholders for the likelihood weights.
    inputs: Box<[f64]>,
    /// The input slots that receive the likelihood weights.
    likelihood: Range<usize>,
    ops: Box<[Op]>,
    /// The slots of the unnormalised posterior.
    joint: Range<usize>,
    /// The posterior entry returned.
    state: usize,
}

impl QueryTape {
    /// The posterior probability of the compiled state, given the
    /// likelihood weights of the compiled evidence's virtual-evidence
    /// variables, concatenated in insertion order.
    ///
    /// # Panics
    ///
    /// Panics if `likelihood` has the wrong length, or if the evidence has
    /// probability zero (where [`query`] returns
    /// [`InferenceError::ImpossibleEvidence`]).
    pub(crate) fn probability(&self, likelihood: &[f64]) -> f64 {
        let mut v = [0.0; TAPE_SLOTS];
        v[..self.inputs.len()].copy_from_slice(&self.inputs);
        v[self.likelihood.clone()].copy_from_slice(likelihood);
        let first = self.inputs.len();
        for (k, op) in self.ops.iter().enumerate() {
            v[first + k] = match *op {
                Op::Mul(a, b) => v[usize::from(a)] * v[usize::from(b)],
                Op::Add(a, b) => v[usize::from(a)] + v[usize::from(b)],
            };
        }
        // `Factor::sum`, then `Factor::normalized`'s division.
        let joint = &v[self.joint.clone()];
        let sum: f64 = joint.iter().sum();
        assert!(sum > 0.0, "evidence has probability zero");
        joint[self.state] / sum
    }
}

/// Compiles P(`query_var` = `state` | `evidence`) into a [`QueryTape`].
/// The hard observations are fixed into the tape; the weights of the
/// virtual-evidence likelihoods are placeholders that
/// [`QueryTape::probability`] takes at replay (only their lengths are
/// read here).
///
/// # Errors
///
/// As [`query`], for the network and the evidence variables.
///
/// # Panics
///
/// Panics if `query_var` or a likelihood variable is hard-observed, if
/// `state` is out of range, or if the tape needs more than `TAPE_SLOTS`
/// slots.
pub(crate) fn compile_query(
    bn: &BayesianNetwork,
    query_var: usize,
    state: usize,
    evidence: &Evidence,
) -> Result<QueryTape, InferenceError> {
    if !bn.is_validated() {
        return Err(InferenceError::NotValidated);
    }
    let n = bn.variable_count();
    if query_var >= n {
        return Err(InferenceError::UnknownVariable(query_var));
    }
    assert!(state < bn.cardinality(query_var), "state out of range");
    let hard_vars: Vec<usize> = evidence.hard.iter().map(|(v, _)| *v).collect();
    assert!(
        !hard_vars.contains(&query_var),
        "query variable is observed"
    );
    let evidence_factors = evidence_factors(bn, evidence)?;
    for (var, _) in &evidence.virtual_likelihoods {
        assert!(!hard_vars.contains(var), "likelihood variable is observed");
    }

    // The likelihood factors come last, so their entries are the last
    // input slots.
    let mut rec = Recorder::new();
    let mut factors: Vec<SlotFactor> = evidence_factors
        .iter()
        .map(|f| rec.input(f.vars(), f.values()))
        .collect();
    let weights: usize = evidence
        .virtual_likelihoods
        .iter()
        .map(|(_, w)| w.len())
        .sum();
    let likelihood = rec.inputs.len() - weights..rec.inputs.len();

    let joint = eliminate(&mut rec, n, query_var, &hard_vars, &mut factors);
    assert_eq!(&joint.vars[..], &[(query_var, bn.cardinality(query_var))]);
    let first = joint.slots[0];
    assert!(
        joint.slots.iter().enumerate().all(|(k, &s)| s == first + k),
        "the final product fills consecutive slots"
    );
    assert!(
        rec.inputs.len() + rec.ops.len() <= TAPE_SLOTS,
        "tape exceeds TAPE_SLOTS"
    );
    Ok(QueryTape {
        inputs: rec.inputs.into(),
        likelihood,
        ops: rec.ops.into(),
        joint: first..first + joint.slots.len(),
        state,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The classic sprinkler network with known hand-computed posteriors.
    fn sprinkler() -> BayesianNetwork {
        let mut bn = BayesianNetwork::new();
        bn.add_variable("rain", &["no", "yes"]).unwrap();
        bn.add_variable("sprinkler", &["off", "on"]).unwrap();
        bn.add_variable("wet", &["no", "yes"]).unwrap();
        bn.set_prior("rain", &[0.8, 0.2]).unwrap();
        bn.set_cpt("sprinkler", &["rain"], &[0.6, 0.4, 0.99, 0.01])
            .unwrap();
        bn.set_cpt(
            "wet",
            &["rain", "sprinkler"],
            &[1.0, 0.0, 0.1, 0.9, 0.2, 0.8, 0.01, 0.99],
        )
        .unwrap();
        bn.validate().unwrap()
    }

    #[test]
    fn prior_marginal_without_evidence() {
        let bn = sprinkler();
        let rain = bn.variable_id("rain").unwrap();
        let p = query(&bn, rain, &Evidence::new()).unwrap();
        assert!((p[0] - 0.8).abs() < 1e-12);
        assert!((p[1] - 0.2).abs() < 1e-12);
    }

    #[test]
    fn wet_grass_marginal_matches_hand_computation() {
        let bn = sprinkler();
        let wet = bn.variable_id("wet").unwrap();
        let p = query(&bn, wet, &Evidence::new()).unwrap();
        // P(wet=yes) = Σ_{r,s} P(r)P(s|r)P(wet=yes|r,s)
        let expect = 0.8 * (0.6 * 0.0 + 0.4 * 0.9) + 0.2 * (0.99 * 0.8 + 0.01 * 0.99);
        assert!((p[1] - expect).abs() < 1e-12, "got {} want {expect}", p[1]);
    }

    #[test]
    fn posterior_given_wet_grass() {
        let bn = sprinkler();
        let rain = bn.variable_id("rain").unwrap();
        let wet = bn.variable_id("wet").unwrap();
        let p = query(&bn, rain, &Evidence::new().observe(wet, 1)).unwrap();
        // Bayes by hand: P(rain=yes, wet=yes) / P(wet=yes).
        let p_wet_yes = 0.8 * (0.4 * 0.9) + 0.2 * (0.99 * 0.8 + 0.01 * 0.99);
        let p_joint = 0.2 * (0.99 * 0.8 + 0.01 * 0.99);
        let expect = p_joint / p_wet_yes;
        assert!((p[1] - expect).abs() < 1e-12, "got {} want {expect}", p[1]);
    }

    #[test]
    fn explaining_away() {
        let bn = sprinkler();
        let rain = bn.variable_id("rain").unwrap();
        let wet = bn.variable_id("wet").unwrap();
        let spr = bn.variable_id("sprinkler").unwrap();
        let p_wet = query(&bn, rain, &Evidence::new().observe(wet, 1)).unwrap();
        let p_wet_spr = query(&bn, rain, &Evidence::new().observe(wet, 1).observe(spr, 1)).unwrap();
        assert!(
            p_wet_spr[1] < p_wet[1],
            "knowing the sprinkler ran explains the wet grass away"
        );
    }

    #[test]
    fn virtual_evidence_interpolates_between_none_and_hard() {
        let bn = sprinkler();
        let rain = bn.variable_id("rain").unwrap();
        let wet = bn.variable_id("wet").unwrap();
        let none = query(&bn, rain, &Evidence::new()).unwrap()[1];
        let hard = query(&bn, rain, &Evidence::new().observe(wet, 1)).unwrap()[1];
        let soft = query(&bn, rain, &Evidence::new().likelihood(wet, vec![0.3, 0.7])).unwrap()[1];
        assert!(none < soft && soft < hard, "{none} < {soft} < {hard}");
    }

    #[test]
    fn certain_virtual_evidence_equals_hard_evidence() {
        let bn = sprinkler();
        let rain = bn.variable_id("rain").unwrap();
        let wet = bn.variable_id("wet").unwrap();
        let hard = query(&bn, rain, &Evidence::new().observe(wet, 1)).unwrap();
        let soft = query(&bn, rain, &Evidence::new().likelihood(wet, vec![0.0, 1.0])).unwrap();
        for (h, s) in hard.iter().zip(soft.iter()) {
            assert!((h - s).abs() < 1e-12);
        }
    }

    /// A compiled query replays `query` bit for bit, with and without
    /// hard evidence and with a likelihood whose weights change per call.
    #[test]
    fn compiled_query_replays_query_bit_for_bit() {
        let bn = sprinkler();
        let rain = bn.variable_id("rain").unwrap();
        let spr = bn.variable_id("sprinkler").unwrap();
        let wet = bn.variable_id("wet").unwrap();
        for hard in [Evidence::new(), Evidence::new().observe(spr, 0)] {
            for state in 0..2 {
                let plain = compile_query(&bn, rain, state, &hard).unwrap();
                let want = query(&bn, rain, &hard).unwrap()[state];
                assert_eq!(plain.probability(&[]).to_bits(), want.to_bits());

                let shape = hard.clone().likelihood(wet, vec![0.0, 0.0]);
                let soft = compile_query(&bn, rain, state, &shape).unwrap();
                for k in 0..=64 {
                    let u = f64::from(k) / 64.0;
                    let ev = hard.clone().likelihood(wet, vec![1.0 - u, u]);
                    let want = query(&bn, rain, &ev).unwrap()[state];
                    let got = soft.probability(&[1.0 - u, u]);
                    assert_eq!(got.to_bits(), want.to_bits(), "u = {u}");
                }
            }
        }
    }

    #[test]
    fn impossible_evidence_reported() {
        let mut bn = BayesianNetwork::new();
        bn.add_variable("a", &["0", "1"]).unwrap();
        bn.add_variable("b", &["0", "1"]).unwrap();
        bn.set_prior("a", &[1.0, 0.0]).unwrap();
        bn.set_cpt("b", &["a"], &[1.0, 0.0, 0.0, 1.0]).unwrap();
        let bn = bn.validate().unwrap();
        // b=1 requires a=1, which has prior 0.
        let err = query(
            &bn,
            0,
            &Evidence::new().observe(bn.variable_id("b").unwrap(), 1),
        )
        .unwrap_err();
        assert_eq!(err, InferenceError::ImpossibleEvidence);
    }

    #[test]
    fn error_paths() {
        let bn = sprinkler();
        assert_eq!(
            query(&bn, 99, &Evidence::new()).unwrap_err(),
            InferenceError::UnknownVariable(99)
        );
        assert_eq!(
            query(&bn, 0, &Evidence::new().observe(1, 9)).unwrap_err(),
            InferenceError::BadState { var: 1, state: 9 }
        );
        assert_eq!(
            query(&bn, 0, &Evidence::new().likelihood(1, vec![0.5])).unwrap_err(),
            InferenceError::BadLikelihood(1)
        );
        assert!(Evidence::new().is_empty());
    }

    #[test]
    fn query_on_evidence_variable_is_degenerate() {
        let bn = sprinkler();
        let wet = bn.variable_id("wet").unwrap();
        let p = query(&bn, wet, &Evidence::new().observe(wet, 1));
        // Querying an observed variable: posterior concentrates there.
        // Our implementation reduces the var out, so this is an error path
        // or a degenerate single-state result; accept either behaviour but
        // it must not panic.
        if let Ok(v) = p {
            assert!(!v.is_empty());
        }
    }
}
