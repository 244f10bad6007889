//! Discrete factors and their algebra.
//!
//! A [`Factor`] is a non-negative table over an ordered set of discrete
//! variables (identified by `usize` ids with known cardinalities). Variable
//! elimination is just repeated [`Factor::product`] and
//! [`Factor::marginalize`].
//!
//! Storage is inline ([`InlineVec`]): scopes up to four variables and
//! value tables up to sixteen entries live on the stack, so the factor
//! algebra — products, reductions, marginalizations — performs **zero
//! heap allocations** for the SAR/separation risk networks (whose
//! post-evidence scopes never exceed three binary variables). Wider
//! factors spill to the heap transparently; results are identical either
//! way, and the arithmetic (value order, operation order) is exactly the
//! historical `Vec` implementation's, so posteriors are bit-identical
//! (see DESIGN.md § "Hot-loop memory discipline").

use sesame_types::inline::InlineVec;
use std::collections::BTreeMap;

/// Inline capacity for a factor's variable scope.
const VARS_INLINE: usize = 4;
/// Inline capacity for a factor's value table (2^`VARS_INLINE` for an
/// all-binary scope).
const VALUES_INLINE: usize = 16;

pub(crate) type Vars = InlineVec<(usize, usize), VARS_INLINE>;
type Values = InlineVec<f64, VALUES_INLINE>;
type Strides = InlineVec<usize, VARS_INLINE>;

/// Row-major strides (last variable fastest) for a sorted scope.
fn strides_of(vars: &[(usize, usize)]) -> Strides {
    let n = vars.len();
    let mut s: Strides = std::iter::repeat_n(1usize, n).collect();
    for i in (0..n.saturating_sub(1)).rev() {
        s[i] = s[i + 1] * vars[i + 1].1;
    }
    s
}

/// The index walk of a product φ·ψ: the product's scope and, for every
/// product entry in row-major order, the φ and ψ entries it multiplies.
/// [`Factor::product`] and the compiled-query recorder
/// (`crate::inference`) both consume this one plan, so a recorded tape
/// multiplies exactly the pairs the `f64` product does, in its order.
pub(crate) struct ProductPlan {
    /// The product's scope: the sorted union of both scopes.
    pub(crate) vars: Vars,
    /// Row-major strides of `vars`.
    strides: Strides,
    /// Per position of `vars`, its stride in φ (0 when φ lacks it).
    left: Strides,
    /// Per position of `vars`, its stride in ψ (0 when ψ lacks it).
    right: Strides,
}

impl ProductPlan {
    pub(crate) fn new(left: &[(usize, usize)], right: &[(usize, usize)]) -> Self {
        let mut vars = Vars::new();
        vars.extend_from_slice(left);
        for (v, c) in right {
            if !vars.iter().any(|(uv, _)| uv == v) {
                vars.push((*v, *c));
            }
        }
        vars.sort_unstable();
        let strides_in = |scope: &[(usize, usize)]| -> Strides {
            let own = strides_of(scope);
            vars.iter()
                .map(|(v, _)| {
                    scope
                        .iter()
                        .position(|(sv, _)| sv == v)
                        .map_or(0, |i| own[i])
                })
                .collect()
        };
        let (left, right) = (strides_in(left), strides_in(right));
        ProductPlan {
            strides: strides_of(&vars),
            vars,
            left,
            right,
        }
    }

    /// `(φ index, ψ index)` for each product entry, in row-major order.
    pub(crate) fn pairs(&self) -> impl Iterator<Item = (usize, usize)> + '_ {
        let total: usize = self.vars.iter().map(|(_, c)| c).product();
        (0..total).map(move |flat| {
            let (mut a, mut b) = (0, 0);
            for (i, st) in self.strides.iter().enumerate() {
                let state = (flat / st) % self.vars[i].1;
                a += state * self.left[i];
                b += state * self.right[i];
            }
            (a, b)
        })
    }
}

/// The index walk of summing one variable out of a factor: the result's
/// scope and length, and the result entry each source entry adds into.
/// Shared by [`Factor::marginalize`] and the compiled-query recorder,
/// which both start every result entry at `0.0` and add the source
/// entries in index order.
pub(crate) struct MarginalPlan {
    /// The result's scope: the source scope without the summed variable.
    pub(crate) vars: Vars,
    /// Number of result entries.
    pub(crate) len: usize,
    /// Stride of the summed variable in the source.
    stride: usize,
    /// `stride` times the summed variable's cardinality.
    block: usize,
}

impl MarginalPlan {
    /// `None` when `scope` does not mention `var` (nothing to sum out).
    pub(crate) fn new(scope: &[(usize, usize)], var: usize) -> Option<Self> {
        let pos = scope.iter().position(|(v, _)| *v == var)?;
        let stride = strides_of(scope)[pos];
        let vars: Vars = scope.iter().copied().filter(|(v, _)| *v != var).collect();
        let len = vars.iter().map(|(_, c)| c).product::<usize>().max(1);
        Some(MarginalPlan {
            vars,
            len,
            stride,
            block: stride * scope[pos].1,
        })
    }

    /// The result entry source entry `idx` adds into.
    pub(crate) fn target(&self, idx: usize) -> usize {
        (idx / self.block) * self.stride + idx % self.stride
    }
}

/// A factor φ(X₁, …, Xₖ) over discrete variables.
///
/// Values are stored row-major with the **last** variable varying fastest.
/// Variables are kept sorted by id, which makes products deterministic.
///
/// # Examples
///
/// ```
/// use sesame_sinadra::factor::Factor;
///
/// // φ(A) with A binary.
/// let fa = Factor::new(vec![(0, 2)], vec![0.3, 0.7]).expect("valid");
/// // φ(A, B) = P(B | A), B binary.
/// let fb = Factor::new(vec![(0, 2), (1, 2)], vec![0.9, 0.1, 0.2, 0.8]).expect("valid");
/// let joint = fa.product(&fb);
/// let pb = joint.marginalize(0);
/// let p = pb.normalized();
/// assert!((p.values()[0] - (0.3 * 0.9 + 0.7 * 0.2)).abs() < 1e-12);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Factor {
    /// Sorted (variable id, cardinality) pairs.
    vars: Vars,
    /// Row-major values, last variable fastest.
    values: Values,
}

/// Errors from factor construction.
#[derive(Debug, Clone, PartialEq)]
pub enum FactorError {
    /// A variable id appeared twice.
    DuplicateVariable(usize),
    /// A cardinality was zero.
    ZeroCardinality(usize),
    /// The value table length does not equal the product of cardinalities.
    WrongLength {
        /// Expected number of entries.
        expected: usize,
        /// Provided number of entries.
        got: usize,
    },
    /// A value was negative or non-finite.
    InvalidValue(f64),
}

impl std::fmt::Display for FactorError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FactorError::DuplicateVariable(v) => write!(f, "variable {v} appears twice"),
            FactorError::ZeroCardinality(v) => write!(f, "variable {v} has zero states"),
            FactorError::WrongLength { expected, got } => {
                write!(f, "value table has {got} entries, expected {expected}")
            }
            FactorError::InvalidValue(v) => write!(f, "invalid factor value {v}"),
        }
    }
}

impl std::error::Error for FactorError {}

impl Factor {
    /// Builds a factor over `vars` (id, cardinality) with the given values
    /// (row-major, **in the order the vars are given**, last fastest).
    /// Variables are re-sorted by id internally, transposing the table as
    /// needed.
    ///
    /// # Errors
    ///
    /// See [`FactorError`].
    pub fn new(vars: Vec<(usize, usize)>, values: Vec<f64>) -> Result<Self, FactorError> {
        let mut seen = BTreeMap::new();
        for (v, c) in &vars {
            if *c == 0 {
                return Err(FactorError::ZeroCardinality(*v));
            }
            if seen.insert(*v, *c).is_some() {
                return Err(FactorError::DuplicateVariable(*v));
            }
        }
        let expected: usize = vars.iter().map(|(_, c)| c).product();
        if values.len() != expected {
            return Err(FactorError::WrongLength {
                expected,
                got: values.len(),
            });
        }
        for v in &values {
            if !v.is_finite() || *v < 0.0 {
                return Err(FactorError::InvalidValue(*v));
            }
        }
        // Re-order variables to sorted-by-id, permuting the value table.
        let sorted: Vec<(usize, usize)> = seen.into_iter().collect();
        if sorted == vars {
            return Ok(Factor {
                vars: sorted.into_iter().collect(),
                values: values.into_iter().collect(),
            });
        }
        let mut out = vec![0.0; values.len()];
        let n = vars.len();
        // Strides in the input layout.
        let mut in_stride = vec![1usize; n];
        for i in (0..n.saturating_sub(1)).rev() {
            in_stride[i] = in_stride[i + 1] * vars[i + 1].1;
        }
        // For each input var, its position in the sorted layout.
        let pos_in_sorted: Vec<usize> = vars
            .iter()
            .map(|(v, _)| sorted.iter().position(|(sv, _)| sv == v).expect("present"))
            .collect();
        let mut out_stride = vec![1usize; n];
        for i in (0..n.saturating_sub(1)).rev() {
            out_stride[i] = out_stride[i + 1] * sorted[i + 1].1;
        }
        for (idx, &val) in values.iter().enumerate() {
            let mut out_idx = 0;
            for (i, st) in in_stride.iter().enumerate() {
                let state = (idx / st) % vars[i].1;
                out_idx += state * out_stride[pos_in_sorted[i]];
            }
            out[out_idx] = val;
        }
        Ok(Factor {
            vars: sorted.into_iter().collect(),
            values: out.into_iter().collect(),
        })
    }

    /// A single-variable factor carrying `weights` verbatim — the
    /// allocation-free constructor the inference hot path uses for
    /// virtual-evidence likelihoods. The caller guarantees
    /// `weights.len() == card` and non-negative finite entries (both
    /// query paths validate before constructing).
    pub(crate) fn single(var: usize, card: usize, weights: &[f64]) -> Self {
        debug_assert_eq!(weights.len(), card);
        let mut vars = Vars::new();
        vars.push((var, card));
        let mut values = Values::new();
        values.extend_from_slice(weights);
        Factor { vars, values }
    }

    /// A factor of 1 over no variables (the product identity).
    pub fn identity() -> Self {
        let mut values = Values::new();
        values.push(1.0);
        Factor {
            vars: Vars::new(),
            values,
        }
    }

    /// The (id, cardinality) pairs, sorted by id.
    pub fn vars(&self) -> &[(usize, usize)] {
        &self.vars
    }

    /// The raw value table.
    pub fn values(&self) -> &[f64] {
        &self.values
    }

    /// Whether the factor mentions variable `var`.
    pub fn contains(&self, var: usize) -> bool {
        self.vars.iter().any(|(v, _)| *v == var)
    }

    fn strides(&self) -> Strides {
        strides_of(&self.vars)
    }

    /// Pointwise product φ·ψ over the union of variables.
    pub fn product(&self, other: &Factor) -> Factor {
        let plan = ProductPlan::new(&self.vars, &other.vars);
        let values = plan
            .pairs()
            .map(|(a, b)| self.values[a] * other.values[b])
            .collect();
        Factor {
            vars: plan.vars,
            values,
        }
    }

    /// Sums out variable `var`. If the factor does not mention `var`, the
    /// factor is returned unchanged.
    pub fn marginalize(&self, var: usize) -> Factor {
        let Some(plan) = MarginalPlan::new(&self.vars, var) else {
            return self.clone();
        };
        let mut values: Values = std::iter::repeat_n(0.0, plan.len).collect();
        for (idx, &val) in self.values.iter().enumerate() {
            values[plan.target(idx)] += val;
        }
        Factor {
            vars: plan.vars,
            values,
        }
    }

    /// Fixes variable `var` to `state`, dropping it from the scope.
    ///
    /// # Panics
    ///
    /// Panics if `state` is out of range for `var`. A factor that does not
    /// mention `var` is returned unchanged.
    pub fn reduce(&self, var: usize, state: usize) -> Factor {
        let Some(pos) = self.vars.iter().position(|(v, _)| *v == var) else {
            return self.clone();
        };
        let card = self.vars[pos].1;
        assert!(state < card, "state {state} out of range for var {var}");
        let strides = self.strides();
        let stride = strides[pos];
        let block = stride * card;
        let new_vars: Vars = self
            .vars
            .iter()
            .copied()
            .filter(|(v, _)| *v != var)
            .collect();
        let mut values = Values::new();
        for outer in 0..self.values.len() / block {
            let base = outer * block + state * stride;
            values.extend_from_slice(&self.values[base..base + stride]);
        }
        Factor {
            vars: new_vars,
            values,
        }
    }

    /// Returns the factor scaled so its entries sum to 1.
    ///
    /// # Panics
    ///
    /// Panics if all entries are zero (the distribution is undefined —
    /// usually impossible evidence).
    pub fn normalized(&self) -> Factor {
        let s: f64 = self.values.iter().sum();
        assert!(s > 0.0, "cannot normalize an all-zero factor");
        Factor {
            vars: self.vars.clone(),
            values: self.values.iter().map(|v| v / s).collect(),
        }
    }

    /// Sum of all entries.
    pub fn sum(&self) -> f64 {
        self.values.iter().sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_validates() {
        assert!(matches!(
            Factor::new(vec![(0, 2), (0, 2)], vec![1.0; 4]),
            Err(FactorError::DuplicateVariable(0))
        ));
        assert!(matches!(
            Factor::new(vec![(0, 0)], vec![]),
            Err(FactorError::ZeroCardinality(0))
        ));
        assert!(matches!(
            Factor::new(vec![(0, 2)], vec![1.0]),
            Err(FactorError::WrongLength {
                expected: 2,
                got: 1
            })
        ));
        assert!(matches!(
            Factor::new(vec![(0, 2)], vec![1.0, -0.5]),
            Err(FactorError::InvalidValue(_))
        ));
    }

    #[test]
    fn unsorted_vars_are_transposed() {
        // φ(B, A) given with B=var1 first; table entries (b, a).
        let f = Factor::new(
            vec![(1, 2), (0, 3)],
            vec![
                // b=0: a=0,1,2
                1.0, 2.0, 3.0, // b=1: a=0,1,2
                4.0, 5.0, 6.0,
            ],
        )
        .unwrap();
        // After sorting vars = [(0,3),(1,2)], layout (a, b).
        assert_eq!(f.vars(), &[(0, 3), (1, 2)]);
        assert_eq!(f.values(), &[1.0, 4.0, 2.0, 5.0, 3.0, 6.0]);
    }

    #[test]
    fn product_of_disjoint_factors_is_outer_product() {
        let fa = Factor::new(vec![(0, 2)], vec![0.3, 0.7]).unwrap();
        let fb = Factor::new(vec![(1, 2)], vec![0.1, 0.9]).unwrap();
        let p = fa.product(&fb);
        assert_eq!(p.vars(), &[(0, 2), (1, 2)]);
        let expect = [0.3 * 0.1, 0.3 * 0.9, 0.7 * 0.1, 0.7 * 0.9];
        for (a, b) in p.values().iter().zip(expect.iter()) {
            assert!((a - b).abs() < 1e-15);
        }
    }

    #[test]
    fn product_with_identity_is_noop() {
        let fa = Factor::new(vec![(0, 3)], vec![0.2, 0.3, 0.5]).unwrap();
        let p = fa.product(&Factor::identity());
        assert_eq!(p, fa);
    }

    #[test]
    fn marginalize_sums_out() {
        let f = Factor::new(vec![(0, 2), (1, 2)], vec![0.1, 0.2, 0.3, 0.4]).unwrap();
        let m0 = f.marginalize(0);
        assert_eq!(m0.vars(), &[(1, 2)]);
        assert!((m0.values()[0] - 0.4).abs() < 1e-15);
        assert!((m0.values()[1] - 0.6).abs() < 1e-15);
        let m1 = f.marginalize(1);
        assert!((m1.values()[0] - 0.3).abs() < 1e-15);
        assert!((m1.values()[1] - 0.7).abs() < 1e-15);
        // Marginalizing an absent var is a no-op.
        assert_eq!(f.marginalize(7), f);
    }

    #[test]
    fn reduce_fixes_a_state() {
        let f = Factor::new(vec![(0, 2), (1, 3)], vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0]).unwrap();
        let r = f.reduce(0, 1);
        assert_eq!(r.vars(), &[(1, 3)]);
        assert_eq!(r.values(), &[4.0, 5.0, 6.0]);
        let r2 = f.reduce(1, 2);
        assert_eq!(r2.vars(), &[(0, 2)]);
        assert_eq!(r2.values(), &[3.0, 6.0]);
    }

    #[test]
    fn chain_rule_recovers_marginal() {
        // P(A): [0.6, 0.4]; P(B|A): A=0 -> [0.9, 0.1], A=1 -> [0.5, 0.5].
        let pa = Factor::new(vec![(0, 2)], vec![0.6, 0.4]).unwrap();
        let pba = Factor::new(vec![(0, 2), (1, 2)], vec![0.9, 0.1, 0.5, 0.5]).unwrap();
        let pb = pa.product(&pba).marginalize(0);
        assert!((pb.values()[0] - (0.6 * 0.9 + 0.4 * 0.5)).abs() < 1e-12);
        assert!((pb.sum() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn normalized_sums_to_one() {
        let f = Factor::new(vec![(0, 2)], vec![2.0, 6.0]).unwrap();
        let n = f.normalized();
        assert!((n.values()[0] - 0.25).abs() < 1e-15);
        assert!((n.sum() - 1.0).abs() < 1e-15);
    }

    #[test]
    #[should_panic(expected = "all-zero")]
    fn normalizing_zero_factor_panics() {
        let f = Factor::new(vec![(0, 2)], vec![0.0, 0.0]).unwrap();
        let _ = f.normalized();
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn reduce_bad_state_panics() {
        let f = Factor::new(vec![(0, 2)], vec![0.5, 0.5]).unwrap();
        let _ = f.reduce(0, 5);
    }

    #[test]
    fn marginalize_to_scalar() {
        let f = Factor::new(vec![(0, 3)], vec![0.2, 0.3, 0.5]).unwrap();
        let s = f.marginalize(0);
        assert!(s.vars().is_empty());
        assert!((s.values()[0] - 1.0).abs() < 1e-15);
    }
}
