//! Continuous-time Markov chains with a uniformization transient solver.
//!
//! SafeDrones models each UAV subsystem as a small CTMC whose failure
//! states are absorbing. The monitor needs the *transient* distribution —
//! "what is the probability the propulsion system has failed by time t,
//! given the rates observed so far" — which [`Ctmc::transient`] computes by
//! uniformization (Jensen's method): with `Λ ≥ max|q_ii|` and
//! `P = I + Q/Λ`,
//!
//! ```text
//! p(t) = Σ_k  e^{-Λt} (Λt)^k / k!  ·  p(0) P^k
//! ```
//!
//! truncated when the accumulated Poisson mass exceeds `1 − tol`. Rates may
//! change between ticks (temperature jumps, motor failures); the monitor
//! simply advances the distribution piecewise with the current generator.
//!
//! # Step-count bound
//!
//! The truncation point grows with `Λt`; extreme rate inputs (surfaced by
//! the scenario-DSL fuzz corpus) can push `Λt` past 10¹⁴, which would turn
//! one solve into an effective hang. The iteration count is therefore
//! clamped to [`MAX_UNIFORMIZATION_STEPS`]. When the Poisson window lies
//! entirely beyond the clamp the solver returns the DTMC power iterate at
//! the clamp, `p(0)·Pᵏ` with `k = MAX_UNIFORMIZATION_STEPS` — for the
//! absorbing-failure chains SafeDrones uses, the iterate has converged to
//! the long-run distribution well before that many steps, so the answer
//! is the correct `t → ∞` limit rather than a truncation artifact.
//!
//! # Memory discipline
//!
//! All solver entry points funnel into one in-place kernel that works on
//! caller-provided [`UniformizationScratch`] buffers; with a warm scratch
//! (and a warm solver cache) a steady-state solve performs zero heap
//! allocations.

/// A continuous-time Markov chain over states `0..n`.
///
/// # Examples
///
/// ```
/// use sesame_safedrones::markov::Ctmc;
///
/// // Two states: 0 = working, 1 = failed (absorbing), rate 0.1 /s.
/// let mut c = Ctmc::new(2);
/// c.set_rate(0, 1, 0.1);
/// let p = c.transient(&[1.0, 0.0], 10.0);
/// // P(failed by 10 s) = 1 - e^{-1}
/// assert!((p[1] - (1.0 - (-1.0f64).exp())).abs() < 1e-9);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Ctmc {
    n: usize,
    /// Row-major rate matrix; `rates[i*n + j]` is the transition rate
    /// i → j for i ≠ j. Diagonals are derived.
    rates: Vec<f64>,
}

impl Ctmc {
    /// Creates a chain with `n` states and no transitions.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`.
    pub fn new(n: usize) -> Self {
        assert!(n > 0, "chain needs at least one state");
        Ctmc {
            n,
            rates: vec![0.0; n * n],
        }
    }

    /// Number of states.
    pub fn len(&self) -> usize {
        self.n
    }

    /// Whether the chain has no states (never true by construction).
    pub fn is_empty(&self) -> bool {
        self.n == 0
    }

    /// Sets the transition rate `from → to` (per second).
    ///
    /// # Panics
    ///
    /// Panics if `from == to`, if either index is out of range, or if the
    /// rate is negative or non-finite.
    pub fn set_rate(&mut self, from: usize, to: usize, rate: f64) {
        assert!(from < self.n && to < self.n, "state out of range");
        assert!(from != to, "self-transitions are implicit");
        assert!(rate.is_finite() && rate >= 0.0, "rate must be ≥ 0");
        self.rates[from * self.n + to] = rate;
    }

    /// Resets every transition rate to zero without reallocating.
    ///
    /// Per-tick model refreshes (battery temperature/SoC, comms link
    /// quality) rebuild their rate matrix from scratch; clearing the
    /// existing buffer and re-issuing [`Ctmc::set_rate`] calls produces a
    /// chain bit-identical to a fresh [`Ctmc::new`] + `set_rate` sequence
    /// while keeping the steady-state tick allocation-free (see
    /// DESIGN.md, "Hot-loop memory discipline").
    pub fn clear_rates(&mut self) {
        self.rates.fill(0.0);
    }

    /// The transition rate `from → to`.
    pub fn rate(&self, from: usize, to: usize) -> f64 {
        if from == to {
            0.0
        } else {
            self.rates[from * self.n + to]
        }
    }

    /// Total exit rate of state `i` (the negated diagonal of the
    /// generator).
    pub fn exit_rate(&self, i: usize) -> f64 {
        (0..self.n).map(|j| self.rate(i, j)).sum()
    }

    /// Whether state `i` is absorbing (no outgoing transitions).
    pub fn is_absorbing(&self, i: usize) -> bool {
        self.exit_rate(i) == 0.0
    }

    /// Transient distribution after `t` seconds starting from `p0`,
    /// computed by uniformization with truncation tolerance `1e-12`.
    ///
    /// # Panics
    ///
    /// Panics if `p0.len() != self.len()`, if `t` is negative/non-finite,
    /// or if `p0` is not (approximately) a probability vector.
    pub fn transient(&self, p0: &[f64], t: f64) -> Vec<f64> {
        self.transient_with_tol(p0, t, 1e-12)
    }

    /// [`Ctmc::transient`] with an explicit truncation tolerance.
    pub fn transient_with_tol(&self, p0: &[f64], t: f64, tol: f64) -> Vec<f64> {
        // The profile is the exact same exit-rate sums and Λ the naive
        // solver used to recompute inline, so the result is bit-identical.
        let profile = SolveProfile::build(self);
        let mut out = Vec::new();
        let mut scratch = UniformizationScratch::default();
        self.uniformize_into(p0, 1, t, tol, &profile, &mut out, &mut scratch);
        out
    }

    /// The shared in-place uniformization kernel: advances `m` stacked
    /// distributions (`p0s[d*n..][..n]` is distribution `d`) by `t`
    /// seconds in one state-major SoA pass, writing the results to `out`
    /// in the same dist-major layout. All work happens in `scratch`; with
    /// warm buffers the kernel performs zero heap allocations.
    ///
    /// Bit-identity: the Poisson weights and the truncation point depend
    /// only on `Λt`, so they are shared by the whole batch, and each
    /// distribution's accumulation sequence (diagonal term first, then
    /// off-diagonal targets in ascending order, sources in ascending
    /// order, weighted sum in state order) is exactly the scalar solver's
    /// order — a batch of `m` is bit-identical to `m` scalar solves.
    #[allow(clippy::too_many_arguments)]
    fn uniformize_into(
        &self,
        p0s: &[f64],
        m: usize,
        t: f64,
        tol: f64,
        profile: &SolveProfile,
        out: &mut Vec<f64>,
        scratch: &mut UniformizationScratch,
    ) {
        let n = self.n;
        assert_eq!(p0s.len(), n * m, "initial distribution size mismatch");
        assert!(t.is_finite() && t >= 0.0, "time must be ≥ 0");
        for d in 0..m {
            let p0 = &p0s[d * n..(d + 1) * n];
            let sum: f64 = p0.iter().sum();
            assert!(
                (sum - 1.0).abs() < 1e-6 && p0.iter().all(|p| *p >= -1e-12),
                "p0 must be a probability vector (sums to {sum})"
            );
        }
        if t == 0.0 || profile.lambda_raw == 0.0 {
            // Nothing moves (zero step, or no transitions anywhere).
            out.clear();
            out.extend_from_slice(p0s);
            return;
        }
        // Slight inflation improves numerical behaviour.
        let lambda = profile.lambda_raw * 1.02;
        let lt = lambda * t;

        // State-major working set: v[i*m + d] is state i of distribution
        // d, so the innermost per-distribution loops run over contiguous
        // memory and vectorize.
        let v = &mut scratch.v;
        v.clear();
        v.resize(n * m, 0.0);
        for d in 0..m {
            for i in 0..n {
                v[i * m + d] = p0s[d * n + i];
            }
        }
        scratch.next.clear();
        scratch.next.resize(n * m, 0.0);
        scratch.acc.clear();
        scratch.acc.resize(n * m, 0.0);

        // Poisson weights e^{-lt} lt^k / k!, computed iteratively in log
        // space via scaling to avoid under/overflow for large lt. The
        // truncation point is clamped (see the module docs): beyond the
        // clamp the weighted sum may capture no mass at all, in which
        // case the power iterate at the clamp is the answer.
        let mut log_w = -lt; // log weight of k = 0
        let mut mass = 0.0;
        let k_max = (((lt + 8.0 * lt.sqrt() + 20.0).ceil()) as usize).min(MAX_UNIFORMIZATION_STEPS);
        for k in 0..=k_max {
            if k > 0 {
                log_w += (lt).ln() - (k as f64).ln();
                // One DTMC step, next = v·P with P = I + Q/Λ, preserving
                // the scalar accumulation order per distribution.
                for x in scratch.next.iter_mut() {
                    *x = 0.0;
                }
                for i in 0..n {
                    let exit = profile.exits[i];
                    let diag = 1.0 - exit / lambda;
                    let row = i * m;
                    for d in 0..m {
                        let vi = scratch.v[row + d];
                        if vi != 0.0 {
                            scratch.next[row + d] += vi * diag;
                        }
                    }
                    for j in 0..n {
                        if i == j {
                            continue;
                        }
                        let r = self.rates[i * n + j];
                        if r > 0.0 {
                            let dst = j * m;
                            for d in 0..m {
                                let vi = scratch.v[row + d];
                                if vi != 0.0 {
                                    scratch.next[dst + d] += vi * r / lambda;
                                }
                            }
                        }
                    }
                }
                std::mem::swap(&mut scratch.v, &mut scratch.next);
            }
            let w = log_w.exp();
            if w > 0.0 {
                for (a, vi) in scratch.acc.iter_mut().zip(scratch.v.iter()) {
                    *a += w * vi;
                }
                mass += w;
            }
            if 1.0 - mass < tol {
                break;
            }
        }
        out.clear();
        out.resize(n * m, 0.0);
        for d in 0..m {
            // Renormalize the tiny truncation remainder, per distribution.
            let mut s = 0.0;
            for i in 0..n {
                s += scratch.acc[i * m + d];
            }
            if s > 0.0 {
                for i in 0..n {
                    out[d * n + i] = scratch.acc[i * m + d] / s;
                }
            } else {
                // The whole Poisson window sat beyond the step clamp: the
                // weighted sum captured no mass. Return the power iterate
                // at the clamp — the t → ∞ limit for chains that have
                // converged by then (see the module docs).
                for i in 0..n {
                    out[d * n + i] = scratch.v[i * m + d];
                }
            }
        }
    }
}

/// Upper bound on uniformization steps per solve. `Λt` beyond ~10⁵ would
/// otherwise iterate once per expected Poisson event — extreme (but
/// finite) rate inputs from the scenario-DSL fuzz corpus produced `Λt`
/// past 10¹⁴, an effective hang. See the module docs for the semantics of
/// a clamped solve.
pub const MAX_UNIFORMIZATION_STEPS: usize = 100_000;

/// Reusable working buffers for the in-place uniformization kernel. Keep
/// one per solver call site and reuse it across ticks: after the first
/// (warm-up) solve the buffers hold their high-water capacity and
/// steady-state solves allocate nothing.
#[derive(Debug, Clone, Default)]
pub struct UniformizationScratch {
    v: Vec<f64>,
    next: Vec<f64>,
    acc: Vec<f64>,
}

/// Hit/miss counters of a process-level solver cache.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SolverCacheStats {
    /// Solves served with a profile reused from an earlier tick.
    pub hits: u64,
    /// Solves that had to rebuild the profile (rate matrix changed).
    pub misses: u64,
}

/// The memoized, rate-matrix-keyed part of a uniformization solve: the
/// per-state exit rates and the (uninflated) uniformization rate Λ. Both
/// depend only on the rate matrix, so they are reusable across ticks as
/// long as the rates are bit-identical.
#[derive(Debug, Clone)]
struct SolveProfile {
    rates_bits: Vec<u64>,
    exits: Vec<f64>,
    lambda_raw: f64,
}

impl SolveProfile {
    fn build(chain: &Ctmc) -> Self {
        let mut profile = SolveProfile {
            rates_bits: Vec::new(),
            exits: Vec::new(),
            lambda_raw: 0.0,
        };
        profile.refresh(chain);
        profile
    }

    /// Rebuilds the profile for `chain` in place, reusing the buffers'
    /// capacity, so a rate change on a warm process allocates nothing.
    fn refresh(&mut self, chain: &Ctmc) {
        self.rates_bits.clear();
        self.rates_bits
            .extend(chain.rates.iter().map(|r| r.to_bits()));
        self.exits.clear();
        self.exits
            .extend((0..chain.len()).map(|i| chain.exit_rate(i)));
        self.lambda_raw = self.exits.iter().copied().fold(0.0_f64, f64::max);
    }

    fn matches(&self, chain: &Ctmc) -> bool {
        self.rates_bits.len() == chain.rates.len()
            && self
                .rates_bits
                .iter()
                .zip(chain.rates.iter())
                .all(|(b, r)| *b == r.to_bits())
    }
}

/// A CTMC paired with a live state distribution, advanced tick by tick.
/// This is the "complex basic event" carrier: rates can be swapped at any
/// tick and the distribution keeps integrating forward.
///
/// With [`CtmcProcess::enable_solver_cache`] the per-solve exit-rate and
/// uniformization-rate computations are memoized keyed on the exact bit
/// pattern of the rate matrix (the failure-rate vector); the cached solve
/// is bit-identical to the naive one, so enabling the cache never changes
/// the belief trajectory.
#[derive(Debug, Clone)]
pub struct CtmcProcess {
    chain: Ctmc,
    dist: Vec<f64>,
    cache: Option<Box<SolveProfile>>,
    cache_enabled: bool,
    stats: SolverCacheStats,
    /// In-place solver working set, reused across ticks so steady-state
    /// advances allocate nothing. Pure accelerator state: excluded from
    /// `PartialEq` along with the cache.
    scratch: UniformizationScratch,
    /// Solve output buffer, swapped with `dist` after each advance.
    solve_out: Vec<f64>,
}

impl PartialEq for CtmcProcess {
    fn eq(&self, other: &Self) -> bool {
        // The solver cache is a pure accelerator; two processes with the
        // same chain and belief are the same process.
        self.chain == other.chain && self.dist == other.dist
    }
}

impl CtmcProcess {
    /// Starts the process in state `initial` with certainty.
    ///
    /// # Panics
    ///
    /// Panics if `initial` is out of range.
    pub fn new(chain: Ctmc, initial: usize) -> Self {
        assert!(initial < chain.len(), "initial state out of range");
        let mut dist = vec![0.0; chain.len()];
        dist[initial] = 1.0;
        CtmcProcess {
            chain,
            dist,
            cache: None,
            cache_enabled: false,
            stats: SolverCacheStats::default(),
            scratch: UniformizationScratch::default(),
            solve_out: Vec::new(),
        }
    }

    /// Turns on the rate-keyed solver cache for subsequent
    /// [`CtmcProcess::advance`] calls.
    pub fn enable_solver_cache(&mut self) {
        self.cache_enabled = true;
    }

    /// Hit/miss counters of the solver cache (all zero when disabled).
    pub fn solver_cache_stats(&self) -> SolverCacheStats {
        self.stats
    }

    /// The live distribution.
    pub fn distribution(&self) -> &[f64] {
        &self.dist
    }

    /// Mutable access to the chain, for runtime rate updates.
    pub fn chain_mut(&mut self) -> &mut Ctmc {
        &mut self.chain
    }

    /// The chain.
    pub fn chain(&self) -> &Ctmc {
        &self.chain
    }

    /// Advances the distribution by `dt_secs` with the current rates.
    ///
    /// When the solver cache is enabled, the exit-rate/uniformization-rate
    /// profile is reused as long as the rate matrix is bit-identical to
    /// the one the profile was built from; callers that mutate rates via
    /// [`CtmcProcess::chain_mut`] therefore self-invalidate the cache.
    pub fn advance(&mut self, dt_secs: f64) {
        if !self.cache_enabled {
            self.dist = self.chain.transient(&self.dist, dt_secs);
            return;
        }
        let profile = match &mut self.cache {
            Some(profile) if profile.matches(&self.chain) => {
                self.stats.hits += 1;
                profile
            }
            Some(profile) => {
                profile.refresh(&self.chain);
                self.stats.misses += 1;
                profile
            }
            slot @ None => {
                self.stats.misses += 1;
                slot.insert(Box::new(SolveProfile::build(&self.chain)))
            }
        };
        // Solve in place through the persistent scratch: with a warm
        // cache and warm buffers this path performs zero heap
        // allocations. Bit-identical to the allocating path (same kernel).
        self.chain.uniformize_into(
            &self.dist,
            1,
            dt_secs,
            1e-12,
            profile,
            &mut self.solve_out,
            &mut self.scratch,
        );
        std::mem::swap(&mut self.dist, &mut self.solve_out);
    }

    /// Probability mass currently in the given states (e.g. the absorbing
    /// failure states).
    pub fn mass_in(&self, states: &[usize]) -> f64 {
        states.iter().map(|&s| self.dist[s]).sum()
    }

    /// Collapses the distribution back to certainty in `state` — used when
    /// a failure is *observed* (diagnosis replaces belief).
    ///
    /// # Panics
    ///
    /// Panics if `state` is out of range.
    pub fn observe_state(&mut self, state: usize) {
        assert!(state < self.chain.len(), "state out of range");
        self.dist.iter_mut().for_each(|p| *p = 0.0);
        self.dist[state] = 1.0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn two_state(rate: f64) -> Ctmc {
        let mut c = Ctmc::new(2);
        c.set_rate(0, 1, rate);
        c
    }

    #[test]
    fn exponential_failure_matches_closed_form() {
        let c = two_state(0.05);
        for t in [0.0, 1.0, 10.0, 50.0, 200.0] {
            let p = c.transient(&[1.0, 0.0], t);
            let expect = 1.0 - (-0.05 * t).exp();
            assert!(
                (p[1] - expect).abs() < 1e-9,
                "t={t}: got {} want {expect}",
                p[1]
            );
            assert!((p[0] + p[1] - 1.0).abs() < 1e-9);
        }
    }

    #[test]
    fn extreme_rates_hit_the_step_clamp_and_still_absorb() {
        // Λt ≈ 1.02e15 here; unclamped uniformization would iterate once
        // per expected Poisson event — an effective hang surfaced by the
        // scenario-DSL fuzz corpus. The clamp must keep the solve prompt
        // and return the converged (fully absorbed) distribution.
        let c = two_state(1e12);
        let p = c.transient(&[1.0, 0.0], 1000.0);
        assert!((p.iter().sum::<f64>() - 1.0).abs() < 1e-9, "stochastic");
        assert!(p[1] > 1.0 - 1e-9, "mass must be absorbed in the limit");

        // A clamped repairable chain lands on its steady state
        // p_fail = λ/(λ+μ) instead of a truncation artifact.
        let mut c = Ctmc::new(2);
        c.set_rate(0, 1, 2e11);
        c.set_rate(1, 0, 8e11);
        let p = c.transient(&[1.0, 0.0], 1e6);
        assert!((p[1] - 0.2).abs() < 1e-6, "steady state, got {}", p[1]);
    }

    #[test]
    fn moderate_solves_stay_below_the_clamp() {
        // The monitor's realistic Λt values truncate after tens of steps,
        // far below the clamp, so clamping changes nothing there.
        let lt_max = 10.0_f64; // rates ≤ ~0.1/s, dt ≤ ~100 s
        let k = (lt_max + 8.0 * lt_max.sqrt() + 20.0).ceil() as usize;
        assert!(k < MAX_UNIFORMIZATION_STEPS / 100);
    }

    #[test]
    fn batched_kernel_is_bit_identical_to_scalar_solves() {
        let mut c = Ctmc::new(4);
        c.set_rate(0, 1, 0.3);
        c.set_rate(0, 2, 0.05);
        c.set_rate(1, 0, 0.4);
        c.set_rate(1, 3, 0.2);
        c.set_rate(2, 3, 0.6);
        let profile = SolveProfile::build(&c);

        // Distinct distributions sharing the chain and the step, stacked
        // dist-major as the kernel expects.
        let dists: Vec<Vec<f64>> = vec![
            vec![1.0, 0.0, 0.0, 0.0],
            vec![0.25, 0.25, 0.25, 0.25],
            vec![0.0, 0.7, 0.3, 0.0],
            c.transient(&[1.0, 0.0, 0.0, 0.0], 1.0),
        ];
        let stacked: Vec<f64> = dists.concat();
        let mut out = Vec::new();
        let mut scratch = UniformizationScratch::default();
        c.uniformize_into(
            &stacked,
            dists.len(),
            2.5,
            1e-12,
            &profile,
            &mut out,
            &mut scratch,
        );

        for (d, dist) in dists.iter().enumerate() {
            let scalar = c.transient(dist, 2.5);
            let batched = &out[d * 4..(d + 1) * 4];
            for i in 0..4 {
                assert_eq!(
                    scalar[i].to_bits(),
                    batched[i].to_bits(),
                    "dist {d} state {i}: batched must be bit-identical"
                );
            }
        }
    }

    #[test]
    fn steady_state_advance_allocates_nothing_after_warmup() {
        // Indirect check: the scratch high-water marks stop growing after
        // the first cached solve (the allocation-regression test in
        // sesame-bench pins the stronger global-allocator property).
        let mut p = CtmcProcess::new(two_state(0.05), 0);
        p.enable_solver_cache();
        p.advance(1.0);
        let caps = (
            p.scratch.v.capacity(),
            p.scratch.next.capacity(),
            p.scratch.acc.capacity(),
            p.solve_out.capacity(),
        );
        for _ in 0..100 {
            p.advance(1.0);
        }
        assert_eq!(
            caps,
            (
                p.scratch.v.capacity(),
                p.scratch.next.capacity(),
                p.scratch.acc.capacity(),
                p.solve_out.capacity(),
            ),
            "warm buffers must not regrow"
        );
        assert_eq!(p.solver_cache_stats().misses, 1);
    }

    #[test]
    fn absorbing_state_retains_mass() {
        let c = two_state(1.0);
        let p = c.transient(&[0.0, 1.0], 100.0);
        assert!((p[1] - 1.0).abs() < 1e-12);
    }

    #[test]
    fn birth_death_chain_conserves_probability() {
        // 0 -> 1 -> 2 (absorbing), plus repair 1 -> 0.
        let mut c = Ctmc::new(3);
        c.set_rate(0, 1, 0.3);
        c.set_rate(1, 0, 0.5);
        c.set_rate(1, 2, 0.2);
        let p = c.transient(&[1.0, 0.0, 0.0], 25.0);
        assert!((p.iter().sum::<f64>() - 1.0).abs() < 1e-9);
        assert!(p[2] > 0.5, "most mass should be absorbed eventually");
        assert!(c.is_absorbing(2));
        assert!(!c.is_absorbing(0));
    }

    #[test]
    fn repairable_system_approaches_steady_state() {
        // Working <-> failed with repair; steady state p_fail = λ/(λ+μ).
        let mut c = Ctmc::new(2);
        c.set_rate(0, 1, 0.1);
        c.set_rate(1, 0, 0.4);
        let p = c.transient(&[1.0, 0.0], 500.0);
        assert!((p[1] - 0.2).abs() < 1e-6, "p_fail = {}", p[1]);
    }

    #[test]
    fn large_lambda_t_is_stable() {
        // Fast rates over long horizons stress the Poisson truncation.
        let mut c = Ctmc::new(2);
        c.set_rate(0, 1, 50.0);
        c.set_rate(1, 0, 50.0);
        let p = c.transient(&[1.0, 0.0], 10.0);
        assert!((p[0] - 0.5).abs() < 1e-6);
        assert!((p.iter().sum::<f64>() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn zero_time_returns_initial() {
        let c = two_state(0.1);
        assert_eq!(c.transient(&[0.3, 0.7], 0.0), vec![0.3, 0.7]);
    }

    #[test]
    fn piecewise_advancement_equals_single_solve() {
        let c = two_state(0.02);
        let mut proc = CtmcProcess::new(c.clone(), 0);
        for _ in 0..100 {
            proc.advance(1.0);
        }
        let direct = c.transient(&[1.0, 0.0], 100.0);
        assert!((proc.distribution()[1] - direct[1]).abs() < 1e-8);
    }

    #[test]
    fn rate_swap_mid_flight() {
        let mut proc = CtmcProcess::new(two_state(0.0), 0);
        proc.advance(100.0);
        assert!(proc.mass_in(&[1]) < 1e-12, "no failures at zero rate");
        proc.chain_mut().set_rate(0, 1, 0.1);
        proc.advance(10.0);
        let expect = 1.0 - (-1.0f64).exp();
        assert!((proc.mass_in(&[1]) - expect).abs() < 1e-9);
    }

    #[test]
    fn observe_state_collapses_belief() {
        let mut proc = CtmcProcess::new(two_state(0.5), 0);
        proc.advance(5.0);
        proc.observe_state(0);
        assert_eq!(proc.distribution(), &[1.0, 0.0]);
    }

    #[test]
    #[should_panic(expected = "rate must be ≥ 0")]
    fn negative_rate_panics() {
        let mut c = Ctmc::new(2);
        c.set_rate(0, 1, -1.0);
    }

    #[test]
    #[should_panic(expected = "probability vector")]
    fn bad_initial_distribution_panics() {
        let c = two_state(0.1);
        let _ = c.transient(&[0.5, 0.1], 1.0);
    }

    #[test]
    #[should_panic(expected = "self-transitions")]
    fn self_transition_panics() {
        let mut c = Ctmc::new(2);
        c.set_rate(1, 1, 0.1);
    }

    /// A four-state chain with asymmetric rates, exercised over a mixed
    /// schedule of advances and mid-flight rate swaps: the cached solver
    /// must track the naive one bit for bit and self-invalidate on every
    /// rate mutation.
    #[test]
    fn solver_cache_is_bit_identical_and_self_invalidating() {
        let mut chain = Ctmc::new(4);
        chain.set_rate(0, 1, 0.3);
        chain.set_rate(0, 2, 0.05);
        chain.set_rate(1, 2, 0.7);
        chain.set_rate(1, 3, 0.01);
        chain.set_rate(2, 3, 1.3);
        let mut naive = CtmcProcess::new(chain.clone(), 0);
        let mut cached = CtmcProcess::new(chain, 0);
        cached.enable_solver_cache();

        let dts = [0.1, 0.1, 2.5, 0.0, 0.1, 7.0, 0.1, 0.1];
        for (k, dt) in dts.iter().enumerate() {
            if k == 4 {
                naive.chain_mut().set_rate(0, 1, 0.9);
                cached.chain_mut().set_rate(0, 1, 0.9);
            }
            naive.advance(*dt);
            cached.advance(*dt);
            let bits = |p: &CtmcProcess| -> Vec<u64> {
                p.distribution().iter().map(|x| x.to_bits()).collect()
            };
            assert_eq!(bits(&naive), bits(&cached), "diverged at step {k}");
        }
        let stats = cached.solver_cache_stats();
        assert_eq!(stats.misses, 2, "initial build + one rate-swap rebuild");
        assert_eq!(stats.hits as usize, dts.len() - 2);
        assert_eq!(naive.solver_cache_stats(), SolverCacheStats::default());
    }
}
