//! Markov propulsion-system reliability with reconfiguration.
//!
//! Implements the Markov-process propulsion model SafeDrones builds on
//! (\[30\] in the paper): the chain's states count failed motors; a
//! multirotor with `n` motors tolerates up to `t` motor losses thanks to
//! controller reconfiguration (quad: 0, hexa: 1, octa: 2), so state `t + 1`
//! is the absorbing "loss of controllability" state. From state `i`, the
//! failure rate is `(n − i)·λ_m` — every surviving motor can fail next —
//! optionally inflated by a degradation factor once the system is flying
//! reconfigured.

use crate::markov::{Ctmc, CtmcProcess};

/// Supported airframe motor layouts.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum MotorLayout {
    /// Four motors, no tolerance to motor loss.
    Quad,
    /// Six motors, tolerates one motor loss after reconfiguration.
    Hexa,
    /// Eight motors, tolerates two motor losses after reconfiguration.
    Octa,
}

impl MotorLayout {
    /// Number of motors.
    pub fn motor_count(&self) -> usize {
        match self {
            MotorLayout::Quad => 4,
            MotorLayout::Hexa => 6,
            MotorLayout::Octa => 8,
        }
    }

    /// Motor losses tolerated through reconfiguration.
    pub fn tolerated_failures(&self) -> usize {
        match self {
            MotorLayout::Quad => 0,
            MotorLayout::Hexa => 1,
            MotorLayout::Octa => 2,
        }
    }
}

/// The propulsion reliability model: a [`CtmcProcess`] whose states are
/// failed-motor counts.
///
/// # Examples
///
/// ```
/// use sesame_safedrones::propulsion::{MotorLayout, PropulsionModel};
///
/// let mut hexa = PropulsionModel::new(MotorLayout::Hexa, 1e-6);
/// hexa.advance(3600.0); // one hour of flight
/// let pof = hexa.probability_of_failure();
/// assert!(pof > 0.0 && pof < 0.01);
/// ```
#[derive(Debug, Clone)]
pub struct PropulsionModel {
    layout: MotorLayout,
    lambda_motor: f64,
    degradation: f64,
    process: CtmcProcess,
    observed_failures: usize,
}

impl PropulsionModel {
    /// Creates the model for `layout` with per-motor failure rate
    /// `lambda_motor` (per second) and a degradation factor of 1.5 applied
    /// to rates in reconfigured states.
    ///
    /// # Panics
    ///
    /// Panics if `lambda_motor` is negative or non-finite.
    pub fn new(layout: MotorLayout, lambda_motor: f64) -> Self {
        Self::with_degradation(layout, lambda_motor, 1.5)
    }

    /// Creates the model with an explicit degradation factor (`≥ 1`)
    /// applied once the airframe flies reconfigured.
    ///
    /// # Panics
    ///
    /// Panics on non-finite/negative `lambda_motor` or `degradation < 1`.
    pub fn with_degradation(layout: MotorLayout, lambda_motor: f64, degradation: f64) -> Self {
        assert!(
            lambda_motor.is_finite() && lambda_motor >= 0.0,
            "motor failure rate must be ≥ 0"
        );
        assert!(degradation >= 1.0, "degradation factor must be ≥ 1");
        let chain = Self::build_chain(layout, lambda_motor, degradation);
        PropulsionModel {
            layout,
            lambda_motor,
            degradation,
            process: CtmcProcess::new(chain, 0),
            observed_failures: 0,
        }
    }

    fn build_chain(layout: MotorLayout, lambda: f64, degradation: f64) -> Ctmc {
        let n = layout.motor_count();
        let t = layout.tolerated_failures();
        // States 0..=t are operational (i = failed motors); t+1 absorbs.
        let mut chain = Ctmc::new(t + 2);
        for i in 0..=t {
            let stress = if i == 0 { 1.0 } else { degradation };
            chain.set_rate(i, i + 1, (n - i) as f64 * lambda * stress);
        }
        chain
    }

    /// The airframe layout.
    pub fn layout(&self) -> MotorLayout {
        self.layout
    }

    /// The per-motor failure rate, per second.
    pub fn lambda_motor(&self) -> f64 {
        self.lambda_motor
    }

    /// The degradation factor applied in reconfigured states.
    pub fn degradation(&self) -> f64 {
        self.degradation
    }

    /// Advances the belief by `dt_secs` of flight time.
    pub fn advance(&mut self, dt_secs: f64) {
        self.process.advance(dt_secs);
    }

    /// Enables the bit-identical rate-keyed solver cache on the
    /// underlying Markov process (see [`CtmcProcess::enable_solver_cache`]).
    pub fn enable_solver_cache(&mut self) {
        self.process.enable_solver_cache();
    }

    /// Hit/miss counters of the solver cache.
    pub fn solver_cache_stats(&self) -> crate::markov::SolverCacheStats {
        self.process.solver_cache_stats()
    }

    /// Probability that controllability has been lost by now.
    pub fn probability_of_failure(&self) -> f64 {
        let fail_state = self.layout.tolerated_failures() + 1;
        self.process.mass_in(&[fail_state])
    }

    /// Incorporates an *observed* motor failure (diagnosis from telemetry):
    /// the belief collapses onto the corresponding state. Observing more
    /// failures than the layout tolerates collapses onto the absorbing
    /// failure state.
    pub fn observe_motor_failures(&mut self, failed: usize) {
        let t = self.layout.tolerated_failures();
        let state = failed.min(t + 1);
        self.process.observe_state(state);
        self.observed_failures = failed;
    }

    /// The last observed failed-motor count.
    pub fn observed_failures(&self) -> usize {
        self.observed_failures
    }

    /// Probability of losing controllability within a further `horizon_secs`
    /// from the current belief (prognosis without mutating the belief).
    pub fn pof_within(&self, horizon_secs: f64) -> f64 {
        let fail_state = self.layout.tolerated_failures() + 1;
        let dist = self
            .process
            .chain()
            .transient(self.process.distribution(), horizon_secs);
        dist[fail_state]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn layouts_expose_expected_counts() {
        assert_eq!(MotorLayout::Quad.motor_count(), 4);
        assert_eq!(MotorLayout::Hexa.motor_count(), 6);
        assert_eq!(MotorLayout::Octa.motor_count(), 8);
        assert_eq!(MotorLayout::Quad.tolerated_failures(), 0);
        assert_eq!(MotorLayout::Hexa.tolerated_failures(), 1);
        assert_eq!(MotorLayout::Octa.tolerated_failures(), 2);
    }

    #[test]
    fn quad_pof_matches_closed_form() {
        // Quad: failure = any of 4 motors fails; PoF(t) = 1 - e^{-4λt}.
        let lambda = 1e-4;
        let mut m = PropulsionModel::new(MotorLayout::Quad, lambda);
        m.advance(1000.0);
        let expect = 1.0 - (-4.0 * lambda * 1000.0f64).exp();
        assert!((m.probability_of_failure() - expect).abs() < 1e-9);
    }

    #[test]
    fn redundancy_ordering_holds() {
        // For the same per-motor rate and mission time, more tolerance means
        // lower PoF despite more motors.
        let lambda = 1e-5;
        let t = 3600.0;
        let pof = |layout| {
            let mut m = PropulsionModel::new(layout, lambda);
            m.advance(t);
            m.probability_of_failure()
        };
        let (q, h, o) = (
            pof(MotorLayout::Quad),
            pof(MotorLayout::Hexa),
            pof(MotorLayout::Octa),
        );
        assert!(q > h, "quad {q} should exceed hexa {h}");
        assert!(h > o, "hexa {h} should exceed octa {o}");
    }

    #[test]
    fn observed_failure_jumps_pof() {
        let mut m = PropulsionModel::new(MotorLayout::Hexa, 1e-4);
        m.advance(60.0);
        let before = m.pof_within(600.0);
        m.observe_motor_failures(1);
        let after = m.pof_within(600.0);
        assert!(
            after > before * 2.0,
            "reconfigured flight must look much riskier: {before} -> {after}"
        );
        assert_eq!(m.observed_failures(), 1);
    }

    #[test]
    fn exceeding_tolerance_is_certain_failure() {
        let mut m = PropulsionModel::new(MotorLayout::Hexa, 1e-4);
        m.observe_motor_failures(2);
        assert!((m.probability_of_failure() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn pof_within_does_not_mutate() {
        let mut m = PropulsionModel::new(MotorLayout::Octa, 1e-4);
        m.advance(100.0);
        let p1 = m.probability_of_failure();
        let _ = m.pof_within(10_000.0);
        assert_eq!(m.probability_of_failure(), p1);
    }

    #[test]
    fn zero_rate_never_fails() {
        let mut m = PropulsionModel::new(MotorLayout::Quad, 0.0);
        m.advance(1e6);
        assert_eq!(m.probability_of_failure(), 0.0);
    }

    #[test]
    #[should_panic(expected = "degradation")]
    fn degradation_below_one_panics() {
        let _ = PropulsionModel::with_degradation(MotorLayout::Quad, 1e-4, 0.5);
    }
}
