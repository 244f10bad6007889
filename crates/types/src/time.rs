//! Simulation time.
//!
//! The whole workspace runs on a discrete, deterministic clock: one
//! [`SimTime`] is a count of milliseconds since mission start. Using integer
//! milliseconds (rather than `f64` seconds) keeps event ordering exact and
//! makes every experiment bit-reproducible.

use std::fmt;
use std::ops::{Add, AddAssign, Sub};

/// A point in simulated time, measured in integer milliseconds since the
/// start of the scenario.
///
/// # Examples
///
/// ```
/// use sesame_types::time::{SimDuration, SimTime};
///
/// let t = SimTime::from_secs_f64(250.0);
/// assert_eq!(t.as_millis(), 250_000);
/// assert_eq!(t + SimDuration::from_millis(500), SimTime::from_millis(250_500));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimTime(u64);

impl SimTime {
    /// The scenario start (t = 0).
    pub const ZERO: SimTime = SimTime(0);

    /// Creates a time from milliseconds since start.
    pub const fn from_millis(ms: u64) -> Self {
        SimTime(ms)
    }

    /// Creates a time from whole seconds since start.
    pub const fn from_secs(s: u64) -> Self {
        SimTime(s * 1000)
    }

    /// Creates a time from fractional seconds, rounding to the nearest
    /// millisecond. Negative inputs clamp to zero.
    pub fn from_secs_f64(s: f64) -> Self {
        SimTime((s.max(0.0) * 1000.0).round() as u64)
    }

    /// Milliseconds since scenario start.
    pub fn as_millis(&self) -> u64 {
        self.0
    }

    /// Seconds since scenario start as a float.
    pub fn as_secs_f64(&self) -> f64 {
        self.0 as f64 / 1000.0
    }

    /// Time elapsed since `earlier`, saturating at zero if `earlier` is in
    /// the future.
    pub fn since(&self, earlier: SimTime) -> SimDuration {
        SimDuration(self.0.saturating_sub(earlier.0))
    }
}

impl fmt::Display for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "t={:.3}s", self.as_secs_f64())
    }
}

impl Add<SimDuration> for SimTime {
    type Output = SimTime;
    fn add(self, rhs: SimDuration) -> SimTime {
        SimTime(self.0 + rhs.0)
    }
}

impl AddAssign<SimDuration> for SimTime {
    fn add_assign(&mut self, rhs: SimDuration) {
        self.0 += rhs.0;
    }
}

impl Sub<SimTime> for SimTime {
    type Output = SimDuration;
    fn sub(self, rhs: SimTime) -> SimDuration {
        SimDuration(self.0.saturating_sub(rhs.0))
    }
}

/// A span of simulated time in integer milliseconds.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimDuration(u64);

impl SimDuration {
    /// The zero-length duration.
    pub const ZERO: SimDuration = SimDuration(0);

    /// Creates a duration from milliseconds.
    pub const fn from_millis(ms: u64) -> Self {
        SimDuration(ms)
    }

    /// Creates a duration from whole seconds.
    pub const fn from_secs(s: u64) -> Self {
        SimDuration(s * 1000)
    }

    /// Creates a duration from fractional seconds, rounding to the nearest
    /// millisecond. Negative inputs clamp to zero.
    pub fn from_secs_f64(s: f64) -> Self {
        SimDuration((s.max(0.0) * 1000.0).round() as u64)
    }

    /// The duration in milliseconds.
    pub fn as_millis(&self) -> u64 {
        self.0
    }

    /// The duration in seconds as a float.
    pub fn as_secs_f64(&self) -> f64 {
        self.0 as f64 / 1000.0
    }
}

impl fmt::Display for SimDuration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.3}s", self.as_secs_f64())
    }
}

impl Add for SimDuration {
    type Output = SimDuration;
    fn add(self, rhs: SimDuration) -> SimDuration {
        SimDuration(self.0 + rhs.0)
    }
}

/// The master clock advanced by the simulator's fixed-step loop.
///
/// # Examples
///
/// ```
/// use sesame_types::time::{SimClock, SimDuration};
///
/// let mut clock = SimClock::with_tick(SimDuration::from_millis(100));
/// clock.tick();
/// clock.tick();
/// assert_eq!(clock.now().as_millis(), 200);
/// ```
#[derive(Debug, Clone)]
pub struct SimClock {
    now: SimTime,
    tick: SimDuration,
}

impl SimClock {
    /// A clock with the workspace-default 100 ms tick.
    pub fn new() -> Self {
        Self::with_tick(SimDuration::from_millis(100))
    }

    /// A clock with a custom tick length.
    ///
    /// # Panics
    ///
    /// Panics if `tick` is zero — a zero-length tick would stall every
    /// fixed-step loop in the workspace.
    pub fn with_tick(tick: SimDuration) -> Self {
        assert!(tick > SimDuration::ZERO, "tick must be non-zero");
        Self {
            now: SimTime::ZERO,
            tick,
        }
    }

    /// Current simulated time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// The fixed tick length.
    pub fn tick_len(&self) -> SimDuration {
        self.tick
    }

    /// Advances the clock by one tick and returns the new time.
    pub fn tick(&mut self) -> SimTime {
        self.now += self.tick;
        self.now
    }
}

impl Default for SimClock {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn time_conversions() {
        assert_eq!(SimTime::from_secs(3).as_millis(), 3000);
        assert_eq!(SimTime::from_secs_f64(1.2345).as_millis(), 1235);
        assert_eq!(SimTime::from_secs_f64(-5.0), SimTime::ZERO);
        assert!((SimTime::from_millis(1500).as_secs_f64() - 1.5).abs() < 1e-12);
    }

    #[test]
    fn duration_arithmetic() {
        let a = SimDuration::from_millis(300);
        let b = SimDuration::from_secs(1);
        assert_eq!((a + b).as_millis(), 1300);
        assert_eq!(SimDuration::from_secs_f64(0.25).as_millis(), 250);
        assert_eq!(SimDuration::from_secs_f64(-1.0), SimDuration::ZERO);
    }

    #[test]
    fn time_ordering_and_subtraction() {
        let t1 = SimTime::from_millis(100);
        let t2 = SimTime::from_millis(400);
        assert!(t1 < t2);
        assert_eq!((t2 - t1).as_millis(), 300);
        // Saturating: earlier - later is zero, not underflow.
        assert_eq!((t1 - t2).as_millis(), 0);
        assert_eq!(t2.since(t1).as_millis(), 300);
    }

    #[test]
    fn clock_advances_by_tick() {
        let mut c = SimClock::new();
        assert_eq!(c.now(), SimTime::ZERO);
        assert_eq!(c.tick_len().as_millis(), 100);
        for i in 1..=10 {
            let t = c.tick();
            assert_eq!(t.as_millis(), i * 100);
        }
    }

    #[test]
    #[should_panic(expected = "tick must be non-zero")]
    fn zero_tick_panics() {
        let _ = SimClock::with_tick(SimDuration::ZERO);
    }

    #[test]
    fn display_formats() {
        assert_eq!(SimTime::from_millis(1500).to_string(), "t=1.500s");
        assert_eq!(SimDuration::from_millis(250).to_string(), "0.250s");
    }
}
