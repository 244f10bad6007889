//! Phase-scoped timing for the platform tick loop.
//!
//! A [`TickSpan`] is opened at the top of `Platform::step`, moved
//! through the loop's phases with [`TickSpan::enter`], and flushed into
//! a [`MetricsRegistry`] at the bottom with [`TickSpan::finish`]. It
//! accumulates laps locally and only touches the registry once, so the
//! platform can hold `&mut` borrows of its subsystems mid-tick without
//! fighting the metrics borrow.

use crate::metrics::MetricsRegistry;
use std::time::{Duration, Instant};

/// Canonical phase names of the platform tick loop, in execution
/// order. Kept here so the instrumentation, the docs and the
/// experiments summary all agree on spelling.
pub mod phase {
    pub const SIM_STEP: &str = "sim_step";
    pub const SENSE_PUBLISH: &str = "sense_publish";
    pub const EDDI_EVAL: &str = "eddi_eval";
    pub const AIRSPACE: &str = "airspace";
    pub const BUS_STEP: &str = "bus_step";
    pub const SECURITY: &str = "security";
    pub const CL_LANDING: &str = "cl_landing";
    pub const CONSERT_COMPOSE: &str = "consert_compose";
    pub const DECIDE: &str = "decide";
    pub const BOOKKEEPING: &str = "bookkeeping";

    /// All phases in tick order.
    pub const ALL: [&str; 10] = [
        SIM_STEP,
        SENSE_PUBLISH,
        EDDI_EVAL,
        AIRSPACE,
        BUS_STEP,
        SECURITY,
        CL_LANDING,
        CONSERT_COMPOSE,
        DECIDE,
        BOOKKEEPING,
    ];
}

/// Histogram name for a phase's per-tick duration in microseconds.
pub fn phase_metric(name: &str) -> String {
    format!("tick.phase.{name}")
}

/// [`phase_metric`] of each of [`phase::ALL`], spelled out so
/// [`TickSpan::finish`] observes without building a name.
const PHASE_METRICS: [&str; 10] = [
    "tick.phase.sim_step",
    "tick.phase.sense_publish",
    "tick.phase.eddi_eval",
    "tick.phase.airspace",
    "tick.phase.bus_step",
    "tick.phase.security",
    "tick.phase.cl_landing",
    "tick.phase.consert_compose",
    "tick.phase.decide",
    "tick.phase.bookkeeping",
];

/// Name prefixes of every metric fed from the wall clock rather than
/// simulation state (the phase timings this module flushes). Everything
/// else in the registry is bit-deterministic under a fixed seed;
/// determinism gates strip these prefixes before comparing
/// (see `MetricsSnapshot::without_wall_clock`).
pub const WALL_CLOCK_PREFIXES: [&str; 2] = ["tick.phase.", "tick.total"];

/// A scoped, phase-segmented timer over one platform tick. Laps are
/// summed per phase in a fixed array, so a tick's span allocates nothing.
#[derive(Debug)]
pub struct TickSpan {
    started: Instant,
    /// The open phase (index into [`phase::ALL`]) and when it opened.
    current: Option<(usize, Instant)>,
    /// Closed time per phase, merged across repeat laps.
    laps: [Duration; 10],
    /// Which phases have closed at least one lap.
    entered: [bool; 10],
}

impl TickSpan {
    /// Starts the span; the whole-tick clock runs from here.
    pub fn start() -> Self {
        Self {
            started: Instant::now(),
            current: None,
            laps: [Duration::ZERO; 10],
            entered: [false; 10],
        }
    }

    /// Closes the previous phase (if any) and opens `name`. Re-entering
    /// a name adds a second lap to the same phase.
    ///
    /// # Panics
    ///
    /// Panics if `name` is not one of [`phase::ALL`].
    pub fn enter(&mut self, name: &'static str) {
        let k = phase::ALL
            .iter()
            .position(|p| *p == name)
            .unwrap_or_else(|| panic!("unknown tick phase {name:?}"));
        let now = Instant::now();
        self.close(now);
        self.current = Some((k, now));
    }

    /// Closes the current phase without opening another — for gaps the
    /// loop doesn't want attributed to any phase.
    pub fn exit(&mut self) {
        self.close(Instant::now());
    }

    fn close(&mut self, now: Instant) {
        if let Some((k, since)) = self.current.take() {
            self.laps[k] += now.duration_since(since);
            self.entered[k] = true;
        }
    }

    /// Closes any open phase and flushes one histogram observation per
    /// entered phase (microseconds, merged across repeat laps) plus a
    /// `tick.total` observation into `metrics`.
    pub fn finish(mut self, metrics: &mut MetricsRegistry) {
        self.exit();
        let total = self.started.elapsed();
        for ((name, lap), entered) in PHASE_METRICS.iter().zip(self.laps).zip(self.entered) {
            if entered {
                metrics.observe(name, lap.as_secs_f64() * 1e6);
            }
        }
        metrics.observe("tick.total", total.as_secs_f64() * 1e6);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn finish_records_one_sample_per_phase_plus_total() {
        let mut m = MetricsRegistry::new();
        let mut span = TickSpan::start();
        span.enter(phase::SIM_STEP);
        span.enter(phase::BUS_STEP);
        span.finish(&mut m);

        assert_eq!(m.histogram("tick.phase.sim_step").unwrap().count(), 1);
        assert_eq!(m.histogram("tick.phase.bus_step").unwrap().count(), 1);
        assert_eq!(m.histogram("tick.total").unwrap().count(), 1);
    }

    #[test]
    fn reentered_phase_merges_into_one_observation() {
        let mut m = MetricsRegistry::new();
        let mut span = TickSpan::start();
        span.enter(phase::EDDI_EVAL);
        span.enter(phase::BUS_STEP);
        span.enter(phase::EDDI_EVAL);
        span.finish(&mut m);
        assert_eq!(m.histogram("tick.phase.eddi_eval").unwrap().count(), 1);
    }

    #[test]
    fn exit_leaves_untimed_gap() {
        let mut m = MetricsRegistry::new();
        let mut span = TickSpan::start();
        span.enter(phase::SIM_STEP);
        span.exit();
        span.finish(&mut m);
        assert_eq!(m.histogram("tick.phase.sim_step").unwrap().count(), 1);
        assert_eq!(
            m.snapshot().histograms.len(),
            2,
            "sim_step and tick.total only"
        );
        // The gap after exit() belongs to no phase.
        assert!(m.histogram("tick.total").is_some());
    }

    #[test]
    fn phase_list_matches_metric_names() {
        assert_eq!(phase::ALL[0], phase::SIM_STEP);
        assert_eq!(phase_metric(phase::DECIDE), "tick.phase.decide");
        for (name, metric) in phase::ALL.iter().zip(PHASE_METRICS) {
            assert_eq!(phase_metric(name), metric);
        }
    }

    #[test]
    #[should_panic(expected = "unknown tick phase")]
    fn unknown_phase_is_rejected() {
        TickSpan::start().enter("warp_drive");
    }
}
