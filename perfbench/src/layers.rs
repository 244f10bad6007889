//! Per-layer figures read from the platform's own metrics after a run.
//!
//! `Platform::step` laps ten disjoint `tick.phase.*` histograms per
//! tick, and histogram sums are exact, so a phase's sum over a run is
//! its self time. The benchmark times each step call itself; what the
//! phases do not cover is reported as `core.tick_unattributed_us`.

use crate::metrics::Report;
use sesame_obs::span::{phase, phase_metric};
use sesame_obs::MetricsSnapshot;

/// Per-layer names of the ten phases, in `phase::ALL` order.
const PHASE_METRICS: [&str; 10] = [
    "core.phase.sim_step_us",
    "core.phase.sense_publish_us",
    "core.phase.eddi_eval_us",
    "core.phase.airspace_us",
    "core.phase.bus_step_us",
    "core.phase.security_us",
    "core.phase.cl_landing_us",
    "core.phase.consert_compose_us",
    "core.phase.decide_us",
    "core.phase.bookkeeping_us",
];

/// Sums over every platform run a traced pass made.
#[derive(Default)]
pub struct LayerTotals {
    phase_us: [f64; 10],
    step_us: f64,
    ticks: u64,
    cache_hits: u64,
    cache_misses: u64,
    delivered: u64,
    dropped: u64,
    ids_alerts: u64,
    rejected_auth: u64,
    quarantines: u64,
    /// Runs whose phase sum exceeded the bench-measured step time.
    negative_runs: u64,
}

impl LayerTotals {
    /// Adds one finished run: its final metrics, its tick count, and the
    /// bench-measured time of its step calls.
    pub fn add_run(&mut self, snapshot: &MetricsSnapshot, ticks: u64, step_us: f64) {
        let mut phase_sum = 0.0;
        for (slot, name) in self.phase_us.iter_mut().zip(phase::ALL) {
            let sum = snapshot
                .histogram(&phase_metric(name))
                .map_or(0.0, |h| h.sum);
            *slot += sum;
            phase_sum += sum;
        }
        if step_us < phase_sum {
            self.negative_runs += 1;
        }
        self.step_us += step_us;
        self.ticks += ticks;
        self.cache_hits += snapshot.counter("eddi.cache.hit");
        self.cache_misses += snapshot.counter("eddi.cache.miss");
        self.delivered += snapshot.counter("bus.delivered");
        self.dropped += snapshot.counter("bus.dropped");
        self.ids_alerts += snapshot.counter("ids.alerts");
        self.rejected_auth += snapshot.counter("commands.rejected_auth");
        self.quarantines += snapshot.counter("uav.quarantine.entered");
    }

    /// Whether every run's phases fit inside its measured step time.
    pub fn trustworthy(&self) -> bool {
        self.negative_runs == 0 && self.ticks > 0
    }

    /// Fills the `core.*`, `eddi.*`, `bus.*`, `ids.*`, `commands.*` and
    /// `uav.*` per-layer metrics.
    pub fn fill(&self, report: &mut Report) {
        let ticks = self.ticks.max(1) as f64;
        let mut phase_total = 0.0;
        for (name, sum) in PHASE_METRICS.iter().zip(self.phase_us) {
            report.set(name, sum / ticks);
            phase_total += sum;
        }
        report.set(
            "core.tick_unattributed_us",
            (self.step_us - phase_total) / ticks,
        );
        report.set("core.step_us", self.step_us / ticks);
        let attempts = (self.cache_hits + self.cache_misses).max(1) as f64;
        report.set("eddi.cache_hit_ratio", self.cache_hits as f64 / attempts);
        report.set(
            "eddi.cache_misses_per_tick",
            self.cache_misses as f64 / ticks,
        );
        report.set("bus.delivered_per_tick", self.delivered as f64 / ticks);
        report.set("bus.dropped_per_tick", self.dropped as f64 / ticks);
        report.set("ids.alerts_per_tick", self.ids_alerts as f64 / ticks);
        report.set("commands.rejected_auth", self.rejected_auth as f64 / ticks);
        report.set("uav.quarantine.entered", self.quarantines as f64 / ticks);
    }
}

/// The per-layer metrics of the scenario-DSL and server layers, set to 0
/// on workloads that never enter those layers.
pub const SERVICE_ONLY: [&str; 9] = [
    "dsl.compile_ms",
    "scenario.build_ms",
    "server.queue_wait_ms_p50",
    "server.queue_wait_ms_p90",
    "server.run_ms_p50",
    "server.worker_busy_ratio",
    "server.log_append_us",
    "server.rtt_us_p50",
    "server.stream_dropped",
];
