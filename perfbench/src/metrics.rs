//! The metric catalogue and the result a run prints.
//!
//! Every metric the benchmark can report is declared once here, with its
//! unit, its direction, and — for per-layer metrics — the end-to-end
//! metric and workload it is expected to move. `BENCHMARK.json` lists
//! the same names and units; the self-test checks that the two agree.

use std::fmt::Write as _;
use std::time::Instant;

/// One reported metric.
pub struct MetricDef {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: &'static str,
    /// What the metric means on each workload, or which end-to-end
    /// metric a per-layer metric should move.
    pub note: &'static str,
}

const fn m(
    name: &'static str,
    unit: &'static str,
    better: &'static str,
    note: &'static str,
) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        note,
    }
}

/// Reported with `--trace 0`, on every workload.
pub const END_TO_END: &[MetricDef] = &[
    m("setup_s", "s", "lower",
      "median set-up: Platform::new + launch of every run (platform workloads); ServerRuntime::start + Server::bind, 99 times spread over the run (service)"),
    m("uav_ticks_per_sec", "1/s", "higher",
      "UAVs x ticks / time inside the timed Platform::step or Scenario::step_once calls, per run; each pool seed (library file) takes the median over its repeats, then the median over seeds (geometric mean over files on the service)"),
    m("tick_ms_p50", "ms", "lower",
      "median of the timed step calls of a run, combined over repeats and seeds (files) the same way"),
    m("tick_ms_p95", "ms", "lower",
      "95th percentile of the timed step calls, combined the same way"),
    m("allocs_per_tick", "count", "lower",
      "heap allocations inside the timed step calls, per tick (counting allocator)"),
    m("peak_rss_mb", "MB", "lower", "peak resident set size of the benchmark process (VmHWM)"),
    m("runs_per_sec", "1/s", "higher",
      "1 / median over the pool's seeds of each seed's median run wall time (missions, fleet windows); seeds served per second of traffic (service)"),
    m("campaign_ms_p50", "ms", "lower",
      "median over the pool's seeds of each seed's median run wall time (platform workloads); median campaign, submit to complete over the wire (service)"),
    m("campaign_ms_p90", "ms", "lower",
      "90th percentile of the same per-seed run or campaign wall times"),
];

/// Reported with `--trace 1`, on every workload. A layer a workload does
/// not exercise reads 0 there.
pub const PER_LAYER: &[MetricDef] = &[
    m(
        "core.phase.sim_step_us",
        "us",
        "lower",
        "phase self time per tick -> tick_ms_p50",
    ),
    m(
        "core.phase.sense_publish_us",
        "us",
        "lower",
        "-> uav_ticks_per_sec on fleet_200uav",
    ),
    m(
        "core.phase.eddi_eval_us",
        "us",
        "lower",
        "-> uav_ticks_per_sec and tick_ms_p50 on mission_3uav",
    ),
    m(
        "core.phase.airspace_us",
        "us",
        "lower",
        "-> uav_ticks_per_sec on fleet_200uav",
    ),
    m(
        "core.phase.bus_step_us",
        "us",
        "lower",
        "-> runs_per_sec on service_library",
    ),
    m(
        "core.phase.security_us",
        "us",
        "lower",
        "phase self time per tick -> tick_ms_p50",
    ),
    m(
        "core.phase.cl_landing_us",
        "us",
        "lower",
        "phase self time per tick -> tick_ms_p50",
    ),
    m(
        "core.phase.consert_compose_us",
        "us",
        "lower",
        "-> runs_per_sec on service_library",
    ),
    m(
        "core.phase.decide_us",
        "us",
        "lower",
        "phase self time per tick -> tick_ms_p50",
    ),
    m(
        "core.phase.bookkeeping_us",
        "us",
        "lower",
        "phase self time per tick -> tick_ms_p50",
    ),
    m(
        "core.tick_unattributed_us",
        "us",
        "lower",
        "bench-measured step time minus the phase sum, per tick; never negative",
    ),
    m(
        "core.step_us",
        "us",
        "lower",
        "bench-measured step time per tick: the phases plus the unattributed rest",
    ),
    m(
        "core.step_us_2shards",
        "us",
        "lower",
        "fleet_200uav's windows stepped under ShardPolicy::Fixed { shards: 2 }, per tick; against core.step_us (serial) it decides whether the fan-out pays (0 elsewhere)",
    ),
    m(
        "eddi.cache_hit_ratio",
        "ratio",
        "higher",
        "EDDI cache hits over attempts -> tick_ms_p50 on mission_3uav against service_library",
    ),
    m(
        "eddi.cache_misses_per_tick",
        "1/tick",
        "lower",
        "-> tick_ms_p50 on mission_3uav against service_library",
    ),
    m(
        "bus.delivered_per_tick",
        "1/tick",
        "higher",
        "-> runs_per_sec on service_library",
    ),
    m(
        "bus.dropped_per_tick",
        "1/tick",
        "lower",
        "-> runs_per_sec on service_library",
    ),
    m(
        "ids.alerts_per_tick",
        "1/tick",
        "lower",
        "-> runs_per_sec on service_library",
    ),
    m(
        "commands.rejected_auth",
        "1/tick",
        "lower",
        "forged commands refused, per tick -> runs_per_sec on service_library",
    ),
    m(
        "uav.quarantine.entered",
        "1/tick",
        "lower",
        "UAVs quarantined, per tick -> runs_per_sec on service_library",
    ),
    m(
        "dsl.compile_ms",
        "ms",
        "lower",
        "JobSpec::compile per library file -> setup_s and campaign_ms_p50 on service_library",
    ),
    m(
        "scenario.build_ms",
        "ms",
        "lower",
        "builder(seed).build() -> setup_s and campaign_ms_p50 on service_library",
    ),
    m(
        "server.queue_wait_ms_p50",
        "ms",
        "lower",
        "JobQueued to RunStarted -> campaign_ms_p90",
    ),
    m(
        "server.queue_wait_ms_p90",
        "ms",
        "lower",
        "JobQueued to RunStarted -> campaign_ms_p90",
    ),
    m(
        "server.run_ms_p50",
        "ms",
        "lower",
        "RunStarted to RunCompleted -> runs_per_sec",
    ),
    m(
        "server.worker_busy_ratio",
        "ratio",
        "higher",
        "sum of run time / (workers x wall time) -> runs_per_sec",
    ),
    m(
        "server.log_append_us",
        "us",
        "lower",
        "RunLog::append of the workload's record shapes -> runs_per_sec (tiny effect)",
    ),
    m(
        "server.rtt_us_p50",
        "us",
        "lower",
        "Client::ping round trip -> campaign_ms_p50",
    ),
    m(
        "server.stream_dropped",
        "count",
        "lower",
        "events the stream dropped; must be 0 for the table to be trusted",
    ),
    m(
        "trace.overhead_pct",
        "%",
        "lower",
        "traced pass wall time over the untraced pass of the same work, minus 1",
    ),
];

/// The catalogue a run reports from.
pub fn catalogue(traced: bool) -> &'static [MetricDef] {
    if traced {
        PER_LAYER
    } else {
        END_TO_END
    }
}

/// The values a run measured, keyed by catalogue name.
#[derive(Default)]
pub struct Report {
    values: Vec<(&'static str, f64)>,
}

impl Report {
    /// Sets `name`, which must be in one of the catalogues.
    pub fn set(&mut self, name: &'static str, value: f64) {
        assert!(
            END_TO_END.iter().chain(PER_LAYER).any(|d| d.name == name),
            "metric {name} is not in the catalogue"
        );
        match self.values.iter_mut().find(|(n, _)| *n == name) {
            Some(slot) => slot.1 = value,
            None => self.values.push((name, value)),
        }
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.values
            .iter()
            .find(|(n, _)| *n == name)
            .map(|(_, v)| *v)
    }

    /// Renders the `metrics` object for `catalogue`, in catalogue order.
    /// Every catalogue metric must have been set.
    pub fn render(&self, catalogue: &[MetricDef]) -> String {
        let mut out = String::from("{");
        for (i, def) in catalogue.iter().enumerate() {
            let value = self
                .get(def.name)
                .unwrap_or_else(|| panic!("metric {} was never measured", def.name));
            assert!(value.is_finite(), "metric {} is not finite", def.name);
            if i > 0 {
                out.push_str(", ");
            }
            // `{}` prints every digit of the shortest round-trip form,
            // never with an exponent.
            let _ = write!(
                out,
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                def.name, value, def.unit
            );
        }
        out.push('}');
        out
    }

    /// A tab-separated `name value unit` table, one metric a line.
    pub fn table(&self, catalogue: &[MetricDef]) -> String {
        let mut out = String::new();
        for def in catalogue {
            if let Some(v) = self.get(def.name) {
                let _ = writeln!(out, "{}\t{}\t{}", def.name, v, def.unit);
            }
        }
        out
    }
}

/// Nearest-rank percentile of an ascending-sorted slice (`q` in 0..=1).
pub fn percentile(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

/// Median of an unsorted slice (mean of the middle two for even lengths).
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// Peak resident set size of this process in MiB, from `/proc`.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .unwrap_or(f64::NAN)
}

/// Prints every metric by name, unit and meaning.
pub fn list() -> String {
    let mut out = String::new();
    for (title, defs) in [
        ("end_to_end (--trace 0)", END_TO_END),
        ("per_layer (--trace 1)", PER_LAYER),
    ] {
        let _ = writeln!(out, "{title}");
        for d in defs {
            let _ = writeln!(
                out,
                "  {:<30} {:<7} {:<7} {}",
                d.name, d.unit, d.better, d.note
            );
        }
    }
    out
}

/// The step calls of a pass: how long each took, how many heap
/// allocations they made, and how many UAV-ticks they advanced. Calls
/// are filed under groups — a run of a platform workload, or a library
/// file's campaign on the service — and each group carries a key: the
/// pool seed or library file whose work it repeats. A group's samples
/// are condensed to its percentiles and its UAV-tick rate when the next
/// group opens, so the benchmark's own memory does not grow with the
/// length of a pass.
#[derive(Default)]
pub struct StepTimes {
    /// Step times of the open group, ns.
    open: Vec<u64>,
    open_key: Option<usize>,
    open_uav_ticks: u64,
    closed: Vec<Group>,
    ticks: u64,
    total_ns: u64,
    allocs: u64,
    run_ticks: u64,
    run_ns: u64,
}

/// A closed group: its key, its tick percentiles in ms and its UAV-ticks
/// per second of step time.
struct Group {
    key: usize,
    p50: f64,
    p95: f64,
    rate: f64,
}

/// How the per-key tick figures become the reported tick metrics. Every
/// key's figure is first the median over the groups that repeat its
/// work, so a burst of machine noise in one repeat does not move it. Not
/// the fastest repeat: on a shared two-core machine that depends on
/// whether a run happens to catch a quiet moment, and its run-to-run
/// spread was three to four times the median's.
#[derive(Clone, Copy)]
pub enum Combine {
    /// Keys are alike (seeds of one scenario): the median over keys.
    Median,
    /// Keys differ (small and large fleets): the geometric mean over
    /// keys, so every key has one equal vote and the figure does not
    /// jump between fleet sizes the way a pooled median would.
    GeometricMean,
}

impl StepTimes {
    /// Closes the open group and files the next step calls under a new
    /// group with `key`.
    pub fn group(&mut self, key: usize) {
        self.close_group();
        self.open_key = Some(key);
    }

    fn close_group(&mut self) {
        let Some(key) = self.open_key.take() else {
            return;
        };
        if self.open.is_empty() {
            return;
        }
        let ns: u64 = self.open.iter().sum();
        let mut ms: Vec<f64> = self.open.drain(..).map(|ns| ns as f64 / 1e6).collect();
        ms.sort_by(f64::total_cmp);
        self.closed.push(Group {
            key,
            p50: percentile(&ms, 0.50),
            p95: percentile(&ms, 0.95),
            rate: self.open_uav_ticks as f64 / (ns as f64 / 1e9),
        });
        self.open_uav_ticks = 0;
    }

    /// Times one step call (allocations are counted inside it, on the
    /// calling thread, only).
    pub fn time<R>(&mut self, step: impl FnOnce() -> R) -> (R, Instant, Instant) {
        let a = crate::allocations();
        let start = Instant::now();
        let out = step();
        let end = Instant::now();
        self.allocs += crate::allocations() - a;
        let ns = (end - start).as_nanos() as u64;
        self.open.push(ns);
        self.run_ticks += 1;
        self.run_ns += ns;
        (out, start, end)
    }

    /// Closes the current run of a `uavs`-UAV platform; returns its tick
    /// count and its step time in µs.
    pub fn end_run(&mut self, uavs: usize) -> (u64, f64) {
        let (ticks, ns) = (self.run_ticks, self.run_ns);
        self.ticks += ticks;
        self.total_ns += ns;
        self.open_uav_ticks += ticks * uavs as u64;
        self.run_ticks = 0;
        self.run_ns = 0;
        (ticks, ns as f64 / 1e3)
    }

    /// Adds the closed groups and counts of `other`, a pass made on
    /// another thread.
    pub fn absorb(&mut self, mut other: StepTimes) {
        other.close_group();
        self.closed.append(&mut other.closed);
        self.ticks += other.ticks;
        self.total_ns += other.total_ns;
        self.allocs += other.allocs;
    }

    /// Mean step time per tick in µs over the closed runs.
    pub fn mean_step_us(&self) -> f64 {
        self.total_ns as f64 / 1e3 / self.ticks.max(1) as f64
    }

    /// Sets the tick metrics over every step call of the pass: UAV-ticks
    /// per second of step time and the tick percentiles, the median over
    /// each key's repeats combined as `combine` says, and allocations per
    /// tick.
    pub fn report(&mut self, report: &mut Report, combine: Combine) {
        self.close_group();
        let mut keys: Vec<usize> = self.closed.iter().map(|g| g.key).collect();
        keys.sort_unstable();
        keys.dedup();
        let combined = |pick: fn(&Group) -> f64| {
            let per_key: Vec<f64> = keys
                .iter()
                .map(|&k| {
                    let repeats: Vec<f64> = self
                        .closed
                        .iter()
                        .filter(|g| g.key == k)
                        .map(pick)
                        .collect();
                    median(&repeats)
                })
                .collect();
            match combine {
                Combine::Median => median(&per_key),
                Combine::GeometricMean => {
                    (per_key.iter().map(|v| v.ln()).sum::<f64>() / per_key.len() as f64).exp()
                }
            }
        };
        report.set("uav_ticks_per_sec", combined(|g| g.rate));
        report.set("tick_ms_p50", combined(|g| g.p50));
        report.set("tick_ms_p95", combined(|g| g.p95));
        report.set(
            "allocs_per_tick",
            self.allocs as f64 / self.ticks.max(1) as f64,
        );
    }
}
