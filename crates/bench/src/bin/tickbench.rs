//! Whole-platform tick benchmark: end-to-end `Platform::step` throughput
//! of the shipping fast pipeline (incremental EDDI, reused tick scratch,
//! cached CTMC solve profiles) against the naive reference runtimes
//! (`eddi_fast_path: false`), across 3/50/200-UAV fleets.
//!
//! ```text
//! cargo run -p sesame-bench --release --bin tickbench           # full run
//! cargo run -p sesame-bench --release --bin tickbench -- smoke  # CI smoke
//! ```
//!
//! Where `eddibench` isolates the EDDI + ConSert evaluation and
//! `fleetbench` isolates sharding, this bench times the *entire* tick —
//! simulation, telemetry, corruption, EDDI, airspace scan, supervision,
//! ConSerts, bus traffic, observability — so a constant-factor
//! regression anywhere in the pipeline shows up here.
//!
//! The JSON report (schema: `sesame_bench::cli`) goes to stdout
//! (configuration chatter to stderr), so `tickbench > BENCH_tick.json`
//! records the repo's perf trajectory — `scripts/check.sh` does exactly
//! that; `--json PATH` writes a copy. Summary keys are the 3-UAV
//! steady-state numbers (the paper's demonstration fleet, and the
//! workload the ≥3x target is stated against) and come first, which is
//! what `scripts/bench_gate.sh` gates on. Per fleet size the report
//! carries fast and reference ticks per second, the speedup, and the
//! fast path's heap allocations per tick from the counting allocator.
//!
//! Digest before timing: for every size, a fast and a reference platform
//! are stepped from the same seed and must agree bit for bit on the PoF
//! series, the uncertainty series, every certified navigation accuracy,
//! and the event count — the run aborts on divergence, so the speedup is
//! never measured against a platform computing different answers. (The
//! cache counters are the one legitimate difference: the reference path
//! reports zero.)

use sesame_bench::alloc::{allocations, CountingAllocator};
use sesame_bench::cli::{BenchArgs, JsonReport};
use sesame_core::fleet::FleetSpec;
use sesame_core::orchestrator::{Platform, PlatformConfig};
use std::time::Instant;

#[global_allocator]
static ALLOCATOR: CountingAllocator = CountingAllocator;

/// Fleet sizes for the full curve and the CI smoke subset. The first
/// entry is the headline (gated) workload.
const FULL_SIZES: [usize; 3] = [3, 50, 200];
const SMOKE_SIZES: [usize; 2] = [3, 50];

fn config(uavs: usize, fast_path: bool) -> PlatformConfig {
    PlatformConfig {
        // The fleetbench mid-size area: per-UAV strips shrink as the
        // fleet grows; the per-tick pipeline cost is what's measured.
        area_width_m: 400.0,
        area_height_m: 300.0,
        person_count: 5,
        seed: 42,
        fleet: FleetSpec::uniform(uavs),
        eddi_fast_path: fast_path,
        ..PlatformConfig::default()
    }
}

/// The bit-exact projection both paths must agree on: PoF bits,
/// uncertainty bits, certified nav accuracies, event count. Deliberately
/// excludes the metrics table — cache counters legitimately differ.
type Digest = (Vec<u64>, Vec<u64>, Vec<Option<u64>>, usize);

fn digest(cfg: PlatformConfig, ticks: u64) -> Digest {
    let mut p = Platform::new(cfg);
    p.launch();
    for _ in 0..ticks {
        p.step();
    }
    (
        p.series().pof().iter().map(|(_, v)| v.to_bits()).collect(),
        p.series()
            .uncertainty()
            .iter()
            .map(|(_, v)| v.to_bits())
            .collect(),
        (0..p.uav_count())
            .map(|i| p.certified_nav_accuracy_m(i).map(f64::to_bits))
            .collect(),
        p.events().len(),
    )
}

struct RunResult {
    elapsed_ns: u128,
    ticks: u64,
    allocs: u64,
}

fn run(cfg: PlatformConfig, ticks: u64) -> RunResult {
    let mut p = Platform::new(cfg);
    p.launch();
    // Warmup outside the measurement: climb-out plus first-touch costs
    // (route upload, cache priming, scratch-buffer growth).
    for _ in 0..10 {
        p.step();
    }
    let allocs_before = allocations();
    let start = Instant::now();
    for _ in 0..ticks {
        p.step();
    }
    let elapsed_ns = start.elapsed().as_nanos();
    RunResult {
        elapsed_ns,
        ticks,
        allocs: allocations() - allocs_before,
    }
}

fn ticks_per_sec(r: &RunResult) -> f64 {
    r.ticks as f64 / (r.elapsed_ns as f64 / 1e9)
}

fn main() {
    let args = BenchArgs::parse();
    let sizes: Vec<usize> = if args.smoke {
        SMOKE_SIZES.to_vec()
    } else {
        FULL_SIZES.to_vec()
    };
    let ticks: u64 = if args.smoke { 20 } else { 60 };
    let digest_ticks: u64 = if args.smoke { 20 } else { 30 };
    eprintln!(
        "tickbench: whole-platform ticks, sizes {sizes:?}, {ticks} timed \
         ticks each, fast pipeline vs reference runtimes{}",
        if args.smoke { " (smoke)" } else { "" }
    );

    let mut rows = Vec::new();
    let mut headline = None;
    for &n in &sizes {
        assert_eq!(
            digest(config(n, true), digest_ticks),
            digest(config(n, false), digest_ticks),
            "fast {n}-UAV run diverged from the reference platform — \
             semantics bug, refusing to report"
        );
        // Interleave a warmup of each before timing so neither path pays
        // process-level first-touch costs inside its measurement.
        let _ = run(config(n, false), 2);
        let _ = run(config(n, true), 2);
        let reference = run(config(n, false), ticks);
        let fast = run(config(n, true), ticks);
        let tps = ticks_per_sec(&fast);
        let ref_tps = ticks_per_sec(&reference);
        let speedup = reference.elapsed_ns as f64 / fast.elapsed_ns as f64;
        let allocs_per_tick = fast.allocs as f64 / fast.ticks as f64;
        eprintln!(
            "tickbench: {n:>4} UAVs: {tps:>8.1} ticks/s fast vs \
             {ref_tps:>8.1} reference, speedup {speedup:.2}x, \
             {allocs_per_tick:.0} allocs/tick"
        );
        rows.push(format!(
            "{{\"uavs\": {n}, \"ticks_per_sec\": {tps:.1}, \
             \"uav_ticks_per_sec\": {:.0}, \"reference_ticks_per_sec\": {ref_tps:.1}, \
             \"speedup\": {speedup:.2}, \"allocs_per_tick\": {allocs_per_tick:.0}}}",
            tps * n as f64
        ));
        if headline.is_none() {
            headline = Some((n, tps, speedup, allocs_per_tick));
        }
    }
    let (uavs, tps, speedup, allocs_per_tick) = headline.expect("at least one size");

    // Summary keys (the 3-UAV headline) precede the curve, so
    // first-occurrence key extraction reads the gated values.
    JsonReport::new("platform_tick_fast_vs_reference")
        .int("uavs", uavs as u64)
        .num("speedup", speedup, 2)
        .num("ticks_per_sec", tps, 1)
        .num("allocs_per_tick", allocs_per_tick, 0)
        .int("ticks", ticks)
        .raw("sizes", &format!("[\n    {}\n  ]", rows.join(",\n    ")))
        .emit(args.json_path.as_deref());
    eprintln!("tickbench: {uavs}-UAV steady state at {tps:.1} ticks/s, speedup {speedup:.2}x");
    if speedup < 3.0 {
        eprintln!("tickbench: WARNING — speedup below the 3x target");
        std::process::exit(1);
    }
}
