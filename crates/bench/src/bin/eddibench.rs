//! EDDI evaluation microbenchmark: the incremental fast-path runtime
//! against the naive reference runtime, on a steady-state three-UAV scan
//! workload, emitting machine-readable JSON.
//!
//! ```text
//! cargo run -p sesame-bench --release --bin eddibench           # full run
//! cargo run -p sesame-bench --release --bin eddibench -- smoke  # CI smoke
//! ```
//!
//! The JSON report (schema: `sesame_bench::cli`) goes to stdout
//! (configuration chatter to stderr), so `eddibench > BENCH_eddi.json`
//! records the repo's perf trajectory — `scripts/check.sh` does exactly
//! that; `--json PATH` writes a copy. Reported per path: ticks per
//! second, nanoseconds per evaluation, and an allocation-count proxy from
//! a counting global allocator. The fast path additionally reports its
//! evals-skipped ratio (cache hits over hits + misses).
//!
//! Both paths run the identical deterministic workload — same seeds, same
//! telemetry, same scenes — and every per-tick output is compared bit for
//! bit after the timed runs. The run aborts on the first divergence, so
//! the speedup is never measured against a runtime computing different
//! answers.

use sesame_bench::alloc::{allocations, CountingAllocator};
use sesame_bench::cli::{BenchArgs, JsonReport};
use sesame_conserts::catalog::{
    certified_navigation_accuracy_m, evaluate_uav, uav_consert_network, UavAction,
};
use sesame_conserts::IncrementalConsertNetwork;
use sesame_core::{ReferenceEddiRuntime, UavEddiRuntime};
use sesame_safedrones::monitor::SafeDronesConfig;
use sesame_types::geo::GeoPoint;
use sesame_types::ids::UavId;
use sesame_types::telemetry::UavTelemetry;
use sesame_types::time::{SimDuration, SimTime};
use sesame_vision::features::SceneCondition;
use std::time::Instant;

#[global_allocator]
static ALLOCATOR: CountingAllocator = CountingAllocator;

const UAVS: usize = 3;

fn home() -> GeoPoint {
    GeoPoint::new(35.05, 33.20, 0.0)
}

/// Steady-state scan telemetry: cruising at 30 m, healthy battery, clean
/// GPS. Identical for both paths by construction.
fn telemetry(uav: usize, round: u64) -> UavTelemetry {
    let time = SimTime::from_millis(round * 100);
    let pos = home().destination(90.0, 5.0 * uav as f64).with_alt(30.0);
    let mut tel = UavTelemetry::nominal(UavId::new(uav as u32 + 1), time, pos);
    tel.gps.position = tel.true_position;
    tel
}

fn scene() -> SceneCondition {
    SceneCondition {
        altitude_m: 30.0,
        visibility: 1.0,
    }
}

/// One tick's observable outcome, bit-exact. Collected by both paths and
/// compared after the timed runs.
#[derive(PartialEq, Debug)]
struct TickDigest {
    pof_bits: u64,
    combined_bits: u64,
    risk_bits: u64,
    action: Option<UavAction>,
    nav_bits: Option<u64>,
}

struct RunResult {
    evals: u64,
    elapsed_ns: u128,
    allocs: u64,
    digests: Vec<TickDigest>,
    cache_hits: u64,
    cache_misses: u64,
}

fn run_fast(rounds: u64) -> RunResult {
    let mut eddis: Vec<UavEddiRuntime> = (0..UAVS)
        .map(|i| {
            let mut rt = UavEddiRuntime::new(
                42 ^ ((i as u64 + 1) << 16),
                SafeDronesConfig::default(),
                home(),
            );
            rt.set_remaining_mission(SimDuration::from_secs(600));
            rt
        })
        .collect();
    let mut conserts: Vec<IncrementalConsertNetwork> = (0..UAVS)
        .map(|i| IncrementalConsertNetwork::new(UavId::new(i as u32 + 1).to_string()))
        .collect();
    let sc = scene();
    let mut digests = Vec::with_capacity((rounds as usize) * UAVS);
    let allocs_before = allocations();
    let start = Instant::now();
    for r in 0..rounds {
        for i in 0..UAVS {
            let tel = telemetry(i, r);
            let out = eddis[i].tick(&tel, &sc);
            let evidence = eddis[i].evidence(&tel, false, true);
            let decision = conserts[i].decide(&evidence);
            digests.push(TickDigest {
                pof_bits: out.reliability.pof.to_bits(),
                combined_bits: out.combined_uncertainty.to_bits(),
                risk_bits: out.risk.criticality_high_prob.to_bits(),
                action: decision.action,
                nav_bits: decision.nav_accuracy_m.map(f64::to_bits),
            });
        }
    }
    let elapsed_ns = start.elapsed().as_nanos();
    let allocs = allocations() - allocs_before;
    let mut cache_hits = 0;
    let mut cache_misses = 0;
    for e in &eddis {
        let s = e.cache_stats();
        cache_hits += s.hits;
        cache_misses += s.misses;
    }
    for c in &conserts {
        let s = c.stats();
        cache_hits += s.hits;
        cache_misses += s.misses;
    }
    RunResult {
        evals: rounds * UAVS as u64,
        elapsed_ns,
        allocs,
        digests,
        cache_hits,
        cache_misses,
    }
}

fn run_reference(rounds: u64) -> RunResult {
    let mut eddis: Vec<ReferenceEddiRuntime> = (0..UAVS)
        .map(|i| {
            let mut rt = ReferenceEddiRuntime::new(
                42 ^ ((i as u64 + 1) << 16),
                SafeDronesConfig::default(),
                home(),
            );
            rt.set_remaining_mission(SimDuration::from_secs(600));
            rt
        })
        .collect();
    let networks: Vec<_> = (0..UAVS)
        .map(|i| uav_consert_network(&UavId::new(i as u32 + 1).to_string()))
        .collect();
    let names: Vec<String> = (0..UAVS)
        .map(|i| UavId::new(i as u32 + 1).to_string())
        .collect();
    let sc = scene();
    let mut digests = Vec::with_capacity((rounds as usize) * UAVS);
    let allocs_before = allocations();
    let start = Instant::now();
    for r in 0..rounds {
        for i in 0..UAVS {
            let tel = telemetry(i, r);
            let out = eddis[i].tick(&tel, &sc);
            let evidence = eddis[i].evidence(&tel, false, true);
            let action = evaluate_uav(&networks[i], &names[i], &evidence);
            let nav = certified_navigation_accuracy_m(&networks[i], &names[i], &evidence);
            digests.push(TickDigest {
                pof_bits: out.reliability.pof.to_bits(),
                combined_bits: out.combined_uncertainty.to_bits(),
                risk_bits: out.risk.criticality_high_prob.to_bits(),
                action,
                nav_bits: nav.map(f64::to_bits),
            });
        }
    }
    let elapsed_ns = start.elapsed().as_nanos();
    let allocs = allocations() - allocs_before;
    RunResult {
        evals: rounds * UAVS as u64,
        elapsed_ns,
        allocs,
        digests,
        cache_hits: 0,
        cache_misses: 0,
    }
}

fn render(r: &RunResult) -> String {
    let secs = r.elapsed_ns as f64 / 1e9;
    let ticks_per_sec = r.evals as f64 / secs;
    let ns_per_eval = r.elapsed_ns as f64 / r.evals as f64;
    format!(
        "{{\"elapsed_ns\": {}, \"ticks_per_sec\": {:.0}, \"ns_per_eval\": {:.1}, \
         \"allocs\": {}}}",
        r.elapsed_ns, ticks_per_sec, ns_per_eval, r.allocs
    )
}

fn main() {
    let args = BenchArgs::parse();
    let rounds = if args.smoke { 200 } else { 2000 };
    eprintln!(
        "eddibench: {UAVS}-UAV steady-state EDDI + ConSert evaluation, {rounds} rounds{}",
        if args.smoke { " (smoke)" } else { "" }
    );

    // Interleave a warmup of each before timing so neither path pays
    // first-touch costs (page faults, lazy init) inside its measurement.
    let _ = run_reference(5);
    let _ = run_fast(5);

    let reference = run_reference(rounds);
    let fast = run_fast(rounds);
    assert_eq!(
        fast.evals, reference.evals,
        "workloads must tick identically"
    );
    for (k, (f, r)) in fast.digests.iter().zip(&reference.digests).enumerate() {
        assert_eq!(
            f, r,
            "paths diverged at eval {k} — semantics bug, refusing to report"
        );
    }

    let speedup = reference.elapsed_ns as f64 / fast.elapsed_ns as f64;
    let total = fast.cache_hits + fast.cache_misses;
    let evals_skipped_ratio = fast.cache_hits as f64 / total.max(1) as f64;
    // One tick = one round over all UAVs; the fast path's per-tick
    // allocation count is the hot-loop memory discipline's scorecard (the
    // steady-state target is zero — pinned by the alloc_regression
    // test; the bench number includes the telemetry construction the
    // workload itself pays).
    let allocs_per_tick = fast.allocs as f64 / rounds as f64;
    // Summary keys precede the nested per-path objects, so the first
    // occurrence of each gated key is the headline (fast-path) number.
    JsonReport::new("eddi_steady_state_3uav")
        .int("rounds", rounds)
        .int("evals", fast.evals)
        .num("speedup", speedup, 2)
        .num("allocs_per_tick", allocs_per_tick, 2)
        .num("evals_skipped_ratio", evals_skipped_ratio, 3)
        .int("cache_hits", fast.cache_hits)
        .int("cache_misses", fast.cache_misses)
        .raw("fast", &render(&fast))
        .raw("reference", &render(&reference))
        .emit(args.json_path.as_deref());
    eprintln!(
        "eddibench: speedup {speedup:.2}x, evals skipped {:.1}%",
        evals_skipped_ratio * 100.0
    );
    if speedup < 3.0 {
        eprintln!("eddibench: WARNING — speedup below the 3x target");
        std::process::exit(1);
    }
}
