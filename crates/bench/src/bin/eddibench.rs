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
//!
//! A second section times the SafeML monitor on its own, outside any
//! runtime tick: `push_sample`, the rank-indexed `assessment()` and the
//! naive `dissimilarity()` + `verdict()` pair, fed each UAV runtime's own
//! feature stream (same extractor seeds, same reference draw). The two
//! assessments are compared bit for bit before `safeml_ns_per_push`,
//! `safeml_ns_per_assessment`, `safeml_ns_per_naive` and `safeml_speedup`
//! (naive over fast assessment) are reported.
//!
//! A third section times construction, the design-time half of each
//! runtime (reference draw, detector-head training, TK analysis).
//! First, a 200-UAV fleet of fast runtimes is built and every runtime is
//! ticked in lockstep against a `ReferenceEddiRuntime` of its seed; any
//! bit of divergence aborts the run. Then `construct_us_per_uav` (median
//! serial `UavEddiRuntime::new`) and `fleet_build_ms` (median
//! `Platform::new` of `fleet_200uav`'s 200-UAV configuration, whose
//! engine builds fan out over the shard pool) are reported.

use sesame_bench::alloc::{allocations, CountingAllocator};
use sesame_bench::cli::{BenchArgs, JsonReport};
use sesame_conserts::catalog::{
    certified_navigation_accuracy_m, evaluate_uav, uav_consert_network, UavAction,
};
use sesame_conserts::IncrementalConsertNetwork;
use sesame_core::{FleetSpec, Platform, PlatformConfig, ReferenceEddiRuntime, UavEddiRuntime};
use sesame_safedrones::monitor::SafeDronesConfig;
use sesame_safeml::monitor::{SafeMlConfig, SafeMlMonitor, SafeMlVerdict};
use sesame_types::geo::GeoPoint;
use sesame_types::ids::UavId;
use sesame_types::telemetry::UavTelemetry;
use sesame_types::time::{SimDuration, SimTime};
use sesame_vision::features::{FeatureExtractor, SceneCondition};
use std::time::Instant;

#[global_allocator]
static ALLOCATOR: CountingAllocator = CountingAllocator;

const UAVS: usize = 3;

/// The construction section's fleet size (`fleet_200uav`'s).
const FLEET: usize = 200;

/// The EDDI seed of UAV `i`, derived as `Platform::eddi_engine` derives
/// it from a platform seed (42 here).
fn uav_seed(i: usize) -> u64 {
    42 ^ ((i as u64 + 1) << 16)
}

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
            let mut rt = UavEddiRuntime::new(uav_seed(i), SafeDronesConfig::default(), home());
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
            let mut rt =
                ReferenceEddiRuntime::new(uav_seed(i), SafeDronesConfig::default(), home());
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

/// Per-call SafeML monitor timings in nanoseconds: the median round over
/// the UAV count.
struct SafeMlTimings {
    per_push: f64,
    per_assessment: f64,
    per_naive: f64,
}

/// Times the SafeML monitor of each UAV runtime over `rounds` samples
/// after its window has filled. Every UAV draws its reference set and
/// frames from a `FeatureExtractor` seeded as `UavEddiRuntime::new` seeds
/// it, so the monitors see the runtime's own stream. Panics if
/// `assessment()` and the naive accessors disagree in any bit.
fn run_safeml(rounds: u64) -> SafeMlTimings {
    let sc = scene();
    let warmup = SafeMlConfig::default().window;
    let rounds = rounds as usize;
    let mut monitors = Vec::with_capacity(UAVS);
    let mut frames = Vec::with_capacity(UAVS);
    for i in 0..UAVS {
        let mut fx = FeatureExtractor::new(8, uav_seed(i));
        let reference = fx.reference_set(200);
        let mon = SafeMlMonitor::new(reference, SafeMlConfig::default())
            .expect("generated reference set is well-formed");
        let stream: Vec<Vec<f64>> = (0..warmup + rounds).map(|_| fx.extract(&sc)).collect();
        monitors.push(mon);
        frames.push(stream);
    }
    for (mon, stream) in monitors.iter_mut().zip(&frames) {
        for frame in &stream[..warmup] {
            mon.push_sample(frame)
                .expect("extractor and monitor share the width");
        }
    }
    let samples = rounds * UAVS;
    let mut fast: Vec<(f64, SafeMlVerdict)> = Vec::with_capacity(samples);
    let mut naive: Vec<(f64, SafeMlVerdict)> = Vec::with_capacity(samples);
    let mut push_ns = Vec::with_capacity(rounds);
    let mut assess_ns = Vec::with_capacity(rounds);
    let mut naive_ns = Vec::with_capacity(rounds);
    for r in warmup..warmup + rounds {
        let t0 = Instant::now();
        for (mon, stream) in monitors.iter_mut().zip(&frames) {
            mon.push_sample(&stream[r])
                .expect("extractor and monitor share the width");
        }
        let t1 = Instant::now();
        for mon in &monitors {
            fast.push(mon.assessment());
        }
        let t2 = Instant::now();
        for mon in &monitors {
            naive.push((mon.dissimilarity(), mon.verdict()));
        }
        let t3 = Instant::now();
        push_ns.push((t1 - t0).as_nanos());
        assess_ns.push((t2 - t1).as_nanos());
        naive_ns.push((t3 - t2).as_nanos());
    }
    for (k, (f, n)) in fast.iter().zip(&naive).enumerate() {
        assert!(
            f.0.to_bits() == n.0.to_bits() && f.1 == n.1,
            "SafeML assessment diverged from the naive accessors at sample {k}: \
             {f:?} vs {n:?} — refusing to report"
        );
    }
    // The median round, per UAV: robust to the rounds a busy host
    // preempts, which would otherwise skew the fast/naive ratio.
    let per = |mut ns: Vec<u128>| {
        ns.sort_unstable();
        ns[ns.len() / 2] as f64 / UAVS as f64
    };
    SafeMlTimings {
        per_push: per(push_ns),
        per_assessment: per(assess_ns),
        per_naive: per(naive_ns),
    }
}

/// Construction timings: the median serial `UavEddiRuntime::new` in
/// microseconds, and the median `FLEET`-UAV `Platform::new` in
/// milliseconds.
struct ConstructTimings {
    us_per_uav: f64,
    fleet_build_ms: f64,
}

/// `fleet_200uav`'s platform configuration at seed 42.
fn fleet_config() -> PlatformConfig {
    PlatformConfig {
        area_width_m: 400.0,
        area_height_m: 300.0,
        person_count: 5,
        seed: 42,
        fleet: FleetSpec::uniform(FLEET),
        ..PlatformConfig::default()
    }
}

/// Checks `FLEET` fast runtimes against the reference runtime over
/// `check_ticks` ticks per UAV, then times `samples` serial builds and
/// `builds` fleet platforms. Panics on the first divergent bit.
fn run_construct(check_ticks: u64, samples: usize, builds: usize) -> ConstructTimings {
    let sc = scene();
    for i in 0..FLEET {
        let mut fast = UavEddiRuntime::new(uav_seed(i), SafeDronesConfig::default(), home());
        let mut naive = ReferenceEddiRuntime::new(uav_seed(i), SafeDronesConfig::default(), home());
        for r in 0..check_ticks {
            let tel = telemetry(i % UAVS, r);
            let (f, n) = (fast.tick(&tel, &sc), naive.tick(&tel, &sc));
            let bits = |o: &sesame_core::EddiOutputs| {
                [
                    o.reliability.pof,
                    o.safeml_uncertainty,
                    o.dk_uncertainty,
                    o.combined_uncertainty,
                    o.risk.missed_person_prob,
                    o.risk.criticality_high_prob,
                ]
                .map(f64::to_bits)
            };
            assert_eq!(
                bits(&f),
                bits(&n),
                "UAV {i} diverged from the reference runtime at tick {r} — refusing to report"
            );
        }
    }
    let median = |mut xs: Vec<f64>| {
        xs.sort_by(f64::total_cmp);
        xs[xs.len() / 2]
    };
    let per_uav = (0..samples)
        .map(|k| {
            let t = Instant::now();
            let rt = UavEddiRuntime::new(uav_seed(k), SafeDronesConfig::default(), home());
            let us = t.elapsed().as_secs_f64() * 1e6;
            drop(rt);
            us
        })
        .collect();
    let fleet = (0..builds)
        .map(|_| {
            let config = fleet_config();
            let t = Instant::now();
            let platform = Platform::new(config);
            let ms = t.elapsed().as_secs_f64() * 1e3;
            drop(platform);
            ms
        })
        .collect();
    ConstructTimings {
        us_per_uav: median(per_uav),
        fleet_build_ms: median(fleet),
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

    let safeml = run_safeml(rounds * 10);
    let safeml_speedup = safeml.per_naive / safeml.per_assessment;

    let construct = if args.smoke {
        run_construct(5, 50, 5)
    } else {
        run_construct(20, 200, 10)
    };

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
        .num("safeml_speedup", safeml_speedup, 2)
        .num("safeml_ns_per_push", safeml.per_push, 1)
        .num("safeml_ns_per_assessment", safeml.per_assessment, 1)
        .num("safeml_ns_per_naive", safeml.per_naive, 1)
        .num("construct_us_per_uav", construct.us_per_uav, 1)
        .num("fleet_build_ms", construct.fleet_build_ms, 2)
        .raw("fast", &render(&fast))
        .raw("reference", &render(&reference))
        .emit(args.json_path.as_deref());
    eprintln!(
        "eddibench: speedup {speedup:.2}x, evals skipped {:.1}%",
        evals_skipped_ratio * 100.0
    );
    eprintln!(
        "eddibench: SafeML push {:.0} ns, assessment {:.0} ns, naive {:.0} ns ({safeml_speedup:.2}x)",
        safeml.per_push, safeml.per_assessment, safeml.per_naive
    );
    eprintln!(
        "eddibench: construction {:.0} us per UAV, {FLEET}-UAV Platform::new {:.1} ms",
        construct.us_per_uav, construct.fleet_build_ms
    );
    if speedup < 3.0 {
        eprintln!("eddibench: WARNING — speedup below the 3x target");
        std::process::exit(1);
    }
}
