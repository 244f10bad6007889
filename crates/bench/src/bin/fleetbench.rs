//! Fleet-scale platform benchmark: full `Platform::step` throughput as
//! the fleet grows from the paper's 3 UAVs to 500, sharded vs serial.
//!
//! ```text
//! cargo run -p sesame-bench --release --bin fleetbench           # 3..500 UAVs
//! cargo run -p sesame-bench --release --bin fleetbench -- smoke  # CI sizes
//! cargo run -p sesame-bench --release --bin fleetbench -- --jobs 4
//! cargo run -p sesame-bench --release --bin fleetbench -- \
//!     --scenario scenarios/multi_incident_triage.sesame   # DSL-described world
//! ```
//!
//! The JSON report (schema: `sesame_bench::cli`) goes to stdout
//! (configuration chatter to stderr), so `fleetbench > BENCH_fleet.json`
//! records the repo's scaling trajectory — `scripts/check.sh` does
//! exactly that; `--json PATH` writes a copy. Per fleet size the report
//! carries whole-platform ticks per second, the per-UAV normalization
//! (`uav_ticks_per_sec` — flat means linear scaling of the per-UAV
//! phases; the nearest-teammate scan is a sort-and-sweep, O(n log n)
//! per tick), the shard
//! count actually used, the sharded-over-serial speedup, and the heap
//! allocations per tick inside the timed span (counting allocator). The
//! summary keys are the largest fleet's numbers and come first, which is
//! what `scripts/bench_gate.sh` gates on.
//!
//! A second section times the nearest-teammate scan on its own, outside
//! `Platform::step`, on the telemetry snapshots of a 200-UAV run: the
//! sorted airspace index plus one sweep per UAV flying its mission,
//! against the brute-force haversine over every pair. The two are
//! compared bit for bit before `airspace_ns_per_uav` and
//! `airspace_speedup` (brute force over sweep) are reported.
//!
//! `--jobs N` forces `ShardPolicy::Fixed { shards: N }`; the size
//! sweep's default is one shard per 32 UAVs (see [`sweep_policy`] for
//! why it deliberately sidesteps `ShardPolicy::Auto`'s core-count
//! clamp). Whatever the partition, the tick must be shard-count
//! invariant against the one-shard plan — every pair of runs is
//! compared on the wall-clock-free metrics projection, event count and
//! PoF series bits before its numbers are reported, so the speedup is
//! never measured against a fleet computing different answers.
//!
//! `--inject-panics` switches to the recovery workload instead: one
//! fleet size, a clean run and a run with scheduled compute faults
//! (EDDI panic, solver stall, NaN telemetry), each measured serial and
//! sharded with the same digest cross-checks. The report
//! (`BENCH_recovery.json` via `scripts/check.sh`) carries the faulted
//! per-UAV throughput and `recovery_ratio` — faulted over clean
//! throughput, i.e. what panic isolation, quarantine, revival probes
//! and the watchdog demotion cost; `scripts/bench_gate.sh` gates its
//! floor.

use sesame_bench::alloc::{allocations, CountingAllocator};
use sesame_bench::cli::{BenchArgs, JsonReport};
use sesame_core::airspace::{chord_teammates, nearest_teammate, Teammates};
use sesame_core::containment::ComputeFaultKind;
use sesame_core::fleet::{FleetSpec, ShardPolicy};
use sesame_core::orchestrator::{Platform, PlatformConfig};
use sesame_core::HealthState;
use sesame_types::telemetry::{FlightMode, UavTelemetry};
use sesame_types::time::{SimDuration, SimTime};
use std::time::Instant;

#[global_allocator]
static ALLOCATOR: CountingAllocator = CountingAllocator;

/// Fleet sizes for the full curve and the CI smoke subset.
const FULL_SIZES: [usize; 5] = [3, 10, 50, 200, 500];
const SMOKE_SIZES: [usize; 3] = [3, 50, 200];

/// The size sweep's sharding policy: `--jobs N` forces `Fixed { N }`;
/// otherwise one shard per 32 UAVs, *uncapped by the core count*.
/// `ShardPolicy::Auto` clamps to `available_parallelism`, which on a
/// single-core CI box resolves every size to one shard — the sweep would
/// then measure the one-shard plan twice and report `shards: 1` for every
/// row. Forcing the partition keeps the worker pool and the fleet-window
/// fan-outs in the measurement and makes the
/// recorded shard count the one actually used.
fn sweep_policy(jobs: Option<usize>, uavs: usize) -> ShardPolicy {
    match jobs {
        Some(n) => ShardPolicy::Fixed { shards: n },
        None => ShardPolicy::Fixed {
            shards: uavs.div_ceil(32),
        },
    }
}

fn config(uavs: usize, policy: ShardPolicy) -> PlatformConfig {
    PlatformConfig {
        // A fixed mid-size area: per-UAV strips shrink as the fleet
        // grows, but the per-tick work (EDDI, monitors, ConSerts) is
        // what the curve measures.
        area_width_m: 400.0,
        area_height_m: 300.0,
        person_count: 5,
        seed: 42,
        fleet: FleetSpec::builder().uavs(uavs).shard_policy(policy).build(),
        ..PlatformConfig::default()
    }
}

/// A scheduled compute fault for the recovery workload.
type Fault = (SimTime, SimDuration, ComputeFaultKind);

struct RunResult {
    shards: usize,
    elapsed_ns: u128,
    ticks: u64,
    /// Heap allocations inside the timed span (counting allocator).
    allocs: u64,
    /// `uav.quarantine.entered` at the end of the run.
    quarantines: u64,
    // Conformance digest: wall-clock-free metrics + events + PoF bits.
    digest: (String, usize, Vec<u64>),
}

fn run(uavs: usize, policy: ShardPolicy, ticks: u64) -> RunResult {
    run_with_faults(uavs, policy, ticks, &[])
}

fn run_with_faults(uavs: usize, policy: ShardPolicy, ticks: u64, faults: &[Fault]) -> RunResult {
    run_platform(config(uavs, policy), ticks, faults)
}

fn run_platform(cfg: PlatformConfig, ticks: u64, faults: &[Fault]) -> RunResult {
    let mut p = Platform::new(cfg);
    for &(at, duration, kind) in faults {
        p.compute_faults_mut().schedule(at, duration, kind);
    }
    p.launch();
    // Warmup outside the measurement: climb-out plus first-touch costs
    // (route upload, cache priming).
    for _ in 0..10 {
        p.step();
    }
    let allocs_before = allocations();
    let start = Instant::now();
    for _ in 0..ticks {
        p.step();
    }
    let elapsed_ns = start.elapsed().as_nanos();
    let allocs = allocations() - allocs_before;
    let snapshot = p.metrics_snapshot();
    let digest = (
        snapshot.without_wall_clock().render_table(),
        p.events().len(),
        p.series().pof().iter().map(|(_, v)| v.to_bits()).collect(),
    );
    RunResult {
        shards: p.shard_count(),
        elapsed_ns,
        ticks,
        allocs,
        quarantines: snapshot.counter("uav.quarantine.entered"),
        digest,
    }
}

fn ticks_per_sec(r: &RunResult) -> f64 {
    r.ticks as f64 / (r.elapsed_ns as f64 / 1e9)
}

/// Fleet size of the airspace section.
const AIRSPACE_UAVS: usize = 200;

/// Per-UAV airspace scan timings in nanoseconds: the median snapshot
/// over the fleet size.
struct AirspaceTimings {
    sweep: f64,
    brute: f64,
}

/// One tick's airspace scan results, `None` for a UAV not flying its
/// mission.
type Proximities = Vec<Option<Option<(f64, bool)>>>;

/// The nearest-teammate scan as a brute-force haversine over every pair:
/// each airborne, unquarantined teammate's `distance_3d_m`, keeping the
/// first strictly nearer one.
fn brute_nearest(i: usize, tels: &[UavTelemetry], quarantined: &[bool]) -> Option<(f64, bool)> {
    let tel = &tels[i];
    let mut nearest = f64::INFINITY;
    let mut converging = false;
    for j in 0..tels.len() {
        if j == i || quarantined[j] || !tels[j].mode.is_airborne() {
            continue;
        }
        let d = tel.true_position.distance_3d_m(&tels[j].true_position);
        if d < nearest {
            nearest = d;
            let rel = tels[j].true_position.to_enu(&tel.true_position);
            let rel_v = tel.velocity - tels[j].velocity;
            converging = rel_v.dot(&rel.into()) > 0.0;
        }
    }
    nearest.is_finite().then_some((nearest, converging))
}

/// Times the airspace scan on `ticks` telemetry snapshots of a serial
/// `uavs`-UAV run (one per tick after the usual warmup), `rounds` times
/// each: [`chord_teammates`] plus [`nearest_teammate`] for every
/// unquarantined UAV in `FlightMode::Mission`, as the airspace pass
/// runs them, against [`brute_nearest`] for the same UAVs. Panics if the
/// two disagree in any bit.
fn run_airspace(uavs: usize, ticks: u64, rounds: usize) -> AirspaceTimings {
    let mut p = Platform::new(config(uavs, ShardPolicy::Serial));
    p.launch();
    for _ in 0..10 {
        p.step();
    }
    let snapshots: Vec<(Vec<UavTelemetry>, Vec<bool>)> = (0..ticks)
        .map(|_| {
            p.step();
            let tels = (0..uavs)
                .map(|i| {
                    let handle = p.handle(i);
                    p.sim_mut().telemetry(handle)
                })
                .collect();
            let quarantined = (0..uavs)
                .map(|i| p.health(i) == HealthState::Quarantined)
                .collect();
            (tels, quarantined)
        })
        .collect();
    let subject = |tels: &[UavTelemetry], quarantined: &[bool], i: usize| {
        tels[i].mode == FlightMode::Mission && !quarantined[i]
    };
    let mut teammates = Teammates::default();
    let mut sweep_ns = Vec::with_capacity(snapshots.len() * rounds);
    let mut brute_ns = Vec::with_capacity(snapshots.len() * rounds);
    let mut sweep_out: Proximities = Vec::with_capacity(uavs);
    let mut brute_out: Proximities = Vec::with_capacity(uavs);
    for round in 0..rounds {
        for (k, (tels, quarantined)) in snapshots.iter().enumerate() {
            sweep_out.clear();
            brute_out.clear();
            let t0 = Instant::now();
            chord_teammates(tels, |j| quarantined[j], &mut teammates);
            sweep_out.extend((0..uavs).map(|i| {
                subject(tels, quarantined, i).then(|| nearest_teammate(i, tels, &teammates))
            }));
            let t1 = Instant::now();
            brute_out.extend((0..uavs).map(|i| {
                subject(tels, quarantined, i).then(|| brute_nearest(i, tels, quarantined))
            }));
            let t2 = Instant::now();
            sweep_ns.push((t1 - t0).as_nanos());
            brute_ns.push((t2 - t1).as_nanos());
            let bits = |out: &Proximities| -> Vec<Option<Option<(u64, bool)>>> {
                out.iter()
                    .map(|r| r.map(|r| r.map(|(d, c)| (d.to_bits(), c))))
                    .collect()
            };
            assert_eq!(
                bits(&sweep_out),
                bits(&brute_out),
                "airspace sweep diverged from the brute-force haversine on \
                 snapshot {k}, round {round} — refusing to report"
            );
        }
    }
    // The median snapshot, per UAV: robust to preempted snapshots.
    let per = |mut ns: Vec<u128>| {
        ns.sort_unstable();
        ns[ns.len() / 2] as f64 / uavs as f64
    };
    AirspaceTimings {
        sweep: per(sweep_ns),
        brute: per(brute_ns),
    }
}

/// The `--inject-panics` workload: clean vs compute-faulted runs, each
/// cross-checked serial vs sharded, reporting the throughput the
/// containment machinery (isolation, quarantine, probes, watchdog)
/// costs under fault load.
fn recovery_bench(args: &BenchArgs) {
    let uavs = if args.smoke { 10 } else { 50 };
    let ticks: u64 = if args.smoke { 30 } else { 60 };
    let policy = match args.jobs {
        Some(n) => ShardPolicy::Fixed { shards: n },
        None => ShardPolicy::Auto,
    };
    // Warmup is 10 ticks (1 s of sim time at 100 ms/tick); every window
    // opens inside the shortest (smoke) measured span so each fault
    // class — panic, stall, NaN telemetry — actually fires.
    let faults: Vec<Fault> = vec![
        (
            SimTime::from_millis(1500),
            SimDuration::from_millis(800),
            ComputeFaultKind::EddiPanic { uav: 1 },
        ),
        (
            SimTime::from_millis(2000),
            SimDuration::from_millis(1000),
            ComputeFaultKind::SolverStall { uav: 3 },
        ),
        (
            SimTime::from_millis(2500),
            SimDuration::from_millis(500),
            ComputeFaultKind::TelemetryNan { uav: 5 },
        ),
    ];
    eprintln!(
        "fleetbench: recovery workload, {uavs} UAVs, {ticks} timed ticks, \
         {} scheduled compute faults, policy {policy:?}{}",
        faults.len(),
        if args.smoke { " (smoke)" } else { "" }
    );

    let clean_serial = run(uavs, ShardPolicy::Serial, ticks);
    let clean_sharded = run(uavs, policy, ticks);
    assert_eq!(
        clean_serial.digest, clean_sharded.digest,
        "clean sharded run broke shard-count invariance against the one-shard \
         plan with supervision enabled — containment must be invisible on the \
         fault-free path"
    );
    let faulted_serial = run_with_faults(uavs, ShardPolicy::Serial, ticks, &faults);
    let faulted_sharded = run_with_faults(uavs, policy, ticks, &faults);
    assert_eq!(
        faulted_serial.digest, faulted_sharded.digest,
        "faulted sharded run broke shard-count invariance against the \
         one-shard plan — panic isolation must be plan-independent, refusing \
         to report"
    );
    assert!(
        faulted_sharded.quarantines >= 1,
        "the scheduled EDDI panic left no quarantine entry behind"
    );

    let clean_tps = ticks_per_sec(&clean_sharded) * uavs as f64;
    let faulted_tps = ticks_per_sec(&faulted_sharded) * uavs as f64;
    let ratio = faulted_tps / clean_tps;
    eprintln!(
        "fleetbench: faulted {faulted_tps:.0} UAV-ticks/s vs clean \
         {clean_tps:.0} ({ratio:.2}x), {} quarantine(s)",
        faulted_sharded.quarantines
    );
    JsonReport::new("fleet_recovery_supervised_tick")
        .int("uavs", uavs as u64)
        .int("shards", faulted_sharded.shards as u64)
        .num("uav_ticks_per_sec", faulted_tps, 0)
        .num("clean_uav_ticks_per_sec", clean_tps, 0)
        .num("recovery_ratio", ratio, 2)
        .int("quarantines", faulted_sharded.quarantines)
        .int("ticks", ticks)
        .emit(args.json_path.as_deref());
}

/// Rebuilds a fleet spec with a different shard policy, keeping every
/// profile group.
fn with_policy(spec: &FleetSpec, policy: ShardPolicy) -> FleetSpec {
    let mut b = FleetSpec::builder().shard_policy(policy);
    for g in spec.groups() {
        b = b.group(g.count, g.profile);
    }
    b.build()
}

/// The `--scenario FILE` workload: whole-platform throughput of the
/// world/fleet/mission a `.sesame` file describes, checked for
/// shard-count invariance against the one-shard plan with the same
/// digest cross-check the size sweep uses.
/// The scenario's *fault schedules* are not injected — this measures the
/// platform the scenario configures, not the scripted incidents.
fn scenario_bench(args: &BenchArgs, compiled: sesame_scenario_dsl::CompiledScenario) {
    let ticks = if args.smoke { 30 } else { 60 };
    let cfg = compiled.builder(42).config().clone();
    // `--jobs N` overrides; otherwise the scenario's own `shards` choice
    // is what gets measured.
    let policy = match args.jobs {
        Some(n) => ShardPolicy::Fixed { shards: n },
        None => cfg.fleet.shard_policy(),
    };
    let uavs = cfg.fleet.total();
    eprintln!(
        "fleetbench: scenario \"{}\", {uavs} UAVs, {ticks} timed ticks, policy {policy:?}{}",
        compiled.name(),
        if args.smoke { " (smoke)" } else { "" }
    );

    let mut serial_cfg = cfg.clone();
    serial_cfg.fleet = with_policy(&cfg.fleet, ShardPolicy::Serial);
    let mut sharded_cfg = cfg.clone();
    sharded_cfg.fleet = with_policy(&cfg.fleet, policy);
    let serial = run_platform(serial_cfg, ticks, &[]);
    let sharded = run_platform(sharded_cfg, ticks, &[]);
    assert_eq!(
        serial.digest,
        sharded.digest,
        "sharded run of scenario \"{}\" broke shard-count invariance against \
         the one-shard plan — semantics bug, refusing to report",
        compiled.name()
    );

    let tps = ticks_per_sec(&sharded);
    let speedup = tps / ticks_per_sec(&serial);
    eprintln!(
        "fleetbench: {:.0} ticks/s ({:.0} UAV-ticks/s), {} shard(s), {speedup:.2}x over serial",
        tps,
        tps * uavs as f64,
        sharded.shards
    );
    JsonReport::new("fleet_scenario_tick")
        .str("scenario", compiled.name())
        .int("uavs", uavs as u64)
        .int("shards", sharded.shards as u64)
        .num("ticks_per_sec", tps, 0)
        .num("uav_ticks_per_sec", tps * uavs as f64, 0)
        .num("sharded_speedup", speedup, 2)
        .int("ticks", ticks)
        .emit(args.json_path.as_deref());
}

fn main() {
    let args = BenchArgs::parse();
    if let Some(compiled) = args.compiled_scenario() {
        scenario_bench(&args, compiled);
        return;
    }
    if args.rest.iter().any(|a| a == "--inject-panics") {
        recovery_bench(&args);
        return;
    }
    let sizes: Vec<usize> = if args.smoke {
        SMOKE_SIZES.to_vec()
    } else {
        FULL_SIZES.to_vec()
    };
    let ticks = if args.smoke { 30 } else { 60 };
    eprintln!(
        "fleetbench: sizes {sizes:?}, {ticks} timed ticks each, one shard \
         per 32 UAVs{}{}",
        match args.jobs {
            Some(n) => format!(" (overridden: --jobs {n})"),
            None => String::new(),
        },
        if args.smoke { " (smoke)" } else { "" }
    );

    let mut rows = Vec::new();
    let mut last = None;
    for &n in &sizes {
        let serial = run(n, ShardPolicy::Serial, ticks);
        let sharded = run(n, sweep_policy(args.jobs, n), ticks);
        assert_eq!(
            serial.digest, sharded.digest,
            "sharded {n}-UAV run broke shard-count invariance against the \
             one-shard plan — semantics bug, refusing to report"
        );
        let tps = ticks_per_sec(&sharded);
        let per_uav = tps * n as f64;
        let speedup = ticks_per_sec(&sharded) / ticks_per_sec(&serial);
        let allocs_per_tick = sharded.allocs as f64 / sharded.ticks as f64;
        eprintln!(
            "fleetbench: {n:>4} UAVs, {:>2} shard(s): {tps:>8.1} ticks/s \
             ({per_uav:>9.0} UAV-ticks/s), speedup {speedup:.2}x, \
             {allocs_per_tick:.0} allocs/tick",
            sharded.shards
        );
        rows.push(format!(
            "{{\"uavs\": {n}, \"shards\": {}, \"ticks_per_sec\": {tps:.1}, \
             \"uav_ticks_per_sec\": {per_uav:.0}, \"serial_ticks_per_sec\": {:.1}, \
             \"speedup\": {speedup:.2}, \"allocs_per_tick\": {allocs_per_tick:.0}}}",
            sharded.shards,
            ticks_per_sec(&serial)
        ));
        last = Some((n, per_uav, speedup, sharded));
    }
    let (largest, per_uav, speedup, sharded) = last.expect("at least one size");
    let airspace = run_airspace(AIRSPACE_UAVS, ticks, 5);
    let airspace_speedup = airspace.brute / airspace.sweep;

    // Summary keys (the largest fleet's numbers) precede the curve, so
    // first-occurrence key extraction reads the headline values.
    JsonReport::new("fleet_scale_sharded_tick")
        .int("largest_fleet", largest as u64)
        .int("shards", sharded.shards as u64)
        .num("uav_ticks_per_sec", per_uav, 0)
        .num("speedup", speedup, 2)
        .num(
            "allocs_per_tick",
            sharded.allocs as f64 / sharded.ticks as f64,
            0,
        )
        .int("ticks", ticks)
        .num("airspace_speedup", airspace_speedup, 2)
        .num("airspace_ns_per_uav", airspace.sweep, 1)
        .raw("sizes", &format!("[\n    {}\n  ]", rows.join(",\n    ")))
        .emit(args.json_path.as_deref());
    eprintln!(
        "fleetbench: {largest} UAVs at {per_uav:.0} UAV-ticks/s, \
         sharded speedup {speedup:.2}x over serial"
    );
    eprintln!(
        "fleetbench: airspace scan {:.0} ns/UAV vs brute force {:.0} ns/UAV \
         ({airspace_speedup:.2}x) at {AIRSPACE_UAVS} UAVs",
        airspace.sweep, airspace.brute
    );
}
