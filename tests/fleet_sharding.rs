//! Shard-count invariance: the one tick implementation, run over
//! several shard plans, against its own one-shard plan.
//!
//! The platform has a single tick (serial pre-pass, per-shard fan-out,
//! serial merge); the [`ShardPolicy`] only chooses how many fleet
//! windows the fan-outs run over — never what they compute. This suite
//! holds multi-shard runs to the same standard the EDDI fast path is
//! held to: **bit-identical** series, trajectories, event logs, traces,
//! ConSert decisions and (wall-clock-free) metrics, including the EDDI
//! cache hit/miss counters, against [`ShardPolicy::Serial`] (the
//! one-shard plan). Edge cases ride along: more shards than UAVs (empty
//! shards), non-divisible fleet/shard combinations, a single-UAV fleet,
//! the reference engines and the SESAME-off baseline.

use sesame::core::containment::ComputeFaultKind;
use sesame::core::fleet::{FleetSpec, ShardPolicy};
use sesame::core::orchestrator::{Platform, PlatformConfig};
use sesame::core::supervision::HealthState;
use sesame::obs::MetricsSnapshot;
use sesame::types::time::{SimDuration, SimTime};

fn config(seed: u64, uavs: usize, policy: ShardPolicy) -> PlatformConfig {
    PlatformConfig {
        area_width_m: 150.0,
        area_height_m: 100.0,
        person_count: 3,
        seed,
        fleet: FleetSpec::builder().uavs(uavs).shard_policy(policy).build(),
        ..PlatformConfig::default()
    }
}

fn run(cfg: PlatformConfig, steps: usize) -> Platform {
    run_with_faults(cfg, steps, &[])
}

fn run_with_faults(
    cfg: PlatformConfig,
    steps: usize,
    faults: &[(SimTime, SimDuration, ComputeFaultKind)],
) -> Platform {
    let mut p = Platform::new(cfg);
    for &(at, duration, kind) in faults {
        p.compute_faults_mut().schedule(at, duration, kind);
    }
    p.launch();
    for _ in 0..steps {
        p.step();
    }
    p
}

/// Asserts every observable output of two platform runs is bit-identical:
/// the per-second series, every trajectory, the full event log, the
/// structured trace, per-UAV ConSert accuracy bounds and the
/// wall-clock-free metrics (cache counters included).
fn assert_runs_bit_identical(a: &Platform, b: &Platform, ctx: &str) {
    let (sa, sb) = (a.series(), b.series());
    assert_eq!(sa.pof().len(), sb.pof().len(), "pof length: {ctx}");
    for (x, y) in sa.pof().iter().zip(sb.pof()) {
        assert_eq!(x.1.to_bits(), y.1.to_bits(), "pof bits: {ctx}");
    }
    for (x, y) in sa.uncertainty().iter().zip(sb.uncertainty()) {
        assert_eq!(x.1.to_bits(), y.1.to_bits(), "uncertainty bits: {ctx}");
    }
    assert_eq!(
        sa.attack_detected_at(),
        sb.attack_detected_at(),
        "attack detection: {ctx}"
    );
    for i in 0..a.uav_count() {
        let (ta, tb) = (sa.trajectory(i), sb.trajectory(i));
        assert_eq!(ta.len(), tb.len(), "trajectory length uav{i}: {ctx}");
        for (x, y) in ta.iter().zip(tb) {
            assert_eq!(x.0.to_bits(), y.0.to_bits(), "trajectory t uav{i}: {ctx}");
            assert_eq!(
                x.1.lat_deg.to_bits(),
                y.1.lat_deg.to_bits(),
                "trajectory lat uav{i}: {ctx}"
            );
            assert_eq!(
                x.1.lon_deg.to_bits(),
                y.1.lon_deg.to_bits(),
                "trajectory lon uav{i}: {ctx}"
            );
            assert_eq!(
                x.1.alt_m.to_bits(),
                y.1.alt_m.to_bits(),
                "trajectory alt uav{i}: {ctx}"
            );
        }
        assert_eq!(
            a.certified_nav_accuracy_m(i),
            b.certified_nav_accuracy_m(i),
            "nav accuracy uav{i}: {ctx}"
        );
        assert_eq!(a.health(i), b.health(i), "health uav{i}: {ctx}");
    }
    // Record-for-record: order matters, not just counts.
    let ea: Vec<_> = a.events().iter().collect();
    let eb: Vec<_> = b.events().iter().collect();
    assert_eq!(ea, eb, "event log: {ctx}");
    let tra: Vec<_> = a.trace().iter().collect();
    let trb: Vec<_> = b.trace().iter().collect();
    assert_eq!(tra, trb, "trace: {ctx}");
    let ma: MetricsSnapshot = a.metrics_snapshot().without_wall_clock();
    let mb: MetricsSnapshot = b.metrics_snapshot().without_wall_clock();
    assert_eq!(ma, mb, "metrics: {ctx}");
}

/// The issue's conformance gate: the paper's three-UAV fleet, sharded in
/// two, replays the serial run bit for bit.
#[test]
fn sharded_three_uav_run_matches_serial_bit_for_bit() {
    for seed in [3u64, 17] {
        let serial = run(config(seed, 3, ShardPolicy::Serial), 150);
        let sharded = run(config(seed, 3, ShardPolicy::Fixed { shards: 2 }), 150);
        assert_eq!(serial.shard_count(), 1);
        assert_eq!(sharded.shard_count(), 2, "sharding must actually engage");
        assert_runs_bit_identical(&serial, &sharded, &format!("3 UAVs, 2 shards, seed {seed}"));
    }
}

/// More shards than UAVs: the excess shards are empty and harmless.
#[test]
fn empty_shards_are_harmless() {
    let serial = run(config(7, 3, ShardPolicy::Serial), 100);
    let sharded = run(config(7, 3, ShardPolicy::Fixed { shards: 8 }), 100);
    assert_eq!(sharded.shard_count(), 8);
    assert_runs_bit_identical(&serial, &sharded, "3 UAVs, 8 shards");
}

/// A single-UAV fleet survives any shard request.
#[test]
fn single_uav_fleet_shards_trivially() {
    let serial = run(config(11, 1, ShardPolicy::Serial), 100);
    let sharded = run(config(11, 1, ShardPolicy::Fixed { shards: 4 }), 100);
    assert_runs_bit_identical(&serial, &sharded, "1 UAV, 4 shards");
}

/// A 50-UAV fleet under a non-divisible shard count (50 / 7) and across
/// several worker counts: every partition replays the one-shard run.
#[test]
fn fifty_uav_fleet_is_shard_count_invariant() {
    let serial = run(config(23, 50, ShardPolicy::Serial), 40);
    for shards in [4usize, 7, 8] {
        let sharded = run(config(23, 50, ShardPolicy::Fixed { shards }), 40);
        assert_eq!(sharded.shard_count(), shards);
        assert_runs_bit_identical(&serial, &sharded, &format!("50 UAVs, {shards} shards"));
    }
}

/// A mixed compute-fault schedule — an EDDI panic, a solver stall and a
/// NaN-telemetry window — covering every containment path at once.
fn mixed_faults() -> Vec<(SimTime, SimDuration, ComputeFaultKind)> {
    vec![
        (
            SimTime::from_millis(2000),
            SimDuration::from_millis(800),
            ComputeFaultKind::EddiPanic { uav: 1 },
        ),
        (
            SimTime::from_millis(2500),
            SimDuration::from_millis(1200),
            ComputeFaultKind::SolverStall { uav: 4 },
        ),
        (
            SimTime::from_millis(3000),
            SimDuration::from_millis(600),
            ComputeFaultKind::TelemetryNan { uav: 7 },
        ),
    ]
}

/// The tentpole gate: a run with injected panics, solver stalls and NaN
/// telemetry is bit-identical at every shard count. Panic isolation,
/// quarantine entry, RTB commands, watchdog demotion and revival probes
/// all happen at the same ticks with the same observable records
/// regardless of the execution plan.
#[test]
fn injected_faults_are_shard_count_invariant() {
    let faults = mixed_faults();
    let serial = run_with_faults(config(31, 12, ShardPolicy::Serial), 140, &faults);
    // The schedule actually exercised the machinery.
    let m = serial.metrics_snapshot();
    assert!(m.counter("uav.fault.isolated") >= 2, "panic + NaN isolated");
    assert!(m.counter("uav.quarantine.entered") >= 2);
    assert!(m.counter("uav.fault.solver_stall_ticks") >= 1);
    assert!(m.counter("watchdog.trip") >= 1, "stall streak must trip");
    for shards in [4usize, 8] {
        let sharded = run_with_faults(config(31, 12, ShardPolicy::Fixed { shards }), 140, &faults);
        assert_runs_bit_identical(
            &serial,
            &sharded,
            &format!("12 UAVs, {shards} shards, injected faults"),
        );
    }
}

/// Quarantine is a round trip: the faulted UAV is excised, probed on
/// backoff, and deterministically re-admitted once its window closes and
/// the probe streak comes back clean — ending Nominal with a fresh
/// engine, not stuck in a terminal state.
#[test]
fn quarantined_uav_is_released_after_the_fault_clears() {
    let faults = [(
        SimTime::from_millis(2000),
        SimDuration::from_millis(500),
        ComputeFaultKind::EddiPanic { uav: 2 },
    )];
    let p = run_with_faults(
        config(41, 6, ShardPolicy::Fixed { shards: 2 }),
        200,
        &faults,
    );
    let m = p.metrics_snapshot();
    assert_eq!(m.counter("uav.quarantine.entered"), 1);
    assert_eq!(m.counter("uav.quarantine.released"), 1);
    assert!(m.counter("uav.quarantine.probes") >= 1);
    assert_eq!(
        p.health(2),
        HealthState::Nominal,
        "released UAV must be Nominal again"
    );
    // Replaying the exact run re-admits at the same tick with the same
    // records: the lifecycle is deterministic, not timing-dependent.
    let q = run_with_faults(
        config(41, 6, ShardPolicy::Fixed { shards: 2 }),
        200,
        &faults,
    );
    assert_runs_bit_identical(&p, &q, "quarantine lifecycle replay");
}

/// A probe that lands while the panic window is still open fails and
/// backs off exponentially; the UAV stays quarantined for the duration.
#[test]
fn probes_fail_while_the_fault_window_is_open() {
    // Window long enough (8 s = 80 ticks) that the first probes (backoff
    // base 16 ticks) land inside it.
    let faults = [(
        SimTime::from_millis(2000),
        SimDuration::from_millis(8000),
        ComputeFaultKind::EddiPanic { uav: 0 },
    )];
    let p = run_with_faults(config(43, 4, ShardPolicy::Serial), 70, &faults);
    let m = p.metrics_snapshot();
    assert_eq!(m.counter("uav.quarantine.entered"), 1);
    assert!(m.counter("uav.quarantine.probe_failures") >= 1);
    assert_eq!(m.counter("uav.quarantine.released"), 0);
    assert_eq!(p.health(0), HealthState::Quarantined);
}

/// The watchdog demotion is bounded: the sharded plan is restored after
/// the cooldown, and the demotion bookkeeping is plan-independent (the
/// counters appear even on a serial run, where demotion is a no-op).
#[test]
fn watchdog_demotion_expires_and_restores_the_plan() {
    let faults = [(
        SimTime::from_millis(2000),
        SimDuration::from_millis(1000),
        ComputeFaultKind::SolverStall { uav: 1 },
    )];
    // 20 + 64 cooldown ticks all inside a 160-step run.
    let sharded = run_with_faults(
        config(47, 8, ShardPolicy::Fixed { shards: 4 }),
        160,
        &faults,
    );
    let serial = run_with_faults(config(47, 8, ShardPolicy::Serial), 160, &faults);
    let m = sharded.metrics_snapshot();
    assert!(m.counter("watchdog.trip") >= 1);
    assert!(m.counter("watchdog.demotions") >= 1);
    assert!(m.counter("watchdog.demoted_ticks") >= 1);
    assert_runs_bit_identical(&serial, &sharded, "watchdog demotion, 8 UAVs");
}

/// The inline-storage gate at fleet scale: a 96-UAV run pushes the
/// inline small-vector collections (fault-tree gate operands, SINADRA
/// factor storage and evidence sets) past their spill boundaries, so
/// any divergence between the inline/spilled representations or the
/// in-place CTMC rate rewrites would surface as a bit difference against
/// the one-shard run.
#[test]
fn large_fleet_spilled_collections_match_serial_bit_for_bit() {
    let serial = run(config(53, 96, ShardPolicy::Serial), 25);
    let sharded = run(config(53, 96, ShardPolicy::Fixed { shards: 6 }), 25);
    assert_eq!(sharded.shard_count(), 6);
    assert_runs_bit_identical(&serial, &sharded, "96 UAVs, 6 shards");
}

/// The Auto policy stays on one shard for small fleets (the paper's
/// 3-UAV demo pays no sharding overhead) and engages for large ones. The
/// shard plan does not depend on the SESAME layer: the SESAME-off
/// baseline shards too, and stays bit-identical to its one-shard run.
#[test]
fn auto_policy_scales_with_fleet_size() {
    let small = Platform::new(config(5, 3, ShardPolicy::Auto));
    assert_eq!(
        small.shard_count(),
        1,
        "3 UAVs stay on one shard under Auto"
    );
    let large = Platform::new(config(5, 64, ShardPolicy::Auto));
    assert!(large.shard_count() >= 1);
    let baseline = |policy| PlatformConfig {
        sesame_enabled: false,
        ..config(5, 12, policy)
    };
    let one = run(baseline(ShardPolicy::Serial), 80);
    let four = run(baseline(ShardPolicy::Fixed { shards: 4 }), 80);
    assert_eq!(four.shard_count(), 4, "the baseline must shard");
    assert_runs_bit_identical(&one, &four, "12 UAVs, 4 shards, baseline");
}
