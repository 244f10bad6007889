//! Allocation-regression gates for the hot-loop memory discipline
//! (DESIGN.md § "Hot-loop memory discipline").
//!
//! Two claims are pinned under the counting global allocator:
//!
//! * A steady-state tick of the per-UAV safety pipeline — EDDI
//!   evaluation (SafeDrones CTMC + FTA, SafeML, SINADRA, DeepKnowledge,
//!   attack tree) plus the ConSert decide — performs **zero heap
//!   allocations** once its caches and scratch buffers are warm, also
//!   while the telemetry drifts as in real flight (the battery drains and
//!   heats, so the SafeDrones rates change every tick).
//! * A whole quiet `Platform::step` stays within a small per-UAV budget:
//!   what is left is one shared `Arc<Message>` per publish plus rare
//!   event, trace and alert records.
//! * One SafeML monitor allocates a fixed handful of buffers over its
//!   whole life: its flat reference at construction and its flat window
//!   arrays at the first sample, whatever the feature count.
//!
//! Any future `clone()`, `format!` or `Vec::new` sneaking into the
//! steady-state path turns the counter and fails the build. Counts are
//! per thread, so the two tests may run in parallel.

use sesame_bench::alloc::{thread_allocations, CountingAllocator};
use sesame_conserts::IncrementalConsertNetwork;
use sesame_core::orchestrator::{Platform, PlatformConfig};
use sesame_core::UavEddiRuntime;
use sesame_safedrones::monitor::SafeDronesConfig;
use sesame_safeml::monitor::{SafeMlConfig, SafeMlMonitor};
use sesame_types::geo::GeoPoint;
use sesame_types::ids::UavId;
use sesame_types::telemetry::UavTelemetry;
use sesame_types::time::{SimDuration, SimTime};
use sesame_vision::features::{FeatureExtractor, SceneCondition};

#[global_allocator]
static ALLOCATOR: CountingAllocator = CountingAllocator;

const UAVS: usize = 3;
/// Must exceed the SafeML sliding window (50 samples): until the window
/// is full, every `push_sample` legitimately allocates its row buffer.
const WARMUP_ROUNDS: u64 = 60;
const MEASURED_ROUNDS: u64 = 50;

fn home() -> GeoPoint {
    GeoPoint::new(35.05, 33.20, 0.0)
}

/// Scan telemetry cruising at 30 m with a clean GPS, drifting as in real
/// flight: the battery drains and heats every round, so the SafeDrones
/// failure rates (and with them the solver profiles) change every tick.
fn telemetry(uav: usize, round: u64) -> UavTelemetry {
    let time = SimTime::from_millis(round * 100);
    let pos = home().destination(90.0, 5.0 * uav as f64).with_alt(30.0);
    let mut tel = UavTelemetry::nominal(UavId::new(uav as u32 + 1), time, pos);
    tel.gps.position = tel.true_position;
    tel.battery_soc = 1.0 - 0.003 * round as f64;
    tel.battery_temp_c = 25.0 + 0.1 * round as f64;
    tel
}

/// SafeDrones solver-profile misses summed over the fleet.
fn solver_misses(eddis: &[UavEddiRuntime]) -> u64 {
    eddis
        .iter()
        .map(|e| e.safedrones().solver_cache_stats().misses)
        .sum()
}

#[test]
fn steady_state_three_uav_tick_allocates_nothing() {
    // Guard against the silent-zero footgun: if this test binary somehow
    // lost the #[global_allocator] attribute, the counter would sit at
    // zero forever and the assertion below would pass vacuously.
    let probe_before = thread_allocations();
    let probe = vec![0u8; 64];
    assert!(
        thread_allocations() > probe_before,
        "counting allocator is not installed — the zero-alloc assertion \
         would be vacuous"
    );
    drop(probe);

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
    let scene = SceneCondition {
        altitude_m: 30.0,
        visibility: 1.0,
    };

    // Prebuild every telemetry snapshot outside the measured span.
    let rounds = WARMUP_ROUNDS + MEASURED_ROUNDS;
    let tels: Vec<Vec<UavTelemetry>> = (0..rounds)
        .map(|r| (0..UAVS).map(|i| telemetry(i, r)).collect())
        .collect();

    // Warmup: solver-profile caches, SafeML buffers, scratch buffers and
    // ConSert fingerprints all reach steady state.
    for round in tels.iter().take(WARMUP_ROUNDS as usize) {
        for i in 0..UAVS {
            let tel = &round[i];
            let out = eddis[i].tick(tel, &scene);
            let evidence = eddis[i].evidence(tel, false, true);
            let decision = conserts[i].decide(&evidence);
            assert!(out.reliability.pof.is_finite());
            assert!(decision.action.is_some() || decision.action.is_none());
        }
    }

    let misses_before = solver_misses(&eddis);
    let before = thread_allocations();
    let mut checksum = 0u64;
    for round in tels.iter().skip(WARMUP_ROUNDS as usize) {
        for i in 0..UAVS {
            let tel = &round[i];
            let out = eddis[i].tick(tel, &scene);
            let evidence = eddis[i].evidence(tel, false, true);
            let decision = conserts[i].decide(&evidence);
            checksum ^= out.reliability.pof.to_bits();
            checksum ^= decision.nav_accuracy_m.map_or(0, f64::to_bits);
        }
    }
    let allocs = thread_allocations() - before;

    assert_ne!(checksum, 0, "the measured loop must do real work");
    assert!(
        solver_misses(&eddis) - misses_before >= MEASURED_ROUNDS * UAVS as u64,
        "the drifting telemetry must change the SafeDrones rates every tick"
    );
    assert_eq!(
        allocs, 0,
        "steady-state EDDI + ConSert ticks allocated {allocs} times over \
         {MEASURED_ROUNDS} rounds x {UAVS} UAVs — the hot loop regressed \
         (see DESIGN.md, Hot-loop memory discipline)"
    );
}

/// Launch-to-steady ticks before measuring: climb-out, the route upload
/// and the first SafeML windows all allocate once.
const PLATFORM_WARMUP_TICKS: u64 = 300;
const PLATFORM_MEASURED_TICKS: u64 = 600;
/// Measured on the default 3-UAV platform: 1.48 allocations per UAV-tick
/// (2,657 over 1,800): one `Arc<Message>` per telemetry publish, plus the
/// heartbeat burst, the once-a-second GCS snapshot and rare event
/// records. The budget leaves room for event bursts, not for a new
/// per-UAV `clone()` or `format!` on every tick.
const PLATFORM_ALLOCS_PER_UAV_TICK: f64 = 3.0;

#[test]
fn quiet_platform_step_stays_within_its_allocation_budget() {
    let mut platform = Platform::new(PlatformConfig::default());
    platform.launch();
    for _ in 0..PLATFORM_WARMUP_TICKS {
        platform.step();
    }
    let before = thread_allocations();
    for _ in 0..PLATFORM_MEASURED_TICKS {
        platform.step();
    }
    let allocs = thread_allocations() - before;
    let uav_ticks = PLATFORM_MEASURED_TICKS * platform.uav_count() as u64;
    let per_uav_tick = allocs as f64 / uav_ticks as f64;
    eprintln!(
        "quiet platform step: {allocs} allocations over {uav_ticks} UAV-ticks = {per_uav_tick:.3}"
    );
    assert!(
        per_uav_tick <= PLATFORM_ALLOCS_PER_UAV_TICK,
        "whole-platform step allocated {per_uav_tick:.2} times per UAV-tick \
         ({allocs} over {uav_ticks}); budget {PLATFORM_ALLOCS_PER_UAV_TICK} \
         (see DESIGN.md, Hot-loop memory discipline)"
    );
}

/// Measured: 1 allocation at construction (the flat column-major
/// reference) and 5 at the first sample (the ring and the three flat
/// sorted-window arrays, plus the `j / m` fraction table); none after.
/// A layout with one buffer per feature would add at least 8 per buffer.
const SAFEML_MONITOR_ALLOCS: u64 = 6;

#[test]
fn safeml_monitor_allocates_a_fixed_handful_over_three_turnovers() {
    let scene = SceneCondition {
        altitude_m: 30.0,
        visibility: 1.0,
    };
    let mut fx = FeatureExtractor::new(8, 42 ^ (1 << 16));
    let reference = fx.reference_set(200);
    let config = SafeMlConfig::default();
    let frames: Vec<Vec<f64>> = (0..3 * config.window).map(|_| fx.extract(&scene)).collect();

    let before = thread_allocations();
    let mut mon = SafeMlMonitor::new(reference, config).expect("well-formed reference");
    let mut checksum = 0u64;
    for frame in &frames {
        mon.push_sample(frame)
            .expect("extractor and monitor share the width");
        checksum ^= mon.assessment().0.to_bits();
    }
    let allocs = thread_allocations() - before;

    assert_ne!(checksum, 0, "the monitor must see real data");
    assert!(
        allocs <= SAFEML_MONITOR_ALLOCS,
        "a SafeML monitor allocated {allocs} times from construction through \
         three window turnovers; budget {SAFEML_MONITOR_ALLOCS} (see DESIGN.md, \
         Hot-loop memory discipline)"
    );
}
