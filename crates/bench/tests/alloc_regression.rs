//! Allocation-regression gate for the hot-loop memory discipline
//! (DESIGN.md § "Hot-loop memory discipline").
//!
//! The tentpole claim of the scratch/inline-storage work is that a quiet
//! steady-state tick of the per-UAV safety pipeline — EDDI evaluation
//! (SafeDrones CTMC + FTA, SafeML, SINADRA, DeepKnowledge, attack tree)
//! plus the ConSert decide — performs **zero heap allocations** once its
//! caches and scratch buffers are warm. This test pins that claim under
//! the counting global allocator: any future `clone()`, `format!` or
//! `Vec::new` sneaking into the steady-state path turns the counter and
//! fails the build.
//!
//! Telemetry snapshots are prebuilt outside the measured span (the
//! platform amortizes that construction through `telemetry_into`; here
//! it would just measure the workload generator). The full
//! `Platform::step` is *not* asserted to be zero-alloc — the bus publish
//! path (owned topic strings, payload `Arc`s) and the observability ring
//! buffers allocate by design; `tickbench` reports those as
//! `allocs_per_tick`.

use sesame_bench::alloc::{allocations, CountingAllocator};
use sesame_conserts::IncrementalConsertNetwork;
use sesame_core::UavEddiRuntime;
use sesame_safedrones::monitor::SafeDronesConfig;
use sesame_types::geo::GeoPoint;
use sesame_types::ids::UavId;
use sesame_types::telemetry::UavTelemetry;
use sesame_types::time::{SimDuration, SimTime};
use sesame_vision::features::SceneCondition;

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

/// Steady-state scan telemetry, identical to the eddibench workload:
/// cruising at 30 m, healthy battery, clean GPS.
fn telemetry(uav: usize, round: u64) -> UavTelemetry {
    let time = SimTime::from_millis(round * 100);
    let pos = home().destination(90.0, 5.0 * uav as f64).with_alt(30.0);
    let mut tel = UavTelemetry::nominal(UavId::new(uav as u32 + 1), time, pos);
    tel.gps.position = tel.true_position;
    tel
}

#[test]
fn steady_state_three_uav_tick_allocates_nothing() {
    // Guard against the silent-zero footgun: if this test binary somehow
    // lost the #[global_allocator] attribute, the counter would sit at
    // zero forever and the assertion below would pass vacuously.
    let probe_before = allocations();
    let probe = vec![0u8; 64];
    assert!(
        allocations() > probe_before,
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

    // Warmup: solver-profile caches, SafeML presort, scratch buffers and
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

    let before = allocations();
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
    let allocs = allocations() - before;

    assert_ne!(checksum, 0, "the measured loop must do real work");
    assert_eq!(
        allocs, 0,
        "steady-state EDDI + ConSert ticks allocated {allocs} times over \
         {MEASURED_ROUNDS} rounds x {UAVS} UAVs — the hot loop regressed \
         (see DESIGN.md, Hot-loop memory discipline)"
    );
}
