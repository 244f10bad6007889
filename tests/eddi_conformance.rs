//! Lockstep conformance: the incremental EDDI fast path against the
//! naive reference path.
//!
//! The fast path (solver profile cache, presorted SafeML, SINADRA factor
//! caches, fingerprint-gated ConSerts) claims **bit-identical** results,
//! not approximately-equal ones. The platform ships only the fast path,
//! so this suite checks it at the engine, against
//! [`ReferenceEddiRuntime`] and the naive ConSert catalog calls, three
//! ways, and at the platform against pinned digests of the reference
//! engines' runs:
//!
//! 1. 200+ randomized evidence schedules driven through paired runtimes,
//!    comparing every output field, the evidence snapshot and the ConSert
//!    decision bit for bit each tick;
//! 2. simulated missions: the telemetry a faulted three-UAV flight
//!    produces, fed to both engines through quarantine-style gaps, a
//!    revival-style rebuild and a communication blackout;
//! 3. edge cases: NaN-bearing telemetry, evidence toggling every tick,
//!    and a battery drain down the reliability tier ladder.
//!
//! The platform pins were recorded when a platform could still be built
//! on the reference engines, after checking that the fast-engine run
//! gave the same digest: the shipped platform must keep reproducing
//! those runs bit for bit.

use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use sesame::conserts::catalog::{
    certified_navigation_accuracy_m, evaluate_uav, uav_consert_network,
};
use sesame::conserts::{ConsertDecision, IncrementalConsertNetwork};
use sesame::core::checkpoint::Fnv;
use sesame::core::orchestrator::{Platform, PlatformConfig};
use sesame::core::reference::ReferenceEddiRuntime;
use sesame::core::{EddiOutputs, UavEddiRuntime};
use sesame::safedrones::monitor::SafeDronesConfig;
use sesame::types::geo::{GeoPoint, Vec3};
use sesame::types::ids::UavId;
use sesame::types::telemetry::UavTelemetry;
use sesame::types::time::{SimDuration, SimTime};
use sesame::uav_sim::{FaultKind, FlightCommand, Simulator, UavConfig, World};
use sesame::vision::features::SceneCondition;

fn home() -> GeoPoint {
    GeoPoint::new(35.0, 33.0, 0.0)
}

/// One randomized telemetry + scene draw. Every stochastic field a real
/// mission varies is varied here; both paths receive the same values.
fn random_inputs(rng: &mut StdRng, tick: u64) -> (UavTelemetry, SceneCondition) {
    let alt = 5.0 + rng.random::<f64>() * 65.0;
    let pos = home()
        .destination(rng.random::<f64>() * 360.0, rng.random::<f64>() * 200.0)
        .with_alt(alt);
    let mut tel = UavTelemetry::nominal(UavId::new(1), SimTime::from_millis(tick * 100), pos);
    // The reported fix drifts off truth now and then (spoof-ish jitter).
    tel.gps.position = if rng.random::<f64>() < 0.2 {
        pos.destination(rng.random::<f64>() * 360.0, rng.random::<f64>() * 30.0)
            .with_alt(alt)
    } else {
        pos
    };
    if rng.random::<f64>() < 0.1 {
        tel.gps.satellites = 4; // unusable fix
    }
    tel.battery_soc = 0.2 + rng.random::<f64>() * 0.8;
    tel.battery_temp_c = 15.0 + rng.random::<f64>() * 45.0;
    tel.vision_health = rng.random::<f64>();
    tel.link_quality = rng.random::<f64>();
    let scene = SceneCondition {
        altitude_m: alt,
        visibility: 0.4 + rng.random::<f64>() * 0.6,
    };
    (tel, scene)
}

/// Asserts every field of two [`EddiOutputs`] is bit-identical.
fn assert_outputs_bit_equal(f: &EddiOutputs, r: &EddiOutputs, ctx: &str) {
    assert_eq!(
        f.reliability.pof.to_bits(),
        r.reliability.pof.to_bits(),
        "pof diverged: {ctx}"
    );
    assert_eq!(f.reliability.level, r.reliability.level, "level: {ctx}");
    assert_eq!(
        f.safeml_uncertainty.to_bits(),
        r.safeml_uncertainty.to_bits(),
        "safeml: {ctx}"
    );
    assert_eq!(f.safeml_verdict, r.safeml_verdict, "verdict: {ctx}");
    assert_eq!(
        f.dk_uncertainty.to_bits(),
        r.dk_uncertainty.to_bits(),
        "dk: {ctx}"
    );
    assert_eq!(
        f.combined_uncertainty.to_bits(),
        r.combined_uncertainty.to_bits(),
        "combined: {ctx}"
    );
    assert_eq!(
        f.risk.missed_person_prob.to_bits(),
        r.risk.missed_person_prob.to_bits(),
        "missed: {ctx}"
    );
    assert_eq!(
        f.risk.criticality_high_prob.to_bits(),
        r.risk.criticality_high_prob.to_bits(),
        "criticality: {ctx}"
    );
    assert_eq!(
        f.risk.rescan_advised, r.risk.rescan_advised,
        "rescan: {ctx}"
    );
    assert_eq!(f.spoof.spoofed, r.spoof.spoofed, "spoofed: {ctx}");
    assert_eq!(
        f.spoof.innovation_m.to_bits(),
        r.spoof.innovation_m.to_bits(),
        "innovation: {ctx}"
    );
}

/// The tentpole acceptance gate: 200 randomized evidence schedules, every
/// tick compared bit for bit — outputs, evidence and ConSert decision.
#[test]
fn fast_path_locksteps_with_reference_over_200_randomized_schedules() {
    for schedule in 0u64..200 {
        let seed = 0xEDD1 ^ (schedule << 8);
        let mut fast = UavEddiRuntime::new(seed, SafeDronesConfig::default(), home());
        let mut reference = ReferenceEddiRuntime::new(seed, SafeDronesConfig::default(), home());
        let mut inc = IncrementalConsertNetwork::new("uav1");
        let naive_net = uav_consert_network("uav1");
        let mut rng = StdRng::seed_from_u64(seed ^ 0x5EED);
        let remaining = SimDuration::from_secs(60 + schedule * 3);
        fast.set_remaining_mission(remaining);
        reference.set_remaining_mission(remaining);
        for tick in 0..12 {
            let (tel, scene) = random_inputs(&mut rng, tick);
            let f = fast.tick(&tel, &scene);
            let r = reference.tick(&tel, &scene);
            assert_outputs_bit_equal(&f, &r, &format!("schedule {schedule} tick {tick}"));

            let attack = rng.random::<bool>();
            let neighbors = rng.random::<bool>();
            let ev_fast = fast.evidence(&tel, attack, neighbors);
            let ev_ref = reference.evidence(&tel, attack, neighbors);
            assert_eq!(ev_fast, ev_ref, "evidence: schedule {schedule} tick {tick}");

            let fast_decision = inc.decide(&ev_fast);
            let naive_decision = ConsertDecision {
                action: evaluate_uav(&naive_net, "uav1", &ev_ref),
                nav_accuracy_m: certified_navigation_accuracy_m(&naive_net, "uav1", &ev_ref),
            };
            assert_eq!(
                fast_decision, naive_decision,
                "consert decision: schedule {schedule} tick {tick}"
            );
        }
    }
}

/// NaN-bearing telemetry (dead vision sensor, garbage GPS coordinates)
/// must flow through both paths identically — caches key on exact bit
/// patterns, so NaNs may only hit against the very same NaN.
#[test]
fn nan_bearing_telemetry_stays_in_lockstep() {
    let mut fast = UavEddiRuntime::new(77, SafeDronesConfig::default(), home());
    let mut reference = ReferenceEddiRuntime::new(77, SafeDronesConfig::default(), home());
    let scene = SceneCondition {
        altitude_m: 30.0,
        visibility: 1.0,
    };
    for tick in 0u64..30 {
        let pos = home().with_alt(30.0);
        let mut tel = UavTelemetry::nominal(UavId::new(1), SimTime::from_millis(tick * 100), pos);
        tel.gps.position = pos;
        match tick % 3 {
            // A dead vision sensor reports NaN health.
            0 => tel.vision_health = f64::NAN,
            // A garbage fix: NaN coordinates poison the spoof innovation.
            1 => tel.gps.position = GeoPoint::new(f64::NAN, 33.0, 30.0),
            _ => {}
        }
        let f = fast.tick(&tel, &scene);
        let r = reference.tick(&tel, &scene);
        assert_outputs_bit_equal(&f, &r, &format!("nan tick {tick}"));
        assert_eq!(
            fast.evidence(&tel, false, true),
            reference.evidence(&tel, false, true),
            "nan evidence at tick {tick}"
        );
    }
}

/// Evidence toggling every tick: the last-tick ConSert cache must never
/// hit, and the answers must stay correct anyway.
#[test]
fn toggling_evidence_defeats_the_cache_but_not_correctness() {
    let mut fast = UavEddiRuntime::new(13, SafeDronesConfig::default(), home());
    let mut reference = ReferenceEddiRuntime::new(13, SafeDronesConfig::default(), home());
    let mut inc = IncrementalConsertNetwork::new("uav1");
    let naive_net = uav_consert_network("uav1");
    let scene = SceneCondition {
        altitude_m: 30.0,
        visibility: 1.0,
    };
    for tick in 0u64..24 {
        let pos = home().with_alt(30.0);
        let mut tel = UavTelemetry::nominal(UavId::new(1), SimTime::from_millis(tick * 100), pos);
        tel.gps.position = pos;
        // The link flaps every tick, flipping comm_ok in the evidence.
        tel.link_quality = if tick % 2 == 0 { 1.0 } else { 0.1 };
        let f = fast.tick(&tel, &scene);
        let r = reference.tick(&tel, &scene);
        assert_outputs_bit_equal(&f, &r, &format!("toggle tick {tick}"));
        let ev = fast.evidence(&tel, false, true);
        assert_eq!(ev, reference.evidence(&tel, false, true));
        let fast_decision = inc.decide(&ev);
        let naive_decision = ConsertDecision {
            action: evaluate_uav(&naive_net, "uav1", &ev),
            nav_accuracy_m: certified_navigation_accuracy_m(&naive_net, "uav1", &ev),
        };
        assert_eq!(fast_decision, naive_decision, "toggle tick {tick}");
    }
    assert_eq!(inc.stats().hits, 0, "alternating evidence must never hit");
    assert_eq!(inc.stats().misses, 24);
}

/// The arena-build gate: a slow battery drain walks the reliability tier
/// ladder (high → medium → low), which stresses exactly the machinery the
/// zero-alloc work rewrote — the in-place CTMC rate rewrite on every
/// telemetry tick, the inline `SolveKey` cache lookups, and the compiled
/// ConSert evaluator's miss path (each tier flip changes the evidence
/// fingerprint and forces a fresh decide). Every tick must stay bit-
/// identical to the naive reference, and the decision must match the
/// naive tree walk.
#[test]
fn battery_drain_tier_ladder_stays_in_lockstep() {
    let mut fast = UavEddiRuntime::new(4242, SafeDronesConfig::default(), home());
    let mut reference = ReferenceEddiRuntime::new(4242, SafeDronesConfig::default(), home());
    let mut inc = IncrementalConsertNetwork::new("uav1");
    let naive_net = uav_consert_network("uav1");
    fast.set_remaining_mission(SimDuration::from_secs(900));
    reference.set_remaining_mission(SimDuration::from_secs(900));
    let scene = SceneCondition {
        altitude_m: 30.0,
        visibility: 1.0,
    };
    let mut decisions = std::collections::HashSet::new();
    for tick in 0u64..120 {
        let pos = home().with_alt(30.0);
        let mut tel = UavTelemetry::nominal(UavId::new(1), SimTime::from_millis(tick * 100), pos);
        tel.gps.position = pos;
        // Drain from full charge to 5% while heating up: the SoC-stress
        // and Arrhenius terms sweep the whole rate ladder, and the
        // reliability tier crosses both thresholds.
        tel.battery_soc = (1.0 - tick as f64 / 126.0).max(0.05);
        tel.battery_temp_c = 25.0 + tick as f64 * 0.25;
        let f = fast.tick(&tel, &scene);
        let r = reference.tick(&tel, &scene);
        assert_outputs_bit_equal(&f, &r, &format!("drain tick {tick}"));
        let ev = fast.evidence(&tel, false, true);
        assert_eq!(ev, reference.evidence(&tel, false, true), "tick {tick}");
        let fast_decision = inc.decide(&ev);
        let naive_decision = ConsertDecision {
            action: evaluate_uav(&naive_net, "uav1", &ev),
            nav_accuracy_m: certified_navigation_accuracy_m(&naive_net, "uav1", &ev),
        };
        assert_eq!(fast_decision, naive_decision, "drain tick {tick}");
        decisions.insert(format!("{fast_decision:?}"));
    }
    assert!(
        decisions.len() >= 2,
        "the drain must actually flip the decision at least once \
         (saw {decisions:?})"
    );
    assert!(
        inc.stats().misses >= 2,
        "tier flips must force compiled-evaluator misses"
    );
}

fn platform_config(seed: u64) -> PlatformConfig {
    PlatformConfig {
        area_width_m: 150.0,
        area_height_m: 100.0,
        person_count: 3,
        seed,
        ..PlatformConfig::default()
    }
}

/// FNV-1a over everything a platform run decides: series and trajectory
/// bits, per-UAV health and certified accuracy, events, the trace, and
/// the wall-clock-free metrics minus the `eddi.cache.*` counters that
/// only the fast engines keep. Equal on the fast and the reference
/// engines, so it can be pinned from a reference-engine run.
fn engine_neutral_digest(p: &Platform) -> u64 {
    let mut h = Fnv::new();
    let series = p.series();
    for (t, v) in series.pof().iter().chain(series.uncertainty()) {
        h.f64(*t);
        h.f64(*v);
    }
    for i in 0..series.uav_count() {
        for (t, g) in series.trajectory(i) {
            h.f64(*t);
            h.f64(g.lat_deg);
            h.f64(g.lon_deg);
            h.f64(g.alt_m);
        }
    }
    for i in 0..p.uav_count() {
        h.bytes(format!("{:?} {:?}", p.health(i), p.certified_nav_accuracy_m(i)).as_bytes());
    }
    for ev in p.events().iter() {
        h.bytes(format!("{ev:?}").as_bytes());
    }
    for rec in p.trace().iter() {
        h.bytes(format!("{rec:?}").as_bytes());
    }
    let metrics = p.metrics_snapshot().without_wall_clock();
    for (k, v) in &metrics.counters {
        if k.starts_with("eddi.cache.") {
            continue;
        }
        h.bytes(k.as_bytes());
        h.u64(*v);
    }
    for (k, v) in &metrics.gauges {
        h.bytes(k.as_bytes());
        h.f64(*v);
    }
    h.finish()
}

/// Full platform runs on the shipped (fast) engines reproduce the
/// reference-engine runs of the same seeds bit for bit: series, health,
/// certificates, events, trace and metrics (minus `eddi.cache.*`). The
/// pins are the reference-engine digests; the cache must also be live.
#[test]
fn platform_runs_are_bit_identical_across_the_fast_path_switch() {
    const REFERENCE_DIGESTS: [(u64, u64); 3] = [
        (3, 0x0048_ab47_2ef7_f0d7),
        (17, 0x0ecd_5d79_a28c_5760),
        (99, 0x86cc_7b6f_c31b_fe6b),
    ];
    for (seed, pin) in REFERENCE_DIGESTS {
        let mut p = Platform::new(platform_config(seed));
        p.launch();
        for _ in 0..120 {
            p.step();
        }
        assert_eq!(
            engine_neutral_digest(&p),
            pin,
            "run diverged from the reference engines, seed {seed}"
        );
        assert!(p.metrics().counter("eddi.cache.hit") > 0, "seed {seed}");
    }
}

/// A degraded-mode communication-fault transition (link blackout →
/// supervision demotion → recovery) must invalidate caches, not corrupt
/// them: the shipped platform reproduces the reference-engine run of the
/// episode bit for bit, and keeps missing (re-evaluating) as the
/// evidence shifts.
#[test]
fn comm_fault_transitions_invalidate_but_stay_in_lockstep() {
    use sesame::middleware::chaos::CommFaultKind;
    const REFERENCE_DIGEST: u64 = 0x36aa_65bd_7703_fa3d;

    let mut p = Platform::new(platform_config(7));
    p.launch();
    for _ in 0..50 {
        p.step();
    }
    let misses_before = p.metrics().counter("eddi.cache.miss");
    // Cut uav1 off for 10 s: supervision demotes it through Degraded
    // into SafeFallback, and the ConSert evidence flips.
    let now = p.now();
    p.comm_faults_mut().schedule(
        now,
        SimDuration::from_secs(10),
        CommFaultKind::LinkBlackout { uav: UavId::new(1) },
    );
    for _ in 0..150 {
        p.step();
    }
    assert_eq!(
        engine_neutral_digest(&p),
        REFERENCE_DIGEST,
        "run diverged from the reference engines across the fault"
    );
    let misses_after = p.metrics().counter("eddi.cache.miss");
    assert!(
        misses_after > misses_before,
        "the transition must force re-evaluations ({misses_before} -> {misses_after})"
    );
}

/// One UAV's engine pair plus the ConSert pair, built from one seed as
/// construction and the revival probe build them.
struct EnginePair {
    fast: UavEddiRuntime,
    reference: ReferenceEddiRuntime,
    inc: IncrementalConsertNetwork,
}

impl EnginePair {
    fn new(seed: u64, id: UavId) -> Self {
        EnginePair {
            fast: UavEddiRuntime::new(seed, SafeDronesConfig::default(), home()),
            reference: ReferenceEddiRuntime::new(seed, SafeDronesConfig::default(), home()),
            inc: IncrementalConsertNetwork::new(id.to_string()),
        }
    }
}

/// The engine lockstep over simulated missions: three hexacopters take
/// off and fly their strips under battery, motor, GPS-spoof and vision
/// faults, and every tick's telemetry and true-altitude scene goes to a
/// fast and a reference engine of one seed. Outputs, evidence, the
/// SafeDrones PoF and the ConSert decision must agree bit for bit on
/// every tick, also across a quarantine-style gap in ticking, a fresh
/// engine pair built mid-run (the revival probe), and a link blackout.
#[test]
fn simulated_missions_stay_in_lockstep() {
    const UAVS: usize = 3;
    const TICKS: u64 = 320;
    // UAV 2 is quarantined (not ticked) over this range, then revived
    // with a fresh engine pair; UAV 1's link blacks out over the other.
    const QUARANTINE: std::ops::Range<u64> = 140..170;
    const BLACKOUT: std::ops::Range<u64> = 200..260;

    let mut sim = Simulator::new(World::rectangle(home(), 300.0, 200.0, 4), 0x51A1);
    let handles: Vec<_> = (0..UAVS)
        .map(|_| {
            sim.add_uav(UavConfig {
                motor_count: 6,
                tolerated_motor_failures: 1,
                ..UavConfig::default()
            })
        })
        .collect();
    for (k, &h) in handles.iter().enumerate() {
        let strip: Vec<GeoPoint> = (0..4)
            .map(|leg| {
                let east = 40.0 + 80.0 * k as f64;
                let north = if leg % 2 == 0 { 180.0 } else { 20.0 };
                home()
                    .destination(90.0, east + 20.0 * (leg / 2) as f64)
                    .destination(0.0, north)
                    .with_alt(30.0)
            })
            .collect();
        sim.command_takeoff(h, 30.0);
        sim.command(h, FlightCommand::SetMission(strip));
    }
    let secs = SimTime::from_secs;
    let (u1, u2, u3) = (UavId::new(1), UavId::new(2), UavId::new(3));
    let faults = sim.faults_mut();
    faults.add(secs(6), u2, FaultKind::MotorFailure { motor: 1 });
    faults.add(secs(8), u1, FaultKind::BatteryOverTemp { soc_drop: 0.4 });
    faults.add(
        secs(10),
        u3,
        FaultKind::GpsSpoof {
            drift: Vec3::new(2.0, 1.0, 0.0),
        },
    );
    faults.add(secs(12), u1, FaultKind::VisionDegraded { health: 0.3 });
    faults.add(secs(16), u2, FaultKind::MotorRestore { motor: 1 });
    faults.add(secs(22), u3, FaultKind::GpsRestore);

    let seed = |i: usize| 0x5EED ^ ((i as u64 + 1) << 16);
    let mut pairs: Vec<EnginePair> = handles
        .iter()
        .enumerate()
        .map(|(i, h)| EnginePair::new(seed(i), h.id()))
        .collect();
    let naive_net: Vec<_> = handles
        .iter()
        .map(|h| uav_consert_network(&h.id().to_string()))
        .collect();
    let mut misses_before_blackout = 0;
    let mut decisions = std::collections::HashSet::new();
    for tick in 0..TICKS {
        sim.step();
        let tels: Vec<UavTelemetry> = handles
            .iter()
            .enumerate()
            .map(|(i, &h)| {
                let mut tel = sim.telemetry(h);
                if i == 0 && BLACKOUT.contains(&tick) {
                    tel.link_quality = 0.05;
                }
                tel
            })
            .collect();
        let airborne = tels.iter().filter(|t| t.mode.is_airborne()).count();
        let remaining = SimDuration::from_millis((TICKS - tick) * 1_000);
        if tick == QUARANTINE.end {
            pairs[1] = EnginePair::new(seed(1), u2);
        }
        if tick == BLACKOUT.start {
            misses_before_blackout = pairs[0].inc.stats().misses;
        }
        for (i, (tel, pair)) in tels.iter().zip(pairs.iter_mut()).enumerate() {
            if i == 1 && QUARANTINE.contains(&tick) {
                continue;
            }
            let ctx = format!("uav{} tick {tick}", i + 1);
            let scene = SceneCondition {
                altitude_m: tel.true_position.alt_m,
                visibility: sim.world().visibility(),
            };
            pair.fast.set_remaining_mission(remaining);
            pair.reference.set_remaining_mission(remaining);
            let f = pair.fast.tick(tel, &scene);
            let r = pair.reference.tick(tel, &scene);
            assert_outputs_bit_equal(&f, &r, &ctx);
            assert_eq!(
                pair.fast.safedrones().probability_of_failure().to_bits(),
                pair.reference
                    .safedrones()
                    .probability_of_failure()
                    .to_bits(),
                "safedrones pof: {ctx}"
            );

            let neighbors = airborne >= 3 && tel.link_quality > 0.4;
            let ev = pair.fast.evidence(tel, f.spoof.spoofed, neighbors);
            let ev_ref = pair.reference.evidence(tel, r.spoof.spoofed, neighbors);
            assert_eq!(ev, ev_ref, "evidence: {ctx}");
            let name = tel.uav.to_string();
            let naive_decision = ConsertDecision {
                action: evaluate_uav(&naive_net[i], &name, &ev_ref),
                nav_accuracy_m: certified_navigation_accuracy_m(&naive_net[i], &name, &ev_ref),
            };
            let decision = pair.inc.decide(&ev);
            assert_eq!(decision, naive_decision, "consert decision: {ctx}");
            decisions.insert(format!("{decision:?}"));
        }
    }
    assert!(
        pairs[0].inc.stats().misses >= misses_before_blackout + 2,
        "entering and leaving the blackout must re-evaluate the ConSerts \
         ({misses_before_blackout} -> {})",
        pairs[0].inc.stats().misses
    );
    assert!(
        decisions.len() >= 2,
        "the faults must move the decision (saw {decisions:?})"
    );
}
