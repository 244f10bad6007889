//! Scenario variants beyond the paper's headline runs: fault-tolerant
//! airframes, degraded visibility, and replay attacks.

use sesame::core::fleet::{FleetSpec, UavProfile};
use sesame::core::orchestrator::PlatformConfig;
use sesame::core::scenario::ScenarioBuilder;
use sesame::middleware::attack::{AttackInjector, AttackKind};
use sesame::types::events::SystemEvent;
use sesame::types::time::SimTime;
use sesame::uav_sim::faults::FaultKind;

fn config(seed: u64) -> PlatformConfig {
    PlatformConfig {
        area_width_m: 200.0,
        area_height_m: 140.0,
        person_count: 4,
        seed,
        ..PlatformConfig::default()
    }
}

/// A hexacopter fleet flies through a motor failure without losing the
/// airframe or the strip — no redistribution needed.
#[test]
fn hexa_fleet_survives_motor_failure() {
    let mut cfg = config(21);
    // The whole fleet flies hexacopter airframes tolerating one motor
    // loss — declared per-group through the FleetSpec builder.
    cfg.fleet = FleetSpec::builder()
        .group(3, UavProfile::default().motors(6, 1))
        .build();
    let outcome = ScenarioBuilder::new(21)
        .with_config(cfg)
        .fault(
            SimTime::from_secs(40),
            2,
            FaultKind::MotorFailure { motor: 0 },
        )
        .deadline(SimTime::from_secs(900))
        .build()
        .run();
    assert!(
        outcome.metrics.mission_completed_fraction > 0.99,
        "hexa fleet completes: {}",
        outcome.metrics.mission_completed_fraction
    );
    // The airframe survived: no crash event for uav3.
    assert!(!outcome.events.iter().any(
        |e| matches!(&e.event, SystemEvent::Landed(u, why) if u.index() == 3 && why == "crashed")
    ));

    // The same fault on a quad fleet kills the airframe.
    let quad = ScenarioBuilder::new(21)
        .with_config(config(21))
        .fault(
            SimTime::from_secs(40),
            2,
            FaultKind::MotorFailure { motor: 0 },
        )
        .deadline(SimTime::from_secs(900))
        .build()
        .run();
    assert!(quad.events.iter().any(
        |e| matches!(&e.event, SystemEvent::Landed(u, why) if u.index() == 3 && why == "crashed")
    ));
}

/// Poor visibility measurably hurts detection accuracy.
#[test]
fn poor_visibility_degrades_detection() {
    let clear = ScenarioBuilder::new(33)
        .with_config(config(33))
        .build()
        .run();
    let mut hazy_cfg = config(33);
    hazy_cfg.visibility = 0.4;
    let hazy = ScenarioBuilder::new(33).with_config(hazy_cfg).build().run();
    assert!(
        hazy.metrics.detection_accuracy < clear.metrics.detection_accuracy - 0.1,
        "hazy {} should trail clear {}",
        hazy.metrics.detection_accuracy,
        clear.metrics.detection_accuracy
    );
}

/// Steady wind displaces the airframes but the autopilot's GPS feedback
/// loop still completes the survey.
#[test]
fn mission_completes_in_wind() {
    let mut scenario = ScenarioBuilder::new(66)
        .with_config(config(66))
        .deadline(SimTime::from_secs(900))
        .build();
    scenario
        .platform_mut()
        .sim_mut()
        .environment_mut()
        .set_wind(5.0, 240.0);
    let outcome = scenario.run();
    assert!(
        outcome.metrics.mission_completed_fraction > 0.99,
        "completed {}",
        outcome.metrics.mission_completed_fraction
    );
}

/// Telemetry packet loss does not break the mission: the decision loop
/// degrades gracefully when a third of the telemetry stream vanishes.
#[test]
fn telemetry_loss_degrades_gracefully() {
    let mut scenario = ScenarioBuilder::new(55)
        .with_config(config(55))
        .deadline(SimTime::from_secs(900))
        .build();
    scenario
        .platform_mut()
        .bus_mut()
        .set_loss("/+/telemetry", 0.3);
    let outcome = scenario.run();
    assert!(
        outcome.metrics.mission_completed_fraction > 0.99,
        "completed {}",
        outcome.metrics.mission_completed_fraction
    );
    assert!(
        outcome.metrics.attack_detected_secs.is_none(),
        "loss is not an attack"
    );
}

/// A replay attack (recorded legitimate commands re-published later) is
/// caught by the IDS's sequence-freshness rule and reaches the replay-DoS
/// tree root.
#[test]
fn replay_attack_detected_by_sequence_freshness() {
    let mut scenario = ScenarioBuilder::new(44)
        .with_config(config(44))
        .deadline(SimTime::from_secs(400))
        .build();
    // Arm a recorder on UAV 1's command topic.
    let mut attacker = AttackInjector::arm(
        scenario.platform_mut().bus_mut(),
        AttackKind::Replay {
            pattern: "/uav1/cmd/#".into(),
        },
    );
    scenario.platform_mut().launch();
    // Let the route upload happen, record it, then replay it.
    let mut replayed = false;
    let mut detected_at = None;
    for _ in 0..3000 {
        let now = scenario.platform_mut().step();
        attacker.observe(scenario.platform_mut().bus_mut());
        if !replayed && now >= SimTime::from_secs(60) && !attacker.recorded().is_empty() {
            attacker.replay_all(scenario.platform_mut().bus_mut(), now);
            replayed = true;
        }
        if let Some(t) = scenario.platform_mut().series().attack_detected_at() {
            detected_at = Some(t);
            break;
        }
    }
    assert!(replayed, "commands must have been recorded and replayed");
    let t = detected_at.expect("replayed stale sequence numbers must be detected");
    assert!(t >= SimTime::from_secs(60));
}
