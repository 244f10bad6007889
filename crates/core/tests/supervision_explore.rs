//! Exhaustive exploration of the supervision kernel
//! (`sesame_core::supervision`).
//!
//! **One UAV.** Breadth-first over every per-tick observation sequence:
//! telemetry seen or not, heartbeat heard or not, an isolated compute
//! fault (only while the UAV is not quarantined — the platform never
//! admits a quarantined UAV to the EDDI tick, so it cannot fault), and,
//! whenever a revival probe is due, a clean or a failed probe. Visited
//! states are deduplicated on the kernel state plus a small reference
//! model, with link ages saturated at `FALLBACK_AFTER` (beyond it no
//! window changes), so the reachable set is finite and the search runs
//! to a fixpoint. That covers every quarantine → probe → release cycle,
//! the probe backoff up to its cap and every path to SafeFallback.
//!
//! Each explored tick advances the clock by one second. The kernel reads
//! time only through link ages compared against the 2 s and 6 s
//! windows, which whole seconds hit exactly; probe and watchdog spacing
//! are counted in ticks and explored exactly.
//!
//! **Two UAVs.** Solver stalls feed only the watchdog, and the demotion
//! is fleet-wide, so a second search runs every per-tick stall pattern
//! of two UAVs to a fixpoint against a reference model of the trips and
//! the cooldown.

use sesame_core::supervision::{
    Action, Cause, HealthState, Observation, Supervisor, DEGRADED_AFTER, FALLBACK_AFTER,
    PROBE_BACKOFF_CAP, PROBE_BACKOFF_TICKS, REVIVAL_CLEAN_PROBES, WATCHDOG_COOLDOWN_TICKS,
    WATCHDOG_TRIP_AFTER,
};
use sesame_types::time::{SimDuration, SimTime};
use std::collections::{HashSet, VecDeque};

const STEP: SimDuration = SimDuration::from_secs(1);
/// Link ages saturate here (in steps): `FALLBACK_AFTER` / `STEP`.
const AGE_CAP: u64 = 6;

/// What the search expects, tracked independently of the kernel.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
struct Model {
    /// Steps since telemetry / heartbeat was last seen (or the UAV was
    /// released), saturated at `AGE_CAP`.
    tel_age: u64,
    hb_age: u64,
    /// While quarantined: consecutive clean probes, failed probes so far
    /// (saturated at the backoff cap) and ticks until the next probe.
    streak: u64,
    failures: u32,
    probe_in: u64,
}

#[derive(Debug, Clone)]
struct Node {
    sup: Supervisor,
    tick: u64,
    now: SimTime,
    model: Model,
}

/// The kernel state relative to the node's clock, plus the model.
type Key = (
    HealthState,
    u64,
    u64,
    Option<(u64, u32, u64)>,
    u64,
    Option<u64>,
    Model,
);

fn steps(d: SimDuration) -> u64 {
    (d.as_millis() / STEP.as_millis()).min(AGE_CAP)
}

fn key(n: &Node) -> Key {
    let u = n.sup.uav(0);
    (
        u.health(),
        steps(u.telemetry_age(n.now)),
        steps(u.heartbeat_age(n.now)),
        u.quarantine()
            .map(|q| (q.clean_probes, q.backoff_exp, q.next_probe_tick - n.tick)),
        u.strikes(),
        n.sup.demoted_until().map(|t| t - n.tick),
        n.model,
    )
}

/// The link state the windows prescribe for a worst age of `age` steps.
fn expected_link_state(age: u64) -> HealthState {
    let age = SimDuration::from_millis(age * STEP.as_millis());
    if age >= FALLBACK_AFTER {
        HealthState::SafeFallback
    } else if age >= DEGRADED_AFTER {
        HealthState::Degraded
    } else {
        HealthState::Nominal
    }
}

#[test]
fn one_uav_kernel_satisfies_its_invariants_at_every_reachable_state() {
    let start = Node {
        sup: Supervisor::new(1),
        tick: 0,
        now: SimTime::ZERO,
        model: Model {
            tel_age: 0,
            hb_age: 0,
            streak: 0,
            failures: 0,
            probe_in: 0,
        },
    };
    let mut seen = HashSet::from([key(&start)]);
    let mut queue = VecDeque::from([start]);
    let mut links = Vec::new();
    let mut contained = Vec::new();
    let (mut transitions, mut releases, mut fallbacks, mut capped_backoffs) =
        (0u64, 0u64, 0u64, 0u64);

    while let Some(node) = queue.pop_front() {
        let before = *node.sup.uav(0);
        let was_quarantined = before.health() == HealthState::Quarantined;
        // What a quarantined UAV looks like after this tick, per probe
        // result: it must not depend on the link observations.
        let mut quarantined_outcome = Vec::new();
        for tel in [false, true] {
            for hb in [false, true] {
                for fault in [false, true] {
                    if fault && was_quarantined {
                        continue;
                    }
                    let tick = node.tick + 1;
                    let now = node.now + STEP;
                    let mut sup = node.sup.clone();
                    let mut model = node.model;
                    model.tel_age = if tel {
                        0
                    } else {
                        (model.tel_age + 1).min(AGE_CAP)
                    };
                    model.hb_age = if hb {
                        0
                    } else {
                        (model.hb_age + 1).min(AGE_CAP)
                    };
                    if tel {
                        sup.telemetry_seen(0, now);
                    }
                    if hb {
                        sup.heartbeat_heard(0, now);
                    }
                    links.clear();
                    sup.assess_links(now, &mut links);
                    if was_quarantined {
                        assert!(
                            links.is_empty(),
                            "staleness moved a quarantined UAV: {links:?}"
                        );
                        model.probe_in -= 1;
                    }
                    let due = sup.probe_due(0, tick);
                    assert_eq!(
                        due,
                        was_quarantined && model.probe_in == 0,
                        "probe due at the wrong tick: {model:?}"
                    );
                    let probes: &[Option<bool>] = if due {
                        &[Some(false), Some(true)]
                    } else {
                        &[None]
                    };
                    for &probe in probes {
                        transitions += 1;
                        let mut sup = sup.clone();
                        let mut model = model;
                        let obs = Observation {
                            fault,
                            stalled: false,
                            probe,
                        };
                        contained.clear();
                        sup.contain(tick, now, &[obs], &mut contained);
                        let after = *sup.uav(0);

                        // Only an isolated fault enters Quarantined, and
                        // every one does.
                        if !was_quarantined {
                            assert_eq!(
                                after.health() == HealthState::Quarantined,
                                fault,
                                "quarantine entry without a fault, or a fault without one"
                            );
                        }
                        if fault {
                            let q = after.quarantine().expect("entered");
                            assert_eq!(q.next_probe_tick - tick, PROBE_BACKOFF_TICKS);
                            model.streak = 0;
                            model.failures = 0;
                            model.probe_in = PROBE_BACKOFF_TICKS;
                        }

                        // Probes: only REVIVAL_CLEAN_PROBES consecutive
                        // clean ones leave Quarantined; spacing after a
                        // failure is 16 << min(failures, 6).
                        let released =
                            was_quarantined && after.health() != HealthState::Quarantined;
                        match probe {
                            Some(true) => {
                                model.streak += 1;
                                let completes = model.streak == REVIVAL_CLEAN_PROBES;
                                assert_eq!(
                                    released, completes,
                                    "release after {} clean probes",
                                    model.streak
                                );
                                if !completes {
                                    assert_eq!(
                                        after.quarantine().unwrap().next_probe_tick,
                                        tick + 1
                                    );
                                    model.probe_in = 1;
                                }
                            }
                            Some(false) => {
                                assert!(!released, "a failed probe released the UAV");
                                model.streak = 0;
                                model.failures = (model.failures + 1).min(PROBE_BACKOFF_CAP);
                                let spacing = PROBE_BACKOFF_TICKS << model.failures;
                                assert_eq!(
                                    after.quarantine().unwrap().next_probe_tick - tick,
                                    spacing
                                );
                                model.probe_in = spacing;
                                if model.failures == PROBE_BACKOFF_CAP {
                                    capped_backoffs += 1;
                                }
                            }
                            None => assert!(!released, "released without a probe"),
                        }

                        // A released UAV is Nominal with both links fresh.
                        if released {
                            releases += 1;
                            assert_eq!(after.health(), HealthState::Nominal);
                            assert_eq!(after.telemetry_age(now), SimDuration::ZERO);
                            assert_eq!(after.heartbeat_age(now), SimDuration::ZERO);
                            model = Model {
                                tel_age: 0,
                                hb_age: 0,
                                streak: 0,
                                failures: 0,
                                probe_in: 0,
                            };
                        }

                        // Outside quarantine the link state is exactly the
                        // windows' verdict on the staler signal: Degraded
                        // only at ≥ 2 s, SafeFallback only at ≥ 6 s.
                        if after.health() != HealthState::Quarantined {
                            let worst = model.tel_age.max(model.hb_age);
                            assert_eq!(after.health(), expected_link_state(worst), "{model:?}");
                        }
                        for a in links.iter().chain(&contained) {
                            if let Action::Transition { to, cause, .. } = a {
                                match cause {
                                    Cause::TelemetryStale(age) | Cause::HeartbeatStale(age) => {
                                        assert!(*age >= DEGRADED_AFTER);
                                        assert_eq!(
                                            *to == HealthState::SafeFallback,
                                            *age >= FALLBACK_AFTER
                                        );
                                    }
                                    Cause::Fault => assert_eq!(*to, HealthState::Quarantined),
                                    Cause::ProbeStreakClean | Cause::LinksFresh => {
                                        assert_eq!(*to, HealthState::Nominal)
                                    }
                                }
                                if *to == HealthState::SafeFallback {
                                    fallbacks += 1;
                                }
                            }
                        }

                        if was_quarantined {
                            let outcome = (after.health(), after.quarantine());
                            match quarantined_outcome.iter().find(|(k, _)| *k == probe) {
                                Some((_, first)) => assert_eq!(
                                    *first, outcome,
                                    "link observations changed a quarantined UAV"
                                ),
                                None => quarantined_outcome.push((probe, outcome)),
                            }
                        }

                        let next = Node {
                            sup,
                            tick,
                            now,
                            model,
                        };
                        if seen.insert(key(&next)) {
                            queue.push_back(next);
                        }
                    }
                }
            }
        }
    }
    eprintln!(
        "supervision explore (1 UAV): {} states, {transitions} transitions, \
         {releases} releases, {fallbacks} SafeFallback entries, {capped_backoffs} capped backoffs",
        seen.len()
    );
    assert!(releases > 0 && fallbacks > 0 && capped_backoffs > 0);
}

/// The reference watchdog: per-UAV consecutive stalled ticks (mod the
/// trip count) and the ticks left in the demotion.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
struct WatchdogModel {
    run: [u64; 2],
    remaining: Option<u64>,
}

#[test]
fn two_uav_watchdog_trips_every_third_strike_and_cools_down() {
    let start = (
        Supervisor::new(2),
        0u64,
        WatchdogModel {
            run: [0, 0],
            remaining: None,
        },
    );
    let key = |sup: &Supervisor, tick: u64, m: WatchdogModel| {
        (
            sup.uav(0).strikes(),
            sup.uav(1).strikes(),
            sup.demoted_until().map(|t| t - tick),
            m,
        )
    };
    let mut seen = HashSet::from([key(&start.0, start.1, start.2)]);
    let mut queue = VecDeque::from([start]);
    let (mut transitions, mut restores) = (0u64, 0u64);
    let mut out = Vec::new();
    while let Some((sup, tick, model)) = queue.pop_front() {
        for stalls in [[false, false], [false, true], [true, false], [true, true]] {
            transitions += 1;
            let tick = tick + 1;
            let mut sup = sup.clone();
            let mut m = model;
            let mut expected = Vec::new();
            m.remaining = m.remaining.map(|r| r - 1);
            for (uav, &stalled) in stalls.iter().enumerate() {
                m.run[uav] = if stalled {
                    (m.run[uav] + 1) % WATCHDOG_TRIP_AFTER
                } else {
                    0
                };
                if stalled && m.run[uav] == 0 {
                    expected.push(Action::WatchdogTrip {
                        uav,
                        fresh: m.remaining.is_none(),
                    });
                    m.remaining = Some(WATCHDOG_COOLDOWN_TICKS);
                }
            }
            match m.remaining {
                Some(0) => {
                    expected.push(Action::Restored);
                    m.remaining = None;
                    restores += 1;
                }
                Some(_) => expected.push(Action::Demoted),
                None => {}
            }
            let obs = stalls.map(|stalled| Observation {
                fault: false,
                stalled,
                probe: None,
            });
            out.clear();
            sup.contain(tick, SimTime::from_secs(tick), &obs, &mut out);
            assert_eq!(out, expected, "stalls {stalls:?} from {model:?}");
            if seen.insert(key(&sup, tick, m)) {
                queue.push_back((sup, tick, m));
            }
        }
    }
    eprintln!(
        "supervision explore (2 UAVs, watchdog): {} states, {transitions} transitions, {restores} restores",
        seen.len()
    );
    assert!(restores > 0);
}
