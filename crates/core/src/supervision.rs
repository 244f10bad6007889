//! Degraded-mode supervision: one kernel for every UAV's health,
//! quarantine and tick-watchdog state.
//!
//! The paper's dependability argument (§II, §V) assumes the platform
//! *notices* when a UAV stops being reachable or its compute crashes,
//! and falls back to a safe behaviour instead of silently flying on.
//! This module holds that policy and nothing else: the [`Supervisor`]
//! owns all of the supervision state, and its transitions are pure
//! functions of that state and one tick's observations. They append
//! ordered [`Action`]s to a buffer the caller owns; the orchestrator
//! applies them (counters, trace, events, return-to-base commands, probe
//! engines, the shard plan) and decides nothing itself.
//!
//! Each UAV is fed two freshness signals —
//!
//! * **telemetry staleness** (GCS side): when did the last telemetry
//!   message actually arrive over the bus, and
//! * **GCS heartbeat** (UAV side): when did the UAV last hear the ground
//!   station's periodic heartbeat on its command topic —
//!
//! plus the containment layer's per-tick observations (an isolated
//! compute fault, a solver stall, a revival-probe result):
//!
//! ```text
//! Nominal ──(stale ≥ DEGRADED_AFTER)──▶ Degraded
//! Degraded ──(stale ≥ FALLBACK_AFTER)──▶ SafeFallback (→ return to base)
//! any link state ──(both signals fresh)──▶ Nominal
//! any link state ──(isolated compute fault)──▶ Quarantined (→ RTB + revival probe)
//! Quarantined ──(REVIVAL_CLEAN_PROBES clean probes in a row)──▶ Nominal, links refreshed
//! ```
//!
//! Staleness never moves a quarantined UAV: it leaves Quarantined only
//! through the revival probe. Independently, a per-UAV watchdog counts
//! consecutive faulty-or-stalled ticks and trips every
//! [`WATCHDOG_TRIP_AFTER`]th, which demotes the whole tick to a
//! one-shard plan until [`WATCHDOG_COOLDOWN_TICKS`] after the last trip.
//! Strikes are per *UAV*, not per shard, so the trip schedule is the same
//! under every [`crate::fleet::ShardPolicy`].

use sesame_types::time::{SimDuration, SimTime};

/// Staleness (of either signal) that demotes a UAV to
/// [`HealthState::Degraded`].
pub const DEGRADED_AFTER: SimDuration = SimDuration::from_secs(2);
/// Staleness that demotes a UAV to [`HealthState::SafeFallback`].
pub const FALLBACK_AFTER: SimDuration = SimDuration::from_secs(6);
/// How often the GCS publishes its heartbeat on `/{uav}/cmd/heartbeat`.
pub const HEARTBEAT_PERIOD: SimDuration = SimDuration::from_secs(1);
/// Re-publishes of an unacknowledged GCS command before it is dropped.
pub const MAX_COMMAND_RETRIES: u32 = 3;
/// Base backoff of a command retry; doubles per attempt.
pub const RETRY_BACKOFF: SimDuration = SimDuration::from_millis(400);
/// Consecutive clean revival probes that release a quarantined UAV.
pub const REVIVAL_CLEAN_PROBES: u64 = 8;
/// Ticks from quarantine entry to the first probe; the spacing after a
/// failed probe is this shifted left by the capped failure count.
pub const PROBE_BACKOFF_TICKS: u64 = 16;
/// Cap on the probe backoff exponent.
pub const PROBE_BACKOFF_CAP: u32 = 6;
/// Consecutive faulty-or-stalled ticks of one UAV that trip the watchdog.
pub const WATCHDOG_TRIP_AFTER: u64 = 3;
/// Ticks the tick stays demoted to one shard after the last trip.
pub const WATCHDOG_COOLDOWN_TICKS: u64 = 64;

/// The supervision health of one UAV, as seen by the platform.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum HealthState {
    /// Both link directions fresh; full mission authority.
    #[default]
    Nominal,
    /// One or both freshness signals stale past [`DEGRADED_AFTER`]; the
    /// platform treats the UAV's data and reachability as suspect.
    Degraded,
    /// Staleness exceeded [`FALLBACK_AFTER`]: the UAV is presumed cut
    /// off and is commanded (or presumed to autonomously execute) the
    /// safe fallback behaviour — return to base.
    SafeFallback,
    /// The UAV's own compute faulted (a panic or non-finite EDDI output
    /// was isolated): it is excised from the EDDI tick, the airspace
    /// scan and ConSert composition, commanded RTB, and only re-admitted
    /// by the revival probe.
    Quarantined,
}

impl HealthState {
    /// Stable lower-case label for metrics and traces.
    pub fn as_str(&self) -> &'static str {
        match self {
            HealthState::Nominal => "nominal",
            HealthState::Degraded => "degraded",
            HealthState::SafeFallback => "safe_fallback",
            HealthState::Quarantined => "quarantined",
        }
    }

    /// Numeric encoding for gauges (0 = nominal, 1 = degraded, 2 = safe
    /// fallback, 3 = quarantined).
    pub fn as_gauge(&self) -> f64 {
        match self {
            HealthState::Nominal => 0.0,
            HealthState::Degraded => 1.0,
            HealthState::SafeFallback => 2.0,
            HealthState::Quarantined => 3.0,
        }
    }
}

impl std::fmt::Display for HealthState {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.as_str())
    }
}

/// Why a health transition happened.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Cause {
    /// Both signals are fresh again.
    LinksFresh,
    /// The telemetry signal, the staler of the two, is this old.
    TelemetryStale(SimDuration),
    /// The heartbeat signal, strictly the staler of the two, is this old.
    HeartbeatStale(SimDuration),
    /// The compute fault observed this tick.
    Fault,
    /// The revival probe streak completed.
    ProbeStreakClean,
}

/// One step the platform applies, in the order the kernel emits them.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Action {
    /// The compute fault observed for `uav` this tick was isolated.
    Isolated {
        /// Fleet index.
        uav: usize,
    },
    /// `uav`'s health changed.
    Transition {
        /// Fleet index.
        uav: usize,
        /// State before.
        from: HealthState,
        /// State after.
        to: HealthState,
        /// What drove it.
        cause: Cause,
    },
    /// A due revival probe of `uav` came back `clean` or failed.
    Probed {
        /// Fleet index.
        uav: usize,
        /// Whether the probe was clean.
        clean: bool,
    },
    /// `uav`'s watchdog streak tripped; `fresh` when the trip starts a
    /// demotion rather than extending one.
    WatchdogTrip {
        /// Fleet index.
        uav: usize,
        /// Whether the tick was not demoted before this trip.
        fresh: bool,
    },
    /// The tick stays demoted to one shard.
    Demoted,
    /// The demotion cooled down: restore the shard plan.
    Restored,
}

/// One UAV's containment observations for one tick.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Observation {
    /// A compute fault of this UAV was isolated this tick.
    pub fault: bool,
    /// Its solver blew its logical deadline this tick.
    pub stalled: bool,
    /// The result of its revival probe (`true` = clean), when one was
    /// due ([`Supervisor::probe_due`]).
    pub probe: Option<bool>,
}

/// The revival-probe bookkeeping of a quarantined UAV.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct Quarantine {
    /// Consecutive clean probes so far.
    pub clean_probes: u64,
    /// Failed probes so far, capped at [`PROBE_BACKOFF_CAP`].
    pub backoff_exp: u32,
    /// Tick at which the next probe runs.
    pub next_probe_tick: u64,
}

/// The supervision state of one UAV.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct UavSupervision {
    health: HealthState,
    /// Reset at quarantine entry and read only while `health` is
    /// Quarantined: `health` alone says whether the UAV is quarantined.
    probe: Quarantine,
    last_telemetry: SimTime,
    last_heartbeat: SimTime,
    strikes: u64,
}

impl UavSupervision {
    /// Current health state.
    pub fn health(&self) -> HealthState {
        self.health
    }

    /// The probe bookkeeping while quarantined.
    pub fn quarantine(&self) -> Option<Quarantine> {
        (self.health == HealthState::Quarantined).then_some(self.probe)
    }

    /// Staleness of the telemetry signal at `now`.
    pub fn telemetry_age(&self, now: SimTime) -> SimDuration {
        now.since(self.last_telemetry)
    }

    /// Staleness of the heartbeat signal at `now`.
    pub fn heartbeat_age(&self, now: SimTime) -> SimDuration {
        now.since(self.last_heartbeat)
    }

    /// The current run of consecutive faulty-or-stalled ticks.
    pub fn strikes(&self) -> u64 {
        self.strikes
    }

    /// The staleness machine; suspended while quarantined.
    fn assess(&mut self, now: SimTime) -> Option<(HealthState, Cause)> {
        let state = self.health;
        if state == HealthState::Quarantined {
            return None;
        }
        let tel = self.telemetry_age(now);
        let hb = self.heartbeat_age(now);
        let worst = tel.max(hb);
        let target = if worst >= FALLBACK_AFTER {
            HealthState::SafeFallback
        } else if worst >= DEGRADED_AFTER {
            HealthState::Degraded
        } else {
            HealthState::Nominal
        };
        if target == state {
            return None;
        }
        self.health = target;
        let cause = if target == HealthState::Nominal {
            Cause::LinksFresh
        } else if tel >= hb {
            Cause::TelemetryStale(tel)
        } else {
            Cause::HeartbeatStale(hb)
        };
        Some((state, cause))
    }

    /// Quarantines the UAV at `tick`; returns the state it left, or
    /// `None` if it was already quarantined.
    fn isolate(&mut self, tick: u64) -> Option<HealthState> {
        let from = self.health;
        if from == HealthState::Quarantined {
            return None;
        }
        self.health = HealthState::Quarantined;
        self.probe = Quarantine {
            next_probe_tick: tick + PROBE_BACKOFF_TICKS,
            ..Quarantine::default()
        };
        Some(from)
    }

    /// Books a probe result at `tick`. A clean probe is followed by
    /// another the next tick until the streak completes, which releases
    /// the UAV to Nominal with both signals refreshed to `now` (so the
    /// staleness machine does not re-demote it for the ticks it sat
    /// out); returns `true` on release. A failed probe restarts the
    /// streak and backs the next probe off exponentially.
    fn probe(&mut self, tick: u64, now: SimTime, clean: bool) -> bool {
        if self.health != HealthState::Quarantined {
            return false;
        }
        let q = &mut self.probe;
        if !clean {
            q.clean_probes = 0;
            q.backoff_exp = (q.backoff_exp + 1).min(PROBE_BACKOFF_CAP);
            q.next_probe_tick = tick + (PROBE_BACKOFF_TICKS << q.backoff_exp);
            return false;
        }
        q.clean_probes += 1;
        q.next_probe_tick = tick + 1;
        if q.clean_probes < REVIVAL_CLEAN_PROBES {
            return false;
        }
        self.health = HealthState::Nominal;
        self.last_telemetry = now;
        self.last_heartbeat = now;
        true
    }

    /// Feeds one tick of the watchdog; returns `true` when the streak
    /// trips (and restarts, so a persistent stall re-trips).
    fn strike(&mut self, faulty: bool) -> bool {
        if !faulty {
            self.strikes = 0;
            return false;
        }
        self.strikes += 1;
        if self.strikes < WATCHDOG_TRIP_AFTER {
            return false;
        }
        self.strikes = 0;
        true
    }
}

/// The supervision state of the whole fleet: one [`UavSupervision`] per
/// UAV plus the watchdog's demotion deadline.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Supervisor {
    uavs: Vec<UavSupervision>,
    /// `Some(tick)` while the tick is demoted to one shard; the plan is
    /// restored at `tick`.
    demoted_until: Option<u64>,
}

impl Supervisor {
    /// `fleet` Nominal UAVs whose signals are fresh at time zero.
    pub fn new(fleet: usize) -> Self {
        Supervisor {
            uavs: vec![UavSupervision::default(); fleet],
            demoted_until: None,
        }
    }

    /// The state of UAV `uav`.
    ///
    /// # Panics
    /// Panics if `uav` is out of range.
    pub fn uav(&self, uav: usize) -> &UavSupervision {
        &self.uavs[uav]
    }

    /// The health state of UAV `uav`.
    ///
    /// # Panics
    /// Panics if `uav` is out of range.
    pub fn health(&self, uav: usize) -> HealthState {
        self.uavs[uav].health()
    }

    /// Whether UAV `uav` is quarantined.
    pub fn quarantined(&self, uav: usize) -> bool {
        self.health(uav) == HealthState::Quarantined
    }

    /// How many UAVs are quarantined.
    pub fn quarantine_count(&self) -> usize {
        self.uavs
            .iter()
            .filter(|u| u.quarantine().is_some())
            .count()
    }

    /// The tick at which the current demotion ends, if demoted.
    pub fn demoted_until(&self) -> Option<u64> {
        self.demoted_until
    }

    /// Whether UAV `uav`'s revival probe is due at `tick`.
    pub fn probe_due(&self, uav: usize, tick: u64) -> bool {
        self.uavs[uav]
            .quarantine()
            .is_some_and(|q| tick >= q.next_probe_tick)
    }

    /// Observation: telemetry of UAV `uav` reached the GCS at `now`.
    pub fn telemetry_seen(&mut self, uav: usize, now: SimTime) {
        self.uavs[uav].last_telemetry = now;
    }

    /// Observation: UAV `uav` heard the GCS heartbeat at `now`.
    pub fn heartbeat_heard(&mut self, uav: usize, now: SimTime) {
        self.uavs[uav].last_heartbeat = now;
    }

    /// The staleness half of a tick: every UAV's link state against the
    /// windows at `now`, in fleet order.
    pub fn assess_links(&mut self, now: SimTime, out: &mut Vec<Action>) {
        for (uav, u) in self.uavs.iter_mut().enumerate() {
            if let Some((from, cause)) = u.assess(now) {
                out.push(Action::Transition {
                    uav,
                    from,
                    to: u.health(),
                    cause,
                });
            }
        }
    }

    /// The containment half of tick number `tick` at `now`, over one
    /// [`Observation`] per UAV: isolated faults quarantine, then probe
    /// results advance or release, then the watchdog counts strikes and
    /// runs the demotion — each pass in fleet order.
    pub fn contain(&mut self, tick: u64, now: SimTime, obs: &[Observation], out: &mut Vec<Action>) {
        for (uav, (u, o)) in self.uavs.iter_mut().zip(obs).enumerate() {
            if !o.fault {
                continue;
            }
            out.push(Action::Isolated { uav });
            if let Some(from) = u.isolate(tick) {
                out.push(Action::Transition {
                    uav,
                    from,
                    to: HealthState::Quarantined,
                    cause: Cause::Fault,
                });
            }
        }
        for (uav, (u, o)) in self.uavs.iter_mut().zip(obs).enumerate() {
            let Some(clean) = o.probe.filter(|_| u.quarantine().is_some()) else {
                continue;
            };
            out.push(Action::Probed { uav, clean });
            if u.probe(tick, now, clean) {
                out.push(Action::Transition {
                    uav,
                    from: HealthState::Quarantined,
                    to: HealthState::Nominal,
                    cause: Cause::ProbeStreakClean,
                });
            }
        }
        for (uav, (u, o)) in self.uavs.iter_mut().zip(obs).enumerate() {
            if u.strike(o.fault || o.stalled) {
                out.push(Action::WatchdogTrip {
                    uav,
                    fresh: self.demoted_until.is_none(),
                });
                // A re-trip while demoted extends the cooldown.
                self.demoted_until = Some(tick + WATCHDOG_COOLDOWN_TICKS);
            }
        }
        if let Some(until) = self.demoted_until {
            if tick >= until {
                self.demoted_until = None;
                out.push(Action::Restored);
            } else {
                out.push(Action::Demoted);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn links(s: &mut Supervisor, now: SimTime) -> Vec<Action> {
        let mut out = Vec::new();
        s.assess_links(now, &mut out);
        out
    }

    fn contain(s: &mut Supervisor, tick: u64, obs: &[Observation]) -> Vec<Action> {
        let mut out = Vec::new();
        s.contain(tick, SimTime::from_millis(tick * 100), obs, &mut out);
        out
    }

    const FAULT: Observation = Observation {
        fault: true,
        stalled: false,
        probe: None,
    };
    const QUIET: Observation = Observation {
        fault: false,
        stalled: false,
        probe: None,
    };

    #[test]
    fn staleness_walks_through_degraded_to_fallback_and_recovers() {
        let mut s = Supervisor::new(1);
        let t0 = SimTime::from_secs(10);
        s.telemetry_seen(0, t0);
        s.heartbeat_heard(0, t0);
        assert!(links(&mut s, SimTime::from_millis(11_900)).is_empty());
        let out = links(&mut s, SimTime::from_secs(12));
        assert_eq!(
            out,
            [Action::Transition {
                uav: 0,
                from: HealthState::Nominal,
                to: HealthState::Degraded,
                cause: Cause::TelemetryStale(SimDuration::from_secs(2)),
            }]
        );
        assert!(links(&mut s, SimTime::from_secs(14)).is_empty());
        let out = links(&mut s, SimTime::from_secs(16));
        assert!(matches!(
            out[..],
            [Action::Transition {
                to: HealthState::SafeFallback,
                ..
            }]
        ));
        let now = SimTime::from_secs(17);
        s.telemetry_seen(0, now);
        s.heartbeat_heard(0, now);
        let out = links(&mut s, now);
        assert!(matches!(
            out[..],
            [Action::Transition {
                from: HealthState::SafeFallback,
                to: HealthState::Nominal,
                cause: Cause::LinksFresh,
                ..
            }]
        ));
    }

    #[test]
    fn one_stale_signal_is_enough() {
        let mut s = Supervisor::new(1);
        s.telemetry_seen(0, SimTime::from_secs(8));
        let out = links(&mut s, SimTime::from_secs(8));
        assert!(matches!(
            out[..],
            [Action::Transition {
                to: HealthState::SafeFallback,
                cause: Cause::HeartbeatStale(_),
                ..
            }]
        ));
    }

    #[test]
    fn labels_and_gauges_are_stable() {
        assert_eq!(HealthState::Nominal.as_str(), "nominal");
        assert_eq!(HealthState::Degraded.as_str(), "degraded");
        assert_eq!(HealthState::SafeFallback.as_str(), "safe_fallback");
        assert_eq!(HealthState::Quarantined.as_str(), "quarantined");
        assert_eq!(HealthState::Nominal.as_gauge(), 0.0);
        assert_eq!(HealthState::SafeFallback.as_gauge(), 2.0);
        assert_eq!(HealthState::Quarantined.as_gauge(), 3.0);
        assert_eq!(format!("{}", HealthState::Degraded), "degraded");
    }

    #[test]
    fn quarantine_probe_and_release_cycle() {
        let mut s = Supervisor::new(2);
        let out = contain(&mut s, 100, &[QUIET, FAULT]);
        assert_eq!(
            out,
            [
                Action::Isolated { uav: 1 },
                Action::Transition {
                    uav: 1,
                    from: HealthState::Nominal,
                    to: HealthState::Quarantined,
                    cause: Cause::Fault,
                },
            ]
        );
        // Staleness no longer moves it.
        assert!(links(&mut s, SimTime::from_secs(60))
            .iter()
            .all(|a| !matches!(a, Action::Transition { uav: 1, .. })));
        assert!(!s.probe_due(1, 115));
        assert!(s.probe_due(1, 116));
        let failed = Observation {
            probe: Some(false),
            ..QUIET
        };
        contain(&mut s, 116, &[QUIET, failed]);
        assert_eq!(s.uav(1).quarantine().unwrap().next_probe_tick, 116 + 32);
        let clean = Observation {
            probe: Some(true),
            ..QUIET
        };
        for tick in 148..155 {
            let out = contain(&mut s, tick, &[QUIET, clean]);
            assert_eq!(
                out,
                [Action::Probed {
                    uav: 1,
                    clean: true
                }]
            );
        }
        let out = contain(&mut s, 155, &[QUIET, clean]);
        assert_eq!(out.len(), 2);
        assert_eq!(s.health(1), HealthState::Nominal);
        let now = SimTime::from_millis(15_500);
        assert_eq!(s.uav(1).telemetry_age(now), SimDuration::ZERO);
        assert_eq!(s.uav(1).heartbeat_age(now), SimDuration::ZERO);
    }

    #[test]
    fn watchdog_trips_every_third_strike_and_cools_down() {
        let mut s = Supervisor::new(1);
        let stall = Observation {
            stalled: true,
            ..QUIET
        };
        assert!(contain(&mut s, 1, &[stall]).is_empty());
        assert!(contain(&mut s, 2, &[stall]).is_empty());
        assert_eq!(
            contain(&mut s, 3, &[stall]),
            [
                Action::WatchdogTrip {
                    uav: 0,
                    fresh: true
                },
                Action::Demoted
            ]
        );
        assert_eq!(s.demoted_until(), Some(3 + WATCHDOG_COOLDOWN_TICKS));
        assert_eq!(contain(&mut s, 4, &[QUIET]), [Action::Demoted]);
        assert_eq!(contain(&mut s, 67, &[QUIET]), [Action::Restored]);
        assert!(contain(&mut s, 68, &[QUIET]).is_empty());
    }
}
