//! Crash containment: the compute-plane fault vocabulary, the scheduled
//! compute-fault injector, and the tick watchdog.
//!
//! PR 6's sharded tick made one UAV's panic everyone's problem: an
//! unwound worker tore down the whole campaign. This module supplies the
//! pieces the orchestrator threads through the tick to contain that
//! blast radius:
//!
//! * [`UavFault`] / [`FaultPhase`] — the structured record a caught
//!   panic (or a non-finite EDDI output) is converted into, in place of
//!   a process abort;
//! * [`ComputeFaultPlane`] — scheduled compute faults (EDDI panics,
//!   NaN/Inf telemetry corruption, solver stalls) with the same
//!   schedule / activate / expire lifecycle as the middleware's
//!   `CommFaultPlane`, driven once per tick from `Platform::step`;
//! * [`TickWatchdog`] — a logical (tick-count based, so determinism
//!   holds) deadline monitor that demotes the tick to a one-shard plan
//!   while a UAV keeps faulting or stalling;
//! * [`QuarantineCell`] — the per-UAV bookkeeping of the
//!   Quarantined state: entry fault, clean-probe streak and the bounded
//!   exponential backoff of the revival probe.
//!
//! Everything here is plain data plus pure bookkeeping; the actual
//! `catch_unwind` sites, excision from the EDDI tick / airspace scan /
//! ConSert composition, and the revival probe's fresh-engine ticks
//! live in `core::orchestrator`, where the state they guard lives.

use sesame_types::ids::UavId;
use sesame_types::telemetry::UavTelemetry;
use sesame_types::time::{SimDuration, SimTime};

pub use crate::shard::{panic_message, TaskPanic};

/// Where in the per-UAV tick a fault was isolated.
///
/// There is one tick implementation for every shard plan: the input
/// guards run in its serial pre-pass, every organic EDDI panic is caught
/// in its per-UAV fan-out, and the output guard runs in its serial merge.
/// Every fault record — injected, validation or organic — is therefore
/// bit-identical across shard policies.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultPhase {
    /// A scheduled [`ComputeFaultKind::EddiPanic`] fired at the head of
    /// the UAV's EDDI evaluation.
    Injected,
    /// Non-finite telemetry rejected by the input guard at the head of
    /// the EDDI evaluation.
    Telemetry,
    /// The EDDI produced a non-finite probability-of-failure or
    /// combined uncertainty.
    Output,
    /// Organic panic inside the UAV's EDDI tick.
    EddiTick,
    /// Organic panic inside the UAV's ConSert decision.
    ConsertDecide,
}

impl FaultPhase {
    /// Stable snake_case label for traces and events.
    pub fn as_str(&self) -> &'static str {
        match self {
            FaultPhase::Injected => "injected",
            FaultPhase::Telemetry => "telemetry",
            FaultPhase::Output => "output",
            FaultPhase::EddiTick => "eddi_tick",
            FaultPhase::ConsertDecide => "consert_decide",
        }
    }
}

impl std::fmt::Display for FaultPhase {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.as_str())
    }
}

/// A contained per-UAV compute fault: what a panic or a validation-guard
/// hit becomes instead of a campaign abort.
#[derive(Debug, Clone, PartialEq)]
pub struct UavFault {
    /// Fleet index of the faulted UAV.
    pub uav: usize,
    /// Its id (for logs; `uav{n}`).
    pub id: UavId,
    /// Sim time of the tick that isolated the fault.
    pub at: SimTime,
    /// Where in the tick it was caught.
    pub phase: FaultPhase,
    /// The panic payload (or guard description) as text.
    pub message: String,
}

impl UavFault {
    /// One-line rendering for events: `uav1 faulted at output: pof is NaN`.
    pub fn describe(&self) -> String {
        format!("{} faulted at {}: {}", self.id, self.phase, self.message)
    }
}

/// The scheduled compute-plane fault kinds, targeting one UAV by fleet
/// index.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ComputeFaultKind {
    /// The UAV's EDDI evaluation panics at its head while the window is
    /// active (the poisoned-index / solver-crash stand-in).
    EddiPanic {
        /// Target fleet index.
        uav: usize,
    },
    /// The UAV's battery / vision / link telemetry fields read NaN.
    TelemetryNan {
        /// Target fleet index.
        uav: usize,
    },
    /// The UAV's battery / vision / link telemetry fields read +inf.
    TelemetryInf {
        /// Target fleet index.
        uav: usize,
    },
    /// The UAV's solver blows its logical tick deadline. Execution-plane
    /// only: outputs are unchanged, but the [`TickWatchdog`] counts the
    /// stall and eventually demotes the tick to a one-shard plan.
    SolverStall {
        /// Target fleet index.
        uav: usize,
    },
}

impl ComputeFaultKind {
    /// Stable label for traces, reports and schedules.
    pub fn label(&self) -> String {
        match self {
            ComputeFaultKind::EddiPanic { uav } => format!("eddi_panic(uav{uav})"),
            ComputeFaultKind::TelemetryNan { uav } => format!("telemetry_nan(uav{uav})"),
            ComputeFaultKind::TelemetryInf { uav } => format!("telemetry_inf(uav{uav})"),
            ComputeFaultKind::SolverStall { uav } => format!("solver_stall(uav{uav})"),
        }
    }

    /// The targeted fleet index.
    pub fn uav(&self) -> usize {
        match self {
            ComputeFaultKind::EddiPanic { uav }
            | ComputeFaultKind::TelemetryNan { uav }
            | ComputeFaultKind::TelemetryInf { uav }
            | ComputeFaultKind::SolverStall { uav } => *uav,
        }
    }
}

/// A scheduled compute fault: a kind plus its active window.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ComputeFault {
    /// Activation time.
    pub at: SimTime,
    /// Expiry time (exclusive).
    pub until: SimTime,
    /// What misbehaves while active.
    pub kind: ComputeFaultKind,
}

/// Lifecycle of one scheduled compute fault.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Window {
    Pending,
    Active,
    Done,
}

/// An activation or expiry reported by [`ComputeFaultPlane::step`].
#[derive(Debug, Clone, PartialEq)]
pub struct ComputeFaultTransition {
    /// The fault's stable label.
    pub label: String,
    /// `true` on activation, `false` on expiry.
    pub activated: bool,
    /// The transitioning fault.
    pub fault: ComputeFault,
}

/// The scheduled compute-fault injector — `CommFaultPlane`'s sibling for
/// the compute plane. Faults are scheduled up front, stepped once per
/// tick, and queried by the orchestrator at the points of the tick they
/// corrupt.
#[derive(Debug, Clone, Default)]
pub struct ComputeFaultPlane {
    entries: Vec<(ComputeFault, Window)>,
}

impl ComputeFaultPlane {
    /// An empty plane (no scheduled faults).
    pub fn new() -> Self {
        Self::default()
    }

    /// Schedules `kind` to hold from `at` for `duration`.
    pub fn schedule(&mut self, at: SimTime, duration: SimDuration, kind: ComputeFaultKind) {
        self.entries.push((
            ComputeFault {
                at,
                until: at + duration,
                kind,
            },
            Window::Pending,
        ));
    }

    /// Advances the schedule to `now`, returning every activation and
    /// expiry that occurred (in schedule order).
    pub fn step(&mut self, now: SimTime) -> Vec<ComputeFaultTransition> {
        let mut out = Vec::new();
        for (fault, window) in &mut self.entries {
            match window {
                Window::Pending if now >= fault.at => {
                    *window = if now >= fault.until {
                        // Zero-length or already-expired window: never active.
                        Window::Done
                    } else {
                        Window::Active
                    };
                    if *window == Window::Active {
                        out.push(ComputeFaultTransition {
                            label: fault.kind.label(),
                            activated: true,
                            fault: *fault,
                        });
                    }
                }
                Window::Active if now >= fault.until => {
                    *window = Window::Done;
                    out.push(ComputeFaultTransition {
                        label: fault.kind.label(),
                        activated: false,
                        fault: *fault,
                    });
                }
                _ => {}
            }
        }
        out
    }

    /// Currently-active faults.
    pub fn active(&self) -> Vec<ComputeFault> {
        self.entries
            .iter()
            .filter(|(_, w)| *w == Window::Active)
            .map(|(f, _)| *f)
            .collect()
    }

    /// Faults not yet activated.
    pub fn pending(&self) -> Vec<ComputeFault> {
        self.entries
            .iter()
            .filter(|(_, w)| *w == Window::Pending)
            .map(|(f, _)| *f)
            .collect()
    }

    /// Every scheduled fault regardless of lifecycle state.
    pub fn scheduled(&self) -> Vec<ComputeFault> {
        self.entries.iter().map(|(f, _)| *f).collect()
    }

    /// Whether an [`ComputeFaultKind::EddiPanic`] window is active for
    /// the UAV at fleet index `uav`.
    pub fn panic_armed(&self, uav: usize) -> bool {
        self.is_active(|k| matches!(k, ComputeFaultKind::EddiPanic { uav: u } if *u == uav))
    }

    /// Whether a [`ComputeFaultKind::SolverStall`] window is active for
    /// the UAV at fleet index `uav`.
    pub fn stalled(&self, uav: usize) -> bool {
        self.is_active(|k| matches!(k, ComputeFaultKind::SolverStall { uav: u } if *u == uav))
    }

    /// Applies any active telemetry-corruption fault for fleet index
    /// `uav` to `t`, returning `true` if fields were corrupted. Position
    /// and GPS are left intact — the corruption models failed sensor
    /// *readings*, not a teleporting airframe.
    pub fn corrupt_telemetry(&self, uav: usize, t: &mut UavTelemetry) -> bool {
        let value = if self
            .is_active(|k| matches!(k, ComputeFaultKind::TelemetryNan { uav: u } if *u == uav))
        {
            f64::NAN
        } else if self
            .is_active(|k| matches!(k, ComputeFaultKind::TelemetryInf { uav: u } if *u == uav))
        {
            f64::INFINITY
        } else {
            return false;
        };
        t.battery_soc = value;
        t.battery_temp_c = value;
        t.vision_health = value;
        t.link_quality = value;
        true
    }

    fn is_active(&self, pred: impl Fn(&ComputeFaultKind) -> bool) -> bool {
        self.entries
            .iter()
            .any(|(f, w)| *w == Window::Active && pred(&f.kind))
    }
}

/// Logical tick-deadline watchdog: counts, per UAV, consecutive ticks in
/// which the UAV faulted or its solver stalled, and trips once the
/// streak reaches `trip_after`. The platform reacts to a trip by
/// demoting the tick to a one-shard plan for a cooldown.
///
/// Strikes are per *UAV*, not per shard, so the trip schedule — and the
/// `watchdog.trip` counter it drives — is identical under every
/// [`crate::fleet::ShardPolicy`] (a shard-keyed count would depend on
/// the partition layout and break bit-identity across shard counts).
#[derive(Debug, Clone)]
pub struct TickWatchdog {
    strikes: Vec<u64>,
    trip_after: u64,
}

impl TickWatchdog {
    /// A watchdog over `fleet` UAVs tripping after `trip_after`
    /// consecutive faulty ticks (clamped to at least 1).
    pub fn new(fleet: usize, trip_after: u64) -> Self {
        TickWatchdog {
            strikes: vec![0; fleet],
            trip_after: trip_after.max(1),
        }
    }

    /// Feeds one tick's per-UAV fault/stall flags; returns the fleet
    /// indices that tripped this tick (streak reached `trip_after`), in
    /// fleet order. A tripped UAV's streak restarts, so a persistent
    /// stall re-trips every `trip_after` ticks, extending the demotion.
    pub fn observe(&mut self, faulted: &[bool]) -> Vec<usize> {
        let mut tripped = Vec::new();
        for (i, strikes) in self.strikes.iter_mut().enumerate() {
            if faulted.get(i).copied().unwrap_or(false) {
                *strikes += 1;
                if *strikes >= self.trip_after {
                    *strikes = 0;
                    tripped.push(i);
                }
            } else {
                *strikes = 0;
            }
        }
        tripped
    }

    /// Current streak of the UAV at fleet index `uav`.
    pub fn strikes(&self, uav: usize) -> u64 {
        self.strikes.get(uav).copied().unwrap_or(0)
    }
}

/// Per-UAV quarantine bookkeeping: the fault that triggered entry and
/// the revival probe's streak / backoff state. The probe engine itself
/// (a fresh reference EDDI) lives in the orchestrator's `UavRt`.
#[derive(Debug, Clone)]
pub struct QuarantineCell {
    /// The fault that put the UAV here.
    pub fault: UavFault,
    /// Tick index at quarantine entry.
    pub entered_tick: u64,
    /// Consecutive clean probe ticks so far.
    pub clean_ticks: u64,
    /// Failed-probe count, bounded by the backoff cap.
    pub backoff_exp: u32,
    /// Next tick index at which the revival probe runs.
    pub next_probe_tick: u64,
}

impl QuarantineCell {
    /// Opens a cell at `tick` for `fault`; the first probe runs
    /// `backoff_base` ticks later.
    pub fn new(fault: UavFault, tick: u64, backoff_base: u64) -> Self {
        QuarantineCell {
            fault,
            entered_tick: tick,
            clean_ticks: 0,
            backoff_exp: 0,
            next_probe_tick: tick.saturating_add(backoff_base.max(1)),
        }
    }

    /// Records a clean probe tick at `tick`: the streak advances and the
    /// probe re-runs next tick (a revival candidate is probed every tick
    /// until it either completes the streak or faults again).
    pub fn probe_clean(&mut self, tick: u64) {
        self.clean_ticks += 1;
        self.next_probe_tick = tick + 1;
    }

    /// Records a failed probe at `tick`: the streak resets and the next
    /// probe backs off exponentially, bounded by `cap`.
    pub fn probe_failed(&mut self, tick: u64, backoff_base: u64, cap: u32) {
        self.clean_ticks = 0;
        self.backoff_exp = (self.backoff_exp + 1).min(cap);
        let spacing = backoff_base.max(1).saturating_shl(self.backoff_exp);
        self.next_probe_tick = tick.saturating_add(spacing);
    }
}

/// `u64::checked_shl` that saturates instead of wrapping — backoff
/// spacings stay monotone even at absurd exponents.
trait SaturatingShl {
    fn saturating_shl(self, exp: u32) -> u64;
}

impl SaturatingShl for u64 {
    fn saturating_shl(self, exp: u32) -> u64 {
        self.checked_shl(exp).unwrap_or(u64::MAX)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sesame_types::geo::GeoPoint;
    use sesame_types::telemetry::UavTelemetry;

    fn telemetry() -> UavTelemetry {
        UavTelemetry::nominal(UavId::new(1), SimTime::ZERO, GeoPoint::default())
    }

    #[test]
    fn plane_walks_pending_active_done() {
        let mut plane = ComputeFaultPlane::new();
        plane.schedule(
            SimTime::from_secs(5),
            SimDuration::from_secs(3),
            ComputeFaultKind::EddiPanic { uav: 1 },
        );
        assert_eq!(plane.pending().len(), 1);
        assert!(plane.step(SimTime::from_secs(4)).is_empty());
        assert!(!plane.panic_armed(1));
        let tr = plane.step(SimTime::from_secs(5));
        assert_eq!(tr.len(), 1);
        assert!(tr[0].activated);
        assert_eq!(tr[0].label, "eddi_panic(uav1)");
        assert!(plane.panic_armed(1));
        assert!(!plane.panic_armed(0));
        let tr = plane.step(SimTime::from_secs(8));
        assert_eq!(tr.len(), 1);
        assert!(!tr[0].activated);
        assert!(!plane.panic_armed(1));
        assert!(plane.active().is_empty());
    }

    #[test]
    fn corruption_targets_sensor_fields_only() {
        let mut plane = ComputeFaultPlane::new();
        plane.schedule(
            SimTime::ZERO,
            SimDuration::from_secs(1),
            ComputeFaultKind::TelemetryNan { uav: 2 },
        );
        plane.step(SimTime::ZERO);
        let mut t = telemetry();
        assert!(!plane.corrupt_telemetry(0, &mut t), "wrong uav untouched");
        assert!(plane.corrupt_telemetry(2, &mut t));
        assert!(t.battery_soc.is_nan());
        assert!(t.vision_health.is_nan());
        assert!(t.link_quality.is_nan());
        // Position stays sane: the fault models bad sensor readings.
        assert!(t.true_position.lat_deg.is_finite());
    }

    #[test]
    fn inf_corruption_uses_infinity() {
        let mut plane = ComputeFaultPlane::new();
        plane.schedule(
            SimTime::ZERO,
            SimDuration::from_secs(1),
            ComputeFaultKind::TelemetryInf { uav: 0 },
        );
        plane.step(SimTime::ZERO);
        let mut t = telemetry();
        assert!(plane.corrupt_telemetry(0, &mut t));
        assert_eq!(t.battery_soc, f64::INFINITY);
    }

    #[test]
    fn watchdog_trips_on_consecutive_strikes_only() {
        let mut wd = TickWatchdog::new(3, 3);
        assert!(wd.observe(&[false, true, false]).is_empty());
        assert!(wd.observe(&[false, true, false]).is_empty());
        // A clean tick resets the streak.
        assert!(wd.observe(&[false, false, false]).is_empty());
        assert!(wd.observe(&[false, true, true]).is_empty());
        assert!(wd.observe(&[false, true, true]).is_empty());
        assert_eq!(wd.observe(&[false, true, true]), vec![1, 2]);
        // The streak restarts after a trip.
        assert_eq!(wd.strikes(1), 0);
        assert!(wd.observe(&[false, true, false]).is_empty());
    }

    #[test]
    fn quarantine_cell_backoff_is_bounded() {
        let fault = UavFault {
            uav: 0,
            id: UavId::new(0),
            at: SimTime::ZERO,
            phase: FaultPhase::Injected,
            message: "chaos".into(),
        };
        let mut cell = QuarantineCell::new(fault, 100, 16);
        assert_eq!(cell.next_probe_tick, 116);
        cell.probe_failed(116, 16, 3);
        assert_eq!(cell.next_probe_tick, 116 + 32);
        cell.probe_failed(148, 16, 3);
        assert_eq!(cell.next_probe_tick, 148 + 64);
        cell.probe_failed(212, 16, 3);
        cell.probe_failed(340, 16, 3);
        // Exponent saturates at the cap.
        assert_eq!(cell.backoff_exp, 3);
        assert_eq!(cell.next_probe_tick, 340 + 128);
        cell.probe_clean(468);
        assert_eq!(cell.clean_ticks, 1);
        assert_eq!(cell.next_probe_tick, 469);
    }

    #[test]
    fn fault_describe_is_stable() {
        let fault = UavFault {
            uav: 2,
            id: UavId::new(2),
            at: SimTime::from_secs(9),
            phase: FaultPhase::Output,
            message: "pof is NaN".into(),
        };
        assert_eq!(fault.describe(), "uav2 faulted at output: pof is NaN");
    }
}
