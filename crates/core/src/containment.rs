//! Crash containment: the compute-plane fault vocabulary and the
//! scheduled compute-fault injector.
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
//!   `CommFaultPlane`, driven once per tick from `Platform::step`.
//!
//! What a fault *does* to a UAV — quarantine, revival probes, the tick
//! watchdog — is the supervision kernel's policy ([`crate::supervision`]);
//! the `catch_unwind` sites, excision from the EDDI tick / airspace scan /
//! ConSert composition, and the revival probe's fresh-engine ticks live
//! in `core::orchestrator`, where the state they guard lives.

use sesame_types::ids::UavId;
use sesame_types::telemetry::UavTelemetry;
use sesame_types::time::{SimDuration, SimTime};

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
}

impl FaultPhase {
    /// Stable snake_case label for traces and events.
    pub fn as_str(&self) -> &'static str {
        match self {
            FaultPhase::Injected => "injected",
            FaultPhase::Telemetry => "telemetry",
            FaultPhase::Output => "output",
            FaultPhase::EddiTick => "eddi_tick",
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
    /// only: outputs are unchanged, but the supervision watchdog counts
    /// the stall and eventually demotes the tick to a one-shard plan.
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
