//! The ground control station.
//!
//! "Automates the logging, management, and monitoring of UAV operations"
//! (§IV-A). The two GUIs of the paper are presentation layers over the
//! same state; headless, that state is the [`StatusSnapshot`] — the blue
//! status boxes and the red SESAME-output box of Fig. 4 as plain data.

use sesame_conserts::catalog::{MissionDecision, UavAction};
use sesame_types::geo::GeoPoint;
use sesame_types::ids::UavId;
use sesame_types::telemetry::FlightMode;
use sesame_types::time::SimTime;

/// One UAV's line in the status display.
#[derive(Debug, Clone, PartialEq)]
pub struct UavStatusLine {
    /// Which UAV.
    pub uav: UavId,
    /// Position shown to the operator.
    pub position: GeoPoint,
    /// Battery level.
    pub battery_soc: f64,
    /// Flight mode.
    pub mode: FlightMode,
    /// Latest ConSert action (None when SESAME is disabled).
    pub consert_action: Option<UavAction>,
    /// Latest probability of failure (None when SESAME is disabled).
    pub pof: Option<f64>,
}

/// The full monitoring snapshot at one instant.
#[derive(Debug, Clone, PartialEq)]
pub struct StatusSnapshot {
    /// Snapshot time.
    pub time: SimTime,
    /// Per-UAV lines.
    pub uavs: Vec<UavStatusLine>,
    /// Mission-level decision (None when SESAME is disabled).
    pub mission_decision: Option<MissionDecision>,
    /// Mission completion fraction.
    pub completion: f64,
    /// De-duplicated person findings so far.
    pub persons_found: usize,
}

impl StatusSnapshot {
    /// Renders the snapshot as the multi-line operator text of Fig. 4.
    pub fn render(&self) -> String {
        let mut out = format!(
            "[{}] mission {:.1}% complete, {} person(s) found\n",
            self.time,
            self.completion * 100.0,
            self.persons_found
        );
        if let Some(d) = self.mission_decision {
            out.push_str(&format!("decider: {d}\n"));
        }
        for line in &self.uavs {
            out.push_str(&format!(
                "  {}: {} soc={:.0}% mode={:?}",
                line.uav,
                line.position,
                line.battery_soc * 100.0,
                line.mode
            ));
            if let Some(a) = line.consert_action {
                out.push_str(&format!(" consert={a}"));
            }
            if let Some(p) = line.pof {
                out.push_str(&format!(" pof={p:.3}"));
            }
            out.push('\n');
        }
        out
    }
}

/// The logging GCS: keeps every snapshot.
#[derive(Debug, Clone, Default)]
pub struct GroundControlStation {
    log: Vec<StatusSnapshot>,
}

impl GroundControlStation {
    /// An empty station.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records a snapshot.
    pub fn record(&mut self, snapshot: StatusSnapshot) {
        self.log.push(snapshot);
    }

    /// The recorded history.
    pub fn log(&self) -> &[StatusSnapshot] {
        &self.log
    }

    /// The latest snapshot.
    pub fn latest(&self) -> Option<&StatusSnapshot> {
        self.log.last()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn snapshot(t: u64) -> StatusSnapshot {
        StatusSnapshot {
            time: SimTime::from_secs(t),
            uavs: vec![UavStatusLine {
                uav: UavId::new(1),
                position: GeoPoint::new(35.0, 33.0, 30.0),
                battery_soc: 0.8,
                mode: FlightMode::Mission,
                consert_action: Some(UavAction::ContinueMission),
                pof: Some(0.012),
            }],
            mission_decision: Some(MissionDecision::CompleteAsPlanned),
            completion: 0.42,
            persons_found: 2,
        }
    }

    #[test]
    fn log_accumulates_in_order() {
        let mut gcs = GroundControlStation::new();
        gcs.record(snapshot(1));
        gcs.record(snapshot(2));
        assert_eq!(gcs.log().len(), 2);
        assert_eq!(gcs.latest().unwrap().time, SimTime::from_secs(2));
    }

    #[test]
    fn render_contains_the_operator_facts() {
        let text = snapshot(5).render();
        assert!(text.contains("42.0% complete"));
        assert!(text.contains("2 person(s) found"));
        assert!(text.contains("uav1"));
        assert!(text.contains("pof=0.012"));
        assert!(text.contains("continue mission"));
        assert!(text.contains("as planned"));
    }

    #[test]
    fn render_without_sesame_omits_consert_fields() {
        let mut s = snapshot(1);
        s.uavs[0].consert_action = None;
        s.uavs[0].pof = None;
        s.mission_decision = None;
        let text = s.render();
        assert!(!text.contains("consert="));
        assert!(!text.contains("pof="));
        assert!(!text.contains("decider:"));
    }
}
