//! Telemetry records shared between the simulator, the middleware and the
//! EDDI monitors.
//!
//! One [`UavTelemetry`] snapshot is produced per UAV per tick; it carries
//! exactly the signals the paper's runtime monitors consume: position and
//! velocity, battery state-of-charge and temperature (SafeDrones §III-A1),
//! GPS quality factors (GPS localization ConSert), motor health, and the
//! autopilot flight mode.

use crate::geo::{GeoPoint, Vec3};
use crate::ids::UavId;
use crate::inline::InlineVec;
use crate::time::SimTime;

/// The autopilot's top-level flight mode — the actuation vocabulary of the
/// UAV ConSert in Fig. 1 of the paper (continue mission, hold position,
/// return to base / land, emergency land).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum FlightMode {
    /// On the ground, motors off.
    #[default]
    Grounded,
    /// Executing the uploaded mission waypoints.
    Mission,
    /// Hovering in place waiting for a critical situation to resolve.
    Hold,
    /// Flying back to the launch point to land.
    ReturnToBase,
    /// Controlled descent at the current (or commanded) location.
    Land,
    /// Immediate minimal-risk descent.
    EmergencyLand,
}

impl FlightMode {
    /// Whether the UAV is airborne in this mode.
    pub fn is_airborne(&self) -> bool {
        !matches!(self, FlightMode::Grounded)
    }

    /// Whether this mode still contributes to the SAR mission (scanning its
    /// assigned area). Used by the availability metric of §V-A.
    pub fn is_productive(&self) -> bool {
        matches!(self, FlightMode::Mission)
    }
}

/// GPS receiver quality snapshot — the "GPS-related quality factors" the GPS
/// localization ConSert monitors.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GpsFix {
    /// Whether the receiver reports a 3-D fix at all.
    pub has_fix: bool,
    /// Number of satellites used in the solution.
    pub satellites: u8,
    /// Horizontal dilution of precision (lower is better; < 2 is good).
    pub hdop: f64,
    /// The position reported by the receiver (spoofed if under attack).
    pub position: GeoPoint,
}

impl GpsFix {
    /// A lost-signal fix: no satellites, unusable.
    pub fn lost(last_position: GeoPoint) -> Self {
        GpsFix {
            has_fix: false,
            satellites: 0,
            hdop: 99.9,
            position: last_position,
        }
    }

    /// Rough usability check used by the navigation ConSert: a 3-D fix with
    /// at least 6 satellites and HDOP below 2.5.
    pub fn is_usable(&self) -> bool {
        self.has_fix && self.satellites >= 6 && self.hdop < 2.5
    }
}

impl Default for GpsFix {
    fn default() -> Self {
        GpsFix {
            has_fix: true,
            satellites: 12,
            hdop: 0.8,
            position: GeoPoint::default(),
        }
    }
}

/// One per-tick telemetry snapshot for a UAV.
#[derive(Debug, Clone, PartialEq)]
pub struct UavTelemetry {
    /// Which UAV produced the snapshot.
    pub uav: UavId,
    /// Simulation time of the snapshot.
    pub time: SimTime,
    /// Ground-truth position (what the simulator knows; the platform should
    /// use `gps` or fused estimates instead).
    pub true_position: GeoPoint,
    /// Velocity in local ENU metres/second.
    pub velocity: Vec3,
    /// Battery state of charge in `[0, 1]`.
    pub battery_soc: f64,
    /// Battery temperature in °C.
    pub battery_temp_c: f64,
    /// Per-motor health flags (`true` = operational). Inline for up to
    /// eight motors, so cloning a snapshot onto the bus copies it instead
    /// of allocating.
    pub motors_ok: InlineVec<bool, 8>,
    /// GPS receiver output.
    pub gps: GpsFix,
    /// Vision sensor health in `[0, 1]` (1 = nominal).
    pub vision_health: f64,
    /// Radio link quality to the ground station in `[0, 1]`.
    pub link_quality: f64,
    /// Current autopilot mode.
    pub mode: FlightMode,
}

impl UavTelemetry {
    /// A nominal snapshot at `position`, useful as a test fixture and as a
    /// starting point for builders.
    pub fn nominal(uav: UavId, time: SimTime, position: GeoPoint) -> Self {
        UavTelemetry {
            uav,
            time,
            true_position: position,
            velocity: Vec3::zero(),
            battery_soc: 1.0,
            battery_temp_c: 25.0,
            motors_ok: [true; 4].into_iter().collect(),
            gps: GpsFix {
                position,
                ..GpsFix::default()
            },
            vision_health: 1.0,
            link_quality: 1.0,
            mode: FlightMode::Grounded,
        }
    }

    /// Number of failed motors in this snapshot.
    pub fn failed_motors(&self) -> usize {
        self.motors_ok.iter().filter(|ok| !**ok).count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn flight_mode_classification() {
        assert!(!FlightMode::Grounded.is_airborne());
        assert!(FlightMode::Mission.is_airborne());
        assert!(FlightMode::Mission.is_productive());
        assert!(!FlightMode::Hold.is_productive());
        assert!(!FlightMode::EmergencyLand.is_productive());
        assert_eq!(FlightMode::default(), FlightMode::Grounded);
    }

    #[test]
    fn gps_usability_thresholds() {
        let mut fix = GpsFix::default();
        assert!(fix.is_usable());
        fix.satellites = 5;
        assert!(!fix.is_usable());
        fix.satellites = 8;
        fix.hdop = 3.0;
        assert!(!fix.is_usable());
        let lost = GpsFix::lost(GeoPoint::default());
        assert!(!lost.is_usable());
        assert!(!lost.has_fix);
    }

    #[test]
    fn nominal_telemetry_is_healthy() {
        let t = UavTelemetry::nominal(UavId::new(1), SimTime::ZERO, GeoPoint::new(35.0, 33.0, 0.0));
        assert_eq!(t.failed_motors(), 0);
        assert_eq!(t.battery_soc, 1.0);
        assert!(t.gps.is_usable());
    }

    #[test]
    fn failed_motor_count() {
        let mut t =
            UavTelemetry::nominal(UavId::new(1), SimTime::ZERO, GeoPoint::new(35.0, 33.0, 0.0));
        t.motors_ok = [true, false, true, false].into_iter().collect();
        assert_eq!(t.failed_motors(), 2);
    }
}
