//! Message envelope and payload vocabulary.
//!
//! A [`Message`] is what travels on the bus: a topic, a named sender, a
//! per-sender sequence number, an optional authentication tag and a typed
//! [`Payload`]. Keeping payloads typed (instead of opaque bytes) lets the
//! IDS inspect traffic the way a real deep-packet-inspection IDS would,
//! while `Payload::Raw` still allows opaque application data.

use bytes::Bytes;
use sesame_types::geo::GeoPoint;
use sesame_types::ids::UavId;
use sesame_types::telemetry::UavTelemetry;
use sesame_types::time::SimTime;
use std::sync::Arc;

/// Typed message payloads understood by the platform and the IDS.
#[derive(Debug, Clone, PartialEq)]
pub enum Payload {
    /// Periodic UAV telemetry.
    Telemetry(UavTelemetry),
    /// A waypoint command for a UAV's autopilot — the stream the paper's
    /// spoofing attack falsifies to corrupt area mapping (§V-C).
    WaypointCommand { uav: UavId, waypoint: GeoPoint },
    /// A position estimate (GPS-derived or collaborative).
    PositionEstimate {
        uav: UavId,
        position: GeoPoint,
        /// 1-σ accuracy of the estimate in metres.
        accuracy_m: f64,
        /// Which localization source produced it.
        source: PositionSource,
    },
    /// A mode-change command (hold / RTB / emergency land / land).
    ModeCommand { uav: UavId, mode: String },
    /// An IDS or monitor alert carried on the broker.
    Alert {
        rule: String,
        subject: UavId,
        detail: String,
    },
    /// Free-form text (used in examples and tests).
    Text(String),
    /// Opaque application bytes.
    Raw(Bytes),
}

/// Localization sources distinguished by the navigation ConSert.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PositionSource {
    /// On-board GPS receiver.
    Gps,
    /// Vision-based localization.
    Vision,
    /// Communication/collaborative localization from nearby UAVs.
    Collaborative,
    /// Dead reckoning from IMU/odometry.
    DeadReckoning,
}

/// The envelope placed on the bus.
///
/// Topic and sender are shared strings: a publisher that names the same
/// topic every tick builds it once and clones the `Arc`, so a publish
/// allocates nothing for either.
#[derive(Debug, Clone, PartialEq)]
pub struct Message {
    /// Destination topic path (e.g. `"/uav1/cmd/waypoint"`).
    pub topic: Arc<str>,
    /// The claimed sender node name (spoofable unless authenticated).
    pub sender: Arc<str>,
    /// Per-sender monotone sequence number; gaps and repeats are IDS
    /// signals.
    pub seq: u64,
    /// Publish timestamp.
    pub sent_at: SimTime,
    /// Authentication tag, if the sender signed the message.
    pub auth_tag: Option<u64>,
    /// The payload.
    pub payload: Payload,
}

impl Message {
    /// Creates an unsigned message (the default in a stock ROS deployment —
    /// exactly the weakness the Security EDDI watches for).
    pub fn new(
        topic: impl Into<Arc<str>>,
        sender: impl Into<Arc<str>>,
        seq: u64,
        sent_at: SimTime,
        payload: Payload,
    ) -> Self {
        Message {
            topic: topic.into(),
            sender: sender.into(),
            seq,
            sent_at,
            auth_tag: None,
            payload,
        }
    }

    /// Whether the message carries an authentication tag.
    pub fn is_signed(&self) -> bool {
        self.auth_tag.is_some()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unsigned_by_default() {
        let m = Message::new("/t", "node:a", 0, SimTime::ZERO, Payload::Text("x".into()));
        assert!(!m.is_signed());
        assert_eq!(&*m.topic, "/t");
        assert_eq!(&*m.sender, "node:a");
    }

    #[test]
    fn payload_variants_compare() {
        let a = Payload::Text("x".into());
        let b = Payload::Text("x".into());
        assert_eq!(a, b);
        let r = Payload::Raw(Bytes::from_static(b"abc"));
        assert_ne!(a, r);
    }
}
