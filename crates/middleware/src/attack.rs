//! The adversary model.
//!
//! [`AttackInjector`] drives the four classic ROS attack classes the paper
//! names (§I): data injection ("spoofing" — the §V-C evaluation), man-in-
//! the-middle tampering, replay, and eavesdropping. Each attack operates on
//! the [`MessageBus`] through its public hooks, so the attack plane has no
//! privileged access to subscriber state — exactly like a network-level
//! adversary.

use crate::bus::{MessageBus, Subscription};
use crate::message::{Message, Payload};
use sesame_types::geo::GeoPoint;
use sesame_types::ids::UavId;
use sesame_types::time::SimTime;

/// The attack classes the injector can mount.
#[derive(Debug, Clone, PartialEq)]
pub enum AttackKind {
    /// Publish forged messages claiming to come from `impersonate`
    /// (ROS message spoofing, the paper's §V-C scenario).
    Spoof {
        /// Sender name to forge.
        impersonate: String,
        /// Topic to inject into.
        topic: String,
    },
    /// Mutate matching in-flight messages (man in the middle).
    Mitm {
        /// Topic pattern to tamper with.
        pattern: String,
    },
    /// Record matching messages and re-publish them later.
    Replay {
        /// Topic pattern to record.
        pattern: String,
    },
    /// Passively copy matching traffic.
    Eavesdrop {
        /// Topic pattern to listen on.
        pattern: String,
    },
}

/// A live attack session against a bus.
#[derive(Debug)]
pub struct AttackInjector {
    /// Forged-message counter (to fabricate plausible sequence numbers).
    forged_seq: u64,
    tap: Option<Subscription>,
    recorded: Vec<Message>,
    kind: AttackKind,
}

impl AttackInjector {
    /// Arms an attack of the given kind against `bus`. For `Mitm` the
    /// caller supplies the tamper via [`AttackInjector::install_waypoint_offset`]
    /// or [`MessageBus::install_tamper`] directly.
    pub fn arm(bus: &mut MessageBus, kind: AttackKind) -> Self {
        let tap = match &kind {
            AttackKind::Replay { pattern } | AttackKind::Eavesdrop { pattern } => {
                Some(bus.subscribe(pattern.clone()))
            }
            _ => None,
        };
        AttackInjector {
            forged_seq: 1000,
            tap,
            recorded: Vec::new(),
            kind,
        }
    }

    /// The armed attack kind.
    pub fn kind(&self) -> &AttackKind {
        &self.kind
    }

    /// Spoofs a waypoint command: a forged, unsigned message that claims to
    /// come from the impersonated sender and steers `uav` toward
    /// `waypoint`. This is the falsified-data injection of Fig. 6.
    ///
    /// # Panics
    ///
    /// Panics if the armed attack is not [`AttackKind::Spoof`].
    pub fn spoof_waypoint(
        &mut self,
        bus: &mut MessageBus,
        now: SimTime,
        uav: UavId,
        waypoint: GeoPoint,
    ) {
        let (sender, topic) = match &self.kind {
            AttackKind::Spoof { impersonate, topic } => (impersonate.clone(), topic.clone()),
            other => panic!("spoof_waypoint on non-spoof attack {other:?}"),
        };
        let msg = Message::new(
            topic,
            sender,
            self.forged_seq,
            now,
            Payload::WaypointCommand { uav, waypoint },
        );
        self.forged_seq += 1;
        bus.publish_message(msg);
    }

    /// Spoofs an arbitrary payload on the armed topic.
    ///
    /// # Panics
    ///
    /// Panics if the armed attack is not [`AttackKind::Spoof`].
    pub fn spoof_payload(&mut self, bus: &mut MessageBus, now: SimTime, payload: Payload) {
        let (sender, topic) = match &self.kind {
            AttackKind::Spoof { impersonate, topic } => (impersonate.clone(), topic.clone()),
            other => panic!("spoof_payload on non-spoof attack {other:?}"),
        };
        let msg = Message::new(topic, sender, self.forged_seq, now, payload);
        self.forged_seq += 1;
        bus.publish_message(msg);
    }

    /// For a `Mitm` attack: installs a tamper that shifts every waypoint
    /// command by (`dlat`, `dlon`) degrees — a subtle area-mapping
    /// corruption.
    ///
    /// # Panics
    ///
    /// Panics if the armed attack is not [`AttackKind::Mitm`].
    pub fn install_waypoint_offset(&mut self, bus: &mut MessageBus, dlat: f64, dlon: f64) {
        let pattern = match &self.kind {
            AttackKind::Mitm { pattern } => pattern.clone(),
            other => panic!("install_waypoint_offset on non-mitm attack {other:?}"),
        };
        bus.install_tamper(
            pattern,
            Box::new(move |m| {
                if let Payload::WaypointCommand { waypoint, .. } = &mut m.payload {
                    waypoint.lat_deg += dlat;
                    waypoint.lon_deg += dlon;
                    // The stale tag stays: a network MITM cannot re-sign
                    // what it cannot key, so verification now fails.
                    true
                } else {
                    false
                }
            }),
        );
    }

    /// For `Replay`/`Eavesdrop` attacks: pulls newly observed traffic into
    /// the recorder and returns how many messages were captured this call.
    pub fn observe(&mut self, bus: &mut MessageBus) -> usize {
        let Some(tap) = self.tap else { return 0 };
        // The tap subscription is owned by this injector and never
        // cancelled, so a drain failure means the handle belongs to a
        // different bus — a caller bug worth surfacing loudly.
        let new = bus.drain(tap).expect("attack tap subscription is live");
        let n = new.len();
        // The recorder needs owned copies: take the body without cloning
        // when the tap held the last reference, clone otherwise.
        self.recorded.extend(
            new.into_iter()
                .map(|m| std::sync::Arc::try_unwrap(m).unwrap_or_else(|a| (*a).clone())),
        );
        n
    }

    /// Captured traffic so far (eavesdropping take).
    pub fn recorded(&self) -> &[Message] {
        &self.recorded
    }

    /// For a `Replay` attack: re-publishes every recorded message verbatim
    /// (original sender, seq, and tag — stale by construction). Returns the
    /// number replayed.
    pub fn replay_all(&mut self, bus: &mut MessageBus, now: SimTime) -> usize {
        let mut n = 0;
        for m in &self.recorded {
            let mut replayed = m.clone();
            replayed.sent_at = now;
            bus.publish_message(replayed);
            n += 1;
        }
        n
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::auth::{AuthKey, MessageAuth};

    #[test]
    fn spoofed_waypoint_reaches_subscriber_unsigned() {
        let mut bus = MessageBus::new();
        let autopilot = bus.subscribe("/uav1/cmd/waypoint");
        let mut atk = AttackInjector::arm(
            &mut bus,
            AttackKind::Spoof {
                impersonate: "node:gcs".into(),
                topic: "/uav1/cmd/waypoint".into(),
            },
        );
        atk.spoof_waypoint(
            &mut bus,
            SimTime::ZERO,
            UavId::new(1),
            GeoPoint::new(35.0, 33.0, 50.0),
        );
        bus.step(SimTime::from_millis(100));
        let msgs = bus.drain(autopilot).unwrap();
        assert_eq!(msgs.len(), 1);
        assert_eq!(&*msgs[0].sender, "node:gcs");
        assert!(!msgs[0].is_signed());
    }

    #[test]
    fn mitm_shifts_waypoints_and_breaks_signature() {
        let mut bus = MessageBus::new();
        let auth = MessageAuth::new(AuthKey::new(5));
        let sub = bus.subscribe("/uav1/cmd/waypoint");
        let mut atk = AttackInjector::arm(
            &mut bus,
            AttackKind::Mitm {
                pattern: "/uav1/cmd/#".into(),
            },
        );
        atk.install_waypoint_offset(&mut bus, 0.001, 0.0);

        let mut m = Message::new(
            "/uav1/cmd/waypoint",
            "node:gcs",
            0,
            SimTime::ZERO,
            Payload::WaypointCommand {
                uav: UavId::new(1),
                waypoint: GeoPoint::new(35.0, 33.0, 50.0),
            },
        );
        auth.sign(&mut m);
        bus.publish_message(m);
        bus.step(SimTime::from_millis(100));
        let got = bus.drain(sub).unwrap();
        assert_eq!(got.len(), 1);
        match &got[0].payload {
            Payload::WaypointCommand { waypoint, .. } => {
                assert!((waypoint.lat_deg - 35.001).abs() < 1e-12);
            }
            p => panic!("unexpected payload {p:?}"),
        }
        assert!(!auth.verify(&got[0]), "tampered message must fail auth");
    }

    #[test]
    fn eavesdrop_captures_without_disturbing_traffic() {
        let mut bus = MessageBus::new();
        let legit = bus.subscribe("/uav1/telemetry");
        let mut atk = AttackInjector::arm(
            &mut bus,
            AttackKind::Eavesdrop {
                pattern: "/uav1/#".into(),
            },
        );
        bus.publish(
            SimTime::ZERO,
            "uav1",
            "/uav1/telemetry",
            Payload::Text("secret".into()),
        );
        bus.step(SimTime::from_millis(100));
        assert_eq!(atk.observe(&mut bus), 1);
        assert_eq!(atk.recorded().len(), 1);
        assert_eq!(
            bus.drain(legit).unwrap().len(),
            1,
            "legit subscriber unaffected"
        );
    }

    #[test]
    fn replay_re_publishes_stale_messages() {
        let mut bus = MessageBus::new();
        let sub = bus.subscribe("/uav1/cmd/waypoint");
        let mut atk = AttackInjector::arm(
            &mut bus,
            AttackKind::Replay {
                pattern: "/uav1/cmd/#".into(),
            },
        );
        bus.publish(
            SimTime::ZERO,
            "node:gcs",
            "/uav1/cmd/waypoint",
            Payload::Text("goto A".into()),
        );
        bus.step(SimTime::from_millis(100));
        assert_eq!(bus.drain(sub).unwrap().len(), 1);
        atk.observe(&mut bus);
        let replayed = atk.replay_all(&mut bus, SimTime::from_secs(60));
        assert_eq!(replayed, 1);
        bus.step(SimTime::from_secs(61));
        let msgs = bus.drain(sub).unwrap();
        assert_eq!(msgs.len(), 1);
        assert_eq!(msgs[0].seq, 0, "replayed seq is stale — an IDS signal");
    }

    #[test]
    #[should_panic(expected = "non-spoof")]
    fn wrong_kind_panics() {
        let mut bus = MessageBus::new();
        let mut atk = AttackInjector::arm(
            &mut bus,
            AttackKind::Eavesdrop {
                pattern: "#".into(),
            },
        );
        atk.spoof_payload(&mut bus, SimTime::ZERO, Payload::Text("x".into()));
    }
}
