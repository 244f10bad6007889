//! The intrusion detection system.
//!
//! A rule engine over bus traffic, standing in for the network IDS of the
//! paper's Security EDDI architecture. The platform taps the whole bus
//! (`"#"` subscription), feeds every delivered message through
//! [`Ids::inspect`], and publishes the resulting alerts on the broker
//! topic `ids/alerts/<uav>` where the per-tree EDDI scripts listen.
//!
//! Rules (leaf ids of [`crate::catalog`]):
//!
//! * `unsigned_publisher` — a message on a protected topic without a valid
//!   signature;
//! * `bad_signature` — a signed message whose tag fails verification
//!   (tampering);
//! * `replay` — a per-sender sequence number that does not advance;
//! * `rate_flood` — a sender exceeding the configured message rate;
//! * `waypoint_deviation` — a waypoint command farther from the registered
//!   mission plan than the allowed corridor.

use sesame_middleware::auth::MessageAuth;
use sesame_middleware::broker::topic_matches;
use sesame_middleware::message::{Message, Payload};
use sesame_types::events::Severity;
use sesame_types::geo::GeoPoint;
use sesame_types::ids::UavId;
use sesame_types::time::{SimDuration, SimTime};
use std::collections::HashMap;
use std::collections::VecDeque;
use std::sync::Arc;

/// Identifier of an IDS rule — equals the attack-tree leaf id it triggers.
pub type IdsRule = &'static str;

/// One alert produced by the IDS.
#[derive(Debug, Clone, PartialEq)]
pub struct IdsAlert {
    /// Rule / attack-tree leaf id.
    pub rule: String,
    /// The UAV the suspicious traffic concerns.
    pub subject: UavId,
    /// Human-readable detail.
    pub detail: String,
    /// Severity (taken from the attack-tree leaf where known).
    pub severity: Severity,
    /// When the alert was raised.
    pub time: SimTime,
}

/// IDS configuration.
#[derive(Debug, Clone)]
pub struct IdsConfig {
    /// Topic patterns whose messages must carry a valid signature.
    pub protected_topics: Vec<String>,
    /// Maximum messages per sender within the rate window.
    pub max_rate_per_window: usize,
    /// Rate window length.
    pub rate_window: SimDuration,
    /// Allowed distance between a commanded waypoint and the mission plan.
    pub plan_corridor_m: f64,
}

impl Default for IdsConfig {
    fn default() -> Self {
        IdsConfig {
            protected_topics: vec!["/+/cmd/#".into()],
            max_rate_per_window: 50,
            rate_window: SimDuration::from_secs(1),
            plan_corridor_m: 60.0,
        }
    }
}

/// The rule engine. Feed it every bus delivery via [`Ids::inspect`].
#[derive(Debug)]
pub struct Ids {
    config: IdsConfig,
    auth: Option<MessageAuth>,
    /// Keyed by the message's shared sender name, so tracking a sender
    /// never copies its name.
    last_seq: HashMap<Arc<str>, u64>,
    recent: HashMap<Arc<str>, VecDeque<SimTime>>,
    plans: HashMap<UavId, Vec<GeoPoint>>,
    alerts_raised: u64,
}

impl Ids {
    /// Creates an IDS. Pass the platform's [`MessageAuth`] so signature
    /// checks can run; `None` disables signature rules (a stock ROS
    /// deployment).
    pub fn new(config: IdsConfig, auth: Option<MessageAuth>) -> Self {
        Ids {
            config,
            auth,
            last_seq: HashMap::new(),
            recent: HashMap::new(),
            plans: HashMap::new(),
            alerts_raised: 0,
        }
    }

    /// Registers the mission plan for `uav` so waypoint commands can be
    /// cross-checked against it.
    pub fn register_plan(&mut self, uav: UavId, waypoints: Vec<GeoPoint>) {
        self.plans.insert(uav, waypoints);
    }

    /// Total alerts raised so far.
    pub fn alerts_raised(&self) -> u64 {
        self.alerts_raised
    }

    /// Inspects one delivered message, returning any alerts.
    pub fn inspect(&mut self, msg: &Message, now: SimTime) -> Vec<IdsAlert> {
        let mut alerts = Vec::new();
        let subject = subject_of(msg);

        // Rate tracking.
        let window = self.config.rate_window;
        let in_window = {
            // An `Arc` key clone is a refcount bump, not an allocation.
            let q = self.recent.entry(Arc::clone(&msg.sender)).or_default();
            q.push_back(now);
            while let Some(front) = q.front() {
                if now.since(*front) > window {
                    q.pop_front();
                } else {
                    break;
                }
            }
            q.len()
        };
        if in_window > self.config.max_rate_per_window {
            alerts.push(self.alert(
                "rate_flood",
                subject,
                format!("sender `{}` sent {in_window} msgs in window", msg.sender),
                Severity::Warning,
                now,
            ));
        }

        // Sequence freshness per sender.
        match self.last_seq.get_mut(&*msg.sender) {
            Some(&mut last) if msg.seq <= last => {
                alerts.push(self.alert(
                    "replay",
                    subject,
                    format!("sender `{}` seq {} after {}", msg.sender, msg.seq, last),
                    Severity::Critical,
                    now,
                ));
            }
            Some(last) => *last = msg.seq,
            None => {
                self.last_seq.insert(Arc::clone(&msg.sender), msg.seq);
            }
        }

        // Signature rules on protected topics.
        let protected = self
            .config
            .protected_topics
            .iter()
            .any(|p| topic_matches(p, &msg.topic));
        if protected {
            match (&self.auth, msg.auth_tag) {
                (Some(auth), Some(_)) => {
                    if !auth.verify(msg) {
                        alerts.push(self.alert(
                            "bad_signature",
                            subject,
                            format!("tag verification failed on `{}`", msg.topic),
                            Severity::Critical,
                            now,
                        ));
                    }
                }
                (Some(_), None) => {
                    alerts.push(self.alert(
                        "unsigned_publisher",
                        subject,
                        format!("unsigned message on protected `{}`", msg.topic),
                        Severity::Critical,
                        now,
                    ));
                }
                (None, _) => {}
            }
        }

        // Plan cross-check for waypoint commands.
        if let Payload::WaypointCommand { uav, waypoint } = &msg.payload {
            if let Some(plan) = self.plans.get(uav) {
                let nearest = plan
                    .iter()
                    .map(|w| w.haversine_distance_m(waypoint))
                    .fold(f64::INFINITY, f64::min);
                if nearest > self.config.plan_corridor_m {
                    alerts.push(self.alert(
                        "waypoint_deviation",
                        *uav,
                        format!("commanded waypoint {nearest:.0} m off plan"),
                        Severity::Emergency,
                        now,
                    ));
                }
            }
        }

        alerts
    }

    fn alert(
        &mut self,
        rule: IdsRule,
        subject: UavId,
        detail: String,
        severity: Severity,
        time: SimTime,
    ) -> IdsAlert {
        self.alerts_raised += 1;
        IdsAlert {
            rule: rule.to_string(),
            subject,
            detail,
            severity,
            time,
        }
    }
}

/// Extracts the UAV a message concerns: the payload's UAV id where typed,
/// otherwise a `uavN` topic segment, otherwise UAV 0.
fn subject_of(msg: &Message) -> UavId {
    match &msg.payload {
        Payload::WaypointCommand { uav, .. }
        | Payload::PositionEstimate { uav, .. }
        | Payload::ModeCommand { uav, .. }
        | Payload::Alert { subject: uav, .. } => *uav,
        Payload::Telemetry(t) => t.uav,
        _ => msg
            .topic
            .split('/')
            .find_map(|seg| seg.strip_prefix("uav").and_then(|n| n.parse().ok()))
            .map(UavId::new)
            .unwrap_or(UavId::new(0)),
    }
}

#[cfg(test)]
#[allow(clippy::field_reassign_with_default)]
mod tests {
    use super::*;
    use sesame_middleware::auth::AuthKey;

    fn auth() -> MessageAuth {
        MessageAuth::new(AuthKey::new(0xFEED))
    }

    fn ids() -> Ids {
        Ids::new(IdsConfig::default(), Some(auth()))
    }

    fn waypoint_msg(signed: bool, seq: u64, lat: f64) -> Message {
        let mut m = Message::new(
            "/uav1/cmd/waypoint",
            "node:gcs",
            seq,
            SimTime::ZERO,
            Payload::WaypointCommand {
                uav: UavId::new(1),
                waypoint: GeoPoint::new(lat, 33.0, 40.0),
            },
        );
        if signed {
            auth().sign(&mut m);
        }
        m
    }

    #[test]
    fn unsigned_command_alerts() {
        let mut ids = ids();
        let alerts = ids.inspect(&waypoint_msg(false, 0, 35.0), SimTime::ZERO);
        assert!(alerts.iter().any(|a| a.rule == "unsigned_publisher"));
        assert_eq!(alerts[0].subject, UavId::new(1));
        assert_eq!(ids.alerts_raised(), alerts.len() as u64);
    }

    #[test]
    fn signed_command_passes() {
        let mut ids = ids();
        let alerts = ids.inspect(&waypoint_msg(true, 0, 35.0), SimTime::ZERO);
        assert!(alerts.is_empty(), "{alerts:?}");
    }

    #[test]
    fn tampered_command_alerts_bad_signature() {
        let mut ids = ids();
        let mut m = waypoint_msg(true, 0, 35.0);
        if let Payload::WaypointCommand { waypoint, .. } = &mut m.payload {
            waypoint.lat_deg += 0.001;
        }
        let alerts = ids.inspect(&m, SimTime::ZERO);
        assert!(alerts.iter().any(|a| a.rule == "bad_signature"));
    }

    #[test]
    fn unprotected_topic_skips_signature_rules() {
        let mut ids = ids();
        let m = Message::new(
            "/uav1/telemetry",
            "uav1",
            0,
            SimTime::ZERO,
            Payload::Text("x".into()),
        );
        assert!(ids.inspect(&m, SimTime::ZERO).is_empty());
    }

    #[test]
    fn replay_detected() {
        let mut ids = ids();
        assert!(ids
            .inspect(&waypoint_msg(true, 5, 35.0), SimTime::ZERO)
            .is_empty());
        let alerts = ids.inspect(&waypoint_msg(true, 5, 35.0), SimTime::from_secs(1));
        assert!(alerts.iter().any(|a| a.rule == "replay"));
        let alerts2 = ids.inspect(&waypoint_msg(true, 3, 35.0), SimTime::from_secs(2));
        assert!(alerts2.iter().any(|a| a.rule == "replay"));
    }

    #[test]
    fn rate_flood_detected() {
        let mut cfg = IdsConfig::default();
        cfg.max_rate_per_window = 10;
        let mut ids = Ids::new(cfg, Some(auth()));
        let mut flood_alerts = 0;
        for i in 0..20u64 {
            let alerts = ids.inspect(&waypoint_msg(true, i, 35.0), SimTime::from_millis(i * 10));
            flood_alerts += alerts.iter().filter(|a| a.rule == "rate_flood").count();
        }
        assert!(flood_alerts > 0);
    }

    #[test]
    fn rate_window_slides() {
        let mut cfg = IdsConfig::default();
        cfg.max_rate_per_window = 5;
        let mut ids = Ids::new(cfg, Some(auth()));
        // 4 msgs/s forever never trips a 5-per-second limit.
        for i in 0..40u64 {
            let alerts = ids.inspect(&waypoint_msg(true, i, 35.0), SimTime::from_millis(i * 250));
            assert!(alerts.iter().all(|a| a.rule != "rate_flood"), "i = {i}");
        }
    }

    #[test]
    fn waypoint_off_plan_alerts() {
        let mut ids = ids();
        let plan: Vec<GeoPoint> = (0..5)
            .map(|i| GeoPoint::new(35.0, 33.0, 40.0).destination(90.0, i as f64 * 50.0))
            .collect();
        ids.register_plan(UavId::new(1), plan);
        // On-plan waypoint: fine.
        let ok = ids.inspect(&waypoint_msg(true, 0, 35.0), SimTime::ZERO);
        assert!(ok.iter().all(|a| a.rule != "waypoint_deviation"));
        // A kilometre off: alert.
        let bad = ids.inspect(&waypoint_msg(true, 1, 35.01), SimTime::from_secs(1));
        assert!(bad.iter().any(|a| a.rule == "waypoint_deviation"));
        assert!(
            bad.iter()
                .find(|a| a.rule == "waypoint_deviation")
                .unwrap()
                .severity
                == Severity::Emergency
        );
    }

    #[test]
    fn no_auth_configured_means_no_signature_alerts() {
        let mut ids = Ids::new(IdsConfig::default(), None);
        let alerts = ids.inspect(&waypoint_msg(false, 0, 35.0), SimTime::ZERO);
        assert!(alerts.iter().all(|a| a.rule != "unsigned_publisher"));
    }

    #[test]
    fn subject_extraction_from_topic() {
        let m = Message::new(
            "/uav7/status",
            "node:x",
            0,
            SimTime::ZERO,
            Payload::Text("hello".into()),
        );
        assert_eq!(subject_of(&m), UavId::new(7));
        let unknown = Message::new(
            "/misc",
            "node:x",
            1,
            SimTime::ZERO,
            Payload::Text("y".into()),
        );
        assert_eq!(subject_of(&unknown), UavId::new(0));
    }
}
