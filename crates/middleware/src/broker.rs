//! MQTT-like alert broker.
//!
//! The Security EDDI architecture in the paper (§III-B) uses "an MQTT
//! message protocol broker" between the IDS and the per-attack-tree Python
//! scripts: the IDS publishes alerts to a topic, each script subscribes to
//! the alerts relevant to its tree. [`AlertBroker`] reproduces that hub,
//! including MQTT topic filters (`+` matches one level, `#` matches the
//! remaining levels) and retained messages.

use crate::message::{Message, Payload};
use crate::topic::Pattern;
use sesame_types::time::SimTime;
use std::collections::VecDeque;
use std::sync::Arc;

/// Returns `true` when MQTT-style `pattern` matches `topic`.
///
/// `+` matches exactly one path segment, `#` (only valid as the final
/// segment) matches any number of remaining segments, including zero.
/// Leading slashes are ignored so `/a/b` and `a/b` are equivalent.
///
/// # Examples
///
/// ```
/// use sesame_middleware::broker::topic_matches;
///
/// assert!(topic_matches("ids/alerts/#", "ids/alerts/uav1/spoof"));
/// assert!(topic_matches("ids/+/uav1", "ids/alerts/uav1"));
/// assert!(!topic_matches("ids/+", "ids/alerts/uav1"));
/// ```
pub fn topic_matches(pattern: &str, topic: &str) -> bool {
    let mut pat = pattern.split('/').filter(|s| !s.is_empty()).peekable();
    let mut top = topic.split('/').filter(|s| !s.is_empty());
    while let Some(p) = pat.next() {
        match p {
            "#" => return pat.peek().is_none(),
            "+" => {
                if top.next().is_none() {
                    return false;
                }
            }
            seg => {
                if top.next() != Some(seg) {
                    return false;
                }
            }
        }
    }
    top.next().is_none()
}

/// Handle to a broker subscription.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct BrokerSubscription(usize);

struct BrokerSub {
    filter: Pattern,
    queue: VecDeque<Arc<Message>>,
}

/// A tiny MQTT-like broker: immediate fan-out (no modelled latency — the
/// broker runs on the ground station LAN), topic filters, retained
/// messages. Like the bus, fan-out shares one `Arc<Message>` across every
/// matching queue (and the retained slot) instead of copying the body.
///
/// # Examples
///
/// ```
/// use sesame_middleware::broker::AlertBroker;
/// use sesame_middleware::message::Payload;
/// use sesame_types::ids::UavId;
/// use sesame_types::time::SimTime;
///
/// let mut broker = AlertBroker::new();
/// let sub = broker.subscribe("ids/alerts/#");
/// broker.publish(SimTime::ZERO, "ids", "ids/alerts/uav1", Payload::Alert {
///     rule: "unsigned_cmd".into(),
///     subject: UavId::new(1),
///     detail: "unsigned waypoint command".into(),
/// });
/// assert_eq!(broker.drain(sub).len(), 1);
/// ```
#[derive(Default)]
pub struct AlertBroker {
    subs: Vec<BrokerSub>,
    retained: Vec<Arc<Message>>,
    published: u64,
    offline: bool,
    lost_to_outage: u64,
}

impl std::fmt::Debug for AlertBroker {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("AlertBroker")
            .field("subscribers", &self.subs.len())
            .field("retained", &self.retained.len())
            .field("published", &self.published)
            .field("offline", &self.offline)
            .field("lost_to_outage", &self.lost_to_outage)
            .finish()
    }
}

impl AlertBroker {
    /// Creates an empty broker.
    pub fn new() -> Self {
        Self::default()
    }

    /// Subscribes to `filter`. Retained messages matching the filter are
    /// delivered immediately.
    pub fn subscribe(&mut self, filter: impl Into<String>) -> BrokerSubscription {
        let filter = Pattern::parse_lenient(filter.into());
        let mut queue = VecDeque::new();
        for m in &self.retained {
            if filter.matches_topic(&m.topic) {
                queue.push_back(Arc::clone(m));
            }
        }
        self.subs.push(BrokerSub { filter, queue });
        BrokerSubscription(self.subs.len() - 1)
    }

    /// Publishes to every matching subscriber immediately.
    pub fn publish(
        &mut self,
        now: SimTime,
        sender: impl Into<Arc<str>>,
        topic: impl Into<Arc<str>>,
        payload: Payload,
    ) {
        let msg = Message::new(topic, sender, self.published, now, payload);
        self.published += 1;
        self.fan_out(Arc::new(msg));
    }

    /// Publishes with the retain flag: the broker stores the message and
    /// replays it to future subscribers (MQTT retained-message semantics;
    /// one retained message per topic, newest wins).
    pub fn publish_retained(
        &mut self,
        now: SimTime,
        sender: impl Into<Arc<str>>,
        topic: impl Into<Arc<str>>,
        payload: Payload,
    ) {
        let msg = Arc::new(Message::new(topic, sender, self.published, now, payload));
        self.published += 1;
        self.retained.retain(|m| m.topic != msg.topic);
        self.retained.push(Arc::clone(&msg));
        self.fan_out(msg);
    }

    fn fan_out(&mut self, msg: Arc<Message>) {
        if self.offline {
            self.lost_to_outage += 1;
            return;
        }
        for sub in &mut self.subs {
            if sub.filter.matches_topic(&msg.topic) {
                sub.queue.push_back(Arc::clone(&msg));
            }
        }
    }

    /// Takes the broker offline (an injected outage) or brings it back.
    /// While offline, publishes are accepted but reach nobody — retained
    /// messages are still stored and replay once service resumes, which is
    /// exactly the MQTT behaviour the QoS-0 alert path degrades to.
    pub fn set_offline(&mut self, offline: bool) {
        self.offline = offline;
    }

    /// Whether the broker is currently offline.
    pub fn is_offline(&self) -> bool {
        self.offline
    }

    /// Messages that reached no subscriber because the broker was offline.
    pub fn lost_to_outage(&self) -> u64 {
        self.lost_to_outage
    }

    /// Removes and returns the queued messages for `sub`, oldest first.
    /// Messages are shared with the other subscribers' queues; field
    /// access derefs transparently.
    pub fn drain(&mut self, sub: BrokerSubscription) -> Vec<Arc<Message>> {
        self.subs
            .get_mut(sub.0)
            .map(|s| s.queue.drain(..).collect())
            .unwrap_or_default()
    }

    /// Number of messages queued for `sub`.
    pub fn queued(&self, sub: BrokerSubscription) -> usize {
        self.subs.get(sub.0).map_or(0, |s| s.queue.len())
    }

    /// Total messages published through the broker.
    pub fn published(&self) -> u64 {
        self.published
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sesame_types::ids::UavId;

    fn alert(rule: &str) -> Payload {
        Payload::Alert {
            rule: rule.into(),
            subject: UavId::new(1),
            detail: String::new(),
        }
    }

    #[test]
    fn exact_match() {
        assert!(topic_matches("a/b/c", "a/b/c"));
        assert!(!topic_matches("a/b/c", "a/b"));
        assert!(!topic_matches("a/b", "a/b/c"));
        assert!(topic_matches("/a/b", "a/b"), "leading slash ignored");
    }

    #[test]
    fn plus_matches_single_level() {
        assert!(topic_matches("a/+/c", "a/b/c"));
        assert!(!topic_matches("a/+/c", "a/b/x/c"));
        assert!(!topic_matches("a/+", "a"));
        assert!(topic_matches("+/+", "x/y"));
    }

    #[test]
    fn hash_matches_rest_including_empty() {
        assert!(topic_matches("a/#", "a/b/c"));
        assert!(topic_matches("a/#", "a"));
        assert!(topic_matches("#", "anything/at/all"));
        assert!(!topic_matches("a/#/b", "a/x/b"), "# only valid at end");
    }

    #[test]
    fn broker_fan_out_and_drain() {
        let mut b = AlertBroker::new();
        let all = b.subscribe("ids/#");
        let spoof_only = b.subscribe("ids/alerts/spoof");
        b.publish(SimTime::ZERO, "ids", "ids/alerts/spoof", alert("spoof"));
        b.publish(SimTime::ZERO, "ids", "ids/alerts/replay", alert("replay"));
        assert_eq!(b.drain(all).len(), 2);
        assert_eq!(b.drain(spoof_only).len(), 1);
        assert_eq!(b.queued(all), 0);
        assert_eq!(b.published(), 2);
    }

    #[test]
    fn fan_out_shares_one_message_across_subscribers() {
        let mut b = AlertBroker::new();
        let first = b.subscribe("ids/#");
        let second = b.subscribe("ids/alerts/+");
        b.publish_retained(SimTime::ZERO, "ids", "ids/alerts/spoof", alert("spoof"));
        let late = b.subscribe("ids/alerts/spoof");
        let (x, y, z) = (b.drain(first), b.drain(second), b.drain(late));
        assert!(Arc::ptr_eq(&x[0], &y[0]) && Arc::ptr_eq(&x[0], &z[0]));
    }

    #[test]
    fn retained_message_reaches_late_subscriber() {
        let mut b = AlertBroker::new();
        b.publish_retained(SimTime::ZERO, "ids", "ids/status", alert("armed"));
        let late = b.subscribe("ids/#");
        assert_eq!(b.drain(late).len(), 1);
    }

    #[test]
    fn newest_retained_wins() {
        let mut b = AlertBroker::new();
        b.publish_retained(SimTime::ZERO, "ids", "ids/status", alert("v1"));
        b.publish_retained(SimTime::from_secs(1), "ids", "ids/status", alert("v2"));
        let late = b.subscribe("ids/status");
        let msgs = b.drain(late);
        assert_eq!(msgs.len(), 1);
        assert!(matches!(&msgs[0].payload, Payload::Alert { rule, .. } if rule == "v2"));
    }

    #[test]
    fn non_matching_subscriber_gets_nothing() {
        let mut b = AlertBroker::new();
        let sub = b.subscribe("other/#");
        b.publish(SimTime::ZERO, "ids", "ids/alerts", alert("x"));
        assert_eq!(b.drain(sub).len(), 0);
    }

    #[test]
    fn outage_swallows_publishes_until_service_resumes() {
        let mut b = AlertBroker::new();
        let sub = b.subscribe("ids/#");
        b.set_offline(true);
        assert!(b.is_offline());
        b.publish(SimTime::ZERO, "ids", "ids/alerts", alert("lost"));
        b.publish(SimTime::ZERO, "ids", "ids/alerts", alert("also_lost"));
        assert_eq!(b.drain(sub).len(), 0);
        assert_eq!(b.lost_to_outage(), 2);
        b.set_offline(false);
        b.publish(SimTime::from_secs(1), "ids", "ids/alerts", alert("heard"));
        let got = b.drain(sub);
        assert_eq!(got.len(), 1);
        assert!(matches!(&got[0].payload, Payload::Alert { rule, .. } if rule == "heard"));
    }

    #[test]
    fn retained_survive_an_outage_for_late_subscribers() {
        let mut b = AlertBroker::new();
        b.set_offline(true);
        b.publish_retained(SimTime::ZERO, "ids", "ids/status", alert("v1"));
        b.set_offline(false);
        // The live fan-out was lost, but the retained copy replays.
        let late = b.subscribe("ids/status");
        assert_eq!(b.drain(late).len(), 1);
    }
}
