//! The cache-free reference bus: a golden model for the optimized
//! [`crate::bus::MessageBus`].
//!
//! This is the pre-optimization bus implementation, kept verbatim: every
//! in-flight message re-splits topic strings for every subscriber, loss
//! rule and tamper hook via [`crate::broker::topic_matches`], deep-clones
//! the whole [`Message`] per subscriber, and allocates the topic string
//! into the stats map on each publish/drop/tamper/deliver. It is
//! deliberately slow and obviously correct, which makes it useful twice:
//!
//! * the route-cache conformance suite drives it in lockstep with the
//!   optimized bus and asserts byte-identical delivery sequences, stats
//!   and traces across interleaved rule mutations;
//! * `sesame-bench --bin busbench` uses it as the baseline that the
//!   optimized fanout's throughput is measured against.
//!
//! It intentionally keeps the old lenient subscribe (an invalid wildcard
//! pattern silently never matches), because that is the behaviour the
//! conformance suite must reproduce for leniently-installed rules.

use crate::broker::topic_matches;
use crate::bus::{BusStats, TamperFn};
use crate::message::{Message, Payload};
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use sesame_obs::{TraceEvent, TraceLog};
use sesame_types::time::{SimDuration, SimTime};
use std::collections::HashMap;
use std::collections::VecDeque;
use std::fmt;

/// Handle to a reference-bus subscriber queue.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct RefSubscription(usize);

struct SubState {
    pattern: String,
    queue: VecDeque<Message>,
    depth: usize,
    active: bool,
}

struct InFlight {
    deliver_at: SimTime,
    msg: Message,
}

/// The cache-free golden-model bus. Mirrors the optimized bus's public
/// surface closely enough for lockstep conformance driving.
pub struct ReferenceBus {
    subs: Vec<SubState>,
    in_flight: VecDeque<InFlight>,
    seq: HashMap<String, u64>,
    tampers: Vec<(String, Option<TamperFn>)>,
    loss: Vec<(String, f64)>,
    latency: SimDuration,
    topic_latency: Vec<(String, SimDuration)>,
    rng: StdRng,
    stats: BusStats,
    trace: TraceLog,
}

impl fmt::Debug for ReferenceBus {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ReferenceBus")
            .field("subscribers", &self.subs.len())
            .field("in_flight", &self.in_flight.len())
            .field("stats", &self.stats)
            .finish()
    }
}

impl ReferenceBus {
    /// A reference bus whose loss model draws from a deterministic RNG
    /// seeded with `seed` — seed-compatible with the optimized bus.
    pub fn seeded(seed: u64) -> Self {
        ReferenceBus {
            subs: Vec::new(),
            in_flight: VecDeque::new(),
            seq: HashMap::new(),
            tampers: Vec::new(),
            loss: Vec::new(),
            latency: SimDuration::from_millis(20),
            topic_latency: Vec::new(),
            rng: StdRng::seed_from_u64(seed),
            stats: BusStats::default(),
            trace: TraceLog::default(),
        }
    }

    /// Sets the uniform publish→deliver latency.
    pub fn set_latency(&mut self, latency: SimDuration) {
        self.latency = latency;
    }

    /// Overrides the latency for matching topics; last matching rule wins.
    pub fn set_topic_latency(&mut self, pattern: impl Into<String>, latency: SimDuration) {
        self.topic_latency.push((pattern.into(), latency));
    }

    /// Sets a loss probability for matching topics; later rules win.
    pub fn set_loss(&mut self, pattern: impl Into<String>, probability: f64) {
        self.loss
            .push((pattern.into(), probability.clamp(0.0, 1.0)));
    }

    /// Removes every loss rule installed for exactly `pattern`.
    pub fn remove_loss(&mut self, pattern: &str) {
        self.loss.retain(|(p, _)| p != pattern);
    }

    /// Removes every latency override installed for exactly `pattern`.
    pub fn remove_topic_latency(&mut self, pattern: &str) {
        self.topic_latency.retain(|(p, _)| p != pattern);
    }

    /// Subscribes with the default queue depth of 1024.
    pub fn subscribe(&mut self, pattern: impl Into<String>) -> RefSubscription {
        self.subscribe_with_depth(pattern, 1024)
    }

    /// Subscribes with an explicit queue depth.
    pub fn subscribe_with_depth(
        &mut self,
        pattern: impl Into<String>,
        depth: usize,
    ) -> RefSubscription {
        assert!(depth > 0, "queue depth must be positive");
        self.subs.push(SubState {
            pattern: pattern.into(),
            queue: VecDeque::new(),
            depth,
            active: true,
        });
        RefSubscription(self.subs.len() - 1)
    }

    /// Cancels a subscription; its queue is dropped.
    pub fn unsubscribe(&mut self, sub: RefSubscription) {
        if let Some(s) = self.subs.get_mut(sub.0) {
            s.active = false;
            s.queue.clear();
        }
    }

    /// Publishes an unsigned message; sequence numbers are per sender.
    pub fn publish(
        &mut self,
        now: SimTime,
        sender: impl Into<String>,
        topic: impl Into<String>,
        payload: Payload,
    ) -> Message {
        let sender = sender.into();
        let seq = {
            let c = self.seq.entry(sender.clone()).or_insert(0);
            let s = *c;
            *c += 1;
            s
        };
        let msg = Message::new(topic.into(), sender, seq, now, payload);
        self.publish_message(msg.clone());
        msg
    }

    /// Publishes a pre-built message verbatim.
    pub fn publish_message(&mut self, msg: Message) {
        self.stats.published += 1;
        self.stats
            .per_topic
            .entry(msg.topic.to_string())
            .or_default()
            .published += 1;
        let latency = self
            .topic_latency
            .iter()
            .rev()
            .find(|(p, _)| topic_matches(p, &msg.topic))
            .map(|(_, l)| *l)
            .unwrap_or(self.latency);
        let deliver_at = msg.sent_at + latency;
        self.in_flight.push_back(InFlight { deliver_at, msg });
    }

    /// Installs a tamper hook; hooks run at delivery time in installation
    /// order. Returns the slot index.
    pub fn install_tamper(&mut self, pattern: impl Into<String>, f: TamperFn) -> usize {
        self.tampers.push((pattern.into(), Some(f)));
        self.tampers.len() - 1
    }

    /// Removes a tamper hook by slot index.
    pub fn remove_tamper(&mut self, slot: usize) {
        if let Some(t) = self.tampers.get_mut(slot) {
            t.1 = None;
        }
    }

    /// Delivers every due in-flight message, applying loss and tampers.
    /// Returns the number of deliveries made.
    pub fn step(&mut self, now: SimTime) -> usize {
        let mut delivered = 0;
        let mut remaining = VecDeque::with_capacity(self.in_flight.len());
        while let Some(inf) = self.in_flight.pop_front() {
            if inf.deliver_at > now {
                remaining.push_back(inf);
                continue;
            }
            let mut msg = inf.msg;
            // Loss model: last matching rule wins.
            let loss = self
                .loss
                .iter()
                .rev()
                .find(|(p, _)| topic_matches(p, &msg.topic))
                .map(|(_, p)| *p)
                .unwrap_or(0.0);
            if loss > 0.0 && self.rng.random::<f64>() < loss {
                self.stats.dropped += 1;
                self.stats
                    .per_topic
                    .entry(msg.topic.to_string())
                    .or_default()
                    .dropped += 1;
                self.trace.push(
                    now.as_millis(),
                    TraceEvent::MessageDropped {
                        topic: msg.topic.to_string(),
                        sender: msg.sender.to_string(),
                    },
                );
                continue;
            }
            // MITM hooks.
            for (pattern, hook) in self.tampers.iter_mut() {
                if let Some(f) = hook {
                    if topic_matches(pattern, &msg.topic) && f(&mut msg) {
                        self.stats.tampered += 1;
                        self.stats
                            .per_topic
                            .entry(msg.topic.to_string())
                            .or_default()
                            .tampered += 1;
                        self.trace.push(
                            now.as_millis(),
                            TraceEvent::MessageTampered {
                                topic: msg.topic.to_string(),
                                sender: msg.sender.to_string(),
                            },
                        );
                    }
                }
            }
            let mut fanout = 0u64;
            for (idx, sub) in self.subs.iter_mut().enumerate().filter(|(_, s)| s.active) {
                if topic_matches(&sub.pattern, &msg.topic) {
                    if sub.queue.len() >= sub.depth {
                        sub.queue.pop_front();
                        self.stats.overflowed += 1;
                        self.trace.push(
                            now.as_millis(),
                            TraceEvent::QueueOverflow {
                                topic: msg.topic.to_string(),
                                subscriber: idx,
                            },
                        );
                    }
                    sub.queue.push_back(msg.clone());
                    self.stats.delivered += 1;
                    fanout += 1;
                    delivered += 1;
                }
            }
            if fanout > 0 {
                self.stats
                    .per_topic
                    .entry(msg.topic.to_string())
                    .or_default()
                    .delivered += fanout;
                let latency = inf.deliver_at - msg.sent_at;
                self.stats.latency_ms.observe(latency.as_millis() as f64);
            }
        }
        self.in_flight = remaining;
        delivered
    }

    /// Removes and returns every queued message for `sub`, oldest first.
    pub fn drain(&mut self, sub: RefSubscription) -> Vec<Message> {
        self.subs
            .get_mut(sub.0)
            .filter(|s| s.active)
            .map(|s| s.queue.drain(..).collect())
            .unwrap_or_default()
    }

    /// Traffic counters and latency distribution.
    pub fn stats(&self) -> &BusStats {
        &self.stats
    }

    /// The bounded trace of drops, tampers and queue overflows.
    pub fn trace(&self) -> &TraceLog {
        &self.trace
    }

    /// Messages accepted but not yet delivered.
    pub fn in_flight_len(&self) -> usize {
        self.in_flight.len()
    }
}

sesame_types::assert_send_sync!(ReferenceBus, RefSubscription);
