//! The deterministic ROS-like message bus.
//!
//! Topics are slash-separated paths; subscriptions may use MQTT-style
//! wildcards (`+` for one segment, `#` for the rest), which is how the IDS
//! taps the whole bus with a single `"#"` subscription. Delivery is
//! two-phase: [`MessageBus::publish`] enqueues the message with a modelled
//! latency, and [`MessageBus::step`] moves everything whose delivery time
//! has arrived into subscriber queues — in publish order, so the whole bus
//! is deterministic under a fixed seed.
//!
//! # The fast path
//!
//! Internally the bus is zero-copy and allocation-light. Topics are
//! interned once into a [`TopicTable`]; filters are compiled into
//! [`Pattern`]s at install time; and each concrete topic's routing
//! decision — matching subscriber set, resolved loss probability, resolved
//! latency and matching tamper hooks — is cached in a per-topic route
//! entry, invalidated by a generation counter whenever a subscription or
//! rule changes. Fanout shares one `Arc<Message>` across all subscriber
//! queues; the message body is only deep-copied (copy-on-write) when a
//! tamper hook actually has to mutate it. Per-topic statistics are kept in
//! a dense `Vec` indexed by [`TopicId`] and rendered to topic strings only
//! when a [`BusStats`] snapshot is requested. All of this is observably
//! equivalent to the cache-free [`crate::reference::ReferenceBus`], which
//! the conformance suite proves byte for byte.

use crate::message::{Message, Payload};
use crate::topic::{Pattern, PatternError, TopicId, TopicTable};
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use sesame_obs::metrics::Histogram;
use sesame_obs::{TraceEvent, TraceLog};
use sesame_types::time::{SimDuration, SimTime};
use std::collections::BTreeMap;
use std::collections::HashMap;
use std::collections::VecDeque;
use std::fmt;
use std::sync::Arc;

/// Handle to a subscriber queue, returned by [`MessageBus::subscribe`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Subscription(usize);

/// Handle to an installed man-in-the-middle tamper hook.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct TamperId(usize);

/// Why a [`MessageBus`] queue operation was refused.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BusError {
    /// The subscription handle was never issued by this bus.
    UnknownSubscription(Subscription),
    /// The subscription was already cancelled with
    /// [`MessageBus::unsubscribe`].
    Unsubscribed(Subscription),
}

impl fmt::Display for BusError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BusError::UnknownSubscription(Subscription(id)) => {
                write!(f, "subscription #{id} was never issued by this bus")
            }
            BusError::Unsubscribed(Subscription(id)) => {
                write!(f, "subscription #{id} has been cancelled")
            }
        }
    }
}

impl std::error::Error for BusError {}

/// Traffic counters for one topic.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TopicStats {
    /// Messages accepted on this topic.
    pub published: u64,
    /// Deliveries of this topic's messages into subscriber queues.
    pub delivered: u64,
    /// This topic's messages dropped by the loss model.
    pub dropped: u64,
    /// This topic's messages modified in flight by a tamper hook.
    pub tampered: u64,
}

/// The bus's aggregate counters, cheap to read every tick (no per-topic
/// map is materialized — see [`MessageBus::stats`] for the full snapshot).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct BusCounters {
    /// Messages accepted by `publish`.
    pub published: u64,
    /// Message deliveries into subscriber queues.
    pub delivered: u64,
    /// Messages dropped by the loss model.
    pub dropped: u64,
    /// Messages modified in flight by a tamper hook.
    pub tampered: u64,
    /// Deliveries discarded because a subscriber queue was full.
    pub overflowed: u64,
}

/// Counters and distributions the bus keeps about its own traffic.
///
/// Aggregate counters are mirrored per topic in [`BusStats::per_topic`],
/// and each delivery's modelled latency lands in
/// [`BusStats::latency_ms`]. All of it is deterministic under a fixed
/// seed, so stats can be asserted exactly in tests.
///
/// This is a rendered snapshot: internally the bus keys per-topic counters
/// by interned [`TopicId`] and only materializes the string-keyed map when
/// [`MessageBus::stats`] is called.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct BusStats {
    /// Messages accepted by `publish`.
    pub published: u64,
    /// Message deliveries into subscriber queues (one message delivered to
    /// three subscribers counts three).
    pub delivered: u64,
    /// Messages dropped by the loss model.
    pub dropped: u64,
    /// Messages modified in flight by a tamper hook.
    pub tampered: u64,
    /// Deliveries discarded because a subscriber queue was full.
    pub overflowed: u64,
    /// Per-topic breakdown of the counters above (except overflow, which
    /// belongs to subscriber queues rather than topics).
    pub per_topic: BTreeMap<String, TopicStats>,
    /// Modelled publish→deliver latency of every delivered message, in
    /// milliseconds.
    pub latency_ms: Histogram,
}

impl BusStats {
    /// This topic's counters (zeros if the topic never saw traffic).
    pub fn topic(&self, topic: &str) -> TopicStats {
        self.per_topic.get(topic).copied().unwrap_or_default()
    }
}

/// A man-in-the-middle hook: may mutate the message; returns `true` if it
/// did (counted in [`BusStats::tampered`]).
// `Sync` as well as `Send` so a bus (worker-owned, but potentially
// parked inside a shared scenario template) never blocks the
// `Send + Sync` audit of the parallel campaign executor. Tamper hooks
// close over plain data, so the extra bound costs callers nothing.
pub type TamperFn = Box<dyn FnMut(&mut Message) -> bool + Send + Sync>;

struct SubState {
    pattern: Pattern,
    queue: VecDeque<Arc<Message>>,
    depth: usize,
    active: bool,
}

struct InFlight {
    deliver_at: SimTime,
    tid: TopicId,
    msg: Arc<Message>,
}

/// One concrete topic's cached routing decision, valid while the bus
/// generation is unchanged.
struct CachedRoute {
    generation: u64,
    /// Active matching subscriber indices, ascending (delivery order).
    subs: Vec<usize>,
    /// Matching live tamper slots, installation order.
    tampers: Vec<usize>,
    /// Resolved loss probability (last matching rule wins, else 0).
    loss: f64,
    /// Resolved latency (last matching override wins, else the default).
    latency: SimDuration,
}

/// The bus. See the crate docs for an end-to-end example.
pub struct MessageBus {
    subs: Vec<SubState>,
    in_flight: VecDeque<InFlight>,
    seq: HashMap<Arc<str>, u64>,
    tampers: Vec<(Pattern, Option<TamperFn>)>,
    loss: Vec<(Pattern, f64)>,
    latency: SimDuration,
    topic_latency: Vec<(Pattern, SimDuration)>,
    topics: TopicTable,
    routes: Vec<Option<CachedRoute>>,
    /// Bumped on every subscription/rule mutation; stale route entries
    /// rebuild lazily on next use.
    generation: u64,
    rng: StdRng,
    counters: BusCounters,
    per_topic: Vec<TopicStats>,
    latency_ms: Histogram,
    trace: TraceLog,
}

impl fmt::Debug for MessageBus {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("MessageBus")
            .field("subscribers", &self.subs.len())
            .field("in_flight", &self.in_flight.len())
            .field(
                "tampers",
                &self.tampers.iter().filter(|t| t.1.is_some()).count(),
            )
            .field("topics", &self.topics.len())
            .field("stats", &self.counters)
            .finish()
    }
}

impl Default for MessageBus {
    fn default() -> Self {
        Self::new()
    }
}

impl MessageBus {
    /// A bus with seed 0 and the default 20 ms latency.
    pub fn new() -> Self {
        Self::seeded(0)
    }

    /// A bus whose loss model draws from a deterministic RNG seeded with
    /// `seed`.
    pub fn seeded(seed: u64) -> Self {
        MessageBus {
            subs: Vec::new(),
            in_flight: VecDeque::new(),
            seq: HashMap::new(),
            tampers: Vec::new(),
            loss: Vec::new(),
            latency: SimDuration::from_millis(20),
            topic_latency: Vec::new(),
            topics: TopicTable::new(),
            routes: Vec::new(),
            generation: 0,
            rng: StdRng::seed_from_u64(seed),
            counters: BusCounters::default(),
            per_topic: Vec::new(),
            latency_ms: Histogram::default(),
            trace: TraceLog::default(),
        }
    }

    /// Invalidates every cached route (lazily: entries rebuild on next
    /// use).
    fn invalidate_routes(&mut self) {
        self.generation += 1;
    }

    /// Sets the uniform publish→deliver latency.
    pub fn set_latency(&mut self, latency: SimDuration) {
        self.latency = latency;
        self.invalidate_routes();
    }

    /// Overrides the latency for topics matching `pattern` (MQTT
    /// wildcards allowed; the last matching rule wins) — the hook a
    /// [`crate::network::NetworkModel`] uses to model long radio links.
    pub fn set_topic_latency(&mut self, pattern: impl Into<String>, latency: SimDuration) {
        self.topic_latency
            .push((Pattern::parse_lenient(pattern.into()), latency));
        self.invalidate_routes();
    }

    /// Sets a packet-loss probability for every topic matching `pattern`
    /// (MQTT wildcards allowed). Later rules take precedence.
    pub fn set_loss(&mut self, pattern: impl Into<String>, probability: f64) {
        self.loss.push((
            Pattern::parse_lenient(pattern.into()),
            probability.clamp(0.0, 1.0),
        ));
        self.invalidate_routes();
    }

    /// Removes every loss rule installed for exactly `pattern`, letting
    /// any earlier rule (or the lossless default) apply again. This is how
    /// a scheduled link fault ends without leaving rule debris behind.
    pub fn remove_loss(&mut self, pattern: &str) {
        self.loss.retain(|(p, _)| p.raw() != pattern);
        self.invalidate_routes();
    }

    /// Removes every latency override installed for exactly `pattern`.
    pub fn remove_topic_latency(&mut self, pattern: &str) {
        self.topic_latency.retain(|(p, _)| p.raw() != pattern);
        self.invalidate_routes();
    }

    /// Subscribes to `pattern` (exact topic or MQTT wildcard pattern) with
    /// the default queue depth of 1024.
    ///
    /// # Panics
    ///
    /// Panics if `pattern` is an invalid filter (a `#` in a non-final
    /// segment) — such a subscription could never match anything. Use
    /// [`MessageBus::try_subscribe`] to handle the rejection gracefully.
    pub fn subscribe(&mut self, pattern: impl Into<String>) -> Subscription {
        self.subscribe_with_depth(pattern, 1024)
    }

    /// Subscribes with an explicit queue depth; the oldest overflowing
    /// deliveries are discarded (counted in [`BusStats::overflowed`]).
    ///
    /// # Panics
    ///
    /// Panics if `depth` is zero or `pattern` is an invalid filter.
    pub fn subscribe_with_depth(
        &mut self,
        pattern: impl Into<String>,
        depth: usize,
    ) -> Subscription {
        self.try_subscribe_with_depth(pattern, depth)
            .unwrap_or_else(|e| panic!("invalid subscription pattern: {e}"))
    }

    /// Subscribes to `pattern`, rejecting invalid filters with a typed
    /// error instead of silently never matching.
    pub fn try_subscribe(
        &mut self,
        pattern: impl Into<String>,
    ) -> Result<Subscription, PatternError> {
        self.try_subscribe_with_depth(pattern, 1024)
    }

    /// Subscribes with an explicit queue depth, rejecting invalid filters
    /// with a typed error.
    ///
    /// # Panics
    ///
    /// Panics if `depth` is zero.
    pub fn try_subscribe_with_depth(
        &mut self,
        pattern: impl Into<String>,
        depth: usize,
    ) -> Result<Subscription, PatternError> {
        assert!(depth > 0, "queue depth must be positive");
        let pattern = Pattern::parse(pattern.into())?;
        self.subs.push(SubState {
            pattern,
            queue: VecDeque::new(),
            depth,
            active: true,
        });
        self.invalidate_routes();
        Ok(Subscription(self.subs.len() - 1))
    }

    /// Cancels a subscription; its queue is dropped. Cancelling twice, or
    /// cancelling a handle from another bus, is an error.
    pub fn unsubscribe(&mut self, sub: Subscription) -> Result<(), BusError> {
        let s = self
            .subs
            .get_mut(sub.0)
            .ok_or(BusError::UnknownSubscription(sub))?;
        if !s.active {
            return Err(BusError::Unsubscribed(sub));
        }
        s.active = false;
        s.queue.clear();
        self.invalidate_routes();
        Ok(())
    }

    /// Publishes an unsigned message from `sender` on `topic`; the sequence
    /// number is assigned per sender. Returns a handle to the enqueued
    /// message (shared with the bus — no deep copy is made).
    pub fn publish(
        &mut self,
        now: SimTime,
        sender: impl Into<Arc<str>>,
        topic: impl Into<Arc<str>>,
        payload: Payload,
    ) -> Arc<Message> {
        let sender = sender.into();
        let seq = if let Some(c) = self.seq.get_mut(&sender) {
            let s = *c;
            *c += 1;
            s
        } else {
            self.seq.insert(Arc::clone(&sender), 1);
            0
        };
        let msg = Arc::new(Message::new(topic.into(), sender, seq, now, payload));
        self.publish_arc(Arc::clone(&msg));
        msg
    }

    /// Publishes a pre-built message verbatim — used by the attack plane to
    /// inject spoofed or replayed envelopes without touching the legitimate
    /// sequence counters.
    pub fn publish_message(&mut self, msg: Message) {
        self.publish_arc(Arc::new(msg));
    }

    /// Publishes an already-shared message without copying the body — the
    /// zero-copy variant of [`MessageBus::publish_message`].
    pub fn publish_arc(&mut self, msg: Arc<Message>) {
        let tid = self.intern(&msg.topic);
        self.counters.published += 1;
        self.per_topic[tid.index()].published += 1;
        self.ensure_route(tid);
        let latency = self.routes[tid.index()]
            .as_ref()
            .expect("route was just ensured")
            .latency;
        let deliver_at = msg.sent_at + latency;
        self.in_flight.push_back(InFlight {
            deliver_at,
            tid,
            msg,
        });
    }

    /// Interns `topic`, growing the dense per-topic stats and route tables
    /// alongside the interner.
    fn intern(&mut self, topic: &str) -> TopicId {
        let tid = self.topics.intern(topic);
        if self.per_topic.len() <= tid.index() {
            self.per_topic
                .resize(tid.index() + 1, TopicStats::default());
            self.routes.resize_with(tid.index() + 1, || None);
        }
        tid
    }

    /// Rebuilds `tid`'s cached route if the bus generation moved since it
    /// was computed (or it never was).
    fn ensure_route(&mut self, tid: TopicId) {
        let fresh = matches!(
            &self.routes[tid.index()],
            Some(r) if r.generation == self.generation
        );
        if fresh {
            return;
        }
        let segments = self.topics.segments(tid);
        let subs = self
            .subs
            .iter()
            .enumerate()
            .filter(|(_, s)| s.active && s.pattern.matches_segments(segments.clone()))
            .map(|(i, _)| i)
            .collect();
        let tampers = self
            .tampers
            .iter()
            .enumerate()
            .filter(|(_, (p, f))| f.is_some() && p.matches_segments(segments.clone()))
            .map(|(i, _)| i)
            .collect();
        let loss = self
            .loss
            .iter()
            .rev()
            .find(|(p, _)| p.matches_segments(segments.clone()))
            .map(|(_, p)| *p)
            .unwrap_or(0.0);
        let latency = self
            .topic_latency
            .iter()
            .rev()
            .find(|(p, _)| p.matches_segments(segments.clone()))
            .map(|(_, l)| *l)
            .unwrap_or(self.latency);
        self.routes[tid.index()] = Some(CachedRoute {
            generation: self.generation,
            subs,
            tampers,
            loss,
            latency,
        });
    }

    /// Installs a man-in-the-middle tamper hook on topics matching
    /// `pattern`; hooks run at delivery time in installation order.
    pub fn install_tamper(&mut self, pattern: impl Into<String>, f: TamperFn) -> TamperId {
        self.tampers
            .push((Pattern::parse_lenient(pattern.into()), Some(f)));
        self.invalidate_routes();
        TamperId(self.tampers.len() - 1)
    }

    /// Removes a previously installed tamper hook.
    pub fn remove_tamper(&mut self, id: TamperId) {
        if let Some(slot) = self.tampers.get_mut(id.0) {
            slot.1 = None;
        }
        self.invalidate_routes();
    }

    /// Delivers every in-flight message whose delivery time is `<= now`
    /// into matching subscriber queues, applying loss and tamper hooks.
    /// Returns the number of deliveries made.
    ///
    /// Delivery is zero-copy: every matching subscriber queue receives a
    /// clone of the same `Arc<Message>`. When a tamper hook matches, the
    /// body is deep-copied once (copy-on-write) before the hook mutates
    /// it, and the mutated copy is what fans out.
    pub fn step(&mut self, now: SimTime) -> usize {
        let mut delivered = 0;
        // One rotation of the ring in place: every entry is popped once,
        // and the not-yet-due ones go back on the end in their original
        // relative order (delivery never enqueues new in-flight entries).
        for _ in 0..self.in_flight.len() {
            let inf = self
                .in_flight
                .pop_front()
                .expect("rotation stays within len");
            if inf.deliver_at > now {
                self.in_flight.push_back(inf);
                continue;
            }
            let InFlight {
                deliver_at,
                mut tid,
                mut msg,
            } = inf;
            self.ensure_route(tid);
            // Take the route out of its slot so the borrow checker lets
            // the fanout below touch subscriber queues, stats and the
            // trace; it goes back before the next message.
            let mut route = self.routes[tid.index()].take().expect("route just ensured");
            // Loss model (resolved at route-build time; last rule wins).
            // The RNG is consulted only when a loss rule applies, exactly
            // like the reference bus, so packet fates stay seed-stable.
            if route.loss > 0.0 && self.rng.random::<f64>() < route.loss {
                self.counters.dropped += 1;
                self.per_topic[tid.index()].dropped += 1;
                self.trace.push(
                    now.as_millis(),
                    TraceEvent::MessageDropped {
                        topic: msg.topic.to_string(),
                        sender: msg.sender.to_string(),
                    },
                );
                self.routes[tid.index()] = Some(route);
                continue;
            }
            // MITM hooks: copy-on-write — the shared body is cloned only
            // when a matching hook exists. A hook may (pathologically)
            // rewrite the topic mid-flight; the reference semantics match
            // every subsequent hook (and the fanout) against the rewritten
            // topic, so on the first rewrite we leave the cached membership
            // list and match the remaining hooks individually.
            if !route.tampers.is_empty() {
                let original_tid = tid;
                let body = Arc::make_mut(&mut msg);
                let mut cur_tid = tid;
                let mut rewritten = false;
                let mut cursor = 0usize;
                for slot in 0..self.tampers.len() {
                    let fires = if rewritten {
                        self.tampers[slot].1.is_some()
                            && self.tampers[slot].0.matches_topic(&body.topic)
                    } else if route.tampers.get(cursor) == Some(&slot) {
                        cursor += 1;
                        true
                    } else {
                        false
                    };
                    if !fires {
                        continue;
                    }
                    let Some(f) = self.tampers[slot].1.as_mut() else {
                        continue;
                    };
                    let mutated = f(body);
                    if *body.topic != *self.topics.name(cur_tid) {
                        let topic = Arc::clone(&body.topic);
                        cur_tid = self.intern(&topic);
                        rewritten = true;
                    }
                    if mutated {
                        self.counters.tampered += 1;
                        self.per_topic[cur_tid.index()].tampered += 1;
                        self.trace.push(
                            now.as_millis(),
                            TraceEvent::MessageTampered {
                                topic: body.topic.to_string(),
                                sender: body.sender.to_string(),
                            },
                        );
                    }
                }
                if cur_tid != original_tid {
                    // Reroute the fanout to the rewritten topic.
                    self.routes[original_tid.index()] = Some(route);
                    tid = cur_tid;
                    self.ensure_route(tid);
                    route = self.routes[tid.index()].take().expect("route just ensured");
                }
            }
            // Fanout: one Arc clone per subscriber, no message copies.
            let mut fanout = 0u64;
            for &idx in &route.subs {
                let sub = &mut self.subs[idx];
                if sub.queue.len() >= sub.depth {
                    sub.queue.pop_front();
                    self.counters.overflowed += 1;
                    self.trace.push(
                        now.as_millis(),
                        TraceEvent::QueueOverflow {
                            topic: msg.topic.to_string(),
                            subscriber: idx,
                        },
                    );
                }
                sub.queue.push_back(Arc::clone(&msg));
                self.counters.delivered += 1;
                fanout += 1;
                delivered += 1;
            }
            if fanout > 0 {
                self.per_topic[tid.index()].delivered += fanout;
                let latency = deliver_at - msg.sent_at;
                self.latency_ms.observe(latency.as_millis() as f64);
            }
            self.routes[tid.index()] = Some(route);
        }
        delivered
    }

    /// Removes and returns every queued message for `sub`, oldest first.
    /// Draining a cancelled or foreign handle is an error rather than
    /// silently empty, so lost-handle bugs surface where they happen.
    ///
    /// Messages are shared (`Arc`) — field access derefs transparently;
    /// clone the inner [`Message`] only if an owned copy is needed.
    pub fn drain(&mut self, sub: Subscription) -> Result<Vec<Arc<Message>>, BusError> {
        let mut out = Vec::new();
        self.drain_into(sub, &mut out)?;
        Ok(out)
    }

    /// [`MessageBus::drain`] into a caller-owned buffer, replacing its
    /// contents: a per-tick drain through a reused buffer allocates
    /// nothing once the buffer has grown. On error `out` is left empty.
    pub fn drain_into(
        &mut self,
        sub: Subscription,
        out: &mut Vec<Arc<Message>>,
    ) -> Result<(), BusError> {
        out.clear();
        let s = self
            .subs
            .get_mut(sub.0)
            .ok_or(BusError::UnknownSubscription(sub))?;
        if !s.active {
            return Err(BusError::Unsubscribed(sub));
        }
        out.extend(s.queue.drain(..));
        Ok(())
    }

    /// Number of messages currently queued for `sub`.
    pub fn queued(&self, sub: Subscription) -> Result<usize, BusError> {
        let s = self
            .subs
            .get(sub.0)
            .ok_or(BusError::UnknownSubscription(sub))?;
        if !s.active {
            return Err(BusError::Unsubscribed(sub));
        }
        Ok(s.queue.len())
    }

    /// Aggregate counters, cheap enough to mirror into metrics every tick
    /// (no per-topic rendering happens).
    pub fn counters(&self) -> BusCounters {
        self.counters
    }

    /// A full statistics snapshot: aggregate counters, the latency
    /// histogram, and the per-topic breakdown rendered from the interned
    /// topic table (this is the only place topic strings are materialized
    /// for stats).
    pub fn stats(&self) -> BusStats {
        let mut per_topic = BTreeMap::new();
        for (i, ts) in self.per_topic.iter().enumerate() {
            if *ts != TopicStats::default() {
                per_topic.insert(self.topics.name(TopicId::from_index(i)).to_string(), *ts);
            }
        }
        BusStats {
            published: self.counters.published,
            delivered: self.counters.delivered,
            dropped: self.counters.dropped,
            tampered: self.counters.tampered,
            overflowed: self.counters.overflowed,
            per_topic,
            latency_ms: self.latency_ms.clone(),
        }
    }

    /// The bounded trace of notable bus events (drops, tampers, queue
    /// overflows). Routine deliveries are counted in [`Self::stats`] but
    /// not traced, so rare events aren't evicted by bulk traffic.
    pub fn trace(&self) -> &TraceLog {
        &self.trace
    }

    /// Mutable access to the trace, letting an orchestrator absorb bus
    /// events into a platform-wide log each tick.
    pub fn trace_mut(&mut self) -> &mut TraceLog {
        &mut self.trace
    }

    /// Messages accepted but not yet delivered.
    pub fn in_flight_len(&self) -> usize {
        self.in_flight.len()
    }
}

// Each parallel campaign worker owns a private bus, but the bus (and
// its stats, which feed merged campaign aggregates) must be movable
// onto the worker thread.
sesame_types::assert_send_sync!(
    MessageBus,
    BusStats,
    BusCounters,
    TopicStats,
    BusError,
    Subscription
);

#[cfg(test)]
mod tests {
    use super::*;

    fn text(s: &str) -> Payload {
        Payload::Text(s.into())
    }

    #[test]
    fn publish_deliver_drain() {
        let mut bus = MessageBus::new();
        let sub = bus.subscribe("/a/b");
        bus.publish(SimTime::ZERO, "n1", "/a/b", text("x"));
        assert_eq!(bus.queued(sub).unwrap(), 0, "not delivered before step");
        assert_eq!(bus.step(SimTime::from_millis(100)), 1);
        let msgs = bus.drain(sub).unwrap();
        assert_eq!(msgs.len(), 1);
        assert_eq!(msgs[0].payload, text("x"));
        assert_eq!(bus.queued(sub).unwrap(), 0);
    }

    #[test]
    fn latency_delays_delivery() {
        let mut bus = MessageBus::new();
        bus.set_latency(SimDuration::from_millis(500));
        let sub = bus.subscribe("/t");
        bus.publish(SimTime::ZERO, "n", "/t", text("x"));
        assert_eq!(bus.step(SimTime::from_millis(400)), 0);
        assert_eq!(bus.in_flight_len(), 1);
        assert_eq!(bus.step(SimTime::from_millis(500)), 1);
        assert_eq!(bus.drain(sub).unwrap().len(), 1);
    }

    #[test]
    fn step_keeps_undue_messages_in_publish_order() {
        let mut bus = MessageBus::new();
        bus.set_topic_latency("/slow", SimDuration::from_millis(300));
        let all = bus.subscribe("#");
        for (topic, body) in [
            ("/slow", "a"),
            ("/fast", "b"),
            ("/slow", "c"),
            ("/fast", "d"),
        ] {
            bus.publish(SimTime::ZERO, "n", topic, text(body));
        }
        assert_eq!(bus.step(SimTime::from_millis(100)), 2);
        assert_eq!(bus.in_flight_len(), 2);
        bus.publish(SimTime::from_millis(100), "n", "/fast", text("e"));
        assert_eq!(bus.step(SimTime::from_millis(400)), 3);
        let order: Vec<Payload> = bus
            .drain(all)
            .unwrap()
            .iter()
            .map(|m| m.payload.clone())
            .collect();
        let expected: Vec<Payload> = ["b", "d", "a", "c", "e"].map(text).to_vec();
        assert_eq!(order, expected);
    }

    #[test]
    fn drain_into_replaces_the_buffer_and_reports_bad_handles() {
        let mut bus = MessageBus::new();
        let sub = bus.subscribe("/t");
        let mut out = Vec::new();
        bus.publish(SimTime::ZERO, "n", "/t", text("a"));
        bus.step(SimTime::from_millis(100));
        bus.drain_into(sub, &mut out).unwrap();
        assert_eq!(out.len(), 1);
        bus.publish(SimTime::from_millis(100), "n", "/t", text("b"));
        bus.step(SimTime::from_millis(200));
        bus.drain_into(sub, &mut out).unwrap();
        assert_eq!(out.len(), 1, "replaced, not appended");
        assert_eq!(out[0].payload, text("b"));
        bus.unsubscribe(sub).unwrap();
        assert_eq!(
            bus.drain_into(sub, &mut out),
            Err(BusError::Unsubscribed(sub))
        );
        assert!(out.is_empty());
    }

    #[test]
    fn per_topic_latency_overrides_default() {
        let mut bus = MessageBus::new();
        bus.set_latency(SimDuration::from_millis(10));
        bus.set_topic_latency("/far/#", SimDuration::from_millis(300));
        let near = bus.subscribe("/near");
        let far = bus.subscribe("/far/x");
        bus.publish(SimTime::ZERO, "n", "/near", text("a"));
        bus.publish(SimTime::ZERO, "n", "/far/x", text("b"));
        bus.step(SimTime::from_millis(100));
        assert_eq!(bus.drain(near).unwrap().len(), 1);
        assert_eq!(
            bus.drain(far).unwrap().len(),
            0,
            "long link still in flight"
        );
        bus.step(SimTime::from_millis(300));
        assert_eq!(bus.drain(far).unwrap().len(), 1);
    }

    #[test]
    fn later_fast_message_overtakes_earlier_slow_one() {
        let mut bus = MessageBus::new();
        bus.set_topic_latency("/slow", SimDuration::from_millis(500));
        bus.set_topic_latency("/fast", SimDuration::from_millis(10));
        let sub = bus.subscribe("#");
        bus.publish(SimTime::ZERO, "n", "/slow", text("1st published"));
        bus.publish(SimTime::ZERO, "n", "/fast", text("2nd published"));
        bus.step(SimTime::from_millis(50));
        let got = bus.drain(sub).unwrap();
        assert_eq!(got.len(), 1);
        assert_eq!(&*got[0].topic, "/fast");
    }

    #[test]
    fn wildcard_subscription_sees_all_topics() {
        let mut bus = MessageBus::new();
        let all = bus.subscribe("#");
        let one = bus.subscribe("/uav1/+");
        bus.publish(SimTime::ZERO, "n", "/uav1/telemetry", text("a"));
        bus.publish(SimTime::ZERO, "n", "/uav2/telemetry", text("b"));
        bus.step(SimTime::from_millis(100));
        assert_eq!(bus.drain(all).unwrap().len(), 2);
        let m = bus.drain(one).unwrap();
        assert_eq!(m.len(), 1);
        assert_eq!(&*m[0].topic, "/uav1/telemetry");
    }

    #[test]
    fn per_sender_sequence_numbers_are_monotone() {
        let mut bus = MessageBus::new();
        let m0 = bus.publish(SimTime::ZERO, "a", "/t", text("1"));
        let m1 = bus.publish(SimTime::ZERO, "a", "/t", text("2"));
        let other = bus.publish(SimTime::ZERO, "b", "/t", text("3"));
        assert_eq!((m0.seq, m1.seq, other.seq), (0, 1, 0));
    }

    #[test]
    fn loss_drops_messages_deterministically() {
        let mut bus = MessageBus::seeded(7);
        bus.set_loss("/lossy/#", 1.0);
        let sub = bus.subscribe("#");
        bus.publish(SimTime::ZERO, "n", "/lossy/x", text("a"));
        bus.publish(SimTime::ZERO, "n", "/fine", text("b"));
        bus.step(SimTime::from_millis(100));
        let msgs = bus.drain(sub).unwrap();
        assert_eq!(msgs.len(), 1);
        assert_eq!(&*msgs[0].topic, "/fine");
        assert_eq!(bus.stats().dropped, 1);
    }

    #[test]
    fn partial_loss_is_reproducible_across_seeds() {
        let run = |seed| {
            let mut bus = MessageBus::seeded(seed);
            bus.set_loss("#", 0.5);
            let sub = bus.subscribe("#");
            for i in 0..100 {
                bus.publish(SimTime::ZERO, "n", format!("/t{i}"), text("x"));
            }
            bus.step(SimTime::from_millis(100));
            bus.drain(sub)
                .unwrap()
                .into_iter()
                .map(|m| m.topic.clone())
                .collect::<Vec<_>>()
        };
        assert_eq!(run(3), run(3), "same seed, same losses");
        assert_ne!(run(3), run(4), "different seed, different losses");
    }

    #[test]
    fn tamper_hook_modifies_in_flight() {
        let mut bus = MessageBus::new();
        let sub = bus.subscribe("/cmd");
        bus.install_tamper(
            "/cmd",
            Box::new(|m| {
                m.payload = Payload::Text("evil".into());
                true
            }),
        );
        bus.publish(SimTime::ZERO, "gcs", "/cmd", text("good"));
        bus.step(SimTime::from_millis(100));
        let msgs = bus.drain(sub).unwrap();
        assert_eq!(msgs[0].payload, text("evil"));
        assert_eq!(bus.stats().tampered, 1);
    }

    #[test]
    fn removed_tamper_stops_firing() {
        let mut bus = MessageBus::new();
        let sub = bus.subscribe("/cmd");
        let id = bus.install_tamper(
            "/cmd",
            Box::new(|m| {
                m.payload = Payload::Text("evil".into());
                true
            }),
        );
        bus.remove_tamper(id);
        bus.publish(SimTime::ZERO, "gcs", "/cmd", text("good"));
        bus.step(SimTime::from_millis(100));
        assert_eq!(bus.drain(sub).unwrap()[0].payload, text("good"));
        assert_eq!(bus.stats().tampered, 0);
    }

    #[test]
    fn queue_depth_overflow_discards_oldest() {
        let mut bus = MessageBus::new();
        let sub = bus.subscribe_with_depth("/t", 2);
        for i in 0..5 {
            bus.publish(SimTime::ZERO, "n", "/t", text(&i.to_string()));
        }
        bus.step(SimTime::from_millis(100));
        let msgs = bus.drain(sub).unwrap();
        assert_eq!(msgs.len(), 2);
        assert_eq!(msgs[0].payload, text("3"));
        assert_eq!(msgs[1].payload, text("4"));
        assert_eq!(bus.stats().overflowed, 3);
    }

    #[test]
    fn unsubscribe_stops_delivery() {
        let mut bus = MessageBus::new();
        let sub = bus.subscribe("/t");
        let live = bus.subscribe("/t");
        bus.unsubscribe(sub).unwrap();
        bus.publish(SimTime::ZERO, "n", "/t", text("x"));
        assert_eq!(bus.step(SimTime::from_millis(100)), 1, "only the live sub");
        assert_eq!(bus.drain(sub), Err(BusError::Unsubscribed(sub)));
        assert_eq!(bus.drain(live).unwrap().len(), 1);
    }

    #[test]
    fn queue_ops_reject_unknown_and_cancelled_handles() {
        let mut bus = MessageBus::new();
        let sub = bus.subscribe("/t");
        let mut other = MessageBus::new();
        let _ = other.subscribe("/a");
        let foreign = other.subscribe("/b");

        assert_eq!(
            bus.drain(foreign),
            Err(BusError::UnknownSubscription(foreign))
        );
        assert_eq!(
            bus.queued(foreign),
            Err(BusError::UnknownSubscription(foreign))
        );
        assert_eq!(
            bus.unsubscribe(foreign),
            Err(BusError::UnknownSubscription(foreign))
        );

        bus.unsubscribe(sub).unwrap();
        assert_eq!(bus.unsubscribe(sub), Err(BusError::Unsubscribed(sub)));
        assert_eq!(bus.queued(sub), Err(BusError::Unsubscribed(sub)));
        let err = bus.drain(sub).unwrap_err();
        assert!(err.to_string().contains("cancelled"), "{err}");
    }

    #[test]
    fn removed_loss_rule_restores_earlier_behaviour() {
        let mut bus = MessageBus::seeded(7);
        bus.set_loss("/t", 0.1);
        bus.set_loss("/t", 1.0); // the injected blackout
        let sub = bus.subscribe("/t");
        bus.publish(SimTime::ZERO, "n", "/t", text("a"));
        bus.step(SimTime::from_millis(100));
        assert_eq!(
            bus.drain(sub).unwrap().len(),
            0,
            "blackout drops everything"
        );
        bus.remove_loss("/t"); // removes both rules for the pattern
        for _ in 0..20 {
            bus.publish(SimTime::from_millis(100), "n", "/t", text("b"));
        }
        bus.step(SimTime::from_millis(200));
        assert_eq!(bus.drain(sub).unwrap().len(), 20, "lossless again");
    }

    #[test]
    fn removed_topic_latency_restores_default() {
        let mut bus = MessageBus::new();
        bus.set_topic_latency("/t", SimDuration::from_millis(900));
        bus.remove_topic_latency("/t");
        let sub = bus.subscribe("/t");
        bus.publish(SimTime::ZERO, "n", "/t", text("x"));
        bus.step(SimTime::from_millis(20));
        assert_eq!(bus.drain(sub).unwrap().len(), 1, "default 20 ms applies");
    }

    #[test]
    fn per_topic_stats_break_down_traffic() {
        let mut bus = MessageBus::seeded(7);
        bus.set_loss("/lossy/#", 1.0);
        let _sub = bus.subscribe("#");
        bus.publish(SimTime::ZERO, "n", "/lossy/x", text("a"));
        bus.publish(SimTime::ZERO, "n", "/fine", text("b"));
        bus.publish(SimTime::ZERO, "n", "/fine", text("c"));
        bus.step(SimTime::from_millis(100));
        let s = bus.stats();
        assert_eq!(s.topic("/lossy/x").published, 1);
        assert_eq!(s.topic("/lossy/x").dropped, 1);
        assert_eq!(s.topic("/lossy/x").delivered, 0);
        assert_eq!(s.topic("/fine").published, 2);
        assert_eq!(s.topic("/fine").delivered, 2);
        assert_eq!(s.topic("/never-seen"), TopicStats::default());
    }

    #[test]
    fn latency_histogram_records_modelled_delay() {
        let mut bus = MessageBus::new();
        bus.set_latency(SimDuration::from_millis(40));
        bus.set_topic_latency("/far", SimDuration::from_millis(300));
        let _near = bus.subscribe("/near");
        let _far = bus.subscribe("/far");
        bus.publish(SimTime::ZERO, "n", "/near", text("a"));
        bus.publish(SimTime::ZERO, "n", "/far", text("b"));
        bus.step(SimTime::from_secs(1));
        let h = bus.stats().latency_ms;
        assert_eq!(h.count(), 2);
        assert_eq!(h.min(), 40.0);
        assert_eq!(h.max(), 300.0);
        // A message nobody subscribes to records no latency sample.
        bus.publish(SimTime::ZERO, "n", "/unheard", text("c"));
        bus.step(SimTime::from_secs(2));
        assert_eq!(bus.stats().latency_ms.count(), 2);
    }

    #[test]
    fn trace_records_drops_tampers_and_overflows() {
        let mut bus = MessageBus::seeded(7);
        bus.set_loss("/lossy", 1.0);
        bus.install_tamper(
            "/cmd",
            Box::new(|m| {
                m.payload = Payload::Text("evil".into());
                true
            }),
        );
        let _tight = bus.subscribe_with_depth("/cmd", 1);
        bus.publish(SimTime::ZERO, "n", "/lossy", text("a"));
        bus.publish(SimTime::ZERO, "gcs", "/cmd", text("b"));
        bus.publish(SimTime::ZERO, "gcs", "/cmd", text("c"));
        bus.step(SimTime::from_millis(100));

        assert_eq!(bus.trace().count_kind("message_dropped"), 1);
        assert_eq!(bus.trace().count_kind("message_tampered"), 2);
        assert_eq!(bus.trace().count_kind("queue_overflow"), 1);
        let drop = bus.trace().of_kind("message_dropped").next().unwrap();
        assert_eq!(drop.t_ms, 100);
        assert!(matches!(
            &drop.event,
            TraceEvent::MessageDropped { topic, .. } if topic == "/lossy"
        ));

        // An orchestrator can absorb the bus trace into its own log.
        let mut unified = TraceLog::default();
        unified.absorb(bus.trace_mut());
        assert!(bus.trace().is_empty());
        assert_eq!(unified.count_kind("message_tampered"), 2);
    }

    #[test]
    #[should_panic(expected = "queue depth must be positive")]
    fn zero_depth_panics() {
        let mut bus = MessageBus::new();
        let _ = bus.subscribe_with_depth("/t", 0);
    }

    #[test]
    fn injected_message_preserves_forged_fields() {
        let mut bus = MessageBus::new();
        let sub = bus.subscribe("/cmd");
        // Adversary forges sender and seq directly.
        let forged = Message::new("/cmd", "node:gcs", 999, SimTime::ZERO, text("spoof"));
        bus.publish_message(forged.clone());
        bus.step(SimTime::from_millis(100));
        let got = bus.drain(sub).unwrap();
        assert_eq!(&*got[0].sender, "node:gcs");
        assert_eq!(got[0].seq, 999);
        assert!(!got[0].is_signed());
    }

    #[test]
    fn stats_track_published_and_delivered() {
        let mut bus = MessageBus::new();
        let _a = bus.subscribe("#");
        let _b = bus.subscribe("/t");
        bus.publish(SimTime::ZERO, "n", "/t", text("x"));
        bus.step(SimTime::from_millis(100));
        let s = bus.stats();
        assert_eq!(s.published, 1);
        assert_eq!(s.delivered, 2);
        assert_eq!(bus.counters().published, 1);
        assert_eq!(bus.counters().delivered, 2);
    }

    #[test]
    fn invalid_subscription_pattern_is_rejected_with_typed_error() {
        use crate::topic::PatternError;
        let mut bus = MessageBus::new();
        let err = bus.try_subscribe("a/#/b").unwrap_err();
        assert_eq!(
            err,
            PatternError::HashNotFinal {
                pattern: "a/#/b".into(),
                segment: 1
            }
        );
        // The rejected filter left no subscriber behind.
        bus.publish(SimTime::ZERO, "n", "a/x/b", text("x"));
        assert_eq!(bus.step(SimTime::from_millis(100)), 0);
    }

    #[test]
    #[should_panic(expected = "invalid subscription pattern")]
    fn invalid_subscription_pattern_panics_on_infallible_subscribe() {
        let mut bus = MessageBus::new();
        let _ = bus.subscribe("ids/#/alerts");
    }

    #[test]
    fn fanout_shares_one_allocation_until_tampered() {
        let mut bus = MessageBus::new();
        let a = bus.subscribe("/t");
        let b = bus.subscribe("#");
        bus.publish(SimTime::ZERO, "n", "/t", text("shared"));
        bus.step(SimTime::from_millis(100));
        let ma = bus.drain(a).unwrap().remove(0);
        let mb = bus.drain(b).unwrap().remove(0);
        assert!(Arc::ptr_eq(&ma, &mb), "clean fanout must share the body");

        // With a tamper in the path the body is copied exactly once and
        // the mutated copy is what all subscribers share.
        bus.install_tamper(
            "/t",
            Box::new(|m| {
                m.payload = Payload::Text("evil".into());
                true
            }),
        );
        let keep = bus.publish(SimTime::from_secs(1), "n", "/t", text("clean"));
        bus.step(SimTime::from_secs(2));
        let ta = bus.drain(a).unwrap().remove(0);
        let tb = bus.drain(b).unwrap().remove(0);
        assert!(
            Arc::ptr_eq(&ta, &tb),
            "tampered fanout still shares one body"
        );
        assert!(
            !Arc::ptr_eq(&keep, &ta),
            "publisher's handle was CoW-detached"
        );
        assert_eq!(keep.payload, text("clean"), "publisher copy untouched");
        assert_eq!(ta.payload, text("evil"));
    }

    #[test]
    fn route_cache_follows_interleaved_rule_mutations() {
        let mut bus = MessageBus::seeded(3);
        let sub = bus.subscribe("/t");
        bus.publish(SimTime::ZERO, "n", "/t", text("1"));
        bus.step(SimTime::from_millis(100));
        assert_eq!(bus.drain(sub).unwrap().len(), 1, "route built clean");

        // A late subscriber must appear in the cached route.
        let late = bus.subscribe("/t");
        bus.publish(SimTime::from_millis(100), "n", "/t", text("2"));
        bus.step(SimTime::from_millis(200));
        assert_eq!(bus.drain(late).unwrap().len(), 1, "cache saw the new sub");
        assert_eq!(bus.drain(sub).unwrap().len(), 1);

        // A blackout rule invalidates the cached loss...
        bus.set_loss("/t", 1.0);
        bus.publish(SimTime::from_millis(200), "n", "/t", text("3"));
        bus.step(SimTime::from_millis(300));
        assert_eq!(bus.drain(sub).unwrap().len(), 0, "cached route dropped it");

        // ...and removing it restores the cached lossless route.
        bus.remove_loss("/t");
        bus.publish(SimTime::from_millis(300), "n", "/t", text("4"));
        bus.step(SimTime::from_millis(400));
        assert_eq!(bus.drain(sub).unwrap().len(), 1, "cache healed");
    }

    #[test]
    fn topic_rewriting_tamper_reroutes_to_the_new_topic() {
        let mut bus = MessageBus::new();
        let orig = bus.subscribe("/orig");
        let redirected = bus.subscribe("/redirected");
        bus.install_tamper(
            "/orig",
            Box::new(|m| {
                m.topic = "/redirected".into();
                true
            }),
        );
        bus.publish(SimTime::ZERO, "n", "/orig", text("x"));
        bus.step(SimTime::from_millis(100));
        assert_eq!(bus.drain(orig).unwrap().len(), 0);
        assert_eq!(bus.drain(redirected).unwrap().len(), 1);
        let s = bus.stats();
        assert_eq!(s.topic("/orig").published, 1);
        assert_eq!(s.topic("/redirected").tampered, 1);
        assert_eq!(s.topic("/redirected").delivered, 1);
    }
}
