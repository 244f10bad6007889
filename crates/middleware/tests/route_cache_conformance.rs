//! Route-cache conformance: the optimized [`MessageBus`] must be
//! observably byte-identical to the cache-free [`ReferenceBus`].
//!
//! Each schedule drives both buses in lockstep through a seeded random
//! interleaving of every mutation that invalidates a cached route —
//! subscribe, unsubscribe, loss-rule install/remove, latency-rule
//! install/remove, tamper install/remove — mixed with publishes, clock
//! steps and drains. After every drain and at the end of the schedule the
//! delivered message sequences, the full stats snapshot (including the
//! per-topic map and the latency histogram) and the event trace must be
//! exactly equal. Both buses share a loss-RNG seed, so even probabilistic
//! packet fates must line up draw for draw.

use rand::rngs::StdRng;
use rand::{RngCore, RngExt, SeedableRng};
use sesame_middleware::bus::{MessageBus, Subscription, TamperId};
use sesame_middleware::message::{Message, Payload};
use sesame_middleware::reference::{RefSubscription, ReferenceBus};
use sesame_types::time::{SimDuration, SimTime};
use std::sync::Arc;

const SCHEDULES: u64 = 200;
const OPS_PER_SCHEDULE: usize = 80;

/// Patterns used for subscriptions (all valid — the optimized bus rejects
/// invalid filters at subscribe time by design).
const SUB_PATTERNS: &[&str] = &[
    "#",
    "/a/#",
    "/a/+",
    "/a/b",
    "/b/#",
    "+/b",
    "/c",
    "/uav1/+/waypoint",
];

/// Patterns used for loss/latency/tamper rules; includes an invalid one
/// (`#` mid-pattern) to exercise the lenient never-matching compile path.
const RULE_PATTERNS: &[&str] = &["#", "/a/#", "/a/b", "/b/+", "/c", "a/#/b"];

const TOPICS: &[&str] = &[
    "/a/b",
    "/a/c",
    "/a/b/c",
    "/b/x",
    "/b/b",
    "/c",
    "a/b",
    "/uav1/cmd/waypoint",
];

fn pick<'a, T>(rng: &mut StdRng, xs: &'a [T]) -> &'a T {
    &xs[(rng.next_u64() % xs.len() as u64) as usize]
}

/// A paired subscription, created from the same pattern on both buses.
struct SubPair {
    opt: Subscription,
    reference: RefSubscription,
    active: bool,
}

/// A paired tamper hook, installed with identical closures on both buses.
struct TamperPair {
    opt: TamperId,
    reference: usize,
    live: bool,
}

fn assert_drained_equal(schedule: u64, got: &[Arc<Message>], want: &[Message]) {
    assert_eq!(
        got.len(),
        want.len(),
        "schedule {schedule}: drained lengths diverged"
    );
    for (g, w) in got.iter().zip(want) {
        assert_eq!(**g, *w, "schedule {schedule}: drained message diverged");
    }
}

#[test]
fn optimized_bus_is_byte_identical_to_reference_across_200_schedules() {
    for schedule in 0..SCHEDULES {
        let mut rng = StdRng::seed_from_u64(schedule_seed(schedule));
        let loss_seed = rng.next_u64();
        let mut opt = MessageBus::seeded(loss_seed);
        let mut reference = ReferenceBus::seeded(loss_seed);

        let mut subs: Vec<SubPair> = Vec::new();
        let mut tampers: Vec<TamperPair> = Vec::new();
        let mut now = SimTime::ZERO;
        let mut payload_n = 0u64;

        for _ in 0..OPS_PER_SCHEDULE {
            match rng.next_u64() % 100 {
                // Publish: the most common op, so schedules carry traffic
                // across every cache state.
                0..=34 => {
                    let topic = *pick(&mut rng, TOPICS);
                    let sender = *pick(&mut rng, &["gcs", "uav1", "uav2"]);
                    payload_n += 1;
                    let payload = Payload::Text(format!("p{payload_n}"));
                    opt.publish(now, sender, topic, payload.clone());
                    reference.publish(now, sender, topic, payload);
                }
                // Step the clock forward and deliver.
                35..=54 => {
                    now += SimDuration::from_millis(10 + (rng.next_u64() % 8) * 25);
                    let a = opt.step(now);
                    let b = reference.step(now);
                    assert_eq!(a, b, "schedule {schedule}: delivery counts diverged");
                }
                // Subscribe (occasionally with a tight queue depth, so
                // overflow accounting is exercised too).
                55..=64 => {
                    let pattern = *pick(&mut rng, SUB_PATTERNS);
                    let depth = if rng.random::<bool>() { 2 } else { 1024 };
                    subs.push(SubPair {
                        opt: opt.subscribe_with_depth(pattern, depth),
                        reference: reference.subscribe_with_depth(pattern, depth),
                        active: true,
                    });
                }
                // Unsubscribe a random live pair.
                65..=69 => {
                    if let Some(p) = live_pick(&mut rng, &mut subs, |s| s.active) {
                        p.active = false;
                        opt.unsubscribe(p.opt).expect("pair is live");
                        reference.unsubscribe(p.reference);
                    }
                }
                // Loss rules in and out.
                70..=76 => {
                    let pattern = *pick(&mut rng, RULE_PATTERNS);
                    let prob = match rng.next_u64() % 3 {
                        0 => 0.0,
                        1 => 0.5,
                        _ => 1.0,
                    };
                    opt.set_loss(pattern, prob);
                    reference.set_loss(pattern, prob);
                }
                77..=80 => {
                    let pattern = *pick(&mut rng, RULE_PATTERNS);
                    opt.remove_loss(pattern);
                    reference.remove_loss(pattern);
                }
                // Latency rules in and out.
                81..=85 => {
                    let pattern = *pick(&mut rng, RULE_PATTERNS);
                    let latency = SimDuration::from_millis(10 + (rng.next_u64() % 5) * 40);
                    opt.set_topic_latency(pattern, latency);
                    reference.set_topic_latency(pattern, latency);
                }
                86..=88 => {
                    let pattern = *pick(&mut rng, RULE_PATTERNS);
                    opt.remove_topic_latency(pattern);
                    reference.remove_topic_latency(pattern);
                }
                // Tamper hooks in and out — including a topic-rewriting
                // hook, the nastiest case for a cached route.
                89..=92 => {
                    let pattern = *pick(&mut rng, RULE_PATTERNS);
                    let kind = rng.next_u64() % 3;
                    tampers.push(TamperPair {
                        opt: opt.install_tamper(pattern, make_tamper(kind)),
                        reference: reference.install_tamper(pattern, make_tamper(kind)),
                        live: true,
                    });
                }
                93..=94 => {
                    if let Some(t) = live_pick(&mut rng, &mut tampers, |t| t.live) {
                        t.live = false;
                        opt.remove_tamper(t.opt);
                        reference.remove_tamper(t.reference);
                    }
                }
                // Drain a random live pair and compare byte for byte.
                _ => {
                    if let Some(p) = live_pick(&mut rng, &mut subs, |s| s.active) {
                        let (po, pr) = (p.opt, p.reference);
                        let got = opt.drain(po).expect("pair is live");
                        let want = reference.drain(pr);
                        assert_drained_equal(schedule, &got, &want);
                    }
                }
            }
        }

        // Flush everything still in flight and drain every live pair.
        now += SimDuration::from_secs(10);
        assert_eq!(
            opt.step(now),
            reference.step(now),
            "schedule {schedule}: final delivery counts diverged"
        );
        for p in subs.iter().filter(|p| p.active) {
            let got = opt.drain(p.opt).expect("pair is live");
            let want = reference.drain(p.reference);
            assert_drained_equal(schedule, &got, &want);
        }

        assert_eq!(opt.in_flight_len(), reference.in_flight_len());
        assert_eq!(
            opt.stats(),
            *reference.stats(),
            "schedule {schedule}: stats snapshots diverged"
        );
        assert_eq!(
            *opt.trace(),
            *reference.trace(),
            "schedule {schedule}: traces diverged"
        );
    }
}

/// Picks a random element satisfying `alive` (uniformly over the whole
/// vec, retrying a bounded number of times so schedules stay cheap).
fn live_pick<'a, T>(
    rng: &mut StdRng,
    xs: &'a mut [T],
    alive: impl Fn(&T) -> bool,
) -> Option<&'a mut T> {
    if xs.is_empty() {
        return None;
    }
    let start = (rng.next_u64() % xs.len() as u64) as usize;
    let idx = (0..xs.len())
        .map(|o| (start + o) % xs.len())
        .find(|&i| alive(&xs[i]))?;
    Some(&mut xs[idx])
}

/// Identical deterministic tamper closures for both buses.
fn make_tamper(kind: u64) -> sesame_middleware::bus::TamperFn {
    match kind {
        // Mutate the payload.
        0 => Box::new(|m: &mut Message| {
            m.payload = match &m.payload {
                Payload::Text(s) => Payload::Text(format!("{s}!")),
                other => other.clone(),
            };
            true
        }),
        // Inspect but decline (returns false — must not count as tampered).
        1 => Box::new(|_m: &mut Message| false),
        // Rewrite the topic: deliveries must follow the new topic.
        _ => Box::new(|m: &mut Message| {
            if &*m.topic != "/b/b" {
                m.topic = "/b/b".into();
                true
            } else {
                false
            }
        }),
    }
}

/// Spreads schedule indices across the seed space (a fixed affine map —
/// nothing magic, just decorrelates neighbouring schedules).
fn schedule_seed(i: u64) -> u64 {
    i.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ 0x5E5A_4E00
}
