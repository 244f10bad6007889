//! The per-tree Security EDDI script.
//!
//! "Each Security EDDI is implemented as a Python script tailored to a
//! specific attack tree, capable of parsing and recognizing attack
//! patterns to detect an adversary's ultimate goal" (§III-B). Here each
//! [`SecurityEddi`] owns one tree, subscribes to the alert broker, maps
//! alert rules to tree leaves, and reports when the root is reached —
//! per UAV, so attacks on different airframes do not mix.

use crate::attack_tree::{AttackTree, TreeStatus};
use crate::incremental::{IndexedTree, IndexedTreeState};
use sesame_middleware::broker::{AlertBroker, BrokerSubscription};
use sesame_middleware::message::Payload;
use sesame_types::ids::UavId;
use sesame_types::time::SimTime;
use std::collections::{HashMap, HashSet};

/// The security verdict for one UAV under one tree.
#[derive(Debug, Clone, PartialEq)]
pub struct SecurityStatus {
    /// Which UAV.
    pub uav: UavId,
    /// Tree name (adversary goal).
    pub tree: String,
    /// Current status.
    pub status: TreeStatus,
    /// The satisfied leaf-to-root path when the root is reached.
    pub attack_path: Vec<String>,
    /// When the root was first reached, if ever.
    pub detected_at: Option<SimTime>,
}

/// One Security EDDI: an attack tree plus per-UAV trigger state, fed from
/// the alert broker.
///
/// # Examples
///
/// ```
/// use sesame_middleware::broker::AlertBroker;
/// use sesame_middleware::message::Payload;
/// use sesame_security::catalog;
/// use sesame_security::eddi::SecurityEddi;
/// use sesame_types::ids::UavId;
/// use sesame_types::time::SimTime;
///
/// let mut broker = AlertBroker::new();
/// let mut eddi = SecurityEddi::attach(catalog::ros_message_spoofing(), &mut broker);
/// let uav = UavId::new(1);
/// for rule in ["unsigned_publisher", "waypoint_deviation"] {
///     broker.publish(SimTime::ZERO, "ids", format!("ids/alerts/{uav}"), Payload::Alert {
///         rule: rule.into(),
///         subject: uav,
///         detail: String::new(),
///     });
/// }
/// let detections = eddi.poll(&mut broker, SimTime::from_millis(100));
/// assert_eq!(detections.len(), 1);
/// assert_eq!(detections[0].uav, uav);
/// ```
#[derive(Debug)]
pub struct SecurityEddi {
    tree: AttackTree,
    subscription: BrokerSubscription,
    /// Per-UAV triggered leaf sets.
    triggered: HashMap<UavId, HashSet<String>>,
    detected_at: HashMap<UavId, SimTime>,
    /// The flattened tree plus per-UAV memoized evaluation states,
    /// maintained incrementally as alerts arrive: a `root_reached` query
    /// costs O(1), an alert O(depth).
    indexed: IndexedTree,
    states: HashMap<UavId, IndexedTreeState>,
}

impl SecurityEddi {
    /// Attaches an EDDI for `tree` to the broker (subscribes to
    /// `ids/alerts/#`).
    pub fn attach(tree: AttackTree, broker: &mut AlertBroker) -> Self {
        let subscription = broker.subscribe("ids/alerts/#");
        SecurityEddi {
            indexed: IndexedTree::new(&tree),
            tree,
            subscription,
            triggered: HashMap::new(),
            detected_at: HashMap::new(),
            states: HashMap::new(),
        }
    }

    /// The monitored tree.
    pub fn tree(&self) -> &AttackTree {
        &self.tree
    }

    /// Drains pending alerts from the broker, updates the per-UAV tree
    /// states and returns a [`SecurityStatus`] for every UAV whose root
    /// was **newly** reached by this poll.
    pub fn poll(&mut self, broker: &mut AlertBroker, now: SimTime) -> Vec<SecurityStatus> {
        let mut fresh = Vec::new();
        for msg in broker.drain(self.subscription) {
            let Payload::Alert { rule, subject, .. } = &msg.payload else {
                continue;
            };
            if self.tree.leaf(rule).is_none() {
                continue; // belongs to another tree's EDDI
            }
            let was_reached = self.root_reached(*subject);
            self.triggered
                .entry(*subject)
                .or_default()
                .insert(rule.clone());
            let ix = &self.indexed;
            self.states
                .entry(*subject)
                .or_insert_with(|| ix.state())
                .trigger(ix, rule);
            if !was_reached && self.root_reached(*subject) {
                self.detected_at.insert(*subject, now);
                fresh.push(self.status_for(*subject));
            }
        }
        fresh
    }

    /// Whether the tree root is currently reached for `uav`. Satisfaction
    /// is exact boolean algebra, so the memoized answer is the one the
    /// tree's own walk ([`AttackTree::fresh_state`]) gives.
    pub fn root_reached(&self, uav: UavId) -> bool {
        match self.states.get(&uav) {
            Some(st) => st.root_satisfied(),
            None => self.indexed.state().root_satisfied(),
        }
    }

    /// The full status for one UAV.
    pub fn status_for(&self, uav: UavId) -> SecurityStatus {
        let mut state = self.tree.fresh_state();
        if let Some(set) = self.triggered.get(&uav) {
            for leaf in set {
                state.trigger(leaf);
            }
        }
        SecurityStatus {
            uav,
            tree: self.tree.name.clone(),
            status: state.status(),
            attack_path: state.attack_path(),
            detected_at: self.detected_at.get(&uav).copied(),
        }
    }

    /// Clears the state for a UAV after mitigation (e.g. safe landing).
    pub fn clear(&mut self, uav: UavId) {
        self.triggered.remove(&uav);
        self.detected_at.remove(&uav);
        self.states.remove(&uav);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::catalog;

    fn publish_alert(broker: &mut AlertBroker, uav: UavId, rule: &str, at: SimTime) {
        broker.publish(
            at,
            "ids",
            format!("ids/alerts/{uav}"),
            Payload::Alert {
                rule: rule.into(),
                subject: uav,
                detail: String::new(),
            },
        );
    }

    #[test]
    fn root_detection_fires_once() {
        let mut broker = AlertBroker::new();
        let mut eddi = SecurityEddi::attach(catalog::ros_message_spoofing(), &mut broker);
        let uav = UavId::new(1);
        publish_alert(&mut broker, uav, "unsigned_publisher", SimTime::ZERO);
        assert!(eddi.poll(&mut broker, SimTime::ZERO).is_empty());
        publish_alert(
            &mut broker,
            uav,
            "waypoint_deviation",
            SimTime::from_secs(1),
        );
        let hits = eddi.poll(&mut broker, SimTime::from_secs(1));
        assert_eq!(hits.len(), 1);
        assert_eq!(hits[0].status, TreeStatus::RootReached);
        assert_eq!(hits[0].detected_at, Some(SimTime::from_secs(1)));
        assert!(!hits[0].attack_path.is_empty());
        // Repeating an alert does not re-fire.
        publish_alert(
            &mut broker,
            uav,
            "waypoint_deviation",
            SimTime::from_secs(2),
        );
        assert!(eddi.poll(&mut broker, SimTime::from_secs(2)).is_empty());
        assert!(eddi.root_reached(uav));
    }

    #[test]
    fn uavs_are_tracked_independently() {
        let mut broker = AlertBroker::new();
        let mut eddi = SecurityEddi::attach(catalog::ros_message_spoofing(), &mut broker);
        let (u1, u2) = (UavId::new(1), UavId::new(2));
        publish_alert(&mut broker, u1, "unsigned_publisher", SimTime::ZERO);
        publish_alert(&mut broker, u2, "waypoint_deviation", SimTime::ZERO);
        eddi.poll(&mut broker, SimTime::ZERO);
        assert!(!eddi.root_reached(u1));
        assert!(!eddi.root_reached(u2));
        publish_alert(&mut broker, u1, "waypoint_deviation", SimTime::from_secs(1));
        let hits = eddi.poll(&mut broker, SimTime::from_secs(1));
        assert_eq!(hits.len(), 1);
        assert_eq!(hits[0].uav, u1);
    }

    #[test]
    fn alerts_for_other_trees_are_ignored() {
        let mut broker = AlertBroker::new();
        let mut eddi = SecurityEddi::attach(catalog::gps_spoofing(), &mut broker);
        let uav = UavId::new(1);
        publish_alert(&mut broker, uav, "unsigned_publisher", SimTime::ZERO);
        publish_alert(&mut broker, uav, "waypoint_deviation", SimTime::ZERO);
        assert!(eddi.poll(&mut broker, SimTime::ZERO).is_empty());
        assert_eq!(eddi.status_for(uav).status, TreeStatus::Quiet);
    }

    #[test]
    fn two_eddis_share_the_broker() {
        let mut broker = AlertBroker::new();
        let mut spoof = SecurityEddi::attach(catalog::ros_message_spoofing(), &mut broker);
        let mut gps = SecurityEddi::attach(catalog::gps_spoofing(), &mut broker);
        let uav = UavId::new(3);
        for rule in [
            "unsigned_publisher",
            "waypoint_deviation",
            "gps_anomaly",
            "position_jump",
        ] {
            publish_alert(&mut broker, uav, rule, SimTime::ZERO);
        }
        assert_eq!(spoof.poll(&mut broker, SimTime::ZERO).len(), 1);
        assert_eq!(gps.poll(&mut broker, SimTime::ZERO).len(), 1);
    }

    /// The always-indexed EDDI against the attack tree's own walk
    /// (`fresh_state` + `trigger` + `root_reached`/`status`/`attack_path`),
    /// on a seeded random alert stream per catalog tree: duplicates,
    /// alerts for the other trees and unknown rules, and `clear`s. Every
    /// poll's detections and every UAV's answers must agree.
    #[test]
    fn indexed_eddi_locksteps_with_the_tree_walk() {
        use rand::rngs::StdRng;
        use rand::{RngExt, SeedableRng};

        let trees = catalog::all_trees();
        let mut rules: Vec<String> = trees
            .iter()
            .flat_map(|t| t.root.leaf_ids())
            .map(str::to_string)
            .collect();
        rules.push("not_a_leaf".into());
        let uavs = [UavId::new(1), UavId::new(2), UavId::new(3)];
        for (t, tree) in trees.iter().enumerate() {
            let mut broker = AlertBroker::new();
            let mut eddi = SecurityEddi::attach(tree.clone(), &mut broker);
            let mut walks: HashMap<UavId, _> = HashMap::new();
            let mut detected_at: HashMap<UavId, SimTime> = HashMap::new();
            let mut rng = StdRng::seed_from_u64(0xA77AC ^ t as u64);
            let mut last: Option<(UavId, &str)> = None;
            let mut fired = 0;
            for step in 0u64..400 {
                let at = SimTime::from_millis(step * 100);
                if rng.random::<f64>() < 0.05 {
                    let uav = uavs[(rng.random::<u32>() % 3) as usize];
                    eddi.clear(uav);
                    walks.remove(&uav);
                    detected_at.remove(&uav);
                } else {
                    let mut expected = Vec::new();
                    for _ in 0..1 + rng.random::<u32>() % 3 {
                        // One alert in four repeats the previous one.
                        let (uav, rule) = match last {
                            Some(prev) if rng.random::<f64>() < 0.25 => prev,
                            _ => (
                                uavs[(rng.random::<u32>() % 3) as usize],
                                rules[(rng.random::<u64>() % rules.len() as u64) as usize].as_str(),
                            ),
                        };
                        last = Some((uav, rule));
                        publish_alert(&mut broker, uav, rule, at);
                        let walk = walks.entry(uav).or_insert_with(|| tree.fresh_state());
                        let was = walk.root_reached();
                        walk.trigger(rule);
                        if !was && walk.root_reached() {
                            detected_at.insert(uav, at);
                            expected.push(SecurityStatus {
                                uav,
                                tree: tree.name.clone(),
                                status: walk.status(),
                                attack_path: walk.attack_path(),
                                detected_at: Some(at),
                            });
                        }
                    }
                    fired += expected.len();
                    let got = eddi.poll(&mut broker, at);
                    assert_eq!(got, expected, "{}: poll diverged at step {step}", tree.name);
                }
                for u in uavs {
                    let (reached, status, path) = match walks.get(&u) {
                        Some(w) => (w.root_reached(), w.status(), w.attack_path()),
                        None => (false, TreeStatus::Quiet, Vec::new()),
                    };
                    let ctx = format!("{} {u} step {step}", tree.name);
                    assert_eq!(eddi.root_reached(u), reached, "root: {ctx}");
                    let got = eddi.status_for(u);
                    assert_eq!(got.status, status, "status: {ctx}");
                    assert_eq!(got.attack_path, path, "path: {ctx}");
                    assert_eq!(got.detected_at, detected_at.get(&u).copied(), "{ctx}");
                }
            }
            // Clears let a UAV's root fire again.
            assert!(fired > uavs.len(), "{}: {fired} detections", tree.name);
        }
    }

    #[test]
    fn clear_resets_state() {
        let mut broker = AlertBroker::new();
        let mut eddi = SecurityEddi::attach(catalog::replay_dos(), &mut broker);
        let uav = UavId::new(1);
        publish_alert(&mut broker, uav, "replay", SimTime::ZERO);
        let hits = eddi.poll(&mut broker, SimTime::ZERO);
        assert_eq!(hits.len(), 1, "OR tree fires on a single leaf");
        eddi.clear(uav);
        assert!(!eddi.root_reached(uav));
        assert_eq!(eddi.status_for(uav).status, TreeStatus::Quiet);
    }
}
