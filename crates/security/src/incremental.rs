//! Incrementally-evaluated attack trees — the security leg of the EDDI
//! fast path.
//!
//! [`TreeState`](crate::attack_tree::TreeState) re-walks the whole tree on
//! every `root_reached` query, so rebuilding it per alert, as a naive
//! [`SecurityEddi`](crate::eddi::SecurityEddi) would, costs O(tree) twice
//! per alert. [`IndexedTree`]
//! flattens the tree once into DFS-ordered nodes; [`IndexedTreeState`]
//! memoizes per-subtree **satisfaction** and **success probability**
//! (leaves contribute their CAPEC likelihood until triggered, then 1.0;
//! AND gates multiply, OR gates combine as `1 − ∏(1 − p)`). Triggering a
//! leaf dirties only its ancestor chain, and propagation stops at the
//! first ancestor whose value is unchanged — O(depth) instead of O(tree).
//!
//! Satisfaction is exact boolean algebra, so the memoized answer is
//! provably equal to the recursive walk; the property tests below lockstep
//! the two over randomized trigger schedules.

use crate::attack_tree::{AttackNode, AttackTree};
use std::collections::HashMap;

#[derive(Debug, Clone)]
enum IndexedKind {
    Leaf { likelihood: f64 },
    And { children: Vec<usize> },
    Or { children: Vec<usize> },
}

#[derive(Debug, Clone)]
struct IndexedNode {
    parent: Option<usize>,
    kind: IndexedKind,
}

/// A flattened, index-addressed view of an [`AttackTree`]. Node 0 is the
/// root; children precede nothing (DFS pre-order), and every leaf id maps
/// to its node index.
#[derive(Debug, Clone)]
pub struct IndexedTree {
    nodes: Vec<IndexedNode>,
    leaf_lookup: HashMap<String, usize>,
}

impl IndexedTree {
    /// Flattens `tree`.
    pub fn new(tree: &AttackTree) -> Self {
        let mut ix = IndexedTree {
            nodes: Vec::new(),
            leaf_lookup: HashMap::new(),
        };
        ix.add(&tree.root, None);
        ix
    }

    fn add(&mut self, node: &AttackNode, parent: Option<usize>) -> usize {
        let idx = self.nodes.len();
        self.nodes.push(IndexedNode {
            parent,
            kind: IndexedKind::And {
                children: Vec::new(),
            },
        });
        let kind = match node {
            AttackNode::Leaf(l) => {
                self.leaf_lookup.insert(l.id.clone(), idx);
                IndexedKind::Leaf {
                    likelihood: l.likelihood,
                }
            }
            AttackNode::And { children, .. } => IndexedKind::And {
                children: children.iter().map(|c| self.add(c, Some(idx))).collect(),
            },
            AttackNode::Or { children, .. } => IndexedKind::Or {
                children: children.iter().map(|c| self.add(c, Some(idx))).collect(),
            },
        };
        self.nodes[idx].kind = kind;
        idx
    }

    /// Number of flattened nodes.
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// The node index of a leaf id, if this tree has it.
    pub fn leaf_index(&self, id: &str) -> Option<usize> {
        self.leaf_lookup.get(id).copied()
    }

    /// A fresh evaluation state with no triggered leaves: satisfaction and
    /// subtree probabilities are seeded bottom-up once.
    pub fn state(&self) -> IndexedTreeState {
        let n = self.nodes.len();
        let mut st = IndexedTreeState {
            triggered: vec![false; n],
            satisfied: vec![false; n],
            probability: vec![0.0; n],
            propagations: 0,
        };
        // DFS pre-order guarantees children have higher indices than their
        // parent, so a reverse sweep evaluates bottom-up.
        for idx in (0..n).rev() {
            let (s, p) = self.evaluate_node(idx, &st);
            st.satisfied[idx] = s;
            st.probability[idx] = p;
        }
        st
    }

    /// Evaluates one node from its (already current) children.
    fn evaluate_node(&self, idx: usize, st: &IndexedTreeState) -> (bool, f64) {
        match &self.nodes[idx].kind {
            IndexedKind::Leaf { likelihood } => {
                if st.triggered[idx] {
                    (true, 1.0)
                } else {
                    (false, *likelihood)
                }
            }
            IndexedKind::And { children } => {
                let s = children.iter().all(|c| st.satisfied[*c]);
                let p = children.iter().map(|c| st.probability[*c]).product();
                (s, p)
            }
            IndexedKind::Or { children } => {
                let s = children.iter().any(|c| st.satisfied[*c]);
                let miss: f64 = children.iter().map(|c| 1.0 - st.probability[*c]).product();
                (s, 1.0 - miss)
            }
        }
    }
}

/// Memoized evaluation state over an [`IndexedTree`].
#[derive(Debug, Clone)]
pub struct IndexedTreeState {
    triggered: Vec<bool>,
    satisfied: Vec<bool>,
    probability: Vec<f64>,
    propagations: u64,
}

impl IndexedTreeState {
    /// Marks the leaf `id` as observed and propagates the change up the
    /// ancestor chain, stopping at the first unchanged ancestor. Returns
    /// `false` (and does nothing) for ids this tree does not contain.
    pub fn trigger(&mut self, tree: &IndexedTree, id: &str) -> bool {
        let Some(leaf) = tree.leaf_index(id) else {
            return false;
        };
        if self.triggered[leaf] {
            return true; // already counted; nothing can change
        }
        self.triggered[leaf] = true;
        self.satisfied[leaf] = true;
        self.probability[leaf] = 1.0;
        // Dirty-flag propagation: only the ancestor chain can change, and
        // an unchanged ancestor screens everything above it.
        let mut cursor = tree.nodes[leaf].parent;
        while let Some(idx) = cursor {
            self.propagations += 1;
            let (s, p) = tree.evaluate_node(idx, self);
            if s == self.satisfied[idx] && p.to_bits() == self.probability[idx].to_bits() {
                break;
            }
            self.satisfied[idx] = s;
            self.probability[idx] = p;
            cursor = tree.nodes[idx].parent;
        }
        true
    }

    /// Whether the root goal is satisfied.
    pub fn root_satisfied(&self) -> bool {
        self.satisfied[0]
    }

    /// The memoized success probability of the root goal.
    pub fn root_probability(&self) -> f64 {
        self.probability[0]
    }

    /// Whether the subtree at `idx` is satisfied.
    pub fn satisfied(&self, idx: usize) -> bool {
        self.satisfied[idx]
    }

    /// The memoized success probability of the subtree at `idx`.
    pub fn probability(&self, idx: usize) -> f64 {
        self.probability[idx]
    }

    /// Whether any leaf is triggered.
    pub fn any_triggered(&self) -> bool {
        self.triggered.iter().any(|t| *t)
    }

    /// Number of ancestor re-evaluations performed so far (a measure of
    /// the work dirty-propagation actually did).
    pub fn propagations(&self) -> u64 {
        self.propagations
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::attack_tree::AttackLeaf;
    use crate::catalog;

    fn trees() -> Vec<AttackTree> {
        vec![
            catalog::ros_message_spoofing(),
            catalog::gps_spoofing(),
            catalog::replay_dos(),
        ]
    }

    /// Every prefix of a randomized trigger schedule must agree with the
    /// naive recursive walk on satisfaction of every node-addressable
    /// leaf and on the root.
    #[test]
    fn lockstep_with_naive_tree_state() {
        for tree in trees() {
            let ix = IndexedTree::new(&tree);
            let mut leaf_ids: Vec<String> =
                tree.root.leaf_ids().iter().map(|s| s.to_string()).collect();
            // Deterministic shuffle: rotate by a tree-dependent amount and
            // interleave repeats + unknown ids.
            let rot = tree.name.len() % leaf_ids.len().max(1);
            leaf_ids.rotate_left(rot);
            let mut schedule: Vec<String> = Vec::new();
            for id in &leaf_ids {
                schedule.push(id.clone());
                schedule.push("not_a_leaf".into());
                schedule.push(id.clone()); // repeat must be a no-op
            }

            let mut fast = ix.state();
            let mut naive = tree.fresh_state();
            for (k, id) in schedule.iter().enumerate() {
                let a = naive.trigger(id);
                let b = fast.trigger(&ix, id);
                assert_eq!(a, b, "{}: accept mismatch at step {k}", tree.name);
                assert_eq!(
                    naive.root_reached(),
                    fast.root_satisfied(),
                    "{}: root mismatch after {id} (step {k})",
                    tree.name
                );
            }
            assert!(fast.root_satisfied(), "all leaves triggered reaches root");
            assert_eq!(fast.root_probability(), 1.0);
        }
    }

    #[test]
    fn probabilities_follow_and_or_algebra() {
        let tree = AttackTree::new(
            "goal",
            AttackNode::Or {
                title: "or".into(),
                children: vec![
                    AttackNode::And {
                        title: "and".into(),
                        children: vec![
                            AttackNode::Leaf(AttackLeaf::new("a", "C-1", "a").with_likelihood(0.5)),
                            AttackNode::Leaf(AttackLeaf::new("b", "C-2", "b").with_likelihood(0.2)),
                        ],
                    },
                    AttackNode::Leaf(AttackLeaf::new("c", "C-3", "c").with_likelihood(0.1)),
                ],
            },
        );
        let ix = IndexedTree::new(&tree);
        let mut st = ix.state();
        // Untriggered: and = 0.5 * 0.2 = 0.1; or = 1 - 0.9 * 0.9 = 0.19.
        assert!((st.root_probability() - 0.19).abs() < 1e-12);
        st.trigger(&ix, "a");
        // and = 1.0 * 0.2 = 0.2; or = 1 - 0.8 * 0.9 = 0.28.
        assert!((st.root_probability() - 0.28).abs() < 1e-12);
        assert!(!st.root_satisfied());
        st.trigger(&ix, "b");
        assert!(st.root_satisfied());
        assert_eq!(st.root_probability(), 1.0);
    }

    #[test]
    fn propagation_stops_at_unchanged_ancestors() {
        let tree = catalog::ros_message_spoofing();
        let ix = IndexedTree::new(&tree);
        let mut st = ix.state();
        let leaf = tree.root.leaf_ids()[0].to_string();
        st.trigger(&ix, &leaf);
        let after_first = st.propagations();
        // Re-triggering the same leaf is screened out entirely.
        st.trigger(&ix, &leaf);
        assert_eq!(st.propagations(), after_first);
    }

    #[test]
    fn node_count_and_leaf_lookup() {
        let tree = catalog::gps_spoofing();
        let ix = IndexedTree::new(&tree);
        assert!(ix.node_count() > tree.root.leaf_ids().len());
        for id in tree.root.leaf_ids() {
            assert!(ix.leaf_index(id).is_some());
        }
        assert!(ix.leaf_index("missing").is_none());
        assert!(!ix.state().any_triggered());
    }
}
