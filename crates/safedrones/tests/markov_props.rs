//! Property tests of the CTMC solver and the fault-tree evaluator.

use proptest::prelude::*;
use sesame_safedrones::fta::{BasicEventId, FaultTree, Node};
use sesame_safedrones::markov::{Ctmc, CtmcProcess};
use std::collections::HashMap;

fn random_chain() -> impl Strategy<Value = Ctmc> {
    (2usize..6).prop_flat_map(|n| {
        proptest::collection::vec(0.0..0.5f64, n * n).prop_map(move |rates| {
            let mut c = Ctmc::new(n);
            for i in 0..n {
                for j in 0..n {
                    if i != j {
                        c.set_rate(i, j, rates[i * n + j]);
                    }
                }
            }
            c
        })
    })
}

/// Bit patterns of a chain's full rate matrix (the solver cache's key).
fn rate_bits(chain: &Ctmc) -> Vec<u64> {
    let n = chain.len();
    (0..n * n)
        .map(|k| chain.rate(k / n, k % n).to_bits())
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The cached solver refreshes its profile in place on a rate
    /// change: with rate mutations between steps (new values, zeroed
    /// rates, and re-writes of the current value) every cached advance
    /// matches the uncached solve bit for bit, and the cache misses
    /// exactly once per distinct rate matrix seen in sequence.
    #[test]
    fn cached_advance_tracks_rate_changes_bit_for_bit(
        chain in random_chain(),
        steps in proptest::collection::vec(
            (0usize..4, 0usize..6, 0usize..6, 0.0..0.5f64, 0.1..20.0f64),
            1..40,
        ),
    ) {
        let n = chain.len();
        let mut cached = CtmcProcess::new(chain.clone(), 0);
        cached.enable_solver_cache();
        let mut naive = CtmcProcess::new(chain, 0);
        let mut last_key: Option<Vec<u64>> = None;
        let mut changes = 0u64;
        let advances = steps.len() as u64;
        for (kind, from, to, rate, dt) in steps {
            let (from, to) = (from % n, to % n);
            if from != to {
                // 0: new rate, 1: zeroed, 2: re-write the same value,
                // 3: no mutation this step.
                let value = match kind {
                    0 => Some(rate),
                    1 => Some(0.0),
                    2 => Some(naive.chain().rate(from, to)),
                    _ => None,
                };
                if let Some(v) = value {
                    cached.chain_mut().set_rate(from, to, v);
                    naive.chain_mut().set_rate(from, to, v);
                }
            }
            let key = rate_bits(naive.chain());
            if last_key.as_ref() != Some(&key) {
                changes += 1;
                last_key = Some(key);
            }
            cached.advance(dt);
            naive.advance(dt);
            let a: Vec<u64> = cached.distribution().iter().map(|p| p.to_bits()).collect();
            let b: Vec<u64> = naive.distribution().iter().map(|p| p.to_bits()).collect();
            prop_assert_eq!(a, b);
        }
        let stats = cached.solver_cache_stats();
        prop_assert_eq!(stats.misses, changes);
        prop_assert_eq!(stats.hits, advances - changes);
        prop_assert_eq!(naive.solver_cache_stats().misses, 0);
    }

    /// The transient distribution stays a probability vector for any
    /// generator and horizon.
    #[test]
    fn transient_is_a_distribution(chain in random_chain(), t in 0.0..200.0f64) {
        let n = chain.len();
        let mut p0 = vec![0.0; n];
        p0[0] = 1.0;
        let p = chain.transient(&p0, t);
        prop_assert!((p.iter().sum::<f64>() - 1.0).abs() < 1e-9);
        prop_assert!(p.iter().all(|x| *x >= -1e-12));
    }

    /// Chapman–Kolmogorov: advancing t then s equals advancing t + s.
    #[test]
    fn chapman_kolmogorov(chain in random_chain(), t in 0.0..50.0f64, s in 0.0..50.0f64) {
        let n = chain.len();
        let mut p0 = vec![0.0; n];
        p0[0] = 1.0;
        let two_step = chain.transient(&chain.transient(&p0, t), s);
        let one_step = chain.transient(&p0, t + s);
        for (a, b) in two_step.iter().zip(one_step.iter()) {
            prop_assert!((a - b).abs() < 1e-7, "{a} vs {b}");
        }
    }

    /// Absorption probability is monotone in time for chains whose last
    /// state is absorbing.
    #[test]
    fn absorption_monotone(rates in proptest::collection::vec(0.001..0.2f64, 3)) {
        let mut chain = Ctmc::new(4);
        for (i, r) in rates.iter().enumerate() {
            chain.set_rate(i, i + 1, *r);
        }
        let mut proc = CtmcProcess::new(chain, 0);
        let mut last = 0.0;
        for _ in 0..20 {
            proc.advance(5.0);
            let p = proc.mass_in(&[3]);
            prop_assert!(p >= last - 1e-12, "absorption decreased: {last} -> {p}");
            last = p;
        }
    }

    /// De Morgan-ish duality: OR over leaves equals 1 - AND over
    /// complements.
    #[test]
    fn or_and_duality(ps in proptest::collection::vec(0.0..1.0f64, 2..6)) {
        let leaves: Vec<Node> = (0..ps.len()).map(|i| Node::basic(format!("e{i}"))).collect();
        let or_tree = FaultTree::new(Node::or(leaves.clone())).unwrap();
        let and_tree = FaultTree::new(Node::and(leaves)).unwrap();
        let direct: HashMap<BasicEventId, f64> = ps
            .iter()
            .enumerate()
            .map(|(i, p)| (BasicEventId::new(format!("e{i}")), *p))
            .collect();
        let complement: HashMap<BasicEventId, f64> = ps
            .iter()
            .enumerate()
            .map(|(i, p)| (BasicEventId::new(format!("e{i}")), 1.0 - *p))
            .collect();
        let or_p = or_tree.evaluate(&direct).unwrap();
        let and_q = and_tree.evaluate(&complement).unwrap();
        prop_assert!((or_p - (1.0 - and_q)).abs() < 1e-12);
    }

    /// A k-out-of-n voter is monotone in k (more required failures, lower
    /// probability).
    #[test]
    fn voter_monotone_in_k(ps in proptest::collection::vec(0.0..1.0f64, 4..7)) {
        let leaves: Vec<Node> = (0..ps.len()).map(|i| Node::basic(format!("e{i}"))).collect();
        let probs: HashMap<BasicEventId, f64> = ps
            .iter()
            .enumerate()
            .map(|(i, p)| (BasicEventId::new(format!("e{i}")), *p))
            .collect();
        let mut prev = 1.0 + 1e-12;
        for k in 1..=ps.len() {
            let t = FaultTree::new(Node::at_least(k, leaves.clone())).unwrap();
            let p = t.evaluate(&probs).unwrap();
            prop_assert!(p <= prev + 1e-12, "k={k}: {p} > {prev}");
            prev = p;
        }
    }
}
