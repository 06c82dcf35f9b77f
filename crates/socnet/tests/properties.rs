//! Property-based tests for the social-network substrate.

use proptest::prelude::*;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

use socialtrust_socnet::builder::{connected_random_graph, random_interests};
use socialtrust_socnet::closeness::{ClosenessConfig, ClosenessModel};
use socialtrust_socnet::distance::{bfs_distance, distances_from};
use socialtrust_socnet::interaction::InteractionTracker;
use socialtrust_socnet::interest::{
    similarity, weighted_similarity, InterestId, InterestProfile, InterestSet,
};
use socialtrust_socnet::relationship::{weighted_relationship_sum, Relationship, RelationshipKind};
use socialtrust_socnet::snapshot::{GraphSnapshot, SnapshotStore};
use socialtrust_socnet::NodeId;

fn interest_set_strategy() -> impl Strategy<Value = InterestSet> {
    proptest::collection::vec(0u16..30, 0..12).prop_map(InterestSet::from_ids)
}

fn profile_strategy() -> impl Strategy<Value = InterestProfile> {
    (
        interest_set_strategy(),
        proptest::collection::vec((0u16..30, 1u64..50), 0..10),
    )
        .prop_map(|(set, reqs)| {
            let mut p = InterestProfile::new(set);
            for (cat, count) in reqs {
                p.record_requests(InterestId(cat), count);
            }
            p
        })
}

/// A random graph + interaction environment generated from a seed, so that
/// proptest shrinks over a single u64.
fn env(seed: u64, n: usize) -> (socialtrust_socnet::graph::SocialGraph, InteractionTracker) {
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let g = connected_random_graph(n, 4.0, (1, 2), &mut rng);
    let mut t = InteractionTracker::new(n);
    use rand::Rng;
    for _ in 0..(n * 4) {
        let a = NodeId::from(rng.gen_range(0..n));
        let b = NodeId::from(rng.gen_range(0..n));
        if a != b {
            t.record(a, b, rng.gen_range(1..10) as f64);
        }
    }
    (g, t)
}

/// What a snapshot answers for one pair, as bit patterns: closeness both
/// ways and both interest-similarity modes.
fn pair_answers(snap: &GraphSnapshot, a: NodeId, b: NodeId) -> [u64; 4] {
    [
        snap.closeness(a, b).to_bits(),
        snap.closeness(b, a).to_bits(),
        snap.similarity(a, b).to_bits(),
        snap.weighted_similarity(a, b).to_bits(),
    ]
}

proptest! {
    #[test]
    fn similarity_is_bounded_and_symmetric(a in interest_set_strategy(), b in interest_set_strategy()) {
        let s = similarity(&a, &b);
        prop_assert!((0.0..=1.0).contains(&s));
        prop_assert_eq!(s, similarity(&b, &a));
    }

    #[test]
    fn similarity_with_self_is_one_or_zero(a in interest_set_strategy()) {
        let s = similarity(&a, &a);
        if a.is_empty() {
            prop_assert_eq!(s, 0.0);
        } else {
            prop_assert_eq!(s, 1.0);
        }
    }

    #[test]
    fn weighted_similarity_is_bounded(a in profile_strategy(), b in profile_strategy()) {
        let s = weighted_similarity(&a, &b);
        prop_assert!((0.0..=1.0).contains(&s), "out of bounds: {}", s);
    }

    /// The merged `effective_weights` rows equal `effective_set()` with
    /// `request_weight()` per category, to the bit — zero-count requests
    /// and request-less profiles included.
    #[test]
    fn effective_weights_match_set_and_request_weight(
        declared in interest_set_strategy(),
        reqs in proptest::collection::vec((0u16..30, 0u64..4), 0..10),
    ) {
        let mut p = InterestProfile::new(declared);
        for (cat, count) in reqs {
            p.record_requests(InterestId(cat), count);
        }
        let expected: Vec<(InterestId, u64)> = p
            .effective_set()
            .into_iter()
            .map(|id| (id, p.request_weight(id).to_bits()))
            .collect();
        let got: Vec<(InterestId, u64)> =
            p.effective_weights().map(|(id, w)| (id, w.to_bits())).collect();
        prop_assert_eq!(got, expected);
    }

    #[test]
    fn intersection_size_bounded_by_min(a in interest_set_strategy(), b in interest_set_strategy()) {
        let i = a.intersection_size(&b);
        prop_assert!(i <= a.len().min(b.len()));
        prop_assert_eq!(i, b.intersection_size(&a));
    }

    #[test]
    fn union_size_is_inclusion_exclusion(a in interest_set_strategy(), b in interest_set_strategy()) {
        let u = a.union(&b);
        prop_assert_eq!(u.len(), a.len() + b.len() - a.intersection_size(&b));
    }

    #[test]
    fn weighted_rel_sum_bounded_by_count(
        weights in proptest::collection::vec(0.01f64..=1.0, 0..8),
        lambda in 0.5f64..=1.0,
    ) {
        let rels: Vec<Relationship> = weights
            .iter()
            .map(|&w| Relationship::with_weight(RelationshipKind::Other, w))
            .collect();
        let s = weighted_relationship_sum(&rels, lambda);
        prop_assert!(s >= 0.0);
        prop_assert!(s <= rels.len() as f64 + 1e-9);
    }

    #[test]
    fn weighted_rel_sum_monotone_in_lambda(
        weights in proptest::collection::vec(0.01f64..=1.0, 1..8),
    ) {
        let rels: Vec<Relationship> = weights
            .iter()
            .map(|&w| Relationship::with_weight(RelationshipKind::Other, w))
            .collect();
        let lo = weighted_relationship_sum(&rels, 0.5);
        let hi = weighted_relationship_sum(&rels, 1.0);
        prop_assert!(hi >= lo - 1e-12);
    }

    #[test]
    fn bfs_distance_is_a_metric_on_connected_graphs(seed in 0u64..500, n in 2usize..40) {
        let (g, _) = env(seed, n);
        let a = NodeId(0);
        let b = NodeId((n as u32) / 2);
        let c = NodeId(n as u32 - 1);
        let dab = bfs_distance(&g, a, b, None).expect("connected");
        let dba = bfs_distance(&g, b, a, None).expect("connected");
        prop_assert_eq!(dab, dba, "symmetry");
        let dac = bfs_distance(&g, a, c, None).expect("connected");
        let dbc = bfs_distance(&g, b, c, None).expect("connected");
        prop_assert!(dac <= dab + dbc, "triangle inequality");
        prop_assert_eq!(bfs_distance(&g, a, a, None), Some(0));
    }

    #[test]
    fn distances_from_consistent_with_pairwise(seed in 0u64..200, n in 2usize..25) {
        let (g, _) = env(seed, n);
        let d = distances_from(&g, NodeId(0), None);
        for (v, &dist) in d.iter().enumerate().take(n) {
            prop_assert_eq!(dist, bfs_distance(&g, NodeId(0), NodeId::from(v), None));
        }
    }

    #[test]
    fn closeness_is_nonnegative_and_finite(seed in 0u64..300, n in 2usize..30) {
        let (g, t) = env(seed, n);
        let m = ClosenessModel::new(&g, &t, ClosenessConfig::default());
        for i in 0..n.min(6) {
            for j in 0..n.min(6) {
                let c = m.closeness(NodeId::from(i), NodeId::from(j));
                prop_assert!(c.is_finite());
                prop_assert!(c >= 0.0);
            }
        }
    }

    #[test]
    fn weighted_closeness_never_exceeds_unweighted(seed in 0u64..200, n in 2usize..25) {
        // Eq. (10) numerator ≤ m(i,j) because every w ≤ 1 and λ ≤ 1.
        let (g, t) = env(seed, n);
        let plain = ClosenessModel::new(&g, &t, ClosenessConfig::default());
        let weighted = ClosenessModel::new(&g, &t, ClosenessConfig::weighted(0.8));
        for i in 0..n.min(5) {
            for j in 0..n.min(5) {
                if i == j { continue; }
                let (a, b) = (NodeId::from(i), NodeId::from(j));
                if g.are_adjacent(a, b) {
                    prop_assert!(
                        weighted.adjacent_closeness(a, b) <= plain.adjacent_closeness(a, b) + 1e-9
                    );
                }
            }
        }
    }

    #[test]
    fn random_interests_within_bounds(seed in 0u64..100) {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let sets = random_interests(50, 20, (1, 10), &mut rng);
        for s in sets {
            prop_assert!((1..=10).contains(&s.len()));
        }
    }

    #[test]
    fn builder_graphs_are_connected(seed in 0u64..100, n in 1usize..60) {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let g = connected_random_graph(n, 4.0, (1, 2), &mut rng);
        let d = distances_from(&g, NodeId(0), None);
        prop_assert!(d.iter().all(|x| x.is_some()));
    }

    /// The snapshot-vs-oracle stress test: interleave
    /// graph/interaction/profile mutations with epoch-validated snapshot
    /// refreshes, and require every snapshot kernel — closeness (both
    /// directions), plain and weighted interest similarity, the batched
    /// single-source sweep, and the grouped pair kernel — to agree
    /// **bit-for-bit** with the live `ClosenessModel` / `interest` path at
    /// every step. Sparse interaction dirt exercises the row-patch path;
    /// edge mutations exercise the structural full rebuild; tracker clears
    /// exercise the whole-state (`DirtyDeltaRef::Full`) rebuild; profile
    /// edits exercise the interest-table repatch. Every other snapshot is
    /// dropped before the next refresh, which then patches in place; a
    /// hold step keeps its snapshot across all later refreshes, which must
    /// copy the shards they patch and never change what it answers.
    #[test]
    fn snapshot_matches_live_path_under_mutation_interleaving(
        seed in 0u64..200,
        n in 4usize..24,
        weighted in proptest::bool::ANY,
        script in proptest::collection::vec((0u8..10, 0u64..u64::MAX), 1..40),
    ) {
        let (mut g, mut t) = env(seed, n);
        let mut rng = ChaCha8Rng::seed_from_u64(seed ^ 0x5eed);
        let mut profiles: Vec<InterestProfile> =
            socialtrust_socnet::builder::random_interests(n, 25, (1, 8), &mut rng)
                .into_iter()
                .map(InterestProfile::new)
                .collect();
        let mut pv = 0u64;
        let config = if weighted {
            ClosenessConfig::weighted(0.8)
        } else {
            ClosenessConfig::default()
        };
        let store = SnapshotStore::new();
        let mut held = Vec::new();
        for (op, raw) in script {
            let a = NodeId::from((raw % n as u64) as usize);
            let b = NodeId::from(((raw / n as u64) % n as u64) as usize);
            let cat = InterestId((raw % 25) as u16);
            match op {
                0 if a != b => {
                    g.add_relationship(a, b, Relationship::friendship());
                }
                1 => {
                    g.remove_edge(a, b);
                }
                2 | 3 if a != b => {
                    t.record(a, b, (raw % 7 + 1) as f64);
                }
                4 => {
                    profiles[a.index()].record_requests(cat, raw % 9 + 1);
                    pv += 1;
                }
                5 => {
                    let declared = profiles[a.index()].declared_mut();
                    if raw % 2 == 0 {
                        declared.insert(cat);
                    } else {
                        declared.remove(cat);
                    }
                    pv += 1;
                }
                8 => {
                    t.clear();
                }
                // 6 and 7 are pure query steps: no mutation at all; 9
                // holds this step's snapshot (below).
                _ => {}
            }
            let snap = store.snapshot(&g, &t, &profiles, pv, config);
            if op == 9 {
                held.push((snap.clone(), a, b, pair_answers(&snap, a, b)));
            }
            for (old, ha, hb, answers) in &held {
                prop_assert_eq!(
                    pair_answers(old, *ha, *hb),
                    *answers,
                    "held snapshot's answers for ({}, {}) changed after op {}", ha, hb, op
                );
            }
            let model = ClosenessModel::new(&g, &t, config);
            prop_assert_eq!(
                snap.closeness(a, b).to_bits(),
                model.closeness(a, b).to_bits(),
                "closeness({}, {}) diverged after op {}", a, b, op
            );
            prop_assert_eq!(
                snap.closeness(b, a).to_bits(),
                model.closeness(b, a).to_bits()
            );
            prop_assert_eq!(
                snap.similarity(a, b).to_bits(),
                similarity(profiles[a.index()].declared(), profiles[b.index()].declared())
                    .to_bits()
            );
            prop_assert_eq!(
                snap.weighted_similarity(a, b).to_bits(),
                weighted_similarity(&profiles[a.index()], &profiles[b.index()]).to_bits()
            );
        }
        // Final sweep: the refreshed snapshot — whatever mix of patches and
        // rebuilds produced it — must agree with a fresh model everywhere,
        // through every kernel.
        let snap = store.snapshot(&g, &t, &profiles, pv, config);
        let model = ClosenessModel::new(&g, &t, config);
        let targets: Vec<NodeId> = (0..n).map(NodeId::from).collect();
        let pairs: Vec<(NodeId, NodeId)> = (0..n)
            .flat_map(|i| (0..n).map(move |j| (NodeId::from(i), NodeId::from(j))))
            .collect();
        let bulk = snap.closeness_for_pairs(&pairs);
        for i in 0..n {
            let batched = snap.closeness_to_all(NodeId::from(i), &targets);
            for j in 0..n {
                let (a, b) = (NodeId::from(i), NodeId::from(j));
                let fresh = model.closeness(a, b);
                prop_assert_eq!(
                    snap.closeness(a, b).to_bits(),
                    fresh.to_bits(),
                    "stale snapshot closeness for ({}, {})", a, b
                );
                prop_assert_eq!(batched[j].to_bits(), fresh.to_bits());
                prop_assert_eq!(bulk[i * n + j].to_bits(), fresh.to_bits());
                prop_assert_eq!(
                    snap.similarity(a, b).to_bits(),
                    similarity(profiles[i].declared(), profiles[j].declared()).to_bits()
                );
                prop_assert_eq!(
                    snap.weighted_similarity(a, b).to_bits(),
                    weighted_similarity(&profiles[i], &profiles[j]).to_bits()
                );
            }
        }
        let (rebuilds, _patches) = store.stats();
        prop_assert!(rebuilds >= 1);
    }

    /// Shard-count transparency: stores pinned to P ∈ {1, 2, 8} shards must
    /// produce snapshots that agree **bit-for-bit** with the
    /// auto-partitioned store through every kernel, at every step of a
    /// random mutation/refresh interleaving. Sparse interaction dirt
    /// exercises the per-shard row patch, edge mutations the
    /// dirty-shard-only rebuild, and profile edits the shared interest
    /// tables — none of which may leak shard boundaries into results.
    #[test]
    fn sharded_snapshot_is_bit_for_bit_equal_to_unsharded(
        seed in 0u64..150,
        n in 4usize..24,
        weighted in proptest::bool::ANY,
        script in proptest::collection::vec((0u8..8, 0u64..u64::MAX), 1..30),
    ) {
        let (mut g, mut t) = env(seed, n);
        let mut rng = ChaCha8Rng::seed_from_u64(seed ^ 0x5a4d);
        let profiles: Vec<InterestProfile> =
            socialtrust_socnet::builder::random_interests(n, 25, (1, 8), &mut rng)
                .into_iter()
                .map(InterestProfile::new)
                .collect();
        let mut pv = 0u64;
        let config = if weighted {
            ClosenessConfig::weighted(0.8)
        } else {
            ClosenessConfig::default()
        };
        let baseline = SnapshotStore::new();
        let sharded: Vec<SnapshotStore> =
            [1, 2, 8].iter().map(|&p| SnapshotStore::with_shards(p)).collect();
        for (op, raw) in script {
            let a = NodeId::from((raw % n as u64) as usize);
            let b = NodeId::from(((raw / n as u64) % n as u64) as usize);
            match op {
                0 if a != b => {
                    g.add_relationship(a, b, Relationship::friendship());
                }
                1 => {
                    g.remove_edge(a, b);
                }
                2 | 3 if a != b => {
                    t.record(a, b, (raw % 7 + 1) as f64);
                }
                4 | 5 => {
                    pv += 1;
                }
                // 6 and 7 are pure query steps: no mutation at all.
                _ => {}
            }
            let base = baseline.snapshot(&g, &t, &profiles, pv, config);
            for store in &sharded {
                let snap = store.snapshot(&g, &t, &profiles, pv, config);
                prop_assert_eq!(
                    snap.closeness(a, b).to_bits(),
                    base.closeness(a, b).to_bits(),
                    "closeness({}, {}) diverged at P={} after op {}",
                    a, b, snap.shard_count(), op
                );
                prop_assert_eq!(
                    snap.closeness(b, a).to_bits(),
                    base.closeness(b, a).to_bits()
                );
            }
        }
        // Final sweep: every pair, every kernel, every shard count.
        let base = baseline.snapshot(&g, &t, &profiles, pv, config);
        let targets: Vec<NodeId> = (0..n).map(NodeId::from).collect();
        let pairs: Vec<(NodeId, NodeId)> = (0..n)
            .flat_map(|i| (0..n).map(move |j| (NodeId::from(i), NodeId::from(j))))
            .collect();
        let base_bulk = base.closeness_for_pairs(&pairs);
        for store in &sharded {
            let snap = store.snapshot(&g, &t, &profiles, pv, config);
            prop_assert_eq!(snap.node_count(), base.node_count());
            let bulk = snap.closeness_for_pairs(&pairs);
            for i in 0..n {
                let batched = snap.closeness_to_all(NodeId::from(i), &targets);
                for j in 0..n {
                    let (a, b) = (NodeId::from(i), NodeId::from(j));
                    prop_assert_eq!(
                        snap.closeness(a, b).to_bits(),
                        base.closeness(a, b).to_bits(),
                        "P={} closeness({}, {})", snap.shard_count(), a, b
                    );
                    prop_assert_eq!(batched[j].to_bits(), base.closeness(a, b).to_bits());
                    prop_assert_eq!(bulk[i * n + j].to_bits(), base_bulk[i * n + j].to_bits());
                    prop_assert_eq!(
                        snap.similarity(a, b).to_bits(),
                        base.similarity(a, b).to_bits()
                    );
                    prop_assert_eq!(
                        snap.weighted_similarity(a, b).to_bits(),
                        base.weighted_similarity(a, b).to_bits()
                    );
                    prop_assert_eq!(
                        snap.interest_similarity(a, b, weighted).to_bits(),
                        base.interest_similarity(a, b, weighted).to_bits()
                    );
                }
            }
        }
    }
}
