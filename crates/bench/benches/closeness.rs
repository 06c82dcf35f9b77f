//! Criterion bench — social closeness computation (Eqs. (2)–(4), (10)).
//!
//! The point-query cells time the `ClosenessModel` reference; the
//! `bulk_200_pairs` cell times the snapshot's grouped pair kernel, the
//! path production reads closeness through.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use socialtrust_socnet::builder::connected_random_graph;
use socialtrust_socnet::closeness::{ClosenessConfig, ClosenessModel};
use socialtrust_socnet::interaction::InteractionTracker;
use socialtrust_socnet::interest::{InterestProfile, InterestSet};
use socialtrust_socnet::snapshot::GraphSnapshot;
use socialtrust_socnet::NodeId;

fn env(n: usize, seed: u64) -> (socialtrust_socnet::graph::SocialGraph, InteractionTracker) {
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let g = connected_random_graph(n, 6.0, (1, 2), &mut rng);
    let mut t = InteractionTracker::new(n);
    for _ in 0..n * 10 {
        let a = rng.gen_range(0..n);
        let b = rng.gen_range(0..n);
        if a != b {
            t.record(NodeId::from(a), NodeId::from(b), rng.gen_range(1.0..5.0));
        }
    }
    (g, t)
}

fn bench_closeness(c: &mut Criterion) {
    let mut group = c.benchmark_group("closeness");
    for &n in &[100usize, 200, 400] {
        let (g, t) = env(n, 7);
        let model = ClosenessModel::new(&g, &t, ClosenessConfig::default());
        group.bench_with_input(BenchmarkId::new("adjacent", n), &n, |bench, _| {
            let (a, b) = {
                let (x, y, _) = g.edges().next().expect("edges exist");
                (x, y)
            };
            bench.iter(|| std::hint::black_box(model.adjacent_closeness(a, b)));
        });
        group.bench_with_input(BenchmarkId::new("any_pair", n), &n, |bench, _| {
            bench.iter(|| std::hint::black_box(model.closeness(NodeId(0), NodeId(n as u32 - 1))));
        });
        let pairs: Vec<(NodeId, NodeId)> = (0..200)
            .map(|i| (NodeId::from(i % n), NodeId::from((i * 7 + 3) % n)))
            .collect();
        let profiles = vec![InterestProfile::new(InterestSet::new()); n];
        let snapshot = GraphSnapshot::build(&g, &t, &profiles, 0, ClosenessConfig::default());
        group.bench_with_input(BenchmarkId::new("bulk_200_pairs", n), &n, |bench, _| {
            bench.iter(|| std::hint::black_box(snapshot.closeness_for_pairs(&pairs)));
        });
        let weighted = ClosenessModel::new(&g, &t, ClosenessConfig::weighted(0.8));
        group.bench_with_input(BenchmarkId::new("weighted_eq10", n), &n, |bench, _| {
            bench
                .iter(|| std::hint::black_box(weighted.closeness(NodeId(0), NodeId(n as u32 / 2))));
        });
    }
    group.finish();
}

criterion_group!(benches, bench_closeness);
criterion_main!(benches);
