//! Criterion bench — CSR snapshot read path vs the live per-query path.
//!
//! The detection + Gaussian-weighting passes are read-dominated: thousands
//! of (rater, ratee) coefficient queries per cycle against a graph that
//! mutates only sparsely in between. Three comparisons on a 10k-node
//! network:
//!
//! 1. `pairwise_closeness`: a 4000-pair working set shaped like the
//!    rating ledger the detector and Gaussian pass actually walk — 400
//!    raters each rating 10 distinct ratees — evaluated (a) through the
//!    live `ClosenessModel`, one BFS per non-adjacent pair over
//!    `Vec<Vec<NodeId>>` adjacency, vs (b) `GraphSnapshot::
//!    closeness_for_pairs`, which groups the pairs by rater and answers
//!    each rater's ten targets with a single capped BFS over the flat
//!    CSR arrays (acceptance: ≥2x).
//!
//! 2. `interest_similarity`: Eq. (1)/(11) overlap for the same pairs via
//!    (a) the live BTreeMap set walk (`interest::weighted_similarity`)
//!    vs (b) the snapshot's per-node bitsets (AND + popcount, weights by
//!    binary search in the CSR effective-interest rows).
//!
//! 3. `refresh`: after ~0.5% of nodes record fresh interactions, bring
//!    the snapshot up to date by (a) `GraphSnapshot::build` from scratch
//!    vs (b) `GraphSnapshot::refreshed`, which takes the previous
//!    generation by value and repatches only the dirty rows' freq slots,
//!    in place.
//!
//! Besides the Criterion cells, `main` re-measures the three comparisons
//! with plain `Instant` timing and writes the means to
//! `BENCH_snapshot.json` (override the path with `BENCH_SNAPSHOT_OUT`) so
//! CI can track the perf trajectory across PRs.

use criterion::{criterion_group, Criterion};
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use serde::Serialize;
use socialtrust_socnet::builder::{connected_random_graph, random_interests};
use socialtrust_socnet::closeness::{ClosenessConfig, ClosenessModel};
use socialtrust_socnet::graph::SocialGraph;
use socialtrust_socnet::interaction::InteractionTracker;
use socialtrust_socnet::interest::{self, InterestId, InterestProfile};
use socialtrust_socnet::snapshot::{GraphSnapshot, RefreshOutcome};
use socialtrust_socnet::NodeId;
use std::time::Instant;

const N: usize = 10_000;
/// Raters active in one cycle and how many ratees each rated; their
/// product is the size of the per-cycle coefficient working set.
const RATERS: usize = 400;
const FANOUT: usize = 10;
const PAIRS: usize = RATERS * FANOUT;
/// Nodes that record fresh interactions between refreshes (0.5% of N).
const MUTATED_NODES: usize = 50;

fn env(seed: u64) -> (SocialGraph, InteractionTracker, Vec<InterestProfile>) {
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let g = connected_random_graph(N, 6.0, (1, 2), &mut rng);
    let mut t = InteractionTracker::new(N);
    for _ in 0..N * 4 {
        let a = rng.gen_range(0..N);
        let b = rng.gen_range(0..N);
        if a != b {
            t.record(NodeId::from(a), NodeId::from(b), rng.gen_range(1.0..5.0));
        }
    }
    let profiles: Vec<InterestProfile> = random_interests(N, 40, (2, 10), &mut rng)
        .into_iter()
        .map(|set| {
            let mut p = InterestProfile::new(set);
            for _ in 0..4 {
                p.record_requests(InterestId(rng.gen_range(0..40)), rng.gen_range(1..20));
            }
            p
        })
        .collect();
    (g, t, profiles)
}

/// The per-cycle working set, shaped like a rating ledger: each active
/// rater rated `FANOUT` distinct ratees, so the batched kernel can serve
/// all of a rater's Eq. (4) fallbacks from one BFS.
fn working_set(rng: &mut ChaCha8Rng) -> Vec<(NodeId, NodeId)> {
    let mut pairs = Vec::with_capacity(PAIRS);
    for _ in 0..RATERS {
        let a = rng.gen_range(0..N);
        for _ in 0..FANOUT {
            let mut b = rng.gen_range(0..N);
            if b == a {
                b = (b + 1) % N;
            }
            pairs.push((NodeId::from(a), NodeId::from(b)));
        }
    }
    pairs
}

/// One sparse mutation round, rotated so repeated iterations don't keep
/// re-dirtying the same rows.
fn mutate(t: &mut InteractionTracker, round: usize) {
    let stride = N / MUTATED_NODES;
    for k in 0..MUTATED_NODES {
        let from = (k * stride + round) % N;
        let to = (from + 7) % N;
        t.record(NodeId::from(from), NodeId::from(to), 1.0);
    }
}

fn bench_pairwise_closeness(c: &mut Criterion) {
    let config = ClosenessConfig::default();
    let (g, t, profiles) = env(41);
    let mut rng = ChaCha8Rng::seed_from_u64(43);
    let pairs = working_set(&mut rng);
    let mut group = c.benchmark_group("pairwise_closeness_10k");
    group.sample_size(10);

    let model = ClosenessModel::new(&g, &t, config);
    group.bench_function("per_pair_bfs", |bench| {
        bench.iter(|| {
            let total: f64 = pairs.iter().map(|&(a, b)| model.closeness(a, b)).sum();
            std::hint::black_box(total)
        });
    });

    let snapshot = GraphSnapshot::build(&g, &t, &profiles, 0, config);
    group.bench_function("batched_csr", |bench| {
        bench.iter(|| {
            let values = snapshot.closeness_for_pairs(&pairs);
            std::hint::black_box(values.iter().sum::<f64>())
        });
    });

    group.finish();
}

fn bench_interest_similarity(c: &mut Criterion) {
    let config = ClosenessConfig::default();
    let (g, t, profiles) = env(41);
    let mut rng = ChaCha8Rng::seed_from_u64(43);
    let pairs = working_set(&mut rng);
    let mut group = c.benchmark_group("interest_similarity_10k");
    group.sample_size(10);

    group.bench_function("btreemap_walk", |bench| {
        bench.iter(|| {
            let total: f64 = pairs
                .iter()
                .map(|&(a, b)| {
                    interest::weighted_similarity(&profiles[a.index()], &profiles[b.index()])
                })
                .sum();
            std::hint::black_box(total)
        });
    });

    let snapshot = GraphSnapshot::build(&g, &t, &profiles, 0, config);
    group.bench_function("bitset_popcount", |bench| {
        bench.iter(|| {
            let total: f64 = pairs
                .iter()
                .map(|&(a, b)| snapshot.weighted_similarity(a, b))
                .sum();
            std::hint::black_box(total)
        });
    });

    group.finish();
}

fn bench_refresh(c: &mut Criterion) {
    let config = ClosenessConfig::default();
    let mut group = c.benchmark_group("snapshot_refresh_10k");
    group.sample_size(10);

    {
        let (g, mut t, profiles) = env(41);
        let mut round = 0usize;
        group.bench_function("full_rebuild", |bench| {
            bench.iter(|| {
                mutate(&mut t, round);
                round += 1;
                std::hint::black_box(GraphSnapshot::build(&g, &t, &profiles, 0, config))
            });
        });
    }

    {
        let (g, mut t, profiles) = env(41);
        let mut prev = Some(GraphSnapshot::build(&g, &t, &profiles, 0, config));
        let mut round = 0usize;
        let mut patched = 0usize;
        group.bench_function("incremental_patch", |bench| {
            bench.iter(|| {
                mutate(&mut t, round);
                round += 1;
                let generation = prev.take().expect("a previous generation");
                let (next, outcome) =
                    GraphSnapshot::refreshed(generation, &g, &t, &profiles, 0, config);
                if matches!(outcome, RefreshOutcome::Patched { .. }) {
                    patched += 1;
                }
                std::hint::black_box(prev.insert(next).epochs())
            });
        });
        println!("[refresh] {patched}/{round} rounds took the patch path");
    }

    group.finish();
}

/// The flat JSON object written for cross-PR perf tracking.
#[derive(Serialize)]
struct BenchReport {
    bench: &'static str,
    nodes: usize,
    pairs: usize,
    mutated_nodes_per_round: usize,
    reps: u32,
    per_pair_bfs_seconds: f64,
    batched_csr_seconds: f64,
    closeness_speedup: f64,
    btreemap_similarity_seconds: f64,
    bitset_similarity_seconds: f64,
    similarity_speedup: f64,
    full_rebuild_seconds: f64,
    incremental_patch_seconds: f64,
    refresh_speedup: f64,
}

/// Mean seconds per run of `routine` over `reps` timed repetitions.
fn measure<F: FnMut()>(reps: u32, mut routine: F) -> f64 {
    let start = Instant::now();
    for _ in 0..reps {
        routine();
    }
    start.elapsed().as_secs_f64() / reps as f64
}

/// Re-measure the three comparisons with plain wall-clock timing and
/// write the result as a flat JSON object for cross-PR tracking.
fn write_bench_json(reps: u32) {
    let config = ClosenessConfig::default();
    let (g, mut t, profiles) = env(41);
    let mut rng = ChaCha8Rng::seed_from_u64(43);
    let pairs = working_set(&mut rng);
    let model = ClosenessModel::new(&g, &t, config);
    let snapshot = GraphSnapshot::build(&g, &t, &profiles, 0, config);

    let per_pair = measure(reps, || {
        std::hint::black_box(
            pairs
                .iter()
                .map(|&(a, b)| model.closeness(a, b))
                .sum::<f64>(),
        );
    });
    let batched = measure(reps, || {
        std::hint::black_box(snapshot.closeness_for_pairs(&pairs));
    });
    let btreemap = measure(reps, || {
        std::hint::black_box(
            pairs
                .iter()
                .map(|&(a, b)| {
                    interest::weighted_similarity(&profiles[a.index()], &profiles[b.index()])
                })
                .sum::<f64>(),
        );
    });
    let bitset = measure(reps, || {
        std::hint::black_box(
            pairs
                .iter()
                .map(|&(a, b)| snapshot.weighted_similarity(a, b))
                .sum::<f64>(),
        );
    });
    let rebuild = measure(reps, || {
        std::hint::black_box(GraphSnapshot::build(&g, &t, &profiles, 0, config));
    });
    let mut prev = Some(snapshot);
    let mut round = 0usize;
    let patch = measure(reps, || {
        mutate(&mut t, round);
        round += 1;
        let generation = prev.take().expect("a previous generation");
        prev = Some(GraphSnapshot::refreshed(generation, &g, &t, &profiles, 0, config).0);
    });

    let report = BenchReport {
        bench: "snapshot",
        nodes: N,
        pairs: PAIRS,
        mutated_nodes_per_round: MUTATED_NODES,
        reps,
        per_pair_bfs_seconds: per_pair,
        batched_csr_seconds: batched,
        closeness_speedup: per_pair / batched,
        btreemap_similarity_seconds: btreemap,
        bitset_similarity_seconds: bitset,
        similarity_speedup: btreemap / bitset,
        full_rebuild_seconds: rebuild,
        incremental_patch_seconds: patch,
        refresh_speedup: rebuild / patch,
    };
    let path =
        std::env::var("BENCH_SNAPSHOT_OUT").unwrap_or_else(|_| "BENCH_snapshot.json".to_owned());
    std::fs::write(
        &path,
        serde_json::to_string_pretty(&report).expect("report serializes"),
    )
    .expect("bench report is writable");
    println!(
        "[snapshot json] closeness {:.2}x, similarity {:.2}x, refresh {:.2}x -> {path}",
        per_pair / batched,
        btreemap / bitset,
        rebuild / patch
    );
}

criterion_group!(
    benches,
    bench_pairwise_closeness,
    bench_interest_similarity,
    bench_refresh
);

fn main() {
    let mut criterion = Criterion::default();
    benches(&mut criterion);
    // Smoke mode (`--test`) keeps the JSON pass to a single repetition.
    let smoke = std::env::args().any(|a| a == "--test");
    write_bench_json(if smoke { 1 } else { 3 });
}
