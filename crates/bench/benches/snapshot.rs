//! Snapshot bench — CSR snapshot read path vs the live per-query path.
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
//! Every cell is the median of `REPS` repetitions (see
//! `socialtrust_bench::timing`); results land in `BENCH_snapshot.json` in
//! `BENCH_OUT_DIR` (default: the workspace root).

use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use socialtrust_bench::timing::{self, Report};
use socialtrust_socnet::builder::{connected_random_graph, random_interests};
use socialtrust_socnet::closeness::{ClosenessConfig, ClosenessModel};
use socialtrust_socnet::graph::SocialGraph;
use socialtrust_socnet::interaction::InteractionTracker;
use socialtrust_socnet::interest::{self, InterestId, InterestProfile};
use socialtrust_socnet::snapshot::GraphSnapshot;
use socialtrust_socnet::NodeId;

const N: usize = 10_000;
/// Raters active in one cycle and how many ratees each rated; their
/// product is the size of the per-cycle coefficient working set.
const RATERS: usize = 400;
const FANOUT: usize = 10;
const PAIRS: usize = RATERS * FANOUT;
/// Nodes that record fresh interactions between refreshes (0.5% of N).
const MUTATED_NODES: usize = 50;
/// Repetitions per cell.
const REPS: usize = 11;

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

/// One sparse mutation round, rotated so repeated repetitions don't keep
/// re-dirtying the same rows.
fn mutate(t: &mut InteractionTracker, round: usize) {
    let stride = N / MUTATED_NODES;
    for k in 0..MUTATED_NODES {
        let from = (k * stride + round) % N;
        let to = (from + 7) % N;
        t.record(NodeId::from(from), NodeId::from(to), 1.0);
    }
}

fn main() {
    let config = ClosenessConfig::default();
    let (g, mut t, profiles) = env(41);
    let mut rng = ChaCha8Rng::seed_from_u64(43);
    let pairs = working_set(&mut rng);
    let model = ClosenessModel::new(&g, &t, config);
    let snapshot = GraphSnapshot::build(&g, &t, &profiles, 0, config);

    let per_pair = timing::measure(REPS, |rep| {
        rep.time(|| {
            std::hint::black_box(
                pairs
                    .iter()
                    .map(|&(a, b)| model.closeness(a, b))
                    .sum::<f64>(),
            );
        })
    });
    let batched = timing::measure(REPS, |rep| {
        rep.time(|| {
            std::hint::black_box(snapshot.closeness_for_pairs(&pairs));
        })
    });
    let btreemap = timing::measure(REPS, |rep| {
        rep.time(|| {
            std::hint::black_box(
                pairs
                    .iter()
                    .map(|&(a, b)| {
                        interest::weighted_similarity(&profiles[a.index()], &profiles[b.index()])
                    })
                    .sum::<f64>(),
            );
        })
    });
    let bitset = timing::measure(REPS, |rep| {
        rep.time(|| {
            std::hint::black_box(
                pairs
                    .iter()
                    .map(|&(a, b)| snapshot.weighted_similarity(a, b))
                    .sum::<f64>(),
            );
        })
    });
    let rebuild = timing::measure(REPS, |rep| {
        rep.time(|| {
            std::hint::black_box(GraphSnapshot::build(&g, &t, &profiles, 0, config));
        })
    });
    let mut prev = Some(snapshot);
    let mut round = 0usize;
    let patch = timing::measure(REPS, |rep| {
        rep.time(|| {
            mutate(&mut t, round);
            round += 1;
            let generation = prev.take().expect("a previous generation");
            prev = Some(GraphSnapshot::refreshed(generation, &g, &t, &profiles, 0, config).0);
        })
    });

    let mut report = Report::new("snapshot");
    report.put("nodes", N);
    report.put("pairs", PAIRS);
    report.put("mutated_nodes_per_round", MUTATED_NODES);
    report.put("reps", REPS);
    report.cell("per_pair_bfs", per_pair);
    report.cell("batched_csr", batched);
    report.put("closeness_speedup", per_pair.median / batched.median);
    report.cell("btreemap_similarity", btreemap);
    report.cell("bitset_similarity", bitset);
    report.put("similarity_speedup", btreemap.median / bitset.median);
    report.cell("full_rebuild", rebuild);
    report.cell("incremental_patch", patch);
    report.put("refresh_speedup", rebuild.median / patch.median);
    report.write(&timing::out_dir());
}
