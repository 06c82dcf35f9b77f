//! Scaling bench — the sharded read path from 10k to 1M nodes.
//!
//! Where `snapshot.rs` compares mechanisms at a fixed size, this bench
//! tracks how the per-cycle costs grow with the network. For every size in
//! `SCALE_SIZES` (default `10000,100000,1000000`) it measures:
//!
//! 1. `patch_{n}_seconds`: sparse interaction dirt (~0.05% of nodes)
//!    brought up to date through `SnapshotStore::snapshot` — the
//!    row-repatch path, which rewrites only the dirty rows, in place.
//!
//! 2. `rebuild_{n}_seconds`: localized structural churn (edge toggles on a
//!    handful of adjacent ids) refreshed through the default
//!    auto-partitioned store — only the shards owning dirty endpoints
//!    rebuild their CSR slabs.
//!
//! 3. `rebuild_p1_{n}_seconds`: the identical churn against a store pinned
//!    to a single shard, which must rebuild the whole slab. The ratio
//!    (`sharded_rebuild_speedup_{n}`, informational) is the algorithmic
//!    win of dirty-shard-only rebuilds; it holds even on one core because
//!    the sharded store simply redoes less work.
//!
//! 4. `full_cycle_{n}_seconds`: one end-to-end reputation cycle through
//!    `WithSocialTrust<EigenTrust>` — rating ingest, detection over the
//!    epoch-validated snapshot, Gaussian re-weighting, and the blocked
//!    power iteration.
//!
//! 5. `eigentrust_{n}_seconds`: the reputation stage alone, warm. Plain
//!    `EigenTrust` (32 pre-trusted nodes) holds 3 ratings per node from
//!    one untimed cycle; each repetition records n/2 fresh ratings and
//!    runs `end_cycle` — the fold, the view rebuild and the warm power
//!    iteration. The full cycle above folds only `raters × 5` ratings into
//!    a near-empty matrix, so it cannot see this stage's cost.
//!
//! Every cell is the median of `REPS` repetitions (see
//! `socialtrust_bench::timing`). `snapshot_bytes_per_node_{n}` records the
//! resident snapshot footprint so the memory budget is tracked alongside
//! the timings. Results land in `BENCH_scale.json` in `BENCH_OUT_DIR`
//! (default: the workspace root). CI's smoke run sets
//! `SCALE_SIZES=10000,100000` to keep the matrix small while still timing
//! a sharded snapshot; the committed baseline carries the full
//! 10k/100k/1M rows.

use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use socialtrust_bench::timing::{self, Report};
use socialtrust_core::prelude::{
    SharedSocialContext, SocialContext, SocialTrustConfig, WithSocialTrust,
};
use socialtrust_reputation::prelude::{EigenTrust, Rating, ReputationSystem};
use socialtrust_socnet::builder::{connected_random_graph, random_interests};
use socialtrust_socnet::closeness::ClosenessConfig;
use socialtrust_socnet::graph::SocialGraph;
use socialtrust_socnet::interaction::InteractionTracker;
use socialtrust_socnet::interest::{InterestId, InterestProfile};
use socialtrust_socnet::relationship::Relationship;
use socialtrust_socnet::snapshot::SnapshotStore;
use socialtrust_socnet::NodeId;
use std::time::Instant;

const INTERESTS: u16 = 40;
/// Repetitions per cell, at every size.
const REPS: usize = 11;

fn env(n: usize, seed: u64) -> (SocialGraph, InteractionTracker, Vec<InterestProfile>) {
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let g = connected_random_graph(n, 6.0, (1, 2), &mut rng);
    let mut t = InteractionTracker::new(n);
    for _ in 0..n * 2 {
        let a = rng.gen_range(0..n);
        let b = rng.gen_range(0..n);
        if a != b {
            t.record(NodeId::from(a), NodeId::from(b), rng.gen_range(1.0..5.0));
        }
    }
    let profiles: Vec<InterestProfile> = random_interests(n, INTERESTS, (2, 6), &mut rng)
        .into_iter()
        .map(|set| {
            let mut p = InterestProfile::new(set);
            for _ in 0..3 {
                p.record_requests(
                    InterestId(rng.gen_range(0..INTERESTS)),
                    rng.gen_range(1..20),
                );
            }
            p
        })
        .collect();
    (g, t, profiles)
}

/// One sparse interaction round: ~0.05% of nodes (at least 10) record a
/// fresh interaction, rotated so repeated rounds touch different rows.
fn interaction_dirt(t: &mut InteractionTracker, n: usize, round: usize) {
    let dirty = (n / 2000).max(10).min(n);
    let stride = (n / dirty).max(1);
    for k in 0..dirty {
        let from = (k * stride + round) % n;
        let to = (from + 7) % n;
        if from != to {
            t.record(NodeId::from(from), NodeId::from(to), 1.0);
        }
    }
}

/// One localized structural round: toggle four edges among ids clustered
/// around `n/2`, so the dirt lands in one or two shards of the
/// auto-partitioned store.
fn structural_dirt(g: &mut SocialGraph, n: usize, round: usize) {
    let base = n / 2;
    for k in 0..4 {
        let a = NodeId::from((base + k) % n);
        let b = NodeId::from((base + 16 + k) % n);
        if a == b {
            continue;
        }
        if round.is_multiple_of(2) {
            g.add_relationship(a, b, Relationship::friendship());
        } else {
            g.remove_edge(a, b);
        }
    }
}

fn bench_size(n: usize, report: &mut Report) {
    let config = ClosenessConfig::default();
    let setup = Instant::now();
    let (mut g, mut t, profiles) = env(n, 41);
    eprintln!(
        "[scale {n}] env built in {:.1}s",
        setup.elapsed().as_secs_f64()
    );

    let store = SnapshotStore::new();
    let store_p1 = SnapshotStore::with_shards(1);
    store.snapshot(&g, &t, &profiles, 0, config);
    store_p1.snapshot(&g, &t, &profiles, 0, config);

    // 1. Interaction repatch through the sharded store.
    let mut round = 0usize;
    let patch = timing::measure(REPS, |rep| {
        rep.time(|| {
            interaction_dirt(&mut t, n, round);
            round += 1;
            std::hint::black_box(store.snapshot(&g, &t, &profiles, 0, config));
        })
    });
    store_p1.snapshot(&g, &t, &profiles, 0, config); // untimed catch-up

    // 2. Structural churn, dirty-shard-only rebuild.
    let mut round = 0usize;
    let rebuild = timing::measure(REPS, |rep| {
        rep.time(|| {
            structural_dirt(&mut g, n, round);
            round += 1;
            std::hint::black_box(store.snapshot(&g, &t, &profiles, 0, config));
        })
    });
    let snap = store.snapshot(&g, &t, &profiles, 0, config);
    let (bytes_per_node, shard_count) = (snap.bytes_per_node(), snap.shard_count());
    drop(snap);
    store_p1.snapshot(&g, &t, &profiles, 0, config); // untimed catch-up

    // 3. The same churn against a single-shard store: full slab rebuild.
    let mut round = 0usize;
    let rebuild_p1 = timing::measure(REPS, |rep| {
        rep.time(|| {
            structural_dirt(&mut g, n, round);
            round += 1;
            std::hint::black_box(store_p1.snapshot(&g, &t, &profiles, 0, config));
        })
    });
    drop(store);
    drop(store_p1);

    // 4. Full decorated cycle: ingest, detect, re-weight, power-iterate.
    let ctx = SharedSocialContext::new(SocialContext::from_parts(g, t, profiles, INTERESTS));
    let pretrusted: Vec<NodeId> = (0..32.min(n)).map(NodeId::from).collect();
    let mut engine = WithSocialTrust::new(
        EigenTrust::with_defaults(n, &pretrusted),
        ctx.clone(),
        SocialTrustConfig::default(),
    );
    let raters = (n / 500).clamp(50, 2000).min(n);
    let mut rng = ChaCha8Rng::seed_from_u64(43);
    let cycle = |engine: &mut WithSocialTrust<EigenTrust>, rng: &mut ChaCha8Rng| {
        for _ in 0..raters {
            let rater = rng.gen_range(0..n);
            for _ in 0..5 {
                let ratee = rng.gen_range(0..n);
                if rater == ratee {
                    continue;
                }
                let value = if rng.gen_bool(0.9) { 1.0 } else { -1.0 };
                engine.record(Rating::new(NodeId::from(rater), NodeId::from(ratee), value));
                ctx.write()
                    .record_interaction(NodeId::from(rater), NodeId::from(ratee), 1.0);
            }
        }
        engine.end_cycle();
    };
    cycle(&mut engine, &mut rng); // untimed warm-up: builds the ctx snapshot
    let full_cycle = timing::measure(REPS, |rep| rep.time(|| cycle(&mut engine, &mut rng)));
    drop(engine);
    drop(ctx);

    // 5. The reputation stage alone over a populated matrix; each
    //    repetition's batch of n/2 ratings is generated untimed.
    let mut rng = ChaCha8Rng::seed_from_u64(47);
    let rating = |rater: usize, rng: &mut ChaCha8Rng| {
        let ratee = (rater + rng.gen_range(1..n)) % n;
        let value = if rng.gen_bool(0.9) { 1.0 } else { -1.0 };
        Rating::new(NodeId::from(rater), NodeId::from(ratee), value)
    };
    let mut et = EigenTrust::with_defaults(n, &pretrusted);
    for rater in 0..n {
        for _ in 0..3 {
            et.record(rating(rater, &mut rng));
        }
    }
    et.end_cycle();
    let eigentrust = timing::measure(REPS, |rep| {
        let batch: Vec<Rating> = (0..n / 2)
            .map(|_| {
                let rater = rng.gen_range(0..n);
                rating(rater, &mut rng)
            })
            .collect();
        rep.time(|| {
            for r in batch {
                et.record(r);
            }
            et.end_cycle();
            std::hint::black_box(et.reputations());
        })
    });
    eprintln!(
        "[scale {n}] eigentrust: {} iterations in the last cycle",
        et.last_iterations()
    );

    report.cell(&format!("patch_{n}"), patch);
    report.cell(&format!("rebuild_{n}"), rebuild);
    report.cell(&format!("rebuild_p1_{n}"), rebuild_p1);
    report.cell(&format!("full_cycle_{n}"), full_cycle);
    report.cell(&format!("eigentrust_{n}"), eigentrust);
    report.put(
        format!("sharded_rebuild_speedup_{n}"),
        rebuild_p1.median / rebuild.median,
    );
    report.put(format!("shard_count_{n}"), shard_count);
    report.put(format!("snapshot_bytes_per_node_{n}"), bytes_per_node);
}

fn main() {
    let (listed, sizes) = timing::sizes("SCALE_SIZES", "10000,100000,1000000");
    let mut report = Report::new("scale");
    report.put("sizes", listed);
    report.put("reps", REPS);
    for n in sizes {
        bench_size(n, &mut report);
    }
    report.write(&timing::out_dir());
}
