//! Criterion bench — incremental EigenTrust updates.
//!
//! The steady state of a running network mutates only a sliver of the
//! rating matrix per cycle (new ratings from a handful of nodes).
//! `eigentrust_cycle` times `end_cycle` with such a sparse rating batch on
//! a 10k-node engine, cold-started (power iteration from pretrust every
//! cycle) vs warm-started (iteration resumes from the previous trust
//! vector). The iteration counts are printed alongside.

use criterion::{criterion_group, criterion_main, Criterion};
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use socialtrust_reputation::eigentrust::{EigenTrust, EigenTrustConfig};
use socialtrust_reputation::rating::Rating;
use socialtrust_reputation::system::ReputationSystem;
use socialtrust_socnet::NodeId;

const N: usize = 10_000;

/// A sparse rating batch: 200 ratings among a 1% slice of the nodes,
/// rotated per cycle.
fn sparse_batch(rng: &mut ChaCha8Rng, cycle: usize) -> Vec<Rating> {
    let base = (cycle * 100) % N;
    (0..200)
        .map(|_| {
            let a = base + rng.gen_range(0..100);
            let mut b = base + rng.gen_range(0..100);
            if b == a {
                b += 1;
            }
            Rating::new(
                NodeId::from(a % N),
                NodeId::from(b % N),
                if rng.gen_bool(0.9) { 1.0 } else { -1.0 },
            )
        })
        .collect()
}

fn engine(warm_start: bool) -> EigenTrust {
    let config = EigenTrustConfig {
        warm_start,
        ..EigenTrustConfig::default()
    };
    let pretrusted: Vec<NodeId> = (0..10usize).map(NodeId::from).collect();
    let mut sys = EigenTrust::new(N, &pretrusted, config);
    // Reach a populated steady state before timing: 20 dense-ish cycles.
    let mut rng = ChaCha8Rng::seed_from_u64(31);
    for cycle in 0..20 {
        for r in sparse_batch(&mut rng, cycle * 7) {
            sys.record(r);
        }
        sys.end_cycle();
    }
    sys
}

fn bench_eigentrust_cycle(c: &mut Criterion) {
    let mut group = c.benchmark_group("eigentrust_cycle_10k");
    group.sample_size(10);

    for (label, warm_start) in [("cold_start", false), ("warm_start", true)] {
        let mut sys = engine(warm_start);
        let mut rng = ChaCha8Rng::seed_from_u64(37);
        let mut cycle = 1000usize;
        group.bench_function(label, |bench| {
            bench.iter(|| {
                for r in sparse_batch(&mut rng, cycle) {
                    sys.record(r);
                }
                cycle += 1;
                sys.end_cycle();
                std::hint::black_box(sys.reputations()[0])
            });
        });
        println!(
            "[{label}] last power iteration count: {}",
            sys.last_iterations()
        );
    }

    group.finish();
}

criterion_group!(benches, bench_eigentrust_cycle);
criterion_main!(benches);
