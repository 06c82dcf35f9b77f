//! Property-based tests for the reputation engines.

use std::collections::BTreeMap;

use proptest::prelude::*;
use socialtrust_reputation::prelude::*;
use socialtrust_socnet::NodeId;

/// A random batch of ratings among `n` nodes, excluding self-ratings.
fn ratings_strategy(n: u32) -> impl Strategy<Value = Vec<Rating>> {
    proptest::collection::vec(
        (0..n, 0..n, prop_oneof![Just(1.0f64), Just(-1.0f64)]),
        0..120,
    )
    .prop_map(move |triples| {
        triples
            .into_iter()
            .filter(|(a, b, _)| a != b)
            .map(|(a, b, v)| Rating::new(NodeId(a), NodeId(b), v))
            .collect()
    })
}

/// A reference EigenTrust written out plainly, for the bit-exact oracle
/// test: a `BTreeMap` satisfaction matrix folded one rating at a time, and
/// a power iteration that scatters each row in ascending `i`, computing
/// `s / pos` per entry and skipping zero trust, rows without positive trust
/// (their mass goes to `p`) and non-positive satisfaction. One block: the
/// residual is one left-to-right L1 sum.
struct ReferenceEigenTrust {
    a: f64,
    epsilon: f64,
    max_iterations: usize,
    p: Vec<f64>,
    sat: BTreeMap<(u32, u32), f64>,
    buffer: Vec<Rating>,
    t: Vec<f64>,
    warm: bool,
    iterations: usize,
}

impl ReferenceEigenTrust {
    fn new(n: usize, pretrusted: &[NodeId], config: EigenTrustConfig) -> Self {
        let mut p = vec![0.0; n];
        if pretrusted.is_empty() {
            p.iter_mut().for_each(|v| *v = 1.0 / n as f64);
        } else {
            for q in pretrusted {
                p[q.index()] = 1.0 / pretrusted.len() as f64;
            }
        }
        ReferenceEigenTrust {
            a: config.pretrust_weight,
            epsilon: config.epsilon,
            max_iterations: config.max_iterations,
            p,
            sat: BTreeMap::new(),
            buffer: Vec::new(),
            t: vec![0.0; n],
            warm: false,
            iterations: 0,
        }
    }

    fn reset_node(&mut self, node: NodeId) {
        self.sat.retain(|&(i, j), _| i != node.0 && j != node.0);
        self.buffer.retain(|r| r.rater != node && r.ratee != node);
        self.warm = false;
    }

    fn end_cycle(&mut self) {
        for r in self.buffer.drain(..) {
            if r.rater == r.ratee {
                continue;
            }
            self.sat
                .entry((r.rater.0, r.ratee.0))
                .and_modify(|s| *s += r.value)
                .or_insert(r.value);
        }
        let (n, a) = (self.p.len(), self.a);
        let mut pos = vec![0.0; n];
        for (&(i, _), &s) in &self.sat {
            pos[i as usize] += s.max(0.0);
        }
        let mut t = if self.warm {
            self.t.clone()
        } else {
            self.p.clone()
        };
        let mut iterations = 0;
        loop {
            let mut next: Vec<f64> = self.p.iter().map(|&pj| pj * a).collect();
            let mut default_mass = 0.0;
            for (i, &ti) in t.iter().enumerate() {
                if ti == 0.0 {
                    continue;
                }
                if pos[i] <= 0.0 {
                    default_mass += ti;
                    continue;
                }
                for (&(_, j), &s) in self.sat.range((i as u32, 0)..=(i as u32, u32::MAX)) {
                    if s > 0.0 {
                        next[j as usize] += ((1.0 - a) * ti) * (s / pos[i]);
                    }
                }
            }
            if default_mass != 0.0 {
                let w = (1.0 - a) * default_mass;
                for (x, &pj) in next.iter_mut().zip(&self.p) {
                    *x += w * pj;
                }
            }
            let delta: f64 = next.iter().zip(&t).map(|(x, y)| (x - y).abs()).sum();
            iterations += 1;
            t = next;
            if delta < self.epsilon || iterations >= self.max_iterations {
                break;
            }
        }
        self.t = t;
        self.warm = true;
        self.iterations = iterations;
    }
}

/// One step of a multi-cycle stream.
#[derive(Debug, Clone, Copy)]
enum Step {
    Rate(u32, u32, f64),
    Reset(u32),
    EndCycle,
}

/// Rating values whose float sum depends on the order they are added in
/// (`0.1 + 0.2 + 0.7 ≠ 0.7 + 0.2 + 0.1`), plus both zeros.
const ORDER_SENSITIVE: [f64; 8] = [0.1, 0.2, 0.7, -0.3, 0.0, -0.0, 1.0, -1.0];

/// A stream over `n` nodes: mostly ratings (self-ratings included, and
/// pairs repeating within a cycle since `n` is small), with interleaved
/// resets and cycle ends, always closed by a final cycle end.
fn steps_strategy(n: u32) -> impl Strategy<Value = Vec<Step>> {
    proptest::collection::vec((0u32..16, 0..n, 0..n, 0..ORDER_SENSITIVE.len()), 0..160).prop_map(
        |raw| {
            raw.into_iter()
                .map(|(kind, i, j, v)| match kind {
                    0 => Step::Reset(i),
                    1 => Step::EndCycle,
                    _ => Step::Rate(i, j, ORDER_SENSITIVE[v]),
                })
                .chain(std::iter::once(Step::EndCycle))
                .collect()
        },
    )
}

/// A random ledger history: recorded ratings, interval ends and resets.
fn ledger_ops_strategy() -> impl Strategy<Value = Vec<(u8, u32, u32, f64)>> {
    proptest::collection::vec(
        (
            0u8..12,
            0u32..9,
            0u32..9,
            prop_oneof![Just(1.0f64), Just(-1.0f64), Just(0.0f64)],
        ),
        0..120,
    )
}

proptest! {
    #[test]
    fn eigentrust_reputations_are_a_distribution(batch in ratings_strategy(12)) {
        let mut sys = EigenTrust::with_defaults(12, &[NodeId(0), NodeId(1)]);
        for r in batch {
            sys.record(r);
        }
        sys.end_cycle();
        let reps = sys.reputations();
        prop_assert!(reps.iter().all(|&v| v >= -1e-12 && v.is_finite()));
        let sum: f64 = reps.iter().sum();
        prop_assert!((sum - 1.0).abs() < 1e-6, "sum = {}", sum);
    }

    #[test]
    fn eigentrust_is_deterministic(batch in ratings_strategy(10)) {
        let run = || {
            let mut sys = EigenTrust::with_defaults(10, &[NodeId(0)]);
            for r in &batch {
                sys.record(*r);
            }
            sys.end_cycle();
            sys.reputations().to_vec()
        };
        prop_assert_eq!(run(), run());
    }

    #[test]
    fn eigentrust_order_of_ratings_within_cycle_is_irrelevant(batch in ratings_strategy(8)) {
        let mut fwd = EigenTrust::with_defaults(8, &[NodeId(0)]);
        let mut rev = EigenTrust::with_defaults(8, &[NodeId(0)]);
        for r in &batch {
            fwd.record(*r);
        }
        for r in batch.iter().rev() {
            rev.record(*r);
        }
        fwd.end_cycle();
        rev.end_cycle();
        for (a, b) in fwd.reputations().iter().zip(rev.reputations()) {
            prop_assert!((a - b).abs() < 1e-9);
        }
    }

    /// Warm-start soundness: across any random multi-cycle rating stream,
    /// a warm-started engine converges to the same trust vector as a
    /// cold-started one, every cycle, within the stopping tolerance. (The
    /// damped iteration is an L1 contraction, so the fixed point is unique
    /// and start-vector independent.)
    #[test]
    fn eigentrust_warm_start_matches_cold_start(
        cycles in proptest::collection::vec(ratings_strategy(10), 1..5),
        reset_raw in 0u32..20,
    ) {
        // Values ≥ 10 mean "no reset" (the vendored proptest has no
        // Option strategy).
        let reset = (reset_raw < 10).then_some(reset_raw);
        let pre = [NodeId(0), NodeId(3)];
        let mut warm = EigenTrust::with_defaults(10, &pre);
        let cold_cfg = EigenTrustConfig { warm_start: false, ..EigenTrustConfig::default() };
        let mut cold = EigenTrust::new(10, &pre, cold_cfg);
        let last = cycles.len() - 1;
        for (c, batch) in cycles.into_iter().enumerate() {
            for r in &batch {
                warm.record(*r);
                cold.record(*r);
            }
            // Optionally whitewash one node mid-stream: both engines must
            // agree through the pretrust fallback too.
            if c == last {
                if let Some(node) = reset {
                    warm.reset_node(NodeId(node));
                    cold.reset_node(NodeId(node));
                }
            }
            warm.end_cycle();
            cold.end_cycle();
            let diff: f64 = warm
                .reputations()
                .iter()
                .zip(cold.reputations())
                .map(|(a, b)| (a - b).abs())
                .sum();
            prop_assert!(diff < 1e-6, "cycle {}: warm/cold L1 gap {}", c, diff);
        }
    }

    /// Blocked-parallel power iteration is a pure scheduling change: for
    /// any rating stream (including mid-stream whitewashing resets) and any
    /// block size, the parallel engine must agree with the serial
    /// single-block engine within 1e-12 every cycle. The blocked gather is
    /// in fact bit-for-bit identical, which this asserts too.
    #[test]
    fn eigentrust_blocked_parallel_matches_serial(
        cycles in proptest::collection::vec(ratings_strategy(11), 1..4),
        block_size in 1usize..16,
        reset_raw in 0u32..22,
    ) {
        let reset = (reset_raw < 11).then_some(reset_raw);
        let pre = [NodeId(0), NodeId(2)];
        let serial_cfg = EigenTrustConfig {
            parallel: false,
            block_size: usize::MAX,
            ..EigenTrustConfig::default()
        };
        let blocked_cfg = EigenTrustConfig {
            parallel: true,
            block_size,
            ..EigenTrustConfig::default()
        };
        let mut serial = EigenTrust::new(11, &pre, serial_cfg);
        let mut blocked = EigenTrust::new(11, &pre, blocked_cfg);
        let last = cycles.len() - 1;
        for (c, batch) in cycles.into_iter().enumerate() {
            for r in &batch {
                serial.record(*r);
                blocked.record(*r);
            }
            if c == last {
                if let Some(node) = reset {
                    serial.reset_node(NodeId(node));
                    blocked.reset_node(NodeId(node));
                }
            }
            serial.end_cycle();
            blocked.end_cycle();
            for (i, (a, b)) in serial
                .reputations()
                .iter()
                .zip(blocked.reputations())
                .enumerate()
            {
                prop_assert!(
                    (a - b).abs() <= 1e-12,
                    "cycle {}, node {}: serial {} vs blocked {}", c, i, a, b
                );
                prop_assert_eq!(
                    a.to_bits(), b.to_bits(),
                    "cycle {}, node {}: blocked gather not bit-identical", c, i
                );
            }
        }
    }

    /// Bit-exact oracle: over multi-cycle streams with repeated pairs,
    /// order-sensitive values, zeros, self-ratings and resets, the engine's
    /// trust vector equals the reference's to the bit every cycle, after
    /// the same number of iterations — warm starts and the cold start that
    /// follows a reset included.
    #[test]
    fn eigentrust_matches_reference_bit_for_bit(
        steps in steps_strategy(6),
        uniform in proptest::bool::ANY,
        a in prop_oneof![Just(0.1f64), Just(0.5f64)],
    ) {
        let pre: &[NodeId] = if uniform { &[] } else { &[NodeId(0), NodeId(2)] };
        let config = EigenTrustConfig {
            pretrust_weight: a,
            block_size: usize::MAX,
            ..EigenTrustConfig::default()
        };
        let mut engine = EigenTrust::new(6, pre, config);
        let mut reference = ReferenceEigenTrust::new(6, pre, config);
        for (k, step) in steps.into_iter().enumerate() {
            match step {
                Step::Rate(i, j, v) => {
                    let r = Rating::new(NodeId(i), NodeId(j), v);
                    engine.record(r);
                    reference.buffer.push(r);
                }
                Step::Reset(i) => {
                    engine.reset_node(NodeId(i));
                    reference.reset_node(NodeId(i));
                }
                Step::EndCycle => {
                    engine.end_cycle();
                    reference.end_cycle();
                    prop_assert_eq!(
                        engine.last_iterations(), reference.iterations,
                        "step {}: iteration counts differ", k
                    );
                    for (j, (x, y)) in engine.reputations().iter().zip(&reference.t).enumerate() {
                        prop_assert_eq!(
                            x.to_bits(), y.to_bits(),
                            "step {}, node {}: engine {} vs reference {}", k, j, x, y
                        );
                    }
                }
            }
        }
    }

    /// `rated_by` walks the rater's key range; it must list exactly what
    /// filtering every lifetime key for that rater lists.
    #[test]
    fn ledger_rated_by_matches_a_full_key_filter(ops in ledger_ops_strategy()) {
        let mut ledger = RatingLedger::new();
        let mut lifetime: BTreeMap<(u32, u32), ()> = BTreeMap::new();
        for (kind, i, j, v) in ops {
            match kind {
                0 => ledger.end_interval(),
                1 => {
                    ledger.reset_node(NodeId(i));
                    lifetime.retain(|&(a, b), _| a != i && b != i);
                }
                _ => {
                    ledger.record(&Rating::new(NodeId(i), NodeId(j), v));
                    lifetime.insert((i, j), ());
                }
            }
        }
        for rater in 0..10u32 {
            let expected: Vec<NodeId> = lifetime
                .keys()
                .filter(|(a, _)| *a == rater)
                .map(|&(_, b)| NodeId(b))
                .collect();
            prop_assert_eq!(ledger.rated_by(NodeId(rater)), expected);
        }
    }

    #[test]
    fn ebay_reputations_bounded_and_normalized(batch in ratings_strategy(12)) {
        let mut sys = EBayModel::new(12);
        for r in batch {
            sys.record(r);
        }
        sys.end_cycle();
        let reps = sys.reputations();
        prop_assert!(reps.iter().all(|&v| (0.0..=1.0).contains(&v)));
        let sum: f64 = reps.iter().sum();
        prop_assert!(sum == 0.0 || (sum - 1.0).abs() < 1e-9);
    }

    #[test]
    fn ebay_cycle_contribution_bounded_by_distinct_raters(batch in ratings_strategy(12)) {
        // Per cycle, |ΔR_i| ≤ number of distinct raters that rated i.
        let mut sys = EBayModel::new(12);
        let mut raters_per_ratee = std::collections::HashMap::<NodeId, std::collections::HashSet<NodeId>>::new();
        for r in &batch {
            sys.record(*r);
            raters_per_ratee.entry(r.ratee).or_default().insert(r.rater);
        }
        sys.end_cycle();
        for i in 0..12u32 {
            let bound = raters_per_ratee
                .get(&NodeId(i))
                .map(|s| s.len() as f64)
                .unwrap_or(0.0);
            prop_assert!(sys.raw_score(NodeId(i)).abs() <= bound + 1e-12);
        }
    }

    #[test]
    fn ledger_totals_match_recorded(batch in ratings_strategy(12)) {
        let mut ledger = RatingLedger::new();
        for r in &batch {
            ledger.record(r);
        }
        let recorded: u64 = ledger.interval_pairs().map(|(_, s)| s.count()).sum();
        prop_assert_eq!(recorded, batch.len() as u64);
        // Positive + negative counts match the batch's signs.
        let pos = batch.iter().filter(|r| r.value > 0.0).count() as u64;
        let posl: u64 = ledger.interval_pairs().map(|(_, s)| s.positive).sum();
        prop_assert_eq!(pos, posl);
    }

    #[test]
    fn ledger_interval_reset_preserves_lifetime(batch in ratings_strategy(8)) {
        let mut ledger = RatingLedger::new();
        for r in &batch {
            ledger.record(r);
        }
        let lifetime_before: Vec<_> = batch
            .iter()
            .map(|r| ledger.lifetime_stats(r.rater, r.ratee))
            .collect();
        ledger.end_interval();
        prop_assert_eq!(ledger.active_pair_count(), 0);
        for (r, before) in batch.iter().zip(lifetime_before) {
            prop_assert_eq!(ledger.lifetime_stats(r.rater, r.ratee), before);
        }
    }

    #[test]
    fn average_baseline_is_frequency_sensitive(k in 2u32..30) {
        // Invariant the ablation relies on: mean rating moves monotonically
        // with colluder rating count.
        let run = |count: u32| {
            let mut sys = SimpleAverage::new(3);
            sys.record(Rating::new(NodeId(0), NodeId(2), -1.0));
            for _ in 0..count {
                sys.record(Rating::new(NodeId(1), NodeId(2), 1.0));
            }
            sys.end_cycle();
            sys.mean_rating(NodeId(2))
        };
        prop_assert!(run(k) >= run(k - 1) - 1e-12);
    }
}
