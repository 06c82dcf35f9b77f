//! Property-based tests for the SocialTrust core.

use proptest::prelude::*;
use socialtrust_core::config::{AdjustmentMode, SocialTrustConfig};
use socialtrust_core::context::{SharedSocialContext, SocialContext};
use socialtrust_core::decorator::WithSocialTrust;
use socialtrust_core::gaussian::{adjustment_weight, combined_weight, gaussian};
use socialtrust_core::stats::OmegaStats;
use socialtrust_reputation::prelude::*;
use socialtrust_socnet::NodeId;

fn stats_strategy() -> impl Strategy<Value = OmegaStats> {
    (0.0f64..2.0, 0.0f64..2.0, 0.0f64..2.0).prop_map(|(a, b, c)| {
        let mut v = [a, b, c];
        v.sort_by(|x, y| x.partial_cmp(y).unwrap());
        OmegaStats::new((v[0] + v[1] + v[2]) / 3.0, v[2], v[0])
    })
}

proptest! {
    #[test]
    fn gaussian_bounded_by_a(x in -5.0f64..5.0, b in -2.0f64..2.0, c in 0.0f64..3.0, a in 0.01f64..3.0) {
        let v = gaussian(x, a, b, c);
        prop_assert!((0.0..=a + 1e-12).contains(&v));
        prop_assert!(v.is_finite());
    }

    #[test]
    fn gaussian_maximal_at_center(b in -2.0f64..2.0, c in 0.01f64..3.0, dx in -3.0f64..3.0) {
        let at_center = gaussian(b, 1.0, b, c);
        let elsewhere = gaussian(b + dx, 1.0, b, c);
        prop_assert!(elsewhere <= at_center + 1e-12);
    }

    #[test]
    fn adjustment_weight_never_amplifies(omega in -1.0f64..5.0, stats in stats_strategy(), alpha in 0.1f64..1.0) {
        let w = adjustment_weight(omega, &stats, alpha);
        prop_assert!((0.0..=alpha + 1e-12).contains(&w));
    }

    #[test]
    fn combined_weight_bounded_and_below_each_component(
        oc in 0.0f64..3.0,
        os in 0.0f64..1.0,
        sc in stats_strategy(),
        ss in stats_strategy(),
    ) {
        let w = combined_weight(oc, &sc, os, &ss, 1.0);
        prop_assert!((0.0..=1.0).contains(&w));
        // e^{-(x+y)} ≤ min(e^{-x}, e^{-y}): the combined filter is at least
        // as strict as either single-dimension filter.
        let wc = adjustment_weight(oc, &sc, 1.0);
        let ws = adjustment_weight(os, &ss, 1.0);
        prop_assert!(w <= wc.min(ws) + 1e-12);
    }

    /// Whatever the rating pattern, the decorator must (a) never raise the
    /// magnitude of any rating, (b) keep the inner system's reputation
    /// vector a valid distribution.
    #[test]
    fn decorator_preserves_reputation_invariants(
        flood in 0usize..60,
        organic in proptest::collection::vec((0u32..8, 0u32..8), 0..25),
        mode_idx in 0usize..3,
    ) {
        let mode = [AdjustmentMode::ClosenessOnly, AdjustmentMode::SimilarityOnly, AdjustmentMode::Combined][mode_idx];
        let cfg = SocialTrustConfig { adjustment_mode: mode, ..SocialTrustConfig::default() };
        let ctx = SharedSocialContext::new(SocialContext::new(8, 10));
        let mut sys = WithSocialTrust::new(
            EigenTrust::with_defaults(8, &[NodeId(0)]),
            ctx,
            cfg,
        );
        for (a, b) in organic {
            if a != b {
                sys.record(Rating::new(NodeId(a), NodeId(b), 1.0));
            }
        }
        for _ in 0..flood {
            sys.record(Rating::new(NodeId(6), NodeId(7), 1.0));
        }
        sys.end_cycle();
        let reps = sys.reputations();
        prop_assert!(reps.iter().all(|&v| v >= -1e-12 && v.is_finite()));
        let sum: f64 = reps.iter().sum();
        prop_assert!((sum - 1.0).abs() < 1e-6);
        for &(_, w) in sys.last_weights() {
            prop_assert!((0.0..=1.0 + 1e-12).contains(&w));
        }
    }

    /// With no suspicious pairs, the decorator must be a transparent
    /// pass-through for any inner system.
    #[test]
    fn decorator_transparent_on_light_traffic(
        pairs in proptest::collection::vec((0u32..6, 0u32..6), 0..10),
    ) {
        let ctx = SharedSocialContext::new(SocialContext::new(6, 10));
        let mut guarded = WithSocialTrust::new(EBayModel::new(6), ctx, SocialTrustConfig::default());
        let mut plain = EBayModel::new(6);
        // Each pair rates at most a couple of times: under every floor.
        for (a, b) in pairs {
            if a != b {
                guarded.record(Rating::new(NodeId(a), NodeId(b), 1.0));
                plain.record(Rating::new(NodeId(a), NodeId(b), 1.0));
            }
        }
        guarded.end_cycle();
        plain.end_cycle();
        prop_assert_eq!(guarded.reputations(), plain.reputations());
    }

    /// The context's snapshot closeness/similarity must agree bit-for-bit
    /// with direct computation, including after mutations that refresh the
    /// snapshot mid-stream.
    #[test]
    fn context_snapshot_agrees_with_direct_computation(
        edges in proptest::collection::vec((0u32..8, 0u32..8), 1..20),
        interactions in proptest::collection::vec((0u32..8, 0u32..8, 1u32..10), 1..20),
        extra in (0u32..8, 0u32..8),
    ) {
        use socialtrust_socnet::closeness::{ClosenessConfig, ClosenessModel};
        use socialtrust_socnet::interest::similarity;
        use socialtrust_socnet::relationship::Relationship;

        let mut ctx = SocialContext::new(8, 10);
        for &(a, b) in &edges {
            if a != b {
                ctx.graph_mut().add_relationship(NodeId(a), NodeId(b), Relationship::friendship());
            }
        }
        for &(a, b, f) in &interactions {
            if a != b {
                ctx.record_interaction(NodeId(a), NodeId(b), f as f64);
            }
        }
        let config = ClosenessConfig::default();
        let check = |ctx: &SocialContext| -> Result<(), TestCaseError> {
            let model = ClosenessModel::new(ctx.graph(), ctx.interactions(), config);
            let snap = ctx.snapshot(config);
            for i in 0..8u32 {
                for j in 0..8u32 {
                    let (a, b) = (NodeId(i), NodeId(j));
                    prop_assert_eq!(
                        snap.closeness(a, b).to_bits(),
                        model.closeness(a, b).to_bits()
                    );
                    prop_assert_eq!(
                        snap.interest_similarity(a, b, false).to_bits(),
                        similarity(ctx.profile(a).declared(), ctx.profile(b).declared()).to_bits()
                    );
                }
            }
            Ok(())
        };
        check(&ctx)?;
        // Mutate through the context and re-check: the snapshot must refresh.
        let (a, b) = (NodeId(extra.0), NodeId(extra.1));
        if a != b {
            ctx.graph_mut().add_relationship(a, b, Relationship::kinship());
            ctx.record_interaction(a, b, 3.0);
        }
        check(&ctx)?;
    }
}
