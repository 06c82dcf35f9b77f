//! Scenario runners: build the world, pick a reputation system, run it —
//! once or many times in parallel.

use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use rayon::prelude::*;
use serde::{Deserialize, Serialize};
use socialtrust_core::config::SocialTrustConfig;
use socialtrust_core::decorator::WithSocialTrust;
use socialtrust_core::manager::ManagedSocialTrust;
use socialtrust_reputation::average::SimpleAverage;
use socialtrust_reputation::ebay::EBayModel;
use socialtrust_reputation::eigentrust::EigenTrust;
use socialtrust_reputation::feedback_similarity::FeedbackSimilarity;
use socialtrust_reputation::power_trust::PowerTrust;
use socialtrust_reputation::system::ReputationSystem;
use socialtrust_telemetry::Telemetry;

use crate::build::SimWorld;
use crate::engine;
use crate::metrics::{MultiRunSummary, RunResult};
use crate::scenario::ScenarioConfig;

/// Which reputation system to run the scenario against.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum ReputationKind {
    /// Plain EigenTrust (pre-trusted weight 0.5, as in the paper).
    EigenTrust,
    /// Plain eBay-style accumulation.
    EBay,
    /// Naive mean-rating baseline (ablation only).
    SimpleAverage,
    /// TrustGuard-style feedback-similarity credibility baseline (no
    /// social information; ablation comparator).
    FeedbackSimilarity,
    /// PowerTrust-style engine with dynamically-elected power nodes
    /// (ablation comparator).
    PowerTrust,
    /// EigenTrust wrapped with SocialTrust.
    EigenTrustWithSocialTrust,
    /// eBay wrapped with SocialTrust.
    EBayWithSocialTrust,
    /// EigenTrust + SocialTrust in the distributed (resource-manager)
    /// deployment. Result-identical to the centralized variant; adds
    /// overhead accounting.
    EigenTrustWithSocialTrustDistributed,
}

impl ReputationKind {
    /// All kinds, for exhaustive sweeps.
    pub const ALL: [ReputationKind; 8] = [
        ReputationKind::EigenTrust,
        ReputationKind::EBay,
        ReputationKind::SimpleAverage,
        ReputationKind::FeedbackSimilarity,
        ReputationKind::PowerTrust,
        ReputationKind::EigenTrustWithSocialTrust,
        ReputationKind::EBayWithSocialTrust,
        ReputationKind::EigenTrustWithSocialTrustDistributed,
    ];

    /// Does this kind include the SocialTrust layer?
    pub fn has_socialtrust(self) -> bool {
        matches!(
            self,
            ReputationKind::EigenTrustWithSocialTrust
                | ReputationKind::EBayWithSocialTrust
                | ReputationKind::EigenTrustWithSocialTrustDistributed
        )
    }
}

impl std::fmt::Display for ReputationKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            ReputationKind::EigenTrust => "EigenTrust",
            ReputationKind::EBay => "eBay",
            ReputationKind::SimpleAverage => "SimpleAverage",
            ReputationKind::FeedbackSimilarity => "FeedbackSimilarity",
            ReputationKind::PowerTrust => "PowerTrust",
            ReputationKind::EigenTrustWithSocialTrust => "EigenTrust+SocialTrust",
            ReputationKind::EBayWithSocialTrust => "eBay+SocialTrust",
            ReputationKind::EigenTrustWithSocialTrustDistributed => {
                "EigenTrust+SocialTrust (distributed)"
            }
        };
        f.write_str(s)
    }
}

/// The SocialTrust configuration a scenario calls for: the hardened
/// Section 4.4 mode when colluders falsify social information, the default
/// mode otherwise.
pub fn socialtrust_config_for(scenario: &ScenarioConfig) -> SocialTrustConfig {
    let mut cfg = if scenario.falsified_social_info {
        SocialTrustConfig::falsification_resilient()
    } else {
        SocialTrustConfig::default()
    };
    // The paper uses a single T_R both for server selection and for the
    // B2 "low-reputed ratee" test; keep them in sync when the scenario
    // scales the selection threshold to its network size.
    cfg.low_reputation = scenario.selection_reputation_threshold;
    cfg
}

/// Instantiate the reputation system for a built world.
pub fn make_system(
    kind: ReputationKind,
    scenario: &ScenarioConfig,
    world: &SimWorld,
) -> Box<dyn ReputationSystem> {
    let n = scenario.nodes;
    let pretrusted = scenario.pretrusted_ids();
    let st_config = socialtrust_config_for(scenario);
    match kind {
        ReputationKind::EigenTrust => Box::new(EigenTrust::with_defaults(n, &pretrusted)),
        ReputationKind::EBay => Box::new(EBayModel::new(n)),
        ReputationKind::SimpleAverage => Box::new(SimpleAverage::new(n)),
        ReputationKind::FeedbackSimilarity => Box::new(FeedbackSimilarity::new(n)),
        ReputationKind::PowerTrust => Box::new(PowerTrust::with_defaults(n)),
        ReputationKind::EigenTrustWithSocialTrust => Box::new(WithSocialTrust::new(
            EigenTrust::with_defaults(n, &pretrusted),
            world.ctx.clone(),
            st_config,
        )),
        ReputationKind::EBayWithSocialTrust => Box::new(WithSocialTrust::new(
            EBayModel::new(n),
            world.ctx.clone(),
            st_config,
        )),
        ReputationKind::EigenTrustWithSocialTrustDistributed => Box::new(ManagedSocialTrust::new(
            EigenTrust::with_defaults(n, &pretrusted),
            world.ctx.clone(),
            st_config,
            (n / 10).max(1),
        )),
    }
}

/// Run one seeded simulation of `scenario` under `kind`.
///
/// The seed controls world generation *and* simulation randomness, so a
/// `(scenario, kind, seed)` triple is fully reproducible.
pub fn run_scenario(scenario: &ScenarioConfig, kind: ReputationKind, seed: u64) -> RunResult {
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let world = SimWorld::build(scenario, &mut rng);
    let mut system = make_system(kind, scenario, &world);
    engine::run(&world, scenario, system.as_mut(), &mut rng)
}

/// [`run_scenario`], with every layer wired to `telemetry`: the world's
/// social context (snapshot rebuild/patch counters and rebuild events),
/// the reputation stack (detector trigger counters, Gaussian/update
/// latency, EigenTrust convergence), and the engine loop's per-cycle wall
/// time. Results are identical to [`run_scenario`] for the same
/// `(scenario, kind, seed)` — instrumentation never touches the
/// simulation's randomness or arithmetic.
pub fn run_scenario_with_telemetry(
    scenario: &ScenarioConfig,
    kind: ReputationKind,
    seed: u64,
    telemetry: &Telemetry,
) -> RunResult {
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let world = SimWorld::build(scenario, &mut rng);
    world.ctx.write().attach_telemetry(telemetry);
    let mut system = make_system(kind, scenario, &world);
    system.attach_telemetry(telemetry);
    engine::run_with_telemetry(&world, scenario, system.as_mut(), &mut rng, telemetry)
}

/// [`run_scenario_multi`], attaching every run to the same `telemetry`
/// bundle. Runs execute *sequentially* (unlike the plain multi runner):
/// counters and histograms aggregate across runs, gauges reflect the last
/// run, and events interleave in run order.
pub fn run_scenario_multi_with_telemetry(
    scenario: &ScenarioConfig,
    kind: ReputationKind,
    base_seed: u64,
    runs: usize,
    telemetry: &Telemetry,
) -> MultiRunSummary {
    assert!(runs > 0, "need at least one run");
    let results: Vec<RunResult> = (0..runs as u64)
        .map(|i| run_scenario_with_telemetry(scenario, kind, base_seed + i, telemetry))
        .collect();
    MultiRunSummary::from_runs(results)
}

/// Run `runs` seeded simulations in parallel (seeds `base_seed..base_seed +
/// runs`) and aggregate. The paper runs each experiment 5 times and reports
/// the average with a 95% confidence interval.
pub fn run_scenario_multi(
    scenario: &ScenarioConfig,
    kind: ReputationKind,
    base_seed: u64,
    runs: usize,
) -> MultiRunSummary {
    assert!(runs > 0, "need at least one run");
    let results: Vec<RunResult> = (0..runs as u64)
        .into_par_iter()
        .map(|i| run_scenario(scenario, kind, base_seed + i))
        .collect();
    MultiRunSummary::from_runs(results)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::collusion::CollusionModel;

    #[test]
    fn kinds_display_names() {
        assert_eq!(ReputationKind::EigenTrust.to_string(), "EigenTrust");
        assert_eq!(
            ReputationKind::EBayWithSocialTrust.to_string(),
            "eBay+SocialTrust"
        );
        assert!(ReputationKind::EigenTrustWithSocialTrust.has_socialtrust());
        assert!(!ReputationKind::EBay.has_socialtrust());
    }

    #[test]
    fn run_scenario_is_reproducible() {
        let s = ScenarioConfig::small().with_cycles(3);
        let r1 = run_scenario(&s, ReputationKind::EigenTrust, 42);
        let r2 = run_scenario(&s, ReputationKind::EigenTrust, 42);
        assert_eq!(r1.final_summary, r2.final_summary);
    }

    #[test]
    fn multi_run_aggregates_across_seeds() {
        let s = ScenarioConfig::small().with_cycles(3);
        let m = run_scenario_multi(&s, ReputationKind::EBay, 1, 3);
        assert_eq!(m.runs.len(), 3);
        assert_eq!(m.mean_reputation.len(), s.nodes);
        // Seeds differ ⇒ at least some CI half-widths are positive.
        assert!(m.ci95_reputation.iter().any(|&c| c > 0.0));
    }

    #[test]
    fn socialtrust_kinds_flag_suspicions_under_collusion() {
        let s = ScenarioConfig::small()
            .with_collusion(CollusionModel::PairWise)
            .with_cycles(5);
        let r = run_scenario(&s, ReputationKind::EigenTrustWithSocialTrust, 7);
        assert!(
            r.suspicions_flagged > 0,
            "SocialTrust must flag the colluding pairs"
        );
        assert!(r.ratings_adjusted > 0);
    }

    #[test]
    fn plain_kinds_report_zero_adjustments() {
        let s = ScenarioConfig::small()
            .with_collusion(CollusionModel::PairWise)
            .with_cycles(3);
        let r = run_scenario(&s, ReputationKind::EigenTrust, 7);
        assert_eq!(r.suspicions_flagged, 0);
        assert_eq!(r.ratings_adjusted, 0);
    }

    #[test]
    fn falsified_scenario_selects_hardened_config() {
        let s = ScenarioConfig::small().with_falsified_social_info(true);
        let cfg = socialtrust_config_for(&s);
        assert!(cfg.weighted_similarity);
        assert!(cfg.closeness.weighted_relationships);
        let cfg_plain = socialtrust_config_for(&ScenarioConfig::small());
        assert!(!cfg_plain.weighted_similarity);
    }

    #[test]
    fn telemetry_run_is_result_identical_and_populates_registry() {
        let s = ScenarioConfig::small()
            .with_collusion(CollusionModel::PairWise)
            .with_cycles(3);
        let plain = run_scenario(&s, ReputationKind::EigenTrustWithSocialTrust, 7);
        let telemetry = Telemetry::new();
        let instrumented = run_scenario_with_telemetry(
            &s,
            ReputationKind::EigenTrustWithSocialTrust,
            7,
            &telemetry,
        );
        assert_eq!(plain.final_summary, instrumented.final_summary);
        assert_eq!(plain.requests_total, instrumented.requests_total);

        let snap = telemetry.registry().snapshot();
        // Per-cycle spans: one observation per simulation cycle.
        for name in [
            "sim_cycle_seconds",
            "sim_query_phase_seconds",
            "sim_update_phase_seconds",
        ] {
            assert_eq!(
                snap.histogram(name).expect(name).count,
                s.sim_cycles as u64,
                "{name}"
            );
        }
        // Detector and EigenTrust layers flow into the same registry.
        assert!(snap.counter("detector_suspicions_total") > 0);
        assert!(snap.gauge("eigentrust_iterations").is_some());
        // Per-cycle records surfaced in the result.
        assert_eq!(instrumented.convergence.len(), s.sim_cycles);
        assert!(instrumented.final_convergence().is_some());
    }

    #[test]
    fn multi_run_with_telemetry_aggregates() {
        let s = ScenarioConfig::small().with_cycles(2);
        let telemetry = Telemetry::new();
        let m = run_scenario_multi_with_telemetry(&s, ReputationKind::EigenTrust, 1, 2, &telemetry);
        assert_eq!(m.runs.len(), 2);
        let snap = telemetry.registry().snapshot();
        // 2 runs × 2 cycles = 4 cycle spans on the shared registry.
        assert_eq!(snap.histogram("sim_cycle_seconds").unwrap().count, 4);
        assert!(m.final_convergence_stats().is_some());
    }

    #[test]
    fn distributed_kind_matches_centralized_results() {
        let s = ScenarioConfig::small()
            .with_collusion(CollusionModel::MultiMutual)
            .with_cycles(4);
        let central = run_scenario(&s, ReputationKind::EigenTrustWithSocialTrust, 11);
        let distributed =
            run_scenario(&s, ReputationKind::EigenTrustWithSocialTrustDistributed, 11);
        assert_eq!(central.final_summary, distributed.final_summary);
    }
}
