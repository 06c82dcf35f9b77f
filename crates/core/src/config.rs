//! SocialTrust configuration: all thresholds of Section 4.3 plus the
//! closeness/similarity measurement modes of Section 4.4.

use serde::{Deserialize, Serialize};
use socialtrust_socnet::closeness::ClosenessConfig;

use crate::stats::OmegaStats;

/// Which Gaussian filter is applied to suspected ratings.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum AdjustmentMode {
    /// Eq. (6): closeness-only filter (ablation).
    ClosenessOnly,
    /// Eq. (8): similarity-only filter (ablation).
    SimilarityOnly,
    /// Eq. (9): the combined two-dimensional filter (the full mechanism).
    Combined,
}

/// How the per-rater Gaussian baselines (`Ω̄`, width) are obtained.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum BaselineMode {
    /// `Ω̄_i`, `maxΩ_i`, `minΩ_i` computed over the nodes the rater has
    /// rated (the default formulation of Eqs. (6)/(8)).
    PerRater,
    /// Replace per-rater statistics with empirical system-wide statistics
    /// of transaction pairs ("*we also can replace Ω̄ with the average Ω of
    /// a pair of transaction peers in the system based on the empirical
    /// result*").
    Empirical,
}

/// Full SocialTrust configuration.
///
/// Defaults correspond to the paper's experimental setup where stated, and
/// to conservative values otherwise. All thresholds are documented with the
/// behavior (B1–B4) they gate.
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct SocialTrustConfig {
    /// The Gaussian function parameter `α` (`a` in Eq. (5)); the paper's
    /// experiments use `1.0`.
    pub alpha: f64,
    /// Scale applied to the Gaussian width `|maxΩ − minΩ|` before use.
    /// The paper's `c` is the full range of observed coefficients; a σ that
    /// large makes the filter nearly flat (extreme values deviate by ≤ 1σ).
    /// The default `0.125` (σ = range/8) is calibrated so that a pair at
    /// the *opposite* extreme of the honest range — e.g. zero interest
    /// similarity against the Overstock mean of 0.423 — is damped to the
    /// sub-1% weights needed to beat EigenTrust's row normalization
    /// (a damped collusion edge must shrink relative to the rater's
    /// organic edges, not just in absolute value). `0.25` (the classic
    /// range rule `range ≈ 4σ`) and the literal `1.0` are explored in the
    /// `ablation_thresholds` experiment.
    pub width_scale: f64,
    /// Frequency scaling factor `θ > 1`: a pair's rating frequency is
    /// "high" when it exceeds `θ·F̄`, `F̄` being the system-average rating
    /// frequency in the interval.
    pub theta: f64,
    /// Absolute floor for the positive-rating frequency threshold `T⁺_t`.
    /// The effective threshold is `max(θ·F̄, positive_frequency_floor)` so
    /// that a near-idle system does not flag everyone.
    pub positive_frequency_floor: f64,
    /// Absolute floor for the negative-rating frequency threshold `T⁻_t`.
    pub negative_frequency_floor: f64,
    /// Low-reputation threshold `T_R` (B2: frequent positive ratings to a
    /// low-reputed, socially-close node). The paper's simulator uses `0.01`.
    pub low_reputation: f64,
    /// High-closeness threshold `T_cₕ` (B2), as a quantile-free absolute
    /// value on `Ωc`.
    pub closeness_high: f64,
    /// Low-closeness threshold `T_cₗ` (B1).
    pub closeness_low: f64,
    /// High-similarity threshold `T_sₕ` (B4).
    pub similarity_high: f64,
    /// Low-similarity threshold `T_sₗ` (B3).
    pub similarity_low: f64,
    /// Which Gaussian filter (Eq. (6), (8), or (9)) adjusts suspected
    /// ratings.
    pub adjustment_mode: AdjustmentMode,
    /// Where Gaussian baselines come from.
    pub baseline_mode: BaselineMode,
    /// Empirical closeness statistics used in [`BaselineMode::Empirical`]
    /// or as fallback when a rater has no history.
    pub empirical_closeness: OmegaStats,
    /// Empirical similarity statistics (the paper reports Overstock's
    /// 0.423 / 1 / 0.13 average/max/min).
    pub empirical_similarity: OmegaStats,
    /// Closeness measurement mode (plain Eq. (2) vs weighted Eq. (10)).
    pub closeness: ClosenessConfig,
    /// Use the request-weighted interest similarity of Eq. (11) instead of
    /// the declared-profile overlap of Eq. (7). Turns on the Section 4.4
    /// falsification resilience.
    pub weighted_similarity: bool,
    /// Suspicion hysteresis: once a pair is flagged, keep adjusting its
    /// ratings for this many further update intervals even if the
    /// detection conditions momentarily stop matching. Prevents boundary
    /// oscillation: B2 switches off the instant a boosted ratee's
    /// reputation crosses `T_R`, and without memory colluders can surf
    /// that edge (boost freely while above, get damped back below, repeat)
    /// and ratchet accumulated trust upward. `0` disables the memory.
    pub suspicion_memory: u64,
    /// Require the ratee to *also* frequently rate the rater back before
    /// applying B1–B3 (the strictly mutual reading of Section 4.3).
    ///
    /// The default is `false`: the one-directional reading is required for
    /// SocialTrust to counter MCM, where boosted nodes never rate back —
    /// and the paper's Figures 11–12 show that it does.
    pub require_mutual: bool,
}

impl Default for SocialTrustConfig {
    fn default() -> Self {
        SocialTrustConfig {
            alpha: 1.0,
            width_scale: 0.125,
            theta: 2.0,
            positive_frequency_floor: 5.0,
            negative_frequency_floor: 5.0,
            low_reputation: 0.01,
            closeness_high: 0.5,
            closeness_low: 0.05,
            similarity_high: 0.7,
            similarity_low: 0.2,
            adjustment_mode: AdjustmentMode::Combined,
            // Empirical (system-wide) baselines by default, per the paper's
            // own alternative ("we also can replace Ω̄ with the average Ω of
            // a pair of transaction peers in the system based on the
            // empirical result"). Per-rater statistics are available for
            // ablation but are easy for colluders to pollute: the rater's
            // own clique edges inflate its closeness spread, flattening the
            // Gaussian exactly where it should bite.
            baseline_mode: BaselineMode::Empirical,
            empirical_closeness: OmegaStats::new(0.3, 1.0, 0.0),
            empirical_similarity: OmegaStats::overstock_similarity(),
            closeness: ClosenessConfig::default(),
            weighted_similarity: false,
            suspicion_memory: 3,
            require_mutual: false,
        }
    }
}

impl SocialTrustConfig {
    /// The Section 4.4 hardened configuration: relationship-weighted
    /// closeness (Eq. (10), `λ = 0.8`) and request-weighted similarity
    /// (Eq. (11)). Use when colluders may falsify profiles.
    pub fn falsification_resilient() -> Self {
        SocialTrustConfig {
            closeness: ClosenessConfig::weighted(0.8),
            weighted_similarity: true,
            ..SocialTrustConfig::default()
        }
    }

    /// Calibrate the empirical Gaussian baselines from observed
    /// transaction pairs — the paper's own procedure: *"we also can replace
    /// Ω̄ with the average Ω of a pair of transaction peers in the system
    /// based on the empirical result"* (its Overstock numbers: similarity
    /// mean 0.423, max 1, min 0.13).
    ///
    /// Feed it the honest transaction pairs observed in a trace (or an
    /// early, collusion-light measurement window); pairs are measured with
    /// this config's closeness/similarity modes. Returns how many pairs
    /// were used. No-op (returns 0) when `pairs` is empty.
    pub fn calibrate_empirical(
        &mut self,
        ctx: &crate::context::SocialContext,
        pairs: &[(socialtrust_socnet::NodeId, socialtrust_socnet::NodeId)],
    ) -> usize {
        if pairs.is_empty() {
            return 0;
        }
        let snapshot = ctx.snapshot(self.closeness);
        let closeness = snapshot.closeness_for_pairs(pairs);
        let similarity: Vec<f64> = pairs
            .iter()
            .map(|&(a, b)| snapshot.interest_similarity(a, b, self.weighted_similarity))
            .collect();
        if let Some(stats) = OmegaStats::from_values(&closeness) {
            self.empirical_closeness = stats;
        }
        if let Some(stats) = OmegaStats::from_values(&similarity) {
            self.empirical_similarity = stats;
        }
        pairs.len()
    }

    /// The effective positive frequency threshold `T⁺_t` for an interval
    /// with average rating frequency `mean_frequency` (`F̄`).
    pub fn positive_threshold(&self, mean_frequency: f64) -> f64 {
        (self.theta * mean_frequency).max(self.positive_frequency_floor)
    }

    /// The effective negative frequency threshold `T⁻_t`.
    pub fn negative_threshold(&self, mean_frequency: f64) -> f64 {
        (self.theta * mean_frequency).max(self.negative_frequency_floor)
    }

    /// Validate internal consistency. Call after hand-building configs.
    ///
    /// # Panics
    /// Panics on out-of-range parameters.
    pub fn validate(&self) {
        assert!(self.alpha > 0.0, "α must be positive");
        assert!(
            self.width_scale > 0.0 && self.width_scale <= 1.0,
            "width scale must be in (0, 1]"
        );
        assert!(self.theta > 1.0, "θ must exceed 1");
        assert!(
            self.closeness_low <= self.closeness_high,
            "T_cl must not exceed T_ch"
        );
        assert!(
            self.similarity_low <= self.similarity_high,
            "T_sl must not exceed T_sh"
        );
        assert!(
            (0.0..=1.0).contains(&self.low_reputation),
            "T_R must be in [0,1]"
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_config_is_valid() {
        SocialTrustConfig::default().validate();
    }

    #[test]
    fn resilient_config_enables_weighted_modes() {
        let c = SocialTrustConfig::falsification_resilient();
        c.validate();
        assert!(c.weighted_similarity);
        assert!(c.closeness.weighted_relationships);
    }

    #[test]
    fn thresholds_scale_with_mean_frequency() {
        let c = SocialTrustConfig::default();
        // θ·F̄ dominates when traffic is heavy…
        assert_eq!(c.positive_threshold(10.0), 20.0);
        // …and the floor protects a quiet system.
        assert_eq!(c.positive_threshold(0.1), c.positive_frequency_floor);
        assert_eq!(c.negative_threshold(4.0), 8.0);
    }

    #[test]
    fn calibrate_empirical_from_observed_pairs() {
        use crate::context::SocialContext;
        use socialtrust_socnet::interest::InterestId;
        use socialtrust_socnet::relationship::Relationship;
        use socialtrust_socnet::NodeId;

        let mut ctx = SocialContext::new(4, 8);
        ctx.graph_mut()
            .add_relationship(NodeId(0), NodeId(1), Relationship::friendship());
        ctx.record_interaction(NodeId(0), NodeId(1), 4.0);
        for n in [0u32, 1, 2] {
            ctx.profile_mut(NodeId(n))
                .declared_mut()
                .insert(InterestId(1));
        }
        let mut cfg = SocialTrustConfig::default();
        let used = cfg.calibrate_empirical(&ctx, &[(NodeId(0), NodeId(1)), (NodeId(0), NodeId(2))]);
        assert_eq!(used, 2);
        // Closeness observations: Ωc(0,1)=1 (adjacent), Ωc(0,2)=0.
        assert!((cfg.empirical_closeness.mean - 0.5).abs() < 1e-9);
        assert_eq!(cfg.empirical_closeness.max, 1.0);
        assert_eq!(cfg.empirical_closeness.min, 0.0);
        // Similarity observations: 1.0 for both pairs (shared interest 1).
        assert!((cfg.empirical_similarity.mean - 1.0).abs() < 1e-9);
        cfg.validate();
        // Empty input is a no-op.
        let before = cfg.empirical_closeness;
        assert_eq!(cfg.calibrate_empirical(&ctx, &[]), 0);
        assert_eq!(cfg.empirical_closeness, before);
    }

    #[test]
    #[should_panic(expected = "θ must exceed 1")]
    fn validate_rejects_bad_theta() {
        let c = SocialTrustConfig {
            theta: 0.5,
            ..SocialTrustConfig::default()
        };
        c.validate();
    }
}
