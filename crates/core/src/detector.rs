//! Detection of the suspicious collusion behaviors B1–B4 (Section 4.3).
//!
//! The Overstock trace analysis (Section 3 of the paper) identifies four
//! behavior patterns that almost never occur organically:
//!
//! * **B1** — users with *long social distance* rate each other with high
//!   ratings and high frequency;
//! * **B2** — a user frequently rates a *low-reputed, socially-close* user
//!   with high ratings;
//! * **B3** — users with *few common interests* rate each other with high
//!   ratings and high frequency;
//! * **B4** — a buyer frequently rates a seller with *many common
//!   interests* with **low** ratings (competitor suppression).
//!
//! Detection is gated on rating frequency: a pair becomes suspect only when
//! its positive (`t⁺(i,j)`) or negative (`t⁻(i,j)`) rating count in the
//! current update interval exceeds `T⁺_t` / `T⁻_t` (derived from `θ·F̄`).

use serde::{Deserialize, Serialize};
use socialtrust_reputation::rating::RatingLedger;
use socialtrust_socnet::snapshot::GraphSnapshot;
use socialtrust_socnet::NodeId;
use socialtrust_telemetry::{
    trace::names as trace_names, Counter, Histogram, SpanHandle, Telemetry,
};

use crate::config::SocialTrustConfig;
use crate::context::SocialContext;

/// Which suspicious behavior pattern a pair matched.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum SuspicionReason {
    /// B1: high-frequency positive ratings across a long social distance
    /// (`Ωc < T_cl`).
    B1DistantFrequentPositive,
    /// B2: high-frequency positive ratings to a socially-close
    /// (`Ωc > T_ch`) but low-reputed (`R < T_R`) node.
    B2CloseLowReputed,
    /// B3: high-frequency positive ratings despite few common interests
    /// (`Ωs < T_sl`).
    B3DissimilarFrequentPositive,
    /// B4: high-frequency negative ratings despite many common interests
    /// (`Ωs > T_sh`) — likely competitor suppression.
    B4SimilarFrequentNegative,
}

impl SuspicionReason {
    /// The short behavior tag (`"B1"`–`"B4"`) used in metric names and
    /// telemetry events.
    pub fn code(self) -> &'static str {
        match self {
            SuspicionReason::B1DistantFrequentPositive => "B1",
            SuspicionReason::B2CloseLowReputed => "B2",
            SuspicionReason::B3DissimilarFrequentPositive => "B3",
            SuspicionReason::B4SimilarFrequentNegative => "B4",
        }
    }
}

/// Registry-backed detector instrumentation: per-behavior trigger
/// counters, a total-suspicions counter, and the detect latency histogram.
///
/// Kept separate from [`Detector`] (which stays `Copy`) and passed into
/// [`Detector::detect_all_with_metrics`] by the caller that owns the
/// telemetry wiring (the SocialTrust decorator).
#[derive(Debug, Clone)]
pub struct DetectorMetrics {
    /// `detector_b1_triggers_total` … `detector_b4_triggers_total`,
    /// indexed by behavior (a suspicion matching several behaviors bumps
    /// each one).
    behavior_triggers: [Counter; 4],
    /// `detector_suspicions_total`: flagged rater→ratee pairs.
    suspicions: Counter,
    /// `detect_seconds`: wall time of each full [`Detector::detect_all`]
    /// pass.
    detect_seconds: Histogram,
}

impl DetectorMetrics {
    /// Registers the detector metric family on `telemetry`'s registry.
    pub fn new(telemetry: &Telemetry) -> Self {
        let registry = telemetry.registry();
        DetectorMetrics {
            behavior_triggers: [
                registry.counter("detector_b1_triggers_total"),
                registry.counter("detector_b2_triggers_total"),
                registry.counter("detector_b3_triggers_total"),
                registry.counter("detector_b4_triggers_total"),
            ],
            suspicions: registry.counter("detector_suspicions_total"),
            detect_seconds: registry.histogram("detect_seconds"),
        }
    }

    /// Records one completed detection pass.
    pub fn observe(&self, suspicions: &[Suspicion], elapsed_seconds: f64) {
        self.detect_seconds.observe(elapsed_seconds);
        self.suspicions.add(suspicions.len() as u64);
        for s in suspicions {
            for reason in &s.reasons {
                let idx = match reason {
                    SuspicionReason::B1DistantFrequentPositive => 0,
                    SuspicionReason::B2CloseLowReputed => 1,
                    SuspicionReason::B3DissimilarFrequentPositive => 2,
                    SuspicionReason::B4SimilarFrequentNegative => 3,
                };
                self.behavior_triggers[idx].inc();
            }
        }
    }
}

/// One flagged rater→ratee pair, with the social coefficients that
/// triggered it.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Suspicion {
    /// The suspected colluding rater.
    pub rater: NodeId,
    /// The node receiving the suspect ratings.
    pub ratee: NodeId,
    /// All matched behavior patterns (at least one).
    pub reasons: Vec<SuspicionReason>,
    /// Social closeness `Ωc(rater, ratee)` at detection time.
    pub omega_c: f64,
    /// Interest similarity `Ωs(rater, ratee)` at detection time.
    pub omega_s: f64,
}

/// The B1–B4 detector.
#[derive(Debug, Clone, Copy)]
pub struct Detector {
    config: SocialTrustConfig,
}

impl Detector {
    /// A detector with the given configuration.
    pub fn new(config: SocialTrustConfig) -> Self {
        config.validate();
        Detector { config }
    }

    /// The configuration in use.
    pub fn config(&self) -> &SocialTrustConfig {
        &self.config
    }

    /// Inspect one rater→ratee pair. Returns a [`Suspicion`] when the
    /// pair's interval rating frequency is high *and* its social
    /// coefficients match one of B1–B4; `None` otherwise.
    ///
    /// `ratee_reputation` is the ratee's global reputation from the
    /// previous update (used by B2's `R < T_R` test); `rater_reputation`
    /// feeds the *mutual* B2 reading from Section 4.3 (*"If t⁺(j,i) > T⁺_t,
    /// which means n_j also frequently rates n_i…"*) — when a socially-close
    /// pair rates each other frequently and **either** side is low-reputed,
    /// both directions are suspect. This is what catches the
    /// colluder→compromised-pretrusted half of a bribed pair, whose ratee
    /// is (still) high-reputed.
    ///
    /// `Ωc`/`Ωs` are read through [`SocialContext::snapshot`], so a pair
    /// gets the same verdict here as in [`Detector::detect_all`].
    pub fn inspect_pair(
        &self,
        ctx: &SocialContext,
        ledger: &RatingLedger,
        rater: NodeId,
        ratee: NodeId,
        rater_reputation: f64,
        ratee_reputation: f64,
    ) -> Option<Suspicion> {
        self.inspect(
            &ctx.snapshot(self.config.closeness),
            ledger,
            rater,
            ratee,
            rater_reputation,
            ratee_reputation,
            ledger.average_rating_frequency(),
        )
    }

    /// [`Detector::inspect_pair`] against a frozen [`GraphSnapshot`] with
    /// the system-wide mean rating frequency `F̄` precomputed. `F̄` is a
    /// property of the whole interval, not of the pair, so
    /// [`Detector::detect_all`] computes it once and passes it, with one
    /// snapshot, to every pair inspection. The social coefficients are
    /// only read once the pair passes the rating-frequency gate.
    #[allow(clippy::too_many_arguments)]
    fn inspect(
        &self,
        snapshot: &GraphSnapshot,
        ledger: &RatingLedger,
        rater: NodeId,
        ratee: NodeId,
        rater_reputation: f64,
        ratee_reputation: f64,
        mean_freq: f64,
    ) -> Option<Suspicion> {
        let stats = ledger.interval_stats(rater, ratee);
        if stats.count() == 0 {
            return None;
        }
        let t_pos = self.config.positive_threshold(mean_freq);
        let t_neg = self.config.negative_threshold(mean_freq);

        let mut frequent_positive = stats.positive as f64 > t_pos;
        let frequent_negative = stats.negative as f64 > t_neg;
        // "Does the ratee also frequently rate the rater back?" — needed by
        // both the strictly-mutual gate and the mutual B2 reading, so the
        // reverse ledger entry is fetched exactly once.
        let back_frequent_positive =
            frequent_positive && ledger.interval_stats(ratee, rater).positive as f64 > t_pos;
        if self.config.require_mutual {
            // Strictly mutual reading: the ratee must also frequently rate
            // the rater back.
            frequent_positive = back_frequent_positive;
        }
        if !frequent_positive && !frequent_negative {
            return None;
        }

        let omega_c = snapshot.closeness(rater, ratee);
        let omega_s = snapshot.interest_similarity(rater, ratee, self.config.weighted_similarity);
        let mut reasons = Vec::new();
        if frequent_positive {
            if omega_c < self.config.closeness_low {
                reasons.push(SuspicionReason::B1DistantFrequentPositive);
            }
            if omega_c > self.config.closeness_high {
                // Direct B2: the ratee is low-reputed. Mutual B2: the pair
                // frequently rates each other and the *rater* is the
                // low-reputed half (a colluder propping up its compromised
                // pre-trusted partner).
                if ratee_reputation < self.config.low_reputation
                    || (back_frequent_positive && rater_reputation < self.config.low_reputation)
                {
                    reasons.push(SuspicionReason::B2CloseLowReputed);
                }
            }
            if omega_s < self.config.similarity_low {
                reasons.push(SuspicionReason::B3DissimilarFrequentPositive);
            }
        }
        if frequent_negative && omega_s > self.config.similarity_high {
            reasons.push(SuspicionReason::B4SimilarFrequentNegative);
        }
        if reasons.is_empty() {
            None
        } else {
            Some(Suspicion {
                rater,
                ratee,
                reasons,
                omega_c,
                omega_s,
            })
        }
    }

    /// Inspect every pair active in the current ledger interval.
    /// `reputations` is the global reputation vector from the previous
    /// update (indexed by node).
    ///
    /// Pairs are independent, so they are inspected in parallel with rayon;
    /// the system-wide mean rating frequency `F̄` is computed once for the
    /// whole interval, and the social coefficients are served from **one**
    /// epoch-validated [`GraphSnapshot`] acquired at the start of the pass
    /// ([`SocialContext::snapshot`]): flat CSR adjacency, per-edge
    /// frequencies, bitset interest similarity, and thread-local BFS
    /// scratch for the Eq. (4) fallbacks — no lock traffic and no
    /// mid-pass epoch drift. The snapshot refreshes incrementally from the
    /// graph/tracker dirty logs, so across update intervals only the rows
    /// of actually-mutated nodes are repatched. The result is sorted by
    /// `(rater, ratee)`, so the output is deterministic regardless of the
    /// parallel schedule.
    pub fn detect_all(
        &self,
        ctx: &SocialContext,
        ledger: &RatingLedger,
        reputations: &[f64],
    ) -> Vec<Suspicion> {
        self.detect_all_with_metrics(ctx, ledger, reputations, None)
    }

    /// [`Detector::detect_all`] with optional instrumentation: when
    /// `metrics` is present, the pass's wall time lands in
    /// `detect_seconds` and the per-behavior / total-suspicion counters
    /// are bumped.
    pub fn detect_all_with_metrics(
        &self,
        ctx: &SocialContext,
        ledger: &RatingLedger,
        reputations: &[f64],
        metrics: Option<&DetectorMetrics>,
    ) -> Vec<Suspicion> {
        self.detect_all_with_observability(ctx, ledger, reputations, metrics, None)
    }

    /// [`Detector::detect_all_with_metrics`] plus decision provenance:
    /// when `span` is the live `detect_all` trace span, one
    /// `detector_verdict` child span is recorded per flagged pair,
    /// carrying the exact threshold comparisons of Section 4.3 — the
    /// interval frequencies `F⁺`/`F⁻` against `T⁺ₜ`/`T⁻ₜ` (θ·F̄ derived),
    /// the measured `Ω꜀`/`Ωₛ` against `T_cₕ`/`T_cₗ`/`T_sₕ`/`T_sₗ`, and
    /// the reputations against `T_R`.
    ///
    /// The spans are recorded *after* the parallel pass, in the sorted
    /// output order, so the trace is deterministic and the hot loop is
    /// untouched.
    pub fn detect_all_with_observability(
        &self,
        ctx: &SocialContext,
        ledger: &RatingLedger,
        reputations: &[f64],
        metrics: Option<&DetectorMetrics>,
        span: Option<&SpanHandle>,
    ) -> Vec<Suspicion> {
        let start = std::time::Instant::now();
        let out = self.detect_all_inner(ctx, ledger, reputations);
        if let Some(metrics) = metrics {
            metrics.observe(&out, start.elapsed().as_secs_f64());
        }
        if let Some(parent) = span {
            let mean_freq = ledger.average_rating_frequency();
            let t_pos = self.config.positive_threshold(mean_freq);
            let t_neg = self.config.negative_threshold(mean_freq);
            for s in &out {
                let stats = ledger.interval_stats(s.rater, s.ratee);
                let behaviors: Vec<&str> = s.reasons.iter().map(|r| r.code()).collect();
                let mut v = parent.child(trace_names::VERDICT);
                v.set_attr("rater", s.rater.index());
                v.set_attr("ratee", s.ratee.index());
                v.set_attr("behaviors", behaviors.join("+"));
                v.set_attr("f_pos", stats.positive);
                v.set_attr("f_neg", stats.negative);
                v.set_attr("t_pos", t_pos);
                v.set_attr("t_neg", t_neg);
                v.set_attr("theta", self.config.theta);
                v.set_attr("mean_freq", mean_freq);
                v.set_attr("omega_c", s.omega_c);
                v.set_attr("omega_s", s.omega_s);
                v.set_attr("t_c_high", self.config.closeness_high);
                v.set_attr("t_c_low", self.config.closeness_low);
                v.set_attr("t_s_high", self.config.similarity_high);
                v.set_attr("t_s_low", self.config.similarity_low);
                v.set_attr("t_r", self.config.low_reputation);
                v.set_attr("rater_reputation", reputations[s.rater.index()]);
                v.set_attr("ratee_reputation", reputations[s.ratee.index()]);
            }
        }
        out
    }

    fn detect_all_inner(
        &self,
        ctx: &SocialContext,
        ledger: &RatingLedger,
        reputations: &[f64],
    ) -> Vec<Suspicion> {
        use rayon::prelude::*;
        let mean_freq = ledger.average_rating_frequency();
        let snapshot = ctx.snapshot(self.config.closeness);
        let pairs: Vec<(NodeId, NodeId)> = ledger.interval_pairs().map(|(k, _)| k).collect();
        let mut out: Vec<Suspicion> = pairs
            .into_par_iter()
            .filter_map(|(rater, ratee)| {
                self.inspect(
                    &snapshot,
                    ledger,
                    rater,
                    ratee,
                    reputations[rater.index()],
                    reputations[ratee.index()],
                    mean_freq,
                )
            })
            .collect();
        // Deterministic order for reproducibility (parallel collection
        // order isn't guaranteed).
        out.sort_by_key(|s| (s.rater, s.ratee));
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use socialtrust_reputation::rating::Rating;
    use socialtrust_socnet::interest::InterestId;
    use socialtrust_socnet::relationship::Relationship;

    /// Context: nodes 0,1 socially close with shared interests (honest
    /// neighbors); nodes 2,3 socially distant with disjoint interests
    /// (typical colluders); nodes 4,5 close but low-reputed; nodes 6,7
    /// extra honest traffic sources keeping the system-average rating
    /// frequency F̄ realistic.
    fn fixture() -> SocialContext {
        let mut ctx = SocialContext::new(8, 10);
        // 0-1: adjacent, interacting, same interest.
        ctx.graph_mut()
            .add_relationship(NodeId(0), NodeId(1), Relationship::friendship());
        ctx.record_interaction(NodeId(0), NodeId(1), 5.0);
        for n in [0u32, 1] {
            ctx.profile_mut(NodeId(n))
                .declared_mut()
                .insert(InterestId(1));
            ctx.profile_mut(NodeId(n))
                .declared_mut()
                .insert(InterestId(2));
        }
        // 2, 3: no edge, disjoint interests.
        ctx.profile_mut(NodeId(2))
            .declared_mut()
            .insert(InterestId(3));
        ctx.profile_mut(NodeId(3))
            .declared_mut()
            .insert(InterestId(4));
        // 4-5: strongly connected clique pair, high interaction, shared
        // interest.
        for _ in 0..4 {
            ctx.graph_mut()
                .add_relationship(NodeId(4), NodeId(5), Relationship::friendship());
        }
        ctx.record_interaction(NodeId(4), NodeId(5), 10.0);
        for n in [4u32, 5] {
            ctx.profile_mut(NodeId(n))
                .declared_mut()
                .insert(InterestId(7));
        }
        ctx
    }

    fn flood(ledger: &mut RatingLedger, rater: u32, ratee: u32, value: f64, count: usize) {
        for _ in 0..count {
            ledger.record(&Rating::new(NodeId(rater), NodeId(ratee), value));
        }
    }

    /// Background organic traffic so F̄ stays low relative to the flood.
    fn background(ledger: &mut RatingLedger) {
        for (a, b) in [(0u32, 1u32), (1, 0), (0, 6), (6, 0), (1, 7), (7, 1)] {
            ledger.record(&Rating::new(NodeId(a), NodeId(b), 1.0));
        }
    }

    fn detector() -> Detector {
        Detector::new(SocialTrustConfig::default())
    }

    #[test]
    fn quiet_pair_is_not_suspicious() {
        let ctx = fixture();
        let mut ledger = RatingLedger::new();
        background(&mut ledger);
        let s = detector().inspect_pair(&ctx, &ledger, NodeId(0), NodeId(1), 0.5, 0.5);
        assert!(s.is_none());
    }

    #[test]
    fn unrated_pair_is_not_suspicious() {
        let ctx = fixture();
        let ledger = RatingLedger::new();
        assert!(detector()
            .inspect_pair(&ctx, &ledger, NodeId(2), NodeId(3), 0.5, 0.5)
            .is_none());
    }

    #[test]
    fn b1_b3_distant_dissimilar_flood() {
        let ctx = fixture();
        let mut ledger = RatingLedger::new();
        background(&mut ledger);
        flood(&mut ledger, 2, 3, 1.0, 20);
        let s = detector()
            .inspect_pair(&ctx, &ledger, NodeId(2), NodeId(3), 0.5, 0.5)
            .expect("should be flagged");
        assert!(s
            .reasons
            .contains(&SuspicionReason::B1DistantFrequentPositive));
        assert!(s
            .reasons
            .contains(&SuspicionReason::B3DissimilarFrequentPositive));
        assert_eq!(s.omega_c, 0.0);
        assert_eq!(s.omega_s, 0.0);
    }

    #[test]
    fn b2_close_low_reputed_flood() {
        let ctx = fixture();
        let mut ledger = RatingLedger::new();
        background(&mut ledger);
        flood(&mut ledger, 4, 5, 1.0, 20);
        let s = detector()
            .inspect_pair(&ctx, &ledger, NodeId(4), NodeId(5), 0.5, 0.001)
            .expect("should be flagged");
        assert!(s.reasons.contains(&SuspicionReason::B2CloseLowReputed));
    }

    #[test]
    fn b2_not_triggered_for_reputable_ratee() {
        let ctx = fixture();
        let mut ledger = RatingLedger::new();
        background(&mut ledger);
        flood(&mut ledger, 4, 5, 1.0, 20);
        // Same flood, but the ratee has healthy reputation: no B2 (and the
        // pair shares interests and closeness, so no B1/B3 either).
        let s = detector().inspect_pair(&ctx, &ledger, NodeId(4), NodeId(5), 0.5, 0.5);
        assert!(s.is_none(), "got {s:?}");
    }

    #[test]
    fn b4_similar_negative_flood() {
        let ctx = fixture();
        let mut ledger = RatingLedger::new();
        background(&mut ledger);
        // Node 0 floods its same-interest competitor 1 with negatives.
        flood(&mut ledger, 0, 1, -1.0, 20);
        let s = detector()
            .inspect_pair(&ctx, &ledger, NodeId(0), NodeId(1), 0.5, 0.5)
            .expect("should be flagged");
        assert_eq!(s.reasons, vec![SuspicionReason::B4SimilarFrequentNegative]);
    }

    #[test]
    fn negative_flood_on_dissimilar_node_is_not_b4() {
        let ctx = fixture();
        let mut ledger = RatingLedger::new();
        background(&mut ledger);
        flood(&mut ledger, 2, 3, -1.0, 20);
        // Dissimilar interests: legitimately bad experiences, not B4.
        assert!(detector()
            .inspect_pair(&ctx, &ledger, NodeId(2), NodeId(3), 0.5, 0.5)
            .is_none());
    }

    #[test]
    fn frequency_threshold_scales_with_system_traffic() {
        let ctx = fixture();
        let mut ledger = RatingLedger::new();
        // Every pair rates 20 times: nobody deviates from F̄ = 20.
        flood(&mut ledger, 2, 3, 1.0, 20);
        flood(&mut ledger, 0, 1, 1.0, 20);
        flood(&mut ledger, 1, 0, 1.0, 20);
        flood(&mut ledger, 4, 5, 1.0, 20);
        assert!(
            detector()
                .inspect_pair(&ctx, &ledger, NodeId(2), NodeId(3), 0.5, 0.5)
                .is_none(),
            "20 ratings is not anomalous when θ·F̄ = 40"
        );
    }

    #[test]
    fn require_mutual_suppresses_one_directional_floods() {
        let ctx = fixture();
        let cfg = SocialTrustConfig {
            require_mutual: true,
            ..SocialTrustConfig::default()
        };
        let det = Detector::new(cfg);
        let mut ledger = RatingLedger::new();
        background(&mut ledger);
        flood(&mut ledger, 2, 3, 1.0, 20);
        assert!(det
            .inspect_pair(&ctx, &ledger, NodeId(2), NodeId(3), 0.5, 0.5)
            .is_none());
        // Once the flood is mutual, it is flagged again.
        flood(&mut ledger, 3, 2, 1.0, 20);
        assert!(det
            .inspect_pair(&ctx, &ledger, NodeId(2), NodeId(3), 0.5, 0.5)
            .is_some());
    }

    #[test]
    fn detect_all_is_sorted_and_complete() {
        let ctx = fixture();
        let mut ledger = RatingLedger::new();
        background(&mut ledger);
        flood(&mut ledger, 2, 3, 1.0, 20);
        flood(&mut ledger, 4, 5, 1.0, 20);
        let reputations = vec![0.2, 0.2, 0.2, 0.2, 0.2, 0.0, 0.2, 0.2];
        let all = detector().detect_all(&ctx, &ledger, &reputations);
        assert_eq!(all.len(), 2);
        assert_eq!(all[0].rater, NodeId(2));
        assert_eq!(all[1].rater, NodeId(4));
    }

    #[test]
    fn metrics_count_behavior_triggers_and_latency() {
        let ctx = fixture();
        let mut ledger = RatingLedger::new();
        background(&mut ledger);
        flood(&mut ledger, 2, 3, 1.0, 20); // B1 + B3
        flood(&mut ledger, 4, 5, 1.0, 20); // B2
        let reputations = vec![0.2, 0.2, 0.2, 0.2, 0.2, 0.0, 0.2, 0.2];

        let telemetry = Telemetry::new();
        let metrics = DetectorMetrics::new(&telemetry);
        let all = detector().detect_all_with_metrics(&ctx, &ledger, &reputations, Some(&metrics));
        // Identical output to the uninstrumented pass.
        assert_eq!(all, detector().detect_all(&ctx, &ledger, &reputations));

        let snap = telemetry.registry().snapshot();
        assert_eq!(snap.counter("detector_suspicions_total"), 2);
        assert_eq!(snap.counter("detector_b1_triggers_total"), 1);
        assert_eq!(snap.counter("detector_b2_triggers_total"), 1);
        assert_eq!(snap.counter("detector_b3_triggers_total"), 1);
        assert_eq!(snap.counter("detector_b4_triggers_total"), 0);
        assert_eq!(snap.histogram("detect_seconds").unwrap().count, 1);
    }

    #[test]
    fn behavior_codes_are_stable() {
        assert_eq!(SuspicionReason::B1DistantFrequentPositive.code(), "B1");
        assert_eq!(SuspicionReason::B2CloseLowReputed.code(), "B2");
        assert_eq!(SuspicionReason::B3DissimilarFrequentPositive.code(), "B3");
        assert_eq!(SuspicionReason::B4SimilarFrequentNegative.code(), "B4");
    }
}
