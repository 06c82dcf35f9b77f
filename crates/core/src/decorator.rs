//! `WithSocialTrust<R>` — the decorator that adds SocialTrust to any
//! reputation system.
//!
//! *"SocialTrust is built upon the reputation system of the P2P network and
//! re-scales node reputation values based on user social information to
//! mitigate the adverse influence of collusion."*
//!
//! The decorator buffers the cycle's ratings in its own
//! [`RatingLedger`]; at `end_cycle` it runs the B1–B4
//! [`crate::detector::Detector`] over every active rater→ratee
//! pair, computes a Gaussian adjustment weight (Eqs. (6)/(8)/(9)) for each
//! flagged pair, multiplies the flagged ratings by their weight, and only
//! then forwards everything to the wrapped engine.
//!
//! The social coefficients consulted here are served from **one**
//! epoch-validated [`GraphSnapshot`] acquired per cycle
//! ([`SocialContext::snapshot`]): the detection pass, the parallel
//! Gaussian-baseline pass (which batches each rater's per-ratee closeness
//! sweep into a single BFS via
//! [`GraphSnapshot::closeness_to_all`]), and the hysteresis ghost pairs
//! all read the same frozen CSR view. The snapshot refreshes
//! incrementally from the graph/tracker dirty logs between cycles, so the
//! decorator never assumes (or pays for) a full coefficient recompute per
//! cycle.

use std::collections::HashMap;
use std::time::Instant;

use socialtrust_reputation::rating::{PairKey, Rating, RatingLedger};
use socialtrust_reputation::system::{ConvergenceRecord, ReputationSystem};
use socialtrust_socnet::snapshot::GraphSnapshot;
use socialtrust_socnet::NodeId;
use socialtrust_telemetry::{
    trace::names as trace_names, Counter, Event, EventSink, Histogram, Telemetry, Tracer,
};

use crate::config::{AdjustmentMode, BaselineMode, SocialTrustConfig};
use crate::context::SharedSocialContext;
use crate::detector::{Detector, DetectorMetrics, Suspicion};
use crate::gaussian::{adjustment_weight, combined_weight};
use crate::stats::OmegaStats;

/// Registry handles the decorator publishes through once
/// [`WithSocialTrust`] is attached to a [`Telemetry`] bundle. Kept in a
/// separate struct (rather than on the decorator directly) so an
/// un-instrumented decorator carries a single `Option` of overhead.
#[derive(Debug, Clone)]
struct DecoratorTelemetry {
    detector: DetectorMetrics,
    /// `gaussian_weight_seconds`: wall time of the per-cycle Gaussian
    /// weight pass (detection + parallel weight computation + hysteresis).
    gaussian_seconds: Histogram,
    /// `reputation_update_seconds`: wall time of the wrapped engine's
    /// `end_cycle` (e.g. EigenTrust power iteration).
    update_seconds: Histogram,
    /// `decorator_rescaled_ratings_total`: ratings multiplied by a
    /// Gaussian weight before being forwarded to the inner engine.
    rescaled: Counter,
    sink: EventSink,
    /// Shared decision-provenance tracer: disabled unless the attached
    /// bundle carries an enabled one.
    tracer: Tracer,
}

impl DecoratorTelemetry {
    fn new(telemetry: &Telemetry) -> Self {
        let registry = telemetry.registry();
        DecoratorTelemetry {
            detector: DetectorMetrics::new(telemetry),
            gaussian_seconds: registry.histogram("gaussian_weight_seconds"),
            update_seconds: registry.histogram("reputation_update_seconds"),
            rescaled: registry.counter("decorator_rescaled_ratings_total"),
            sink: telemetry.sink().clone(),
            tracer: telemetry.tracer().clone(),
        }
    }
}

/// A reputation system wrapped with the SocialTrust adjustment layer.
#[derive(Debug)]
pub struct WithSocialTrust<R> {
    inner: R,
    ctx: SharedSocialContext,
    config: SocialTrustConfig,
    detector: Detector,
    ledger: RatingLedger,
    buffer: Vec<Rating>,
    last_suspicions: Vec<Suspicion>,
    last_weights: Vec<(PairKey, f64)>,
    /// Pairs under suspicion hysteresis: flagged recently, still adjusted.
    /// Value = remaining intervals of memory.
    remembered: std::collections::BTreeMap<PairKey, u64>,
    total_adjusted_ratings: u64,
    total_suspicions_flagged: u64,
    /// Completed `end_cycle` count — the cycle index stamped on emitted
    /// detection-verdict events.
    cycles_completed: u64,
    telemetry: Option<DecoratorTelemetry>,
}

impl<R: ReputationSystem> WithSocialTrust<R> {
    /// Wrap `inner` with SocialTrust using the given social context and
    /// configuration.
    pub fn new(inner: R, ctx: SharedSocialContext, config: SocialTrustConfig) -> Self {
        config.validate();
        WithSocialTrust {
            inner,
            ctx,
            config,
            detector: Detector::new(config),
            ledger: RatingLedger::new(),
            buffer: Vec::new(),
            last_suspicions: Vec::new(),
            last_weights: Vec::new(),
            remembered: std::collections::BTreeMap::new(),
            total_adjusted_ratings: 0,
            total_suspicions_flagged: 0,
            cycles_completed: 0,
            telemetry: None,
        }
    }

    /// The wrapped engine.
    pub fn inner(&self) -> &R {
        &self.inner
    }

    /// The active configuration.
    pub fn config(&self) -> &SocialTrustConfig {
        &self.config
    }

    /// The suspicions raised in the most recent `end_cycle`, sorted by
    /// (rater, ratee).
    pub fn last_suspicions(&self) -> &[Suspicion] {
        &self.last_suspicions
    }

    /// The Gaussian weights applied in the most recent `end_cycle`, one per
    /// flagged pair.
    pub fn last_weights(&self) -> &[(PairKey, f64)] {
        &self.last_weights
    }

    /// The detection ledger (read access, for diagnostics and tests).
    pub fn ledger(&self) -> &RatingLedger {
        &self.ledger
    }
}

/// Per-rater Gaussian baselines: `Ω̄`, `maxΩ`, `minΩ` of the rater's
/// closeness and similarity over the **other** nodes it has rated
/// (lifetime, excluding the currently-judged ratee).
///
/// Excluding the ratee matters: the paper describes `b = Ω̄_ci` as *"the
/// most reasonable social closeness of n_i to other nodes it has
/// rated"*. If the suspect pair's own (extreme) coefficient were
/// included, it would stretch the width `|maxΩ − minΩ|` so far that the
/// weight could never drop below `e^{-1/2} ≈ 0.61` — far too weak to
/// suppress collusion.
///
/// Falls back to the configured empirical statistics when the rater has
/// rated fewer than two *other* distinct nodes (a near-empty
/// distribution has no meaningful spread), when every observed
/// coefficient is non-finite, or always in [`BaselineMode::Empirical`].
///
/// A free function rather than a method so the parallel weight pass in
/// `end_cycle` does not have to capture `&WithSocialTrust<R>` — that would
/// demand `R: Sync` of every wrapped engine for no reason; the computation
/// only needs the config, the ledger, and the cycle's frozen snapshot.
///
/// The closeness sweep over the rater's rated set is batched through
/// [`GraphSnapshot::closeness_to_all`]: all Eq. (4) fallback targets share
/// one capped BFS instead of one traversal per ratee.
fn rater_stats(
    config: &SocialTrustConfig,
    ledger: &RatingLedger,
    snapshot: &GraphSnapshot,
    rater: NodeId,
    exclude_ratee: NodeId,
) -> (OmegaStats, OmegaStats) {
    let empirical = (config.empirical_closeness, config.empirical_similarity);
    if config.baseline_mode == BaselineMode::Empirical {
        return empirical;
    }
    let rated: Vec<NodeId> = ledger
        .rated_by(rater)
        .into_iter()
        .filter(|&j| j != exclude_ratee)
        .collect();
    if rated.len() < 2 {
        return empirical;
    }
    let closeness: Vec<f64> = snapshot.closeness_to_all(rater, &rated);
    let similarity: Vec<f64> = rated
        .iter()
        .map(|&j| snapshot.interest_similarity(rater, j, config.weighted_similarity))
        .collect();
    match (
        OmegaStats::from_values(&closeness),
        OmegaStats::from_values(&similarity),
    ) {
        (Some(stats_c), Some(stats_s)) => (stats_c, stats_s),
        // All-non-finite coefficients (filtered out by `from_values`) leave
        // no personal distribution to centre on.
        _ => empirical,
    }
}

/// The Gaussian kernel inputs behind one computed weight, kept for the
/// provenance trace: the rater's personal baselines (μ = mean, σ derived
/// from `|maxΩ − minΩ|`) per dimension, and which paper equation applied.
struct WeightProvenance {
    /// `"Eq. 6"` (closeness only), `"Eq. 8"` (similarity only), or
    /// `"Eq. 9"` (combined).
    eq: &'static str,
    mean_c: f64,
    width_c: f64,
    mean_s: f64,
    width_s: f64,
}

/// The Gaussian weight for one suspicion plus the kernel inputs that
/// produced it. The weight is bit-identical to [`weight_for`] — same
/// arithmetic path — so the traced value is exactly the applied one.
fn weight_explained(
    config: &SocialTrustConfig,
    ledger: &RatingLedger,
    snapshot: &GraphSnapshot,
    suspicion: &Suspicion,
) -> (f64, WeightProvenance) {
    let (stats_c, stats_s) =
        rater_stats(config, ledger, snapshot, suspicion.rater, suspicion.ratee);
    let stats_c = stats_c.with_width_scale(config.width_scale);
    let stats_s = stats_s.with_width_scale(config.width_scale);
    let (weight, eq) = match config.adjustment_mode {
        AdjustmentMode::ClosenessOnly => (
            adjustment_weight(suspicion.omega_c, &stats_c, config.alpha),
            "Eq. 6",
        ),
        AdjustmentMode::SimilarityOnly => (
            adjustment_weight(suspicion.omega_s, &stats_s, config.alpha),
            "Eq. 8",
        ),
        AdjustmentMode::Combined => (
            combined_weight(
                suspicion.omega_c,
                &stats_c,
                suspicion.omega_s,
                &stats_s,
                config.alpha,
            ),
            "Eq. 9",
        ),
    };
    (
        weight,
        WeightProvenance {
            eq,
            mean_c: stats_c.mean,
            width_c: stats_c.width(),
            mean_s: stats_s.mean,
            width_s: stats_s.width(),
        },
    )
}

/// The Gaussian weight for one suspicion, per the configured adjustment
/// mode. Free function for the same `R: Sync` reason as [`rater_stats`].
fn weight_for(
    config: &SocialTrustConfig,
    ledger: &RatingLedger,
    snapshot: &GraphSnapshot,
    suspicion: &Suspicion,
) -> f64 {
    weight_explained(config, ledger, snapshot, suspicion).0
}

/// Lookup in a pair-sorted weight list. The cycle's weights live in a
/// sorted `Vec` rather than a map: the list is built once per cycle, read
/// many times (once per buffered rating), and then *becomes*
/// `last_weights` — no per-cycle map allocation, no rehash, no final
/// drain-and-sort copy.
#[inline]
fn weight_of(weights: &[(PairKey, f64)], pair: PairKey) -> Option<f64> {
    weights
        .binary_search_by_key(&pair, |&(k, _)| k)
        .ok()
        .map(|idx| weights[idx].1)
}

impl<R: ReputationSystem> ReputationSystem for WithSocialTrust<R> {
    fn node_count(&self) -> usize {
        self.inner.node_count()
    }

    fn record(&mut self, rating: Rating) {
        self.ledger.record(&rating);
        self.buffer.push(rating);
    }

    fn end_cycle(&mut self) {
        // A clone of the attached tracer (disabled when unattached): child
        // spans land under the engine's cycle root when one is open.
        let tracer = self
            .telemetry
            .as_ref()
            .map(|t| t.tracer.clone())
            .unwrap_or_default();
        let (suspicions, weights) = {
            let ctx = self.ctx.read();
            let mut detect_span = tracer.child(trace_names::DETECT);
            // The detector reads the pre-update trust vector straight from
            // the inner engine — nothing in this read-only block mutates
            // it, so there is no need for the defensive copy this used to
            // take (8 MB per cycle at 1M nodes).
            let suspicions = self.detector.detect_all_with_observability(
                &ctx,
                &self.ledger,
                self.inner.reputations(),
                self.telemetry.as_ref().map(|t| &t.detector),
                detect_span.as_ref(),
            );
            if let Some(span) = detect_span.as_mut() {
                span.set_attr("suspicions", suspicions.len());
            }
            drop(detect_span);
            let gaussian_start = Instant::now();
            let gaussian_span = tracer.child(trace_names::GAUSSIAN);
            // Gaussian weights for flagged pairs are independent of each
            // other, so compute them in parallel; suspicions hold distinct
            // (rater, ratee) keys, so the collected list has unique keys.
            // The whole pass reads the same frozen snapshot the detector
            // just used (no mutation happened in between, so this is an
            // epoch-validated Arc clone, not a rebuild).
            use rayon::prelude::*;
            let snapshot = ctx.snapshot(self.config.closeness);
            let (config, ledger) = (&self.config, &self.ledger);
            // When this cycle's trace records, the same parallel pass also
            // keeps the kernel inputs (`WeightProvenance`) per pair, so the
            // span-recording loop below never redoes coefficient work; the
            // weight comes off the identical arithmetic path either way.
            let recording = gaussian_span.is_some();
            let mut provenance: HashMap<PairKey, WeightProvenance> = HashMap::new();
            // Weights live in a pair-sorted Vec rather than a map: built
            // once, probed by binary search in the rescale pass below, and
            // handed to `last_weights` at cycle end without the
            // drain-and-sort copy a map would force.
            let mut weights: Vec<(PairKey, f64)> = if recording {
                let explained: Vec<(PairKey, f64, WeightProvenance)> = suspicions
                    .par_iter()
                    .map(|s| {
                        let (w, prov) = weight_explained(config, ledger, &snapshot, s);
                        ((s.rater, s.ratee), w, prov)
                    })
                    .collect();
                explained
                    .into_iter()
                    .map(|(pair, w, prov)| {
                        provenance.insert(pair, prov);
                        (pair, w)
                    })
                    .collect()
            } else {
                suspicions
                    .par_iter()
                    .map(|s| ((s.rater, s.ratee), weight_for(config, ledger, &snapshot, s)))
                    .collect()
            };
            weights.sort_unstable_by_key(|&(k, _)| k);
            // Suspicion hysteresis: pairs flagged in recent intervals keep
            // being adjusted even if this interval's conditions lapsed
            // (e.g. the ratee's reputation briefly crossed T_R). The weight
            // is recomputed from the pair's *current* coefficients.
            let mut ghosts: Vec<Suspicion> = Vec::new();
            if self.config.suspicion_memory > 0 {
                // Lookups only consult the flagged prefix (sorted above);
                // ghost entries append past it and the list re-sorts once
                // at the end.
                let flagged_len = weights.len();
                for &(rater, ratee) in self.remembered.keys() {
                    if weight_of(&weights[..flagged_len], (rater, ratee)).is_some() {
                        continue;
                    }
                    // Only adjust if the pair actually rated this interval.
                    if self.ledger.interval_stats(rater, ratee).count() == 0 {
                        continue;
                    }
                    let ghost = Suspicion {
                        rater,
                        ratee,
                        reasons: Vec::new(),
                        omega_c: snapshot.closeness(rater, ratee),
                        omega_s: snapshot.interest_similarity(
                            rater,
                            ratee,
                            self.config.weighted_similarity,
                        ),
                    };
                    if recording {
                        let (w, prov) = weight_explained(config, ledger, &snapshot, &ghost);
                        weights.push(((rater, ratee), w));
                        provenance.insert((rater, ratee), prov);
                    } else {
                        weights.push((
                            (rater, ratee),
                            weight_for(config, ledger, &snapshot, &ghost),
                        ));
                    }
                    ghosts.push(ghost);
                }
                if weights.len() > flagged_len {
                    weights.sort_unstable_by_key(|&(k, _)| k);
                }
            }
            // Provenance: one `gaussian_weight` child per adjusted pair,
            // read back from the parallel pass above. Only paid when this
            // cycle's trace records.
            if let Some(parent) = gaussian_span.as_ref() {
                let flagged = suspicions.iter().map(|s| (s, false));
                let remembered = ghosts.iter().map(|g| (g, true));
                for (s, is_ghost) in flagged.chain(remembered) {
                    let pair = (s.rater, s.ratee);
                    let (Some(weight), Some(prov)) =
                        (weight_of(&weights, pair), provenance.get(&pair))
                    else {
                        continue;
                    };
                    let mut span = parent.child(trace_names::WEIGHT);
                    span.set_attr("rater", s.rater.index());
                    span.set_attr("ratee", s.ratee.index());
                    span.set_attr("ghost", is_ghost);
                    span.set_attr("eq", prov.eq);
                    span.set_attr("omega_c", s.omega_c);
                    span.set_attr("omega_s", s.omega_s);
                    span.set_attr("mean_c", prov.mean_c);
                    span.set_attr("width_c", prov.width_c);
                    span.set_attr("mean_s", prov.mean_s);
                    span.set_attr("width_s", prov.width_s);
                    span.set_attr("alpha", config.alpha);
                    span.set_attr("weight", weight);
                }
            }
            drop(gaussian_span);
            if let Some(t) = &self.telemetry {
                t.gaussian_seconds
                    .observe(gaussian_start.elapsed().as_secs_f64());
            }
            (suspicions, weights)
        };
        let mut rescaled_this_cycle = 0u64;
        let rescale_span = tracer.child(trace_names::RESCALE);
        for mut rating in std::mem::take(&mut self.buffer) {
            if let Some(w) = weight_of(&weights, (rating.rater, rating.ratee)) {
                if let Some(parent) = rescale_span.as_ref() {
                    let mut span = parent.child(trace_names::RESCALED_RATING);
                    span.set_attr("rater", rating.rater.index());
                    span.set_attr("ratee", rating.ratee.index());
                    span.set_attr("original", rating.value);
                    span.set_attr("weight", w);
                    span.set_attr("adjusted", rating.value * w);
                }
                rating.value *= w;
                self.total_adjusted_ratings += 1;
                rescaled_this_cycle += 1;
            }
            self.inner.record(rating);
        }
        drop(rescale_span);
        let update_start = Instant::now();
        // Scoped: the inner engine's own spans (e.g. `eigentrust_update`)
        // nest under this one.
        let update_span = tracer.child(trace_names::UPDATE);
        self.inner.end_cycle();
        drop(update_span);
        if let Some(t) = &self.telemetry {
            t.update_seconds
                .observe(update_start.elapsed().as_secs_f64());
            t.rescaled.add(rescaled_this_cycle);
            if t.sink.is_enabled() {
                for s in &suspicions {
                    t.sink.emit(Event::DetectionVerdict {
                        cycle: self.cycles_completed,
                        rater: s.rater.index() as u32,
                        ratee: s.ratee.index() as u32,
                        behaviors: s.reasons.iter().map(|r| r.code().to_string()).collect(),
                        omega_c: s.omega_c,
                        omega_s: s.omega_s,
                    });
                }
            }
        }
        self.ledger.end_interval();
        self.total_suspicions_flagged += suspicions.len() as u64;
        // Age the hysteresis memory and refresh it with this interval's
        // fresh suspicions.
        if self.config.suspicion_memory > 0 {
            self.remembered.retain(|_, ttl| {
                *ttl -= 1;
                *ttl > 0
            });
            for s in &suspicions {
                self.remembered
                    .insert((s.rater, s.ratee), self.config.suspicion_memory);
            }
        }
        self.last_suspicions = suspicions;
        // Already pair-sorted; becomes the cycle's published weight list
        // with a move instead of a drain-and-sort.
        self.last_weights = weights;
        self.cycles_completed += 1;
    }

    fn reputations(&self) -> &[f64] {
        self.inner.reputations()
    }

    fn name(&self) -> String {
        format!("{}+SocialTrust", self.inner.name())
    }

    fn total_adjusted_ratings(&self) -> u64 {
        self.total_adjusted_ratings
    }

    fn total_suspicions(&self) -> u64 {
        self.total_suspicions_flagged
    }

    fn reset_node(&mut self, node: NodeId) {
        self.ledger.reset_node(node);
        self.buffer.retain(|r| r.rater != node && r.ratee != node);
        self.remembered
            .retain(|&(rater, ratee), _| rater != node && ratee != node);
        self.inner.reset_node(node);
    }

    fn convergence(&self) -> Option<ConvergenceRecord> {
        self.inner.convergence()
    }

    /// Instruments every layer this decorator touches: detector trigger
    /// counters and latency, the Gaussian/update span histograms, the
    /// social context's snapshot store, and the wrapped engine itself.
    /// Idempotent — re-attaching to the same bundle replaces handles with
    /// equivalents.
    fn attach_telemetry(&mut self, telemetry: &Telemetry) {
        self.telemetry = Some(DecoratorTelemetry::new(telemetry));
        self.ctx.write().attach_telemetry(telemetry);
        self.inner.attach_telemetry(telemetry);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::context::SocialContext;
    use socialtrust_reputation::prelude::{EBayModel, EigenTrust};
    use socialtrust_socnet::interest::InterestId;
    use socialtrust_socnet::relationship::Relationship;

    /// 8 nodes. 0 is pretrusted. 2,3 are "colluders": tight clique edge,
    /// heavy interaction, disjoint interests from each other. Everyone
    /// else has organic, moderate behavior with shared interests.
    fn context() -> SharedSocialContext {
        let mut ctx = SocialContext::new(8, 10);
        for pair in [(0u32, 1u32), (1, 4), (4, 5), (5, 0), (6, 7)] {
            ctx.graph_mut().add_relationship(
                NodeId(pair.0),
                NodeId(pair.1),
                Relationship::friendship(),
            );
        }
        // Organic interactions.
        for pair in [(0u32, 1u32), (1, 4), (4, 5), (5, 0), (6, 7)] {
            ctx.record_interaction(NodeId(pair.0), NodeId(pair.1), 2.0);
            ctx.record_interaction(NodeId(pair.1), NodeId(pair.0), 2.0);
        }
        // Shared interests among honest nodes.
        for n in [0u32, 1, 4, 5, 6, 7] {
            ctx.profile_mut(NodeId(n))
                .declared_mut()
                .insert(InterestId(1));
            ctx.profile_mut(NodeId(n))
                .declared_mut()
                .insert(InterestId(2));
        }
        // Colluders: heavily linked clique pair with huge interaction, no
        // declared interests in common with each other.
        for _ in 0..4 {
            ctx.graph_mut()
                .add_relationship(NodeId(2), NodeId(3), Relationship::friendship());
        }
        ctx.record_interaction(NodeId(2), NodeId(3), 50.0);
        ctx.record_interaction(NodeId(3), NodeId(2), 50.0);
        ctx.profile_mut(NodeId(2))
            .declared_mut()
            .insert(InterestId(8));
        ctx.profile_mut(NodeId(3))
            .declared_mut()
            .insert(InterestId(9));
        SharedSocialContext::new(SocialContext::new(0, 0)); // exercise ctor
        SharedSocialContext::new(ctx)
    }

    /// Organic traffic: honest pairs rate each other 1-2 times; the
    /// colluders additionally rate a couple of honest servers (so their
    /// rated sets have ≥ 2 entries and EigenTrust rows are non-trivial).
    fn organic(sys: &mut impl ReputationSystem) {
        for (a, b) in [(0u32, 1u32), (1, 4), (4, 5), (5, 0), (6, 7), (7, 6)] {
            sys.record(Rating::new(NodeId(a), NodeId(b), 1.0));
            sys.record(Rating::new(NodeId(a), NodeId(b), 1.0));
        }
        sys.record(Rating::new(NodeId(2), NodeId(1), 1.0));
        sys.record(Rating::new(NodeId(3), NodeId(4), 1.0));
        // Colluders receive one organic endorsement so EigenTrust can reach
        // them at all.
        sys.record(Rating::new(NodeId(0), NodeId(2), 1.0));
    }

    fn collusion(sys: &mut impl ReputationSystem, count: usize) {
        for _ in 0..count {
            sys.record(Rating::new(NodeId(2), NodeId(3), 1.0).non_transactional());
            sys.record(Rating::new(NodeId(3), NodeId(2), 1.0).non_transactional());
        }
    }

    #[test]
    fn flags_colluding_pair_and_not_honest_pairs() {
        let ctx = context();
        let mut sys = WithSocialTrust::new(
            EigenTrust::with_defaults(8, &[NodeId(0)]),
            ctx,
            SocialTrustConfig::default(),
        );
        organic(&mut sys);
        collusion(&mut sys, 30);
        sys.end_cycle();
        let raters: Vec<NodeId> = sys.last_suspicions().iter().map(|s| s.rater).collect();
        assert!(raters.contains(&NodeId(2)), "suspicions: {raters:?}");
        assert!(raters.contains(&NodeId(3)));
        assert!(
            raters.iter().all(|r| r.index() >= 2 && r.index() <= 3),
            "honest raters must not be flagged: {raters:?}"
        );
    }

    #[test]
    fn adjustment_lowers_colluder_reputation_vs_unprotected() {
        let ctx = context();
        let mut plain = EigenTrust::with_defaults(8, &[NodeId(0)]);
        let mut guarded = WithSocialTrust::new(
            EigenTrust::with_defaults(8, &[NodeId(0)]),
            ctx,
            SocialTrustConfig::default(),
        );
        for cycle in 0..3 {
            let _ = cycle;
            organic(&mut plain);
            collusion(&mut plain, 30);
            plain.end_cycle();
            organic(&mut guarded);
            collusion(&mut guarded, 30);
            guarded.end_cycle();
        }
        assert!(
            guarded.reputation(NodeId(3)) < plain.reputation(NodeId(3)),
            "guarded {} vs plain {}",
            guarded.reputation(NodeId(3)),
            plain.reputation(NodeId(3))
        );
        assert!(guarded.total_adjusted_ratings() > 0);
    }

    #[test]
    fn weights_are_recorded_and_bounded() {
        let ctx = context();
        let mut sys = WithSocialTrust::new(EBayModel::new(8), ctx, SocialTrustConfig::default());
        organic(&mut sys);
        collusion(&mut sys, 30);
        sys.end_cycle();
        assert!(!sys.last_weights().is_empty());
        for &(_, w) in sys.last_weights() {
            assert!((0.0..=1.0).contains(&w), "weight {w} out of [0,α]");
        }
    }

    #[test]
    fn honest_traffic_passes_untouched() {
        let ctx = context();
        let mut guarded =
            WithSocialTrust::new(EBayModel::new(8), ctx, SocialTrustConfig::default());
        let mut plain = EBayModel::new(8);
        organic(&mut guarded);
        organic(&mut plain);
        guarded.end_cycle();
        plain.end_cycle();
        assert_eq!(guarded.reputations(), plain.reputations());
        assert_eq!(guarded.total_adjusted_ratings(), 0);
        assert!(guarded.last_suspicions().is_empty());
    }

    #[test]
    fn name_reflects_wrapping() {
        let ctx = context();
        let sys = WithSocialTrust::new(
            EigenTrust::with_defaults(8, &[NodeId(0)]),
            ctx,
            SocialTrustConfig::default(),
        );
        assert_eq!(sys.name(), "EigenTrust+SocialTrust");
        assert_eq!(sys.node_count(), 8);
    }

    #[test]
    fn ebay_with_socialtrust_shrinks_colluder_contribution() {
        let ctx = context();
        let mut guarded =
            WithSocialTrust::new(EBayModel::new(8), ctx, SocialTrustConfig::default());
        organic(&mut guarded);
        collusion(&mut guarded, 30);
        guarded.end_cycle();
        let mut plain = EBayModel::new(8);
        organic(&mut plain);
        collusion(&mut plain, 30);
        plain.end_cycle();
        assert!(
            guarded.inner().raw_score(NodeId(3)) < plain.raw_score(NodeId(3)),
            "guarded {} vs plain {}",
            guarded.inner().raw_score(NodeId(3)),
            plain.raw_score(NodeId(3))
        );
    }

    #[test]
    fn reset_node_clears_ledger_and_memory() {
        let ctx = context();
        let mut sys = WithSocialTrust::new(
            EigenTrust::with_defaults(8, &[NodeId(0)]),
            ctx,
            SocialTrustConfig::default(),
        );
        organic(&mut sys);
        collusion(&mut sys, 30);
        sys.end_cycle();
        assert!(!sys.ledger().rated_by(NodeId(2)).is_empty());
        sys.reset_node(NodeId(2));
        assert!(sys.ledger().rated_by(NodeId(2)).is_empty());
        assert_eq!(sys.inner().local_satisfaction(NodeId(2), NodeId(3)), 0.0);
    }

    /// Fake inner engine: everyone at reputation 0 until the first cycle
    /// completes, then everyone at 0.5 — lets a test force B2's
    /// "low-reputed ratee" condition to lapse on cue.
    struct StepInner {
        reps: Vec<f64>,
        cycles: usize,
    }

    impl ReputationSystem for StepInner {
        fn node_count(&self) -> usize {
            self.reps.len()
        }
        fn record(&mut self, _rating: Rating) {}
        fn end_cycle(&mut self) {
            self.cycles += 1;
            let v = if self.cycles >= 1 { 0.5 } else { 0.0 };
            self.reps.iter_mut().for_each(|r| *r = v);
        }
        fn reputations(&self) -> &[f64] {
            &self.reps
        }
        fn name(&self) -> String {
            "step".into()
        }
    }

    /// Drive one cycle of collusion-only traffic between the clique pair
    /// (2, 3), plus light organic noise to keep F̄ realistic.
    fn hysteresis_cycle(sys: &mut WithSocialTrust<StepInner>) {
        organic(sys);
        for _ in 0..30 {
            sys.record(Rating::new(NodeId(2), NodeId(3), 1.0).non_transactional());
        }
        sys.end_cycle();
    }

    fn step_system(memory: u64) -> WithSocialTrust<StepInner> {
        // Context: colluders 2, 3 are a heavy clique pair — but share the
        // SAME declared interest so neither B1 nor B3 can fire; only B2
        // (close + low-reputed ratee) detects them, and it lapses the
        // moment the inner engine reports high reputations.
        let shared = context();
        {
            let mut ctx = shared.write();
            ctx.profile_mut(NodeId(2))
                .declared_mut()
                .insert(InterestId(9));
            ctx.profile_mut(NodeId(3))
                .declared_mut()
                .insert(InterestId(8));
        }
        let cfg = SocialTrustConfig {
            suspicion_memory: memory,
            ..SocialTrustConfig::default()
        };
        WithSocialTrust::new(
            StepInner {
                reps: vec![0.0; 8],
                cycles: 0,
            },
            shared,
            cfg,
        )
    }

    #[test]
    fn hysteresis_keeps_adjusting_after_b2_lapses() {
        // With memory: cycle 1 flags via B2 (everyone at rep 0); cycle 2 —
        // reputations at 0.5, B2 lapsed — the pair is STILL adjusted.
        let mut with_memory = step_system(3);
        hysteresis_cycle(&mut with_memory);
        assert!(
            with_memory
                .last_suspicions()
                .iter()
                .any(|s| s.rater == NodeId(2)),
            "cycle 1 must flag: {:?}",
            with_memory.last_suspicions()
        );
        hysteresis_cycle(&mut with_memory);
        assert!(
            with_memory
                .last_weights()
                .iter()
                .any(|((r, _), _)| *r == NodeId(2)),
            "hysteresis must keep adjusting the remembered pair: {:?}",
            with_memory.last_weights()
        );

        // Without memory and with B2 lapsed (rep 0.5 > T_R) the only
        // adjustments left are from behaviors that still match; B2-only
        // pairs escape. (2, 3) shares one interest here so B3 can still
        // fire; check the asymmetry through the remembered map instead:
        let mut without = step_system(0);
        hysteresis_cycle(&mut without);
        hysteresis_cycle(&mut without);
        let with_n = with_memory.last_weights().len();
        let without_n = without.last_weights().len();
        assert!(
            with_n >= without_n,
            "memory can only add adjustments: {with_n} vs {without_n}"
        );
    }

    #[test]
    fn hysteresis_expires_after_its_ttl() {
        let mut sys = step_system(2);
        hysteresis_cycle(&mut sys); // flags, remembers with TTL 2
                                    // Two quiet cycles: the memory ages out (quiet pairs are never
                                    // ghost-adjusted).
        organic(&mut sys);
        sys.end_cycle();
        organic(&mut sys);
        sys.end_cycle();
        // Pair rates once more, below the frequency threshold: no fresh
        // flag, and the memory is gone — no adjustment of this pair.
        organic(&mut sys);
        sys.record(Rating::new(NodeId(2), NodeId(3), 1.0).non_transactional());
        sys.end_cycle();
        assert!(
            !sys.last_weights()
                .iter()
                .any(|((r, t), _)| *r == NodeId(2) && *t == NodeId(3)),
            "{:?}",
            sys.last_weights()
        );
    }

    #[test]
    fn attached_telemetry_instruments_full_stack() {
        let telemetry = Telemetry::with_sink(EventSink::in_memory());
        let ctx = context();
        let mut sys = WithSocialTrust::new(
            EigenTrust::with_defaults(8, &[NodeId(0)]),
            ctx,
            SocialTrustConfig::default(),
        );
        sys.attach_telemetry(&telemetry);
        organic(&mut sys);
        collusion(&mut sys, 30);
        sys.end_cycle();

        let snap = telemetry.registry().snapshot();
        assert!(snap.counter("detector_suspicions_total") > 0);
        assert_eq!(
            snap.counter("decorator_rescaled_ratings_total"),
            sys.total_adjusted_ratings(),
            "per-cycle rescale counter must mirror the lifetime total"
        );
        for name in ["gaussian_weight_seconds", "reputation_update_seconds"] {
            let hist = snap.histogram(name).expect(name);
            assert_eq!(hist.count, 1, "{name}: one cycle, one observation");
        }
        // The cycle's social reads were served from one CSR snapshot: the
        // first acquisition is a full rebuild, and the detector + Gaussian
        // passes share it (no second build for an unchanged context).
        assert_eq!(snap.counter("snapshot_rebuilds_total"), 1);
        assert_eq!(snap.counter("snapshot_patches_total"), 0);
        assert_eq!(
            snap.histogram("snapshot_rebuild_seconds")
                .expect("timed")
                .count,
            1
        );
        // EigenTrust convergence flows through the same bundle, and the
        // decorator surfaces the inner engine's record.
        let record = sys.convergence().expect("inner EigenTrust converged");
        assert_eq!(
            snap.gauge("eigentrust_iterations"),
            Some(record.iterations as f64)
        );

        // Detection verdicts were emitted with cycle index 0 and the
        // colluding raters' behavior codes.
        let verdicts: Vec<_> = telemetry
            .sink()
            .events()
            .into_iter()
            .filter_map(|e| match e {
                Event::DetectionVerdict {
                    cycle,
                    rater,
                    behaviors,
                    ..
                } => Some((cycle, rater, behaviors)),
                _ => None,
            })
            .collect();
        assert_eq!(verdicts.len(), sys.last_suspicions().len());
        for (cycle, rater, behaviors) in &verdicts {
            assert_eq!(*cycle, 0);
            assert!(*rater == 2 || *rater == 3, "rater {rater}");
            assert!(!behaviors.is_empty());
            assert!(behaviors.iter().all(|b| b.starts_with('B')));
        }
    }

    #[test]
    fn ablation_modes_produce_weights() {
        for mode in [
            AdjustmentMode::ClosenessOnly,
            AdjustmentMode::SimilarityOnly,
            AdjustmentMode::Combined,
        ] {
            let ctx = context();
            let cfg = SocialTrustConfig {
                adjustment_mode: mode,
                ..SocialTrustConfig::default()
            };
            let mut sys = WithSocialTrust::new(EBayModel::new(8), ctx, cfg);
            organic(&mut sys);
            collusion(&mut sys, 30);
            sys.end_cycle();
            assert!(
                !sys.last_weights().is_empty(),
                "mode {mode:?} should flag the colluders"
            );
        }
    }
}
