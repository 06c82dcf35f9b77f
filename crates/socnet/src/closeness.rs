//! Social closeness `Ωc(i,j)` — Equations (2), (3), (4), and (10) of the
//! paper.
//!
//! Closeness combines *declared structure* (how many, and how strong,
//! relationships two users share) with *observed behavior* (how often they
//! actually interact). For adjacent nodes,
//!
//! ```text
//! Eq. (2):  Ωc(i,j) = m(i,j) · f(i,j) / Σ_{k ∈ S_i} f(i,k)
//! ```
//!
//! where `m(i,j)` is the relationship count, `f(i,j)` the directed
//! interaction frequency, and `S_i` node `i`'s friend set. The
//! falsification-resilient variant, Eq. (10), replaces `m(i,j)` with
//! `Σ_l λ^(l-1) · w_{d_l}` — the relationship weights sorted descending and
//! geometrically decayed — so that piling on weak fake relationships barely
//! moves the metric.
//!
//! For non-adjacent nodes with common friends `k ∈ S_i ∩ S_j`:
//!
//! ```text
//! Eq. (3):  Ωc(i,j) = Σ_k (Ωc(i,k) + Ωc(k,j)) / 2
//! ```
//!
//! and when there is no common friend, the fallback (Eq. (4)) is the minimum
//! adjacent closeness along a shortest social path between `i` and `j`.
//!
//! Note that closeness is **directed** (the denominator normalizes by the
//! *rater's* interaction budget) and **not bounded by 1** — `m(i,j)` can
//! exceed 1. Callers that need per-rater normalization (like the Gaussian
//! filter in `socialtrust-core`) compare a pair's closeness against the
//! rater's own closeness distribution, not against a global scale.

use serde::{Deserialize, Serialize};

use crate::distance::shortest_path;
use crate::graph::SocialGraph;
use crate::interaction::InteractionTracker;
use crate::relationship::weighted_relationship_sum;
use crate::NodeId;

/// Configuration for the closeness model.
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct ClosenessConfig {
    /// Use the relationship-weighted numerator of Eq. (10) instead of the
    /// plain relationship count of Eq. (2). This is the falsification-
    /// resilient mode of Section 4.4.
    pub weighted_relationships: bool,
    /// The relationship scaling weight `λ ∈ [0.5, 1]` of Eq. (10). Ignored
    /// when `weighted_relationships` is `false`.
    pub lambda: f64,
    /// Hop cap for the Eq. (4) shortest-path fallback. The Overstock trace
    /// shows transactions concentrate within 3 hops, so paths longer than
    /// the cap count as "socially unrelated" (closeness 0). `None` searches
    /// the whole component.
    pub path_hop_cap: Option<u32>,
}

impl Default for ClosenessConfig {
    fn default() -> Self {
        ClosenessConfig {
            weighted_relationships: false,
            lambda: 0.8,
            path_hop_cap: Some(6),
        }
    }
}

impl ClosenessConfig {
    /// The falsification-resilient configuration of Section 4.4
    /// (Eq. (10) numerator with the given `λ`).
    pub fn weighted(lambda: f64) -> Self {
        assert!(
            (0.5..=1.0).contains(&lambda),
            "λ must be in [0.5, 1], got {lambda}"
        );
        ClosenessConfig {
            weighted_relationships: true,
            lambda,
            ..ClosenessConfig::default()
        }
    }
}

/// Computes social closeness `Ωc(i,j)` from a social graph and an
/// interaction tracker.
///
/// The model borrows both inputs; build it fresh whenever you need closeness
/// values (construction is free).
#[derive(Debug, Clone, Copy)]
pub struct ClosenessModel<'a> {
    graph: &'a SocialGraph,
    interactions: &'a InteractionTracker,
    config: ClosenessConfig,
}

impl<'a> ClosenessModel<'a> {
    /// Create a closeness model over `graph` and `interactions`.
    pub fn new(
        graph: &'a SocialGraph,
        interactions: &'a InteractionTracker,
        config: ClosenessConfig,
    ) -> Self {
        ClosenessModel {
            graph,
            interactions,
            config,
        }
    }

    /// The underlying configuration.
    pub fn config(&self) -> ClosenessConfig {
        self.config
    }

    /// `Σ_{k ∈ S_i} f(i,k)` — the interaction budget of `i` spent on its
    /// friends (the denominator of Eqs. (2)/(10)).
    fn friend_interaction_total(&self, i: NodeId) -> f64 {
        self.graph
            .neighbors(i)
            .iter()
            .map(|&k| self.interactions.frequency(i, k))
            .sum()
    }

    /// Closeness between *adjacent* nodes — Eq. (2), or Eq. (10) when
    /// `weighted_relationships` is set. Returns `0.0` if the nodes are not
    /// adjacent or `i` has no interactions with any friend.
    pub fn adjacent_closeness(&self, i: NodeId, j: NodeId) -> f64 {
        let rels = self.graph.relationships(i, j);
        if rels.is_empty() {
            return 0.0;
        }
        let numerator = if self.config.weighted_relationships {
            // Adjacency floors the numerator at 1: Section 4.4's resilience
            // argument is that a pair with high interaction frequency keeps
            // a large closeness value no matter how the declared
            // relationships are manipulated. Declaring a single weak-kind
            // relationship must not let a heavily-interacting pair slide
            // under the closeness-band thresholds; the weighting only
            // discounts *additional* (easily faked) relationships relative
            // to the plain count of Eq. (2).
            weighted_relationship_sum(rels, self.config.lambda).max(1.0)
        } else {
            rels.len() as f64
        };
        let total = self.friend_interaction_total(i);
        if total <= 0.0 {
            return 0.0;
        }
        numerator * self.interactions.frequency(i, j) / total
    }

    /// Full closeness `Ωc(i,j)` with the Eq. (3) common-friend rule and the
    /// Eq. (4) path-minimum fallback for non-adjacent pairs.
    ///
    /// Conventions:
    /// * `Ωc(i,i)` is defined as the maximum adjacent closeness of `i`
    ///   (a node is at least as close to itself as to its closest friend);
    ///   in practice raters never rate themselves so this case is inert.
    /// * Disconnected pairs (or pairs beyond `path_hop_cap`) get `0.0`.
    pub fn closeness(&self, i: NodeId, j: NodeId) -> f64 {
        if i == j {
            return self
                .graph
                .neighbors(i)
                .iter()
                .map(|&k| self.adjacent_closeness(i, k))
                .fold(0.0, f64::max);
        }
        if self.graph.are_adjacent(i, j) {
            return self.adjacent_closeness(i, j);
        }
        let common = self.graph.common_friends(i, j);
        if !common.is_empty() {
            // Eq. (3): friend-of-friend averaging over all common friends.
            return common
                .iter()
                .map(|&k| (self.adjacent_closeness(i, k) + self.adjacent_closeness(k, j)) / 2.0)
                .sum();
        }
        // Eq. (4): minimum adjacent closeness along a shortest social path.
        match shortest_path(self.graph, i, j) {
            Some(path) => {
                if let Some(cap) = self.config.path_hop_cap {
                    if (path.len() as u32).saturating_sub(1) > cap {
                        return 0.0;
                    }
                }
                let min_adjacent = path
                    .windows(2)
                    .map(|w| self.adjacent_closeness(w[0], w[1]))
                    .fold(f64::INFINITY, f64::min);
                // A degenerate path with no edges would leave the fold at
                // +∞; such a pair has no social evidence, so treat it like
                // a disconnected one. (Any path edge with relationships but
                // zero interactions already yields a finite 0.0 minimum.)
                if min_adjacent.is_finite() {
                    min_adjacent
                } else {
                    0.0
                }
            }
            None => 0.0,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::relationship::{Relationship, RelationshipKind};

    /// A hand-computable fixture:
    ///
    /// ```text
    ///   0 ──(2 rels)── 1 ──── 2        4 (isolated)
    ///   │                     │
    ///   └───────── 3 ─────────┘
    /// ```
    ///
    /// Interactions: f(0,1)=6, f(0,3)=2, f(1,0)=1, f(1,2)=3, f(3,0)=1,
    /// f(3,2)=1, f(2,1)=2, f(2,3)=2.
    fn fixture() -> (SocialGraph, InteractionTracker) {
        let mut g = SocialGraph::new(5);
        g.add_relationship(NodeId(0), NodeId(1), Relationship::friendship());
        g.add_relationship(NodeId(0), NodeId(1), Relationship::colleague());
        g.add_relationship(NodeId(1), NodeId(2), Relationship::friendship());
        g.add_relationship(NodeId(0), NodeId(3), Relationship::friendship());
        g.add_relationship(NodeId(3), NodeId(2), Relationship::friendship());
        let mut t = InteractionTracker::new(5);
        t.record(NodeId(0), NodeId(1), 6.0);
        t.record(NodeId(0), NodeId(3), 2.0);
        t.record(NodeId(1), NodeId(0), 1.0);
        t.record(NodeId(1), NodeId(2), 3.0);
        t.record(NodeId(3), NodeId(0), 1.0);
        t.record(NodeId(3), NodeId(2), 1.0);
        t.record(NodeId(2), NodeId(1), 2.0);
        t.record(NodeId(2), NodeId(3), 2.0);
        (g, t)
    }

    fn model<'a>(g: &'a SocialGraph, t: &'a InteractionTracker) -> ClosenessModel<'a> {
        ClosenessModel::new(g, t, ClosenessConfig::default())
    }

    #[test]
    fn adjacent_closeness_matches_equation_2() {
        let (g, t) = fixture();
        let m = model(&g, &t);
        // Ωc(0,1) = m(0,1)·f(0,1)/(f(0,1)+f(0,3)) = 2·6/8 = 1.5
        assert!((m.adjacent_closeness(NodeId(0), NodeId(1)) - 1.5).abs() < 1e-12);
        // Ωc(0,3) = 1·2/8 = 0.25
        assert!((m.adjacent_closeness(NodeId(0), NodeId(3)) - 0.25).abs() < 1e-12);
        // Direction matters: Ωc(1,0) = 2·1/(1+3) = 0.5
        assert!((m.adjacent_closeness(NodeId(1), NodeId(0)) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn adjacent_closeness_zero_without_interactions() {
        let mut g = SocialGraph::new(2);
        g.add_relationship(NodeId(0), NodeId(1), Relationship::friendship());
        let t = InteractionTracker::new(2);
        let m = model(&g, &t);
        assert_eq!(m.adjacent_closeness(NodeId(0), NodeId(1)), 0.0);
    }

    #[test]
    fn non_adjacent_closeness_uses_common_friends() {
        let (g, t) = fixture();
        let m = model(&g, &t);
        // 0 and 2 are non-adjacent with common friends {1, 3}.
        // Eq. (3): (Ωc(0,1)+Ωc(1,2))/2 + (Ωc(0,3)+Ωc(3,2))/2
        // Ωc(1,2) = 1·3/4 = 0.75 ; Ωc(3,2) = 1·1/2 = 0.5
        let expected = (1.5 + 0.75) / 2.0 + (0.25 + 0.5) / 2.0;
        assert!((m.closeness(NodeId(0), NodeId(2)) - expected).abs() < 1e-12);
    }

    #[test]
    fn path_fallback_takes_minimum_along_path() {
        // Path 0-1-2-3, no common friends between 0 and 3.
        let mut g = SocialGraph::new(4);
        g.add_relationship(NodeId(0), NodeId(1), Relationship::friendship());
        g.add_relationship(NodeId(1), NodeId(2), Relationship::friendship());
        g.add_relationship(NodeId(2), NodeId(3), Relationship::friendship());
        let mut t = InteractionTracker::new(4);
        t.record(NodeId(0), NodeId(1), 4.0);
        t.record(NodeId(1), NodeId(2), 2.0);
        t.record(NodeId(1), NodeId(0), 2.0);
        t.record(NodeId(2), NodeId(3), 1.0);
        let m = model(&g, &t);
        // Adjacent closenesses along the path: Ωc(0,1)=1·4/4=1,
        // Ωc(1,2)=1·2/4=0.5, Ωc(2,3)=1·1/1=1. Minimum = 0.5.
        assert!((m.closeness(NodeId(0), NodeId(3)) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn path_with_interaction_free_edge_is_zero_not_huge() {
        // Path 0-1-2-3 with no common friends between 0 and 3, where the
        // middle edge carries a relationship but node 1 never interacts:
        // the Eq. (4) minimum must be exactly 0.0 (never f64::MAX or ∞).
        let mut g = SocialGraph::new(4);
        g.add_relationship(NodeId(0), NodeId(1), Relationship::friendship());
        g.add_relationship(NodeId(1), NodeId(2), Relationship::friendship());
        g.add_relationship(NodeId(2), NodeId(3), Relationship::friendship());
        let mut t = InteractionTracker::new(4);
        t.record(NodeId(0), NodeId(1), 4.0);
        t.record(NodeId(2), NodeId(3), 1.0);
        let m = model(&g, &t);
        // Ωc(1,2) = 0 (node 1 has zero friend interactions), so the path
        // minimum is 0.
        let c = m.closeness(NodeId(0), NodeId(3));
        assert_eq!(c, 0.0);
        assert!(c.is_finite());
    }

    #[test]
    fn disconnected_pair_has_zero_closeness() {
        let (g, t) = fixture();
        let m = model(&g, &t);
        assert_eq!(m.closeness(NodeId(0), NodeId(4)), 0.0);
        assert_eq!(m.closeness(NodeId(4), NodeId(0)), 0.0);
    }

    #[test]
    fn hop_cap_zeroes_long_paths() {
        let mut g = SocialGraph::new(5);
        for i in 0..4u32 {
            g.add_relationship(NodeId(i), NodeId(i + 1), Relationship::friendship());
        }
        let mut t = InteractionTracker::new(5);
        for i in 0..4u32 {
            t.record(NodeId(i), NodeId(i + 1), 1.0);
            t.record(NodeId(i + 1), NodeId(i), 1.0);
        }
        let cfg = ClosenessConfig {
            path_hop_cap: Some(2),
            ..ClosenessConfig::default()
        };
        let m = ClosenessModel::new(&g, &t, cfg);
        // 0 → 4 is 4 hops: beyond the cap, and 0/4 share no common friend.
        assert_eq!(m.closeness(NodeId(0), NodeId(4)), 0.0);
        // 0 → 2 has common friend 1, so the cap is irrelevant there.
        assert!(m.closeness(NodeId(0), NodeId(2)) > 0.0);
    }

    #[test]
    fn self_closeness_is_max_adjacent() {
        let (g, t) = fixture();
        let m = model(&g, &t);
        assert!((m.closeness(NodeId(0), NodeId(0)) - 1.5).abs() < 1e-12);
        assert_eq!(m.closeness(NodeId(4), NodeId(4)), 0.0);
    }

    #[test]
    fn weighted_mode_discounts_weak_relationships() {
        let mut g = SocialGraph::new(2);
        // One strong + three weak relationships.
        g.add_relationship(NodeId(0), NodeId(1), Relationship::kinship());
        for _ in 0..3 {
            g.add_relationship(
                NodeId(0),
                NodeId(1),
                Relationship::with_weight(RelationshipKind::Other, 0.3),
            );
        }
        let mut t = InteractionTracker::new(2);
        t.record(NodeId(0), NodeId(1), 1.0);
        let plain = ClosenessModel::new(&g, &t, ClosenessConfig::default());
        let weighted = ClosenessModel::new(&g, &t, ClosenessConfig::weighted(0.5));
        // Plain count: 4 · 1 = 4. Weighted: 1 + .5·.3 + .25·.3 + .125·.3 = 1.2625.
        assert!((plain.adjacent_closeness(NodeId(0), NodeId(1)) - 4.0).abs() < 1e-12);
        assert!(
            (weighted.adjacent_closeness(NodeId(0), NodeId(1)) - 1.2625).abs() < 1e-12,
            "got {}",
            weighted.adjacent_closeness(NodeId(0), NodeId(1))
        );
    }

    #[test]
    fn adding_fake_relationships_barely_moves_weighted_closeness() {
        // Section 4.4's resilience argument, quantified: going from 1 to 10
        // weak relationships multiplies weighted closeness by < 2 when the
        // interaction frequency stays flat (with λ=0.5, w=0.3).
        let build = |extra: usize| {
            let mut g = SocialGraph::new(2);
            g.add_relationship(NodeId(0), NodeId(1), Relationship::kinship());
            for _ in 0..extra {
                g.add_relationship(
                    NodeId(0),
                    NodeId(1),
                    Relationship::with_weight(RelationshipKind::Other, 0.3),
                );
            }
            g
        };
        let mut t = InteractionTracker::new(2);
        t.record(NodeId(0), NodeId(1), 1.0);
        let g1 = build(0);
        let g10 = build(9);
        let c1 = ClosenessModel::new(&g1, &t, ClosenessConfig::weighted(0.5))
            .adjacent_closeness(NodeId(0), NodeId(1));
        let c10 = ClosenessModel::new(&g10, &t, ClosenessConfig::weighted(0.5))
            .adjacent_closeness(NodeId(0), NodeId(1));
        assert!(c10 / c1 < 2.0, "ratio = {}", c10 / c1);
        // While the unweighted count would grow 10×:
        let p1 = ClosenessModel::new(&g1, &t, ClosenessConfig::default())
            .adjacent_closeness(NodeId(0), NodeId(1));
        let p10 = ClosenessModel::new(&g10, &t, ClosenessConfig::default())
            .adjacent_closeness(NodeId(0), NodeId(1));
        assert!((p10 / p1 - 10.0).abs() < 1e-9);
    }
}
