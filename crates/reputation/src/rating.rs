//! Ratings and the rating ledger.
//!
//! A [`Rating`] is one client→server service judgement. The
//! [`RatingLedger`] does the bookkeeping that SocialTrust's detection layer
//! needs (Section 4.3 of the paper): per update interval `T`, the number of
//! positive and negative ratings `t⁺(i,j)` / `t⁻(i,j)` from each rater to
//! each ratee, plus lifetime totals and the system-wide average rating
//! frequency `F̄` used in the `θ·F̄` suspicion threshold.

use std::collections::BTreeMap;

use serde::{Deserialize, Serialize};
use socialtrust_socnet::interest::InterestId;
use socialtrust_socnet::NodeId;

/// One service rating from a client (`rater`) about a server (`ratee`).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Rating {
    /// The client that received the service and issues the judgement.
    pub rater: NodeId,
    /// The server being judged.
    pub ratee: NodeId,
    /// The rating value. The paper's P2P experiments use `+1` (authentic
    /// service) / `-1` (inauthentic); the Overstock trace uses `[-2, +2]`.
    pub value: f64,
    /// The interest category of the requested resource, when known. Used to
    /// maintain request-weighted interest profiles (Eq. (11)).
    pub interest: Option<InterestId>,
    /// `true` when the rating is attached to an actual completed service
    /// transaction (the normal case). Colluders emit *non-transactional*
    /// ratings — rating spam with no real service behind it. The eBay-style
    /// model treats the two differently, as the paper describes: the weekly
    /// service record aggregates transactional feedback at node level,
    /// while repeat ratings from one rater count once. Frequency-weighted
    /// systems (EigenTrust) and detection layers (SocialTrust) do not
    /// distinguish the two.
    pub transactional: bool,
}

impl Rating {
    /// A transactional rating with no interest annotation.
    pub fn new(rater: NodeId, ratee: NodeId, value: f64) -> Self {
        Rating {
            rater,
            ratee,
            value,
            interest: None,
            transactional: true,
        }
    }

    /// A transactional rating annotated with the requested resource's
    /// category.
    pub fn with_interest(rater: NodeId, ratee: NodeId, value: f64, interest: InterestId) -> Self {
        Rating {
            rater,
            ratee,
            value,
            interest: Some(interest),
            transactional: true,
        }
    }

    /// Mark this rating as pure rating activity not backed by a service
    /// transaction (what collusion spam is).
    pub fn non_transactional(mut self) -> Self {
        self.transactional = false;
        self
    }

    /// `true` if the rating is positive (strictly greater than zero).
    #[inline]
    pub fn is_positive(&self) -> bool {
        self.value > 0.0
    }
}

/// Directed rater→ratee pair key.
pub type PairKey = (NodeId, NodeId);

/// Aggregate statistics for one rater→ratee pair within one interval (or
/// over a lifetime).
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize, Deserialize)]
pub struct PairStats {
    /// Number of positive ratings (`t⁺(i,j)` for the current interval).
    pub positive: u64,
    /// Number of negative ratings (`t⁻(i,j)`).
    pub negative: u64,
    /// Sum of rating values.
    pub sum: f64,
}

impl PairStats {
    /// Total number of ratings.
    #[inline]
    pub fn count(&self) -> u64 {
        self.positive + self.negative
    }

    fn absorb(&mut self, value: f64) {
        if value > 0.0 {
            self.positive += 1;
        } else if value < 0.0 {
            self.negative += 1;
        } else {
            // Zero-valued ratings are counted as neither positive nor
            // negative but still contribute to the sum (a no-op).
        }
        self.sum += value;
    }
}

/// Bookkeeping of who rated whom, how often, and how, per update interval.
///
/// The ledger is the detection substrate of SocialTrust: resource managers
/// *"keep track of the rating frequencies and values of other nodes for the
/// nodes [they manage]"* and, at the end of each update interval `T`,
/// compare `t⁺(i,j)` / `t⁻(i,j)` against frequency thresholds.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct RatingLedger {
    interval: BTreeMap<PairKey, PairStats>,
    lifetime: BTreeMap<PairKey, PairStats>,
    intervals_elapsed: u64,
}

impl RatingLedger {
    /// An empty ledger.
    pub fn new() -> Self {
        RatingLedger::default()
    }

    /// Record one rating into the current interval (and the lifetime
    /// totals).
    pub fn record(&mut self, rating: &Rating) {
        let key = (rating.rater, rating.ratee);
        self.interval.entry(key).or_default().absorb(rating.value);
        self.lifetime.entry(key).or_default().absorb(rating.value);
    }

    /// Statistics for `rater → ratee` in the current interval.
    pub fn interval_stats(&self, rater: NodeId, ratee: NodeId) -> PairStats {
        self.interval
            .get(&(rater, ratee))
            .copied()
            .unwrap_or_default()
    }

    /// Lifetime statistics for `rater → ratee`.
    pub fn lifetime_stats(&self, rater: NodeId, ratee: NodeId) -> PairStats {
        self.lifetime
            .get(&(rater, ratee))
            .copied()
            .unwrap_or_default()
    }

    /// Iterate over `(pair, stats)` for every pair that rated in the
    /// current interval, in unspecified order.
    pub fn interval_pairs(&self) -> impl Iterator<Item = (PairKey, PairStats)> + '_ {
        self.interval.iter().map(|(&k, &v)| (k, v))
    }

    /// Number of distinct rater→ratee pairs active in the current interval.
    pub fn active_pair_count(&self) -> usize {
        self.interval.len()
    }

    /// The average per-pair rating frequency `F̄` in the current interval:
    /// mean number of ratings over all active pairs. `0.0` when idle.
    /// SocialTrust flags pairs whose frequency exceeds `θ·F̄` (θ > 1).
    pub fn average_rating_frequency(&self) -> f64 {
        if self.interval.is_empty() {
            return 0.0;
        }
        let total: u64 = self.interval.values().map(|s| s.count()).sum();
        total as f64 / self.interval.len() as f64
    }

    /// Close the current interval: clears per-interval counters (lifetime
    /// totals are kept) and bumps the interval counter.
    pub fn end_interval(&mut self) {
        self.interval.clear();
        self.intervals_elapsed += 1;
    }

    /// How many intervals have been closed so far.
    pub fn intervals_elapsed(&self) -> u64 {
        self.intervals_elapsed
    }

    /// Forget every record involving `node`, in both the current interval
    /// and the lifetime totals — the bookkeeping half of identity reset
    /// (whitewashing).
    pub fn reset_node(&mut self, node: NodeId) {
        self.interval
            .retain(|&(rater, ratee), _| rater != node && ratee != node);
        self.lifetime
            .retain(|&(rater, ratee), _| rater != node && ratee != node);
    }

    /// All distinct ratees node `rater` has rated over its lifetime,
    /// ascending — one walk over the rater's key range.
    /// SocialTrust uses this set to compute the rater's personal closeness /
    /// similarity statistics (`Ω̄`, `maxΩ`, `minΩ` in Eqs. (6) and (8)).
    pub fn rated_by(&self, rater: NodeId) -> Vec<NodeId> {
        self.lifetime
            .range((rater, NodeId(0))..=(rater, NodeId(u32::MAX)))
            .map(|(&(_, ratee), _)| ratee)
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn r(rater: u32, ratee: u32, value: f64) -> Rating {
        Rating::new(NodeId(rater), NodeId(ratee), value)
    }

    #[test]
    fn record_counts_signs() {
        let mut l = RatingLedger::new();
        l.record(&r(0, 1, 1.0));
        l.record(&r(0, 1, 1.0));
        l.record(&r(0, 1, -1.0));
        let s = l.interval_stats(NodeId(0), NodeId(1));
        assert_eq!(s.positive, 2);
        assert_eq!(s.negative, 1);
        assert_eq!(s.count(), 3);
        assert!((s.sum - 1.0).abs() < 1e-12);
    }

    #[test]
    fn zero_valued_ratings_count_as_neither() {
        let mut l = RatingLedger::new();
        l.record(&r(0, 1, 0.0));
        let s = l.interval_stats(NodeId(0), NodeId(1));
        assert_eq!(s.positive, 0);
        assert_eq!(s.negative, 0);
        assert_eq!(s.count(), 0);
    }

    #[test]
    fn pairs_are_directed() {
        let mut l = RatingLedger::new();
        l.record(&r(0, 1, 1.0));
        assert_eq!(l.interval_stats(NodeId(0), NodeId(1)).positive, 1);
        assert_eq!(l.interval_stats(NodeId(1), NodeId(0)).positive, 0);
    }

    #[test]
    fn end_interval_clears_interval_keeps_lifetime() {
        let mut l = RatingLedger::new();
        l.record(&r(0, 1, 1.0));
        l.end_interval();
        assert_eq!(l.interval_stats(NodeId(0), NodeId(1)).count(), 0);
        assert_eq!(l.lifetime_stats(NodeId(0), NodeId(1)).count(), 1);
        assert_eq!(l.intervals_elapsed(), 1);
        assert_eq!(l.active_pair_count(), 0);
    }

    #[test]
    fn average_rating_frequency_is_per_pair_mean() {
        let mut l = RatingLedger::new();
        // Pair (0,1): 3 ratings; pair (2,3): 1 rating. F̄ = 2.
        l.record(&r(0, 1, 1.0));
        l.record(&r(0, 1, 1.0));
        l.record(&r(0, 1, -1.0));
        l.record(&r(2, 3, 1.0));
        assert!((l.average_rating_frequency() - 2.0).abs() < 1e-12);
        assert_eq!(l.active_pair_count(), 2);
    }

    #[test]
    fn average_rating_frequency_idle_is_zero() {
        let l = RatingLedger::new();
        assert_eq!(l.average_rating_frequency(), 0.0);
    }

    #[test]
    fn rated_by_lists_lifetime_ratees() {
        let mut l = RatingLedger::new();
        l.record(&r(0, 2, 1.0));
        l.record(&r(0, 1, -1.0));
        l.end_interval();
        l.record(&r(0, 3, 1.0));
        l.record(&r(5, 4, 1.0));
        assert_eq!(l.rated_by(NodeId(0)), vec![NodeId(1), NodeId(2), NodeId(3)]);
        assert_eq!(l.rated_by(NodeId(5)), vec![NodeId(4)]);
        assert!(l.rated_by(NodeId(9)).is_empty());
    }

    #[test]
    fn interval_pairs_iterates_active_pairs() {
        let mut l = RatingLedger::new();
        l.record(&r(0, 1, 1.0));
        l.record(&r(2, 3, -1.0));
        let mut pairs: Vec<PairKey> = l.interval_pairs().map(|(k, _)| k).collect();
        pairs.sort();
        assert_eq!(pairs, vec![(NodeId(0), NodeId(1)), (NodeId(2), NodeId(3))]);
    }

    #[test]
    fn rating_constructors() {
        let plain = Rating::new(NodeId(1), NodeId(2), -1.0);
        assert!(!plain.is_positive());
        assert!(plain.interest.is_none());
        let tagged = Rating::with_interest(NodeId(1), NodeId(2), 1.0, InterestId(4));
        assert!(tagged.is_positive());
        assert_eq!(tagged.interest, Some(InterestId(4)));
    }
}
