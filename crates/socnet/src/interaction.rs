//! Pairwise interaction-frequency tracking.
//!
//! In a P2P network integrated with a social network, *"an interaction can
//! be regarded as an action that a peer requests a resource from another
//! peer"* (Section 4.1). The closeness Equations (2) and (10) normalize the
//! directed interaction frequency `f(i,j)` by node `i`'s total outgoing
//! interactions `Σ_k f(i,k)`; this makes closeness expensive to fake —
//! inflating one edge deflates every other edge of the same rater.
//!
//! Rows are stored as sorted id/value slice pairs rather than per-node
//! `BTreeMap`s: a frequency probe is one binary search over a contiguous
//! `u32` slice, iteration is ascending by construction, and the whole
//! tracker is flat `Vec`s that [`InteractionTracker::bytes`] can account
//! for exactly.

use serde::{Deserialize, Serialize};

use crate::dirty::{DirtyDeltaRef, DirtyLog};
use crate::NodeId;

/// One node's outgoing frequencies: `ids` sorted ascending, `vals`
/// parallel to it.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
struct SparseRow {
    ids: Vec<NodeId>,
    vals: Vec<f64>,
}

impl SparseRow {
    #[inline]
    fn get(&self, to: NodeId) -> f64 {
        match self.ids.binary_search(&to) {
            Ok(pos) => self.vals[pos],
            Err(_) => 0.0,
        }
    }

    #[inline]
    fn add(&mut self, to: NodeId, amount: f64) {
        match self.ids.binary_search(&to) {
            Ok(pos) => self.vals[pos] += amount,
            Err(pos) => {
                self.ids.insert(pos, to);
                self.vals.insert(pos, amount);
            }
        }
    }
}

/// Tracks directed interaction frequencies `f(i,j)` between nodes.
///
/// Frequencies are `f64` so callers can record either raw counts or
/// rates (e.g. interactions per month, as in the Overstock trace).
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct InteractionTracker {
    /// `rows[i]` holds `f(i, ·)` as a sorted id/value pair of slices.
    rows: Vec<SparseRow>,
    /// `totals[i] = Σ_k f(i, k)` (kept incrementally to avoid rescans).
    totals: Vec<f64>,
    /// Epoch + per-node dirty log (see [`InteractionTracker::epoch`]).
    /// Serialized along with the frequencies, so a roundtripped tracker
    /// keeps its epoch history.
    dirty: DirtyLog,
}

impl InteractionTracker {
    /// A tracker for `n` nodes with all frequencies zero.
    pub fn new(n: usize) -> Self {
        InteractionTracker {
            rows: vec![SparseRow::default(); n],
            totals: vec![0.0; n],
            dirty: DirtyLog::new(),
        }
    }

    /// Number of nodes tracked.
    #[inline]
    pub fn node_count(&self) -> usize {
        self.totals.len()
    }

    /// Mutation epoch: bumped by every state change (`record`, `clear`,
    /// a growing `ensure_nodes`). Two calls observing the same epoch
    /// on the same tracker see identical frequencies; snapshots
    /// ([`crate::snapshot::GraphSnapshot`]) are stamped with it.
    #[inline]
    pub fn epoch(&self) -> u64 {
        self.dirty.epoch()
    }

    /// Which nodes had their outgoing frequencies changed after epoch
    /// `since`, as a borrowed view of the dirty log (see
    /// [`DirtyLog::changes_since_ref`]). `record(from, to, _)` dirties
    /// only `from`: the closeness equations consume interaction data
    /// exclusively through `f(from, ·)` and `Σ_k f(from, k)`, both keyed
    /// by the initiating node. `clear` reports [`DirtyDeltaRef::Full`].
    #[inline]
    pub fn changes_since_ref(&self, since: u64) -> DirtyDeltaRef<'_> {
        self.dirty.changes_since_ref(since)
    }

    /// Grow the tracker to cover at least `n` nodes.
    pub fn ensure_nodes(&mut self, n: usize) {
        let old = self.totals.len();
        if n > old {
            self.rows.resize(n, SparseRow::default());
            self.totals.resize(n, 0.0);
            // New nodes start with zero frequencies, so they cannot change
            // any existing value — but consumers indexing per-node state
            // still need to learn they exist.
            self.dirty.touch((old..n).map(NodeId::from));
        }
    }

    /// Record `amount` additional interactions initiated by `from` toward
    /// `to`.
    ///
    /// # Panics
    /// Panics if `amount` is negative/non-finite or a node is out of range.
    pub fn record(&mut self, from: NodeId, to: NodeId, amount: f64) {
        assert!(
            amount.is_finite() && amount >= 0.0,
            "interaction amount must be a finite non-negative number, got {amount}"
        );
        assert!(
            from.index() < self.totals.len() && to.index() < self.totals.len(),
            "node out of range"
        );
        self.rows[from.index()].add(to, amount);
        self.totals[from.index()] += amount;
        // Only `from` is dirtied: closeness reads interaction data solely
        // through f(from, ·) and the outgoing total of `from`.
        self.dirty.touch([from]);
    }

    /// The directed frequency `f(from, to)`.
    #[inline]
    pub fn frequency(&self, from: NodeId, to: NodeId) -> f64 {
        self.rows
            .get(from.index())
            .map(|r| r.get(to))
            .unwrap_or(0.0)
    }

    /// `Σ_k f(from, k)` — the total outgoing interactions of `from`.
    #[inline]
    pub fn total_outgoing(&self, from: NodeId) -> f64 {
        self.totals.get(from.index()).copied().unwrap_or(0.0)
    }

    /// The share `f(from,to) / Σ_k f(from,k)` of `from`'s interactions that
    /// go to `to`; `0.0` when `from` has no interactions at all.
    pub fn normalized_frequency(&self, from: NodeId, to: NodeId) -> f64 {
        let total = self.total_outgoing(from);
        if total <= 0.0 {
            0.0
        } else {
            self.frequency(from, to) / total
        }
    }

    /// Iterate over `(to, f(from,to))` pairs for a given `from` node, in
    /// ascending `to` order.
    pub fn outgoing(&self, from: NodeId) -> impl Iterator<Item = (NodeId, f64)> + '_ {
        self.rows
            .get(from.index())
            .into_iter()
            .flat_map(|r| r.ids.iter().copied().zip(r.vals.iter().copied()))
    }

    /// Reset all frequencies to zero, keeping the node count (and the row
    /// allocations, which refill quickly in steady state).
    pub fn clear(&mut self) {
        for r in &mut self.rows {
            r.ids.clear();
            r.vals.clear();
        }
        for t in &mut self.totals {
            *t = 0.0;
        }
        // Every node's frequencies changed at once; cheaper to declare a
        // whole-state mutation than to enumerate all nodes.
        self.dirty.touch_all();
    }

    /// Approximate heap bytes held by the tracker (rows, totals, dirty
    /// log).
    pub fn bytes(&self) -> usize {
        let mut total = self.rows.capacity() * std::mem::size_of::<SparseRow>()
            + self.totals.capacity() * std::mem::size_of::<f64>();
        for r in &self.rows {
            total += r.ids.capacity() * std::mem::size_of::<NodeId>()
                + r.vals.capacity() * std::mem::size_of::<f64>();
        }
        total + self.dirty.bytes()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn new_tracker_is_zero() {
        let t = InteractionTracker::new(3);
        assert_eq!(t.node_count(), 3);
        assert_eq!(t.frequency(NodeId(0), NodeId(1)), 0.0);
        assert_eq!(t.total_outgoing(NodeId(0)), 0.0);
        assert_eq!(t.normalized_frequency(NodeId(0), NodeId(1)), 0.0);
    }

    #[test]
    fn record_accumulates() {
        let mut t = InteractionTracker::new(3);
        t.record(NodeId(0), NodeId(1), 2.0);
        t.record(NodeId(0), NodeId(1), 3.0);
        t.record(NodeId(0), NodeId(2), 5.0);
        assert_eq!(t.frequency(NodeId(0), NodeId(1)), 5.0);
        assert_eq!(t.frequency(NodeId(0), NodeId(2)), 5.0);
        assert_eq!(t.total_outgoing(NodeId(0)), 10.0);
        assert_eq!(t.normalized_frequency(NodeId(0), NodeId(1)), 0.5);
    }

    #[test]
    fn frequencies_are_directed() {
        let mut t = InteractionTracker::new(2);
        t.record(NodeId(0), NodeId(1), 4.0);
        assert_eq!(t.frequency(NodeId(0), NodeId(1)), 4.0);
        assert_eq!(t.frequency(NodeId(1), NodeId(0)), 0.0);
        assert_eq!(t.total_outgoing(NodeId(1)), 0.0);
    }

    #[test]
    fn normalized_shares_sum_to_one() {
        let mut t = InteractionTracker::new(4);
        t.record(NodeId(0), NodeId(1), 1.0);
        t.record(NodeId(0), NodeId(2), 2.0);
        t.record(NodeId(0), NodeId(3), 7.0);
        let sum: f64 = (1..4)
            .map(|j| t.normalized_frequency(NodeId(0), NodeId(j)))
            .sum();
        assert!((sum - 1.0).abs() < 1e-12);
    }

    #[test]
    fn ensure_nodes_grows() {
        let mut t = InteractionTracker::new(1);
        t.ensure_nodes(5);
        assert_eq!(t.node_count(), 5);
        t.record(NodeId(4), NodeId(0), 1.0);
        assert_eq!(t.frequency(NodeId(4), NodeId(0)), 1.0);
        // Shrinking is a no-op.
        t.ensure_nodes(2);
        assert_eq!(t.node_count(), 5);
    }

    #[test]
    fn clear_resets_but_keeps_size() {
        let mut t = InteractionTracker::new(2);
        t.record(NodeId(0), NodeId(1), 3.0);
        t.clear();
        assert_eq!(t.node_count(), 2);
        assert_eq!(t.frequency(NodeId(0), NodeId(1)), 0.0);
        assert_eq!(t.total_outgoing(NodeId(0)), 0.0);
    }

    #[test]
    fn outgoing_iterates_pairs_ascending() {
        let mut t = InteractionTracker::new(3);
        t.record(NodeId(0), NodeId(2), 2.0);
        t.record(NodeId(0), NodeId(1), 1.0);
        let pairs: Vec<(NodeId, f64)> = t.outgoing(NodeId(0)).collect();
        assert_eq!(pairs, vec![(NodeId(1), 1.0), (NodeId(2), 2.0)]);
    }

    #[test]
    fn epoch_tracks_every_mutation() {
        let mut t = InteractionTracker::new(2);
        assert_eq!(t.epoch(), 0);
        t.record(NodeId(0), NodeId(1), 1.0);
        let after_record = t.epoch();
        assert!(after_record > 0);
        // Queries never bump.
        let _ = t.frequency(NodeId(0), NodeId(1));
        let _ = t.total_outgoing(NodeId(0));
        assert_eq!(t.epoch(), after_record);
        t.clear();
        assert!(t.epoch() > after_record);
        let before_grow = t.epoch();
        t.ensure_nodes(5);
        assert!(t.epoch() > before_grow);
        // Non-growing ensure_nodes is a no-op.
        let after_grow = t.epoch();
        t.ensure_nodes(3);
        assert_eq!(t.epoch(), after_grow);
    }

    #[test]
    fn dirty_set_names_the_rater_only() {
        let mut t = InteractionTracker::new(3);
        let e0 = t.epoch();
        t.record(NodeId(0), NodeId(1), 1.0);
        let delta = t.changes_since_ref(e0);
        assert_eq!(delta.nodes().collect::<Vec<_>>(), vec![NodeId(0)]);
        assert!(matches!(
            delta,
            DirtyDeltaRef::Sparse {
                structural: false,
                ..
            }
        ));
        t.clear();
        assert_eq!(t.changes_since_ref(e0), DirtyDeltaRef::Full);
        assert_eq!(t.changes_since_ref(t.epoch()), DirtyDeltaRef::Clean);
    }

    #[test]
    fn serde_roundtrip_preserves_frequencies() {
        let mut t = InteractionTracker::new(3);
        t.record(NodeId(0), NodeId(1), 2.5);
        t.record(NodeId(2), NodeId(0), 1.0);
        let json = serde_json::to_string(&t).expect("serialize");
        let back: InteractionTracker = serde_json::from_str(&json).expect("deserialize");
        assert_eq!(back.node_count(), 3);
        assert_eq!(back.frequency(NodeId(0), NodeId(1)), 2.5);
        assert_eq!(back.total_outgoing(NodeId(2)), 1.0);
    }

    #[test]
    fn bytes_accounts_for_rows() {
        let mut t = InteractionTracker::new(100);
        let empty = t.bytes();
        for j in 1..100u32 {
            t.record(NodeId(0), NodeId(j), 1.0);
        }
        assert!(t.bytes() > empty);
    }

    #[test]
    #[should_panic(expected = "non-negative")]
    fn negative_amount_rejected() {
        let mut t = InteractionTracker::new(2);
        t.record(NodeId(0), NodeId(1), -1.0);
    }
}
