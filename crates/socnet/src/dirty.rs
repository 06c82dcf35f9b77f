//! Epoch-based per-node dirty tracking for incremental snapshot refresh.
//!
//! [`SocialGraph`](crate::graph::SocialGraph) and
//! [`InteractionTracker`](crate::interaction::InteractionTracker) each embed
//! a [`DirtyLog`]. Every mutator bumps the log's epoch and records *which*
//! nodes it touched; the [`SnapshotStore`](crate::snapshot::SnapshotStore)
//! remembers the epochs its current snapshot was built at and asks the log
//! for [`changes_since_ref`](DirtyLog::changes_since_ref) those epochs. In
//! the steady-state regime the paper's Overstock trace exhibits — most
//! edges quiet each interval — the answer is a small
//! [`DirtyDeltaRef::Sparse`] set, so the store repatches only the touched
//! rows instead of rebuilding the whole CSR.
//!
//! The log is an epoch-ordered journal of `(node, last-touched-epoch)`
//! entries. Re-touching a node tombstones its old slot and appends a fresh
//! entry, so every node appears at most once *live*; an amortized
//! compaction pass drops tombstones once they outnumber live entries,
//! keeping memory bounded by the node count. Because the journal is sorted
//! by epoch, "what changed since epoch `e`?" is a binary search plus a
//! **borrowed** suffix slice — [`changes_since_ref`](DirtyLog::changes_since_ref)
//! hands that slice out without cloning, and a snapshot refresh walks it
//! once to group the dirty rows by the shard that owns them.

use serde::{Deserialize, Serialize};

use crate::NodeId;

/// One journal slot: `node` was last touched at `epoch`. Slots whose node
/// was touched again later are *tombstones* ([`DirtyEntry::is_tombstone`])
/// and must be skipped when enumerating dirty nodes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct DirtyEntry {
    node: NodeId,
    epoch: u64,
}

/// Sentinel marking a superseded journal slot. `u32::MAX` can never be a
/// real node id (dense ids are allocated from 0 and the graph would
/// exhaust memory long before 2³²−1 nodes).
const TOMBSTONE: NodeId = NodeId(u32::MAX);

impl DirtyEntry {
    /// The touched node. Meaningless on tombstones.
    #[inline]
    pub fn node(&self) -> NodeId {
        self.node
    }

    /// The epoch this slot was written at.
    #[inline]
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Whether a later touch of the same node superseded this slot.
    #[inline]
    pub fn is_tombstone(&self) -> bool {
        self.node == TOMBSTONE
    }
}

/// A borrowed view of what changed since a consumer's sync epoch.
/// `Sparse` borrows the log's journal suffix instead of cloning the dirty
/// set.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DirtyDeltaRef<'a> {
    /// Nothing changed; everything derived from the source is still valid.
    Clean,
    /// A sparse set of nodes changed; enumerate them (deduplicated) with
    /// [`DirtyDeltaRef::nodes`].
    Sparse {
        /// The journal suffix written after the sync epoch. May contain
        /// tombstones; the iterator helpers skip them.
        entries: &'a [DirtyEntry],
        /// Whether any of those mutations changed graph *structure*
        /// (edge added or removed). Structural changes can reroute
        /// shortest paths between arbitrary node pairs, so state derived
        /// from paths (Eq. (4) fallbacks) cannot be salvaged by
        /// neighborhood reasoning alone.
        structural: bool,
    },
    /// A whole-state mutation happened (e.g. [`clear`]) — or the consumer
    /// is lagging behind one. Everything derived from the source must be
    /// recomputed.
    ///
    /// [`clear`]: crate::interaction::InteractionTracker::clear
    Full,
}

impl<'a> DirtyDeltaRef<'a> {
    /// The dirty nodes (live journal entries), in touch order, without
    /// duplicates. Empty for `Clean` and `Full`.
    pub fn nodes(&self) -> impl Iterator<Item = NodeId> + 'a {
        let entries = match self {
            DirtyDeltaRef::Sparse { entries, .. } => *entries,
            _ => &[],
        };
        entries.iter().filter(|e| !e.is_tombstone()).map(|e| e.node)
    }
}

/// Epoch counter plus epoch-ordered touch journal (see module docs).
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct DirtyLog {
    /// Bumped by every mutation. `0` means "never mutated".
    epoch: u64,
    /// Touch journal, ascending by epoch. A node's *latest* touch is its
    /// only live slot; earlier slots are tombstones.
    journal: Vec<DirtyEntry>,
    /// Live (non-tombstone) entries in `journal`.
    live: usize,
    /// `slot_of[v]` = index of `v`'s live journal slot, or `u32::MAX`.
    /// Dense per-node array (not a map): one `u32` per node ever touched.
    slot_of: Vec<u32>,
    /// Epoch of the most recent *structural* mutation (edge add/remove).
    structural_epoch: u64,
    /// Epoch of the most recent whole-state mutation (e.g. `clear`).
    /// Consumers synced before this point must do a full recomputation.
    global_epoch: u64,
}

const NO_SLOT: u32 = u32::MAX;

impl DirtyLog {
    /// A fresh log at epoch 0 with nothing dirty.
    pub fn new() -> Self {
        Self::default()
    }

    /// The current epoch. Two observations of the same epoch on the same
    /// source are guaranteed to have seen identical state.
    #[inline]
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Record a non-structural mutation touching `nodes`.
    pub fn touch(&mut self, nodes: impl IntoIterator<Item = NodeId>) {
        self.epoch += 1;
        let e = self.epoch;
        for v in nodes {
            let i = v.index();
            if i >= self.slot_of.len() {
                self.slot_of.resize(i + 1, NO_SLOT);
            }
            let old = self.slot_of[i];
            if old != NO_SLOT {
                self.journal[old as usize].node = TOMBSTONE;
                self.live -= 1;
            }
            self.slot_of[i] = self.journal.len() as u32;
            self.journal.push(DirtyEntry { node: v, epoch: e });
            self.live += 1;
        }
        self.maybe_compact();
    }

    /// Record a structural mutation (edge add/remove) touching `nodes`.
    pub fn touch_structural(&mut self, nodes: impl IntoIterator<Item = NodeId>) {
        self.touch(nodes);
        self.structural_epoch = self.epoch;
    }

    /// Record a whole-state mutation: everything is dirty for every
    /// consumer, and the journal can be dropped (allocations are kept for
    /// reuse).
    pub fn touch_all(&mut self) {
        self.epoch += 1;
        self.global_epoch = self.epoch;
        self.journal.clear();
        self.live = 0;
        self.slot_of.fill(NO_SLOT);
    }

    /// Drop tombstones once they outnumber live entries (amortized O(1)
    /// per touch). Compaction is stable, so the journal stays
    /// epoch-sorted, and it only runs from `&mut` mutators — borrowed
    /// deltas handed out earlier are unaffected.
    fn maybe_compact(&mut self) {
        if self.journal.len() < 64 || self.journal.len() < self.live * 2 {
            return;
        }
        self.journal.retain(|e| !e.is_tombstone());
        for (idx, e) in self.journal.iter().enumerate() {
            self.slot_of[e.node.index()] = idx as u32;
        }
    }

    /// What changed since a consumer's sync epoch `since`, as a borrowed
    /// view. Returns [`DirtyDeltaRef::Full`] when a whole-state mutation
    /// happened after `since`; otherwise a borrowed journal suffix
    /// covering exactly `{v : last_touched(v) > since}`.
    pub fn changes_since_ref(&self, since: u64) -> DirtyDeltaRef<'_> {
        if since >= self.epoch {
            return DirtyDeltaRef::Clean;
        }
        if since < self.global_epoch {
            return DirtyDeltaRef::Full;
        }
        let start = self.journal.partition_point(|e| e.epoch <= since);
        DirtyDeltaRef::Sparse {
            entries: &self.journal[start..],
            structural: self.structural_epoch > since,
        }
    }

    /// Approximate heap bytes held by the log (journal + slot table).
    pub fn bytes(&self) -> usize {
        self.journal.capacity() * std::mem::size_of::<DirtyEntry>()
            + self.slot_of.capacity() * std::mem::size_of::<u32>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The sorted dirty nodes and structural flag of a sparse delta.
    fn sparse(delta: DirtyDeltaRef<'_>) -> (Vec<NodeId>, bool) {
        match delta {
            DirtyDeltaRef::Sparse { structural, .. } => {
                let mut nodes: Vec<NodeId> = delta.nodes().collect();
                nodes.sort();
                (nodes, structural)
            }
            other => panic!("expected sparse delta, got {other:?}"),
        }
    }

    #[test]
    fn fresh_log_is_clean() {
        let log = DirtyLog::new();
        assert_eq!(log.epoch(), 0);
        assert_eq!(log.changes_since_ref(0), DirtyDeltaRef::Clean);
    }

    #[test]
    fn touch_reports_exact_sparse_suffix() {
        let mut log = DirtyLog::new();
        log.touch([NodeId(1)]);
        let mid = log.epoch();
        log.touch([NodeId(2), NodeId(3)]);
        assert_eq!(
            sparse(log.changes_since_ref(0)),
            (vec![NodeId(1), NodeId(2), NodeId(3)], false)
        );
        assert_eq!(
            sparse(log.changes_since_ref(mid)).0,
            vec![NodeId(2), NodeId(3)]
        );
        assert_eq!(log.changes_since_ref(log.epoch()), DirtyDeltaRef::Clean);
    }

    #[test]
    fn repeated_touches_deduplicate() {
        let mut log = DirtyLog::new();
        for _ in 0..100 {
            log.touch([NodeId(7)]);
        }
        assert_eq!(sparse(log.changes_since_ref(0)).0, vec![NodeId(7)]);
    }

    #[test]
    fn structural_flag_tracks_sync_epoch() {
        let mut log = DirtyLog::new();
        log.touch_structural([NodeId(0), NodeId(1)]);
        let after_edge = log.epoch();
        log.touch([NodeId(2)]);
        assert!(sparse(log.changes_since_ref(0)).1);
        // A consumer synced after the edge change only sees the
        // interaction-style touch.
        assert_eq!(
            sparse(log.changes_since_ref(after_edge)),
            (vec![NodeId(2)], false)
        );
    }

    #[test]
    fn touch_all_forces_full_for_lagging_consumers() {
        let mut log = DirtyLog::new();
        log.touch([NodeId(1)]);
        let before_clear = log.epoch();
        log.touch_all();
        assert_eq!(log.changes_since_ref(before_clear), DirtyDeltaRef::Full);
        assert_eq!(log.changes_since_ref(0), DirtyDeltaRef::Full);
        // Consumers synced at/after the clear see only later touches.
        let after_clear = log.epoch();
        assert_eq!(log.changes_since_ref(after_clear), DirtyDeltaRef::Clean);
        log.touch([NodeId(4)]);
        assert_eq!(
            sparse(log.changes_since_ref(after_clear)).0,
            vec![NodeId(4)]
        );
    }

    #[test]
    fn retouched_node_appears_once_at_newest_epoch() {
        let mut log = DirtyLog::new();
        log.touch([NodeId(3)]);
        let mid = log.epoch();
        log.touch_structural([NodeId(1), NodeId(3)]);
        assert_eq!(
            sparse(log.changes_since_ref(0)),
            (vec![NodeId(1), NodeId(3)], true)
        );
        assert_eq!(
            sparse(log.changes_since_ref(mid)),
            (vec![NodeId(1), NodeId(3)], true)
        );
        assert_eq!(log.changes_since_ref(log.epoch()), DirtyDeltaRef::Clean);
    }

    #[test]
    fn compaction_preserves_answers() {
        let mut log = DirtyLog::new();
        // Re-touch a small set far more often than the compaction
        // threshold, so tombstone reclamation must trigger.
        for round in 0..500u32 {
            log.touch([NodeId(round % 5)]);
        }
        assert_eq!(
            sparse(log.changes_since_ref(0)).0,
            (0..5).map(NodeId).collect::<Vec<_>>(),
            "every node exactly once despite 500 touches"
        );
        assert!(
            log.bytes() < 64 * 1024,
            "journal stays bounded by live count"
        );
    }

    #[test]
    fn serde_roundtrip_preserves_history() {
        let mut log = DirtyLog::new();
        log.touch([NodeId(1)]);
        let mid = log.epoch();
        log.touch_structural([NodeId(2)]);
        let json = serde_json::to_string(&log).expect("serialize");
        let back: DirtyLog = serde_json::from_str(&json).expect("deserialize");
        assert_eq!(back.epoch(), log.epoch());
        assert_eq!(back.changes_since_ref(mid), log.changes_since_ref(mid));
        assert_eq!(back.changes_since_ref(0), log.changes_since_ref(0));
    }
}
