//! Immutable, epoch-stamped CSR snapshot of the social substrate,
//! partitioned into node-range shards, with batched single-source
//! closeness kernels and bitset interest similarity.
//!
//! The detection pipeline and the Gaussian rescaling layer are
//! read-dominated: each cycle evaluates `Ωc(i,j)` and `Ωs(i,j)` for
//! thousands of (rater, ratee) pairs against a graph that mutates only
//! sparsely between cycles. Serving those reads straight from
//! [`SocialGraph`] means pointer-chasing `Vec<Vec<NodeId>>` adjacency, a
//! sorted-row probe per interaction frequency, and one full BFS per
//! non-adjacent pair. [`GraphSnapshot`] freezes everything the closeness
//! and similarity equations consume into flat arrays:
//!
//! * **Sharded CSR adjacency** — the node range `0..n` is split into P
//!   contiguous shards ([`CsrShard`]); each holds its own
//!   `offsets`/`neighbors` slab with *edge-parallel* arrays: the
//!   interaction frequency `f(i,j)` and the Eq. (2)/(10) relationship
//!   numerator per edge slot, plus the per-node denominator
//!   `Σ_{k∈S_i} f(i,k)`. Adjacent closeness becomes one multiply-divide;
//!   common friends (Eq. (3)) an allocation-free sorted-slice
//!   intersection. Shards are `Arc`s: a refresh moves the previous
//!   generation's slabs into the next one, so a shard it does not touch
//!   costs nothing and a shard it patches is copied only while a reader
//!   still holds the previous generation.
//! * **Batched Eq. (4)** — one capped BFS per rater serves *all* of its
//!   path-fallback ratees from a single traversal
//!   ([`GraphSnapshot::closeness_to_all`]), on reusable
//!   [`BfsScratch`](crate::distance::BfsScratch) buffers.
//! * **Interned interest bitsets** — fixed-width `u64` blocks per node,
//!   global across shards (profiles have no shard locality); Eq. (1)/(7)
//!   overlap is AND + popcount, Eq. (11) walks the AND mask's set bits
//!   against per-node request-weight rows.
//!
//! Every kernel reproduces the corresponding live-path computation
//! **bit-for-bit** (same floating-point evaluation order as
//! [`ClosenessModel`](crate::closeness::ClosenessModel) and the
//! [`crate::interest`] free functions), *independent of the shard count*:
//! all arithmetic is per-row or walks rows through the same accessor, so
//! shard boundaries never change an evaluation order. The property tests
//! in `tests/properties.rs` drive random mutation/refresh interleavings
//! across P ∈ {1, 2, 8} to prove it.
//!
//! # Epoch semantics and refresh
//!
//! A snapshot is stamped with the graph epoch, interaction epoch, and a
//! caller-supplied profiles version, plus the [`ClosenessConfig`] whose
//! numerators are baked into its edge slots. [`SnapshotStore`] keeps the
//! most recent snapshot and refreshes it from borrowed
//! [`DirtyLog::changes_since_ref`](crate::dirty::DirtyLog::changes_since_ref)
//! deltas. A config switch, a whole-state flush or a changed node count
//! rebuilds every shard (fanned out over rayon). Otherwise one rayon pass
//! over the shards does all the work:
//!
//! * a shard owning an endpoint of a structural change (edge add/remove)
//!   is rebuilt — sound because an edge mutation rewrites exactly its two
//!   endpoints' adjacency rows, and both endpoints are in the dirty set;
//! * a shard holding interaction-dirty rows has just those rows'
//!   frequency slots and denominators repatched, through
//!   `Arc::make_mut`: in place when the store held the previous
//!   generation alone, on a copy of that one shard when a reader still
//!   holds it;
//! * every other shard is carried over as it is.
//!
//! Structural rebuilds emit a `snapshot_rebuild` telemetry event carrying
//! the dirty-node count. Consumers that hold one `Arc<GraphSnapshot>` for
//! a whole cycle are guaranteed a frozen, mutually consistent view — no
//! lock traffic, no mid-cycle epoch drift.

use std::collections::HashMap;
use std::sync::Arc;
use std::time::Instant;

use parking_lot::RwLock;
use socialtrust_telemetry::{Counter, Event, EventSink, Gauge, Histogram, Telemetry};

use crate::closeness::ClosenessConfig;
use crate::dirty::DirtyDeltaRef;
use crate::distance::{with_thread_scratch, BfsScratch};
use crate::graph::SocialGraph;
use crate::interaction::InteractionTracker;
use crate::interest::InterestProfile;
use crate::relationship::weighted_relationship_sum;
use crate::NodeId;

/// Node count one shard aims to cover under the default (adaptive) shard
/// policy. Small graphs stay single-shard; a 1M-node graph splits into
/// [`MAX_SHARDS`] ranges of ~16k rows, so structural churn touching a few
/// endpoints rebuilds ~1/64th of the CSR instead of all of it.
const SHARD_TARGET_NODES: usize = 8192;
/// Upper bound on the adaptive shard count.
const MAX_SHARDS: usize = 64;

/// Default shard count for an `n`-node snapshot: deterministic (no
/// dependence on machine parallelism), one shard per
/// [`SHARD_TARGET_NODES`] rows, clamped to `1..=`[`MAX_SHARDS`].
pub fn default_shard_count(n: usize) -> usize {
    (n / SHARD_TARGET_NODES).clamp(1, MAX_SHARDS)
}

/// One contiguous node range's CSR slab: rows `start..start+len` with
/// *local* offsets (row `i` of the snapshot is row `i - start` here).
#[derive(Debug, Clone)]
struct CsrShard {
    /// First global node id covered by this shard.
    start: usize,
    /// Local row boundaries: row `li`'s slots are
    /// `offsets[li]..offsets[li+1]`. Length is `len + 1`.
    offsets: Vec<u32>,
    /// Neighbor ids (global) per slot, ascending within each row.
    neighbors: Vec<u32>,
    /// Edge-parallel `f(i, neighbors[slot])`.
    freq: Vec<f64>,
    /// Edge-parallel Eq. (2)/(10) numerator for the owning row's
    /// direction. Relationships are per-edge, so the value is identical
    /// for both directions, but it is stored per slot to keep the kernels
    /// branchless.
    numerator: Vec<f64>,
    /// `Σ_{k ∈ S_i} f(i,k)` per local row — the Eq. (2)/(10) denominator,
    /// accumulated over the row in neighbor order.
    friend_total: Vec<f64>,
}

impl CsrShard {
    /// Build the slab for rows `start..end` from live structures. The
    /// per-row loop is identical to the historical unsharded build, so
    /// the arrays are bit-for-bit what a single-slab build would hold in
    /// this range. The edge-parallel arrays are sized exactly from a
    /// degree-sum pass: refreshes patch slabs in place for the rest of
    /// their life, so growth slack would stay resident.
    fn build(
        graph: &SocialGraph,
        interactions: &InteractionTracker,
        config: ClosenessConfig,
        start: usize,
        end: usize,
    ) -> CsrShard {
        let len = end - start;
        let slots: usize = (start..end)
            .map(|i| graph.neighbors(NodeId::from(i)).len())
            .sum();
        let mut offsets = Vec::with_capacity(len + 1);
        let mut neighbors = Vec::with_capacity(slots);
        let mut freq = Vec::with_capacity(slots);
        let mut numerator = Vec::with_capacity(slots);
        let mut friend_total = Vec::with_capacity(len);
        offsets.push(0u32);
        for i in start..end {
            let v = NodeId::from(i);
            let mut total = 0.0;
            for &w in graph.neighbors(v) {
                let f = interactions.frequency(v, w);
                neighbors.push(w.0);
                freq.push(f);
                numerator.push(edge_numerator(graph.relationships(v, w), config));
                total += f;
            }
            friend_total.push(total);
            offsets.push(neighbors.len() as u32);
        }
        CsrShard {
            start,
            offsets,
            neighbors,
            freq,
            numerator,
            friend_total,
        }
    }

    /// Eq. (2)/(10) value for the edge at `slot` of local row `li`.
    #[inline]
    fn value_at(&self, li: usize, slot: usize) -> f64 {
        let total = self.friend_total[li];
        if total <= 0.0 {
            return 0.0;
        }
        self.numerator[slot] * self.freq[slot] / total
    }

    /// Repatch local row `li`'s frequency slots and denominator from the
    /// live tracker (the interaction-dirt fast path).
    fn patch_row(&mut self, li: usize, v: NodeId, interactions: &InteractionTracker) {
        let (s, e) = (self.offsets[li] as usize, self.offsets[li + 1] as usize);
        let mut total = 0.0;
        for slot in s..e {
            let f = interactions.frequency(v, NodeId(self.neighbors[slot]));
            self.freq[slot] = f;
            total += f;
        }
        self.friend_total[li] = total;
    }

    /// Heap bytes held by the slab.
    fn bytes(&self) -> usize {
        self.offsets.capacity() * std::mem::size_of::<u32>()
            + self.neighbors.capacity() * std::mem::size_of::<u32>()
            + self.freq.capacity() * std::mem::size_of::<f64>()
            + self.numerator.capacity() * std::mem::size_of::<f64>()
            + self.friend_total.capacity() * std::mem::size_of::<f64>()
    }
}

/// The interned interest tables, global across shards (interest overlap
/// has no node-range locality and rebuilds only on a profiles-version
/// bump, so sharding it would buy nothing).
#[derive(Debug, Clone, Default)]
struct InterestTables {
    /// Width of each bitset row, in `u64` words.
    words: usize,
    /// Declared interest bitsets, `n × words` (Eq. (1)/(7)).
    declared_bits: Vec<u64>,
    /// Effective (declared ∪ requested) interest bitsets, `n × words`
    /// (Eq. (11)).
    effective_bits: Vec<u64>,
    /// `|Vi|` of the declared set per node.
    declared_len: Vec<u32>,
    /// CSR row boundaries into `eff_ids`/`eff_weights`.
    eff_offsets: Vec<u32>,
    /// Effective-set category ids per node, ascending.
    eff_ids: Vec<u16>,
    /// Request weight `ws(i,l)` parallel to `eff_ids`.
    eff_weights: Vec<f64>,
}

impl InterestTables {
    /// Intern `profiles` for `n` nodes. Nodes past `profiles.len()` get
    /// empty rows.
    fn build(n: usize, profiles: &[InterestProfile]) -> InterestTables {
        let mut t = InterestTables::default();
        t.eff_offsets.push(0);
        let mut universe = 0usize;
        for i in 0..n {
            match profiles.get(i) {
                Some(p) => {
                    for (id, w) in p.effective_weights() {
                        t.eff_ids.push(id.0);
                        t.eff_weights.push(w);
                        universe = universe.max(id.0 as usize + 1);
                    }
                    t.declared_len.push(p.declared().len() as u32);
                }
                None => t.declared_len.push(0),
            }
            t.eff_offsets.push(t.eff_ids.len() as u32);
        }
        let words = universe.div_ceil(64);
        t.words = words;
        t.declared_bits.resize(n * words, 0);
        t.effective_bits.resize(n * words, 0);
        for i in 0..n {
            if let Some(p) = profiles.get(i) {
                for id in p.declared().as_slice() {
                    t.declared_bits[i * words + (id.0 as usize >> 6)] |= 1u64 << (id.0 & 63);
                }
            }
            let (start, end) = (t.eff_offsets[i] as usize, t.eff_offsets[i + 1] as usize);
            for &id in &t.eff_ids[start..end] {
                t.effective_bits[i * words + (id as usize >> 6)] |= 1u64 << (id & 63);
            }
        }
        t
    }

    /// Heap bytes held by the tables.
    fn bytes(&self) -> usize {
        self.declared_bits.capacity() * 8
            + self.effective_bits.capacity() * 8
            + self.declared_len.capacity() * 4
            + self.eff_offsets.capacity() * 4
            + self.eff_ids.capacity() * 2
            + self.eff_weights.capacity() * 8
    }
}

/// An immutable, shard-partitioned CSR view of graph + interactions +
/// interest profiles, valid for (and stamped with) one epoch triple and
/// one [`ClosenessConfig`].
///
/// Build one with [`GraphSnapshot::build`] (adaptive shard count) or
/// [`GraphSnapshot::build_with_shards`], or let a [`SnapshotStore`]
/// manage refreshes. All query methods take `&self` and are safe to share
/// across rayon workers (`Arc<GraphSnapshot>` is `Send + Sync`). Query
/// results are bit-for-bit identical across shard counts.
#[derive(Debug, Clone)]
pub struct GraphSnapshot {
    graph_epoch: u64,
    interaction_epoch: u64,
    profiles_version: u64,
    config: ClosenessConfig,
    /// Number of nodes (CSR rows across all shards).
    n: usize,
    /// Nodes per shard; the *last* shard absorbs the remainder, so
    /// `shard index = min(i / shard_size, P-1)`.
    shard_size: usize,
    /// The P node-range slabs. A refresh moves them into the next
    /// generation; a slab is copied only to patch it while a reader still
    /// holds this one.
    shards: Vec<Arc<CsrShard>>,
    /// Interest tables, carried across generations until a
    /// profiles-version bump or a full rebuild replaces them.
    interest: Arc<InterestTables>,
}

/// What a [`SnapshotStore`] refresh did.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RefreshOutcome {
    /// The previous snapshot's CSR structure was reused; only the dirty
    /// rows' frequency slots / denominators (and, on a profiles-version
    /// bump, the interest tables) were recomputed.
    Patched {
        /// Number of CSR rows whose interaction slots were repatched.
        rows: usize,
    },
    /// A rebuild. `structural_dirty` is `Some(count)` when a structural
    /// flush (edge add/remove or whole-state graph reset) forced it,
    /// carrying the dirty-node count the log reported — this is the case
    /// that emits an [`Event::SnapshotRebuild`]. Under sharding a
    /// structural rebuild reconstructs only the shards owning dirty
    /// endpoints; the remaining slabs are reused (and interaction-patched
    /// if needed).
    Rebuilt {
        /// Dirty-node count when the rebuild was forced by graph
        /// structure; `None` for config switches, interaction resets and
        /// node-count changes.
        structural_dirty: Option<usize>,
    },
}

impl GraphSnapshot {
    /// Build a snapshot of the current state of `graph`, `interactions`,
    /// and `profiles`, baking in `config`'s Eq. (2)/(10) numerators, with
    /// the [`default_shard_count`] for the graph's size.
    ///
    /// `profiles_version` is a caller-maintained counter stamped into the
    /// snapshot (interest profiles carry no dirty log of their own); bump
    /// it on every profile mutation so [`SnapshotStore`] can detect
    /// staleness.
    pub fn build(
        graph: &SocialGraph,
        interactions: &InteractionTracker,
        profiles: &[InterestProfile],
        profiles_version: u64,
        config: ClosenessConfig,
    ) -> GraphSnapshot {
        Self::build_with_shards(
            graph,
            interactions,
            profiles,
            profiles_version,
            config,
            default_shard_count(graph.node_count()),
        )
    }

    /// [`GraphSnapshot::build`] with an explicit shard count `p ≥ 1`.
    /// Shards cover contiguous node ranges of `ceil(n / p)` rows each;
    /// construction fans out one rayon task per shard.
    pub fn build_with_shards(
        graph: &SocialGraph,
        interactions: &InteractionTracker,
        profiles: &[InterestProfile],
        profiles_version: u64,
        config: ClosenessConfig,
        p: usize,
    ) -> GraphSnapshot {
        use rayon::prelude::*;
        let n = graph.node_count();
        let shard_size = n.div_ceil(p.max(1)).max(1);
        let bounds = shard_bounds(n, shard_size);
        let shards: Vec<Arc<CsrShard>> = bounds
            .par_iter()
            .map(|&(start, end)| Arc::new(CsrShard::build(graph, interactions, config, start, end)))
            .collect();
        GraphSnapshot {
            graph_epoch: graph.epoch(),
            interaction_epoch: interactions.epoch(),
            profiles_version,
            config,
            n,
            shard_size,
            shards,
            interest: Arc::new(InterestTables::build(n, profiles)),
        }
    }

    /// Produce an up-to-date snapshot from `prev`, keeping its shard
    /// layout. A config switch, a whole-state flush or a changed node
    /// count rebuilds every shard (at `prev`'s shard count). Otherwise one
    /// rayon pass rebuilds the shards owning a structurally dirty
    /// endpoint, repatches the interaction-dirty rows of the others, and
    /// carries the rest over. `prev` is taken by value so that pass can
    /// patch its slabs in place: `Arc::make_mut` copies a slab only while
    /// another generation still shares it. Returns the new snapshot and
    /// what was done. The caller is responsible for having checked
    /// [`GraphSnapshot::is_fresh`] first.
    pub fn refreshed(
        prev: GraphSnapshot,
        graph: &SocialGraph,
        interactions: &InteractionTracker,
        profiles: &[InterestProfile],
        profiles_version: u64,
        config: ClosenessConfig,
    ) -> (GraphSnapshot, RefreshOutcome) {
        use rayon::prelude::*;
        let (n, p) = (graph.node_count(), prev.shards.len());
        let full = |structural_dirty: Option<usize>| {
            (
                GraphSnapshot::build_with_shards(
                    graph,
                    interactions,
                    profiles,
                    profiles_version,
                    config,
                    p,
                ),
                RefreshOutcome::Rebuilt { structural_dirty },
            )
        };
        if config_key(prev.config) != config_key(config) {
            return full(None);
        }
        let graph_delta = graph.changes_since_ref(prev.graph_epoch);
        let structural_dirty = match graph_delta {
            DirtyDeltaRef::Clean => None,
            DirtyDeltaRef::Sparse {
                structural: true, ..
            } => Some(graph_delta.nodes().count()),
            // Non-structural graph dirt is node *addition* only, and node
            // growth moves the shard boundaries: rebuild every shard.
            DirtyDeltaRef::Sparse { .. } => return full(None),
            DirtyDeltaRef::Full => return full(Some(n)),
        };
        let inter_delta = interactions.changes_since_ref(prev.interaction_epoch);
        // Whole-tracker reset: every frequency slot is stale, so even a
        // structural partial rebuild cannot save the other shards. Growth
        // that came with structural dirt moves the boundaries too.
        if n != prev.n || matches!(inter_delta, DirtyDeltaRef::Full) {
            return full(structural_dirty);
        }

        // Per shard: `None` to rebuild, else the interaction-dirty rows to
        // repatch. A shard owning a dirty endpoint is rebuilt. Sound
        // because an edge mutation rewrites only its two endpoints'
        // adjacency rows and dirties both endpoints; rows in other shards
        // are byte-identical to what a full rebuild would produce — up to
        // interaction dirt, which is repatched.
        let shard_of = |i: usize| (i / prev.shard_size).min(p - 1);
        let mut work: Vec<Option<Vec<NodeId>>> = vec![Some(Vec::new()); p];
        for v in graph_delta.nodes() {
            work[shard_of(v.index())] = None;
        }
        for v in inter_delta.nodes() {
            // The tracker may cover more nodes than the graph.
            if v.index() < n {
                if let Some(rows) = &mut work[shard_of(v.index())] {
                    rows.push(v);
                }
            }
        }
        let rows = work.iter().flatten().map(Vec::len).sum();
        // Row patches only write their own frequency slots and
        // denominator, so patch order never changes a result.
        let shards: Vec<Arc<CsrShard>> = prev
            .shards
            .into_iter()
            .zip(work)
            .collect::<Vec<_>>()
            .into_par_iter()
            .map(|(mut shard, job)| match job {
                None => {
                    // Same row range: the node count is unchanged.
                    let (start, end) = (shard.start, shard.start + shard.friend_total.len());
                    Arc::new(CsrShard::build(graph, interactions, config, start, end))
                }
                Some(rows) => {
                    if !rows.is_empty() {
                        let slab = Arc::make_mut(&mut shard);
                        for v in rows {
                            slab.patch_row(v.index() - slab.start, v, interactions);
                        }
                    }
                    shard
                }
            })
            .collect();
        let interest = if profiles_version == prev.profiles_version {
            prev.interest
        } else {
            Arc::new(InterestTables::build(n, profiles))
        };
        let outcome = match structural_dirty {
            Some(_) => RefreshOutcome::Rebuilt { structural_dirty },
            None => RefreshOutcome::Patched { rows },
        };
        let next = GraphSnapshot {
            graph_epoch: graph.epoch(),
            interaction_epoch: interactions.epoch(),
            profiles_version,
            config,
            n,
            shard_size: prev.shard_size,
            shards,
            interest,
        };
        (next, outcome)
    }

    /// Number of nodes in the snapshot.
    #[inline]
    pub fn node_count(&self) -> usize {
        self.n
    }

    /// Number of node-range shards.
    #[inline]
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// The `(graph, interaction, profiles)` epoch triple the snapshot was
    /// built at.
    pub fn epochs(&self) -> (u64, u64, u64) {
        (
            self.graph_epoch,
            self.interaction_epoch,
            self.profiles_version,
        )
    }

    /// The configuration whose numerators are baked into the edge slots.
    pub fn config(&self) -> ClosenessConfig {
        self.config
    }

    /// Heap bytes held by the snapshot (CSR slabs + interest tables).
    /// O(P): sums per-shard capacities, not elements.
    pub fn bytes(&self) -> usize {
        self.shards.iter().map(|s| s.bytes()).sum::<usize>()
            + self.interest.bytes()
            + self.shards.capacity() * std::mem::size_of::<Arc<CsrShard>>()
    }

    /// [`GraphSnapshot::bytes`] per node — the memory-budget figure the
    /// telemetry gauge `snapshot_bytes_per_node` reports.
    pub fn bytes_per_node(&self) -> f64 {
        if self.n == 0 {
            return 0.0;
        }
        self.bytes() as f64 / self.n as f64
    }

    /// Whether the snapshot still reflects the live structures (and would
    /// serve `config` — a snapshot answers only for the config it was
    /// built with).
    pub fn is_fresh(
        &self,
        graph: &SocialGraph,
        interactions: &InteractionTracker,
        profiles_version: u64,
        config: ClosenessConfig,
    ) -> bool {
        self.graph_epoch == graph.epoch()
            && self.interaction_epoch == interactions.epoch()
            && self.profiles_version == profiles_version
            && config_key(self.config) == config_key(config)
    }

    /// The shard owning global row `i`, and `i`'s local row index.
    #[inline]
    fn shard_and_local(&self, i: usize) -> (&CsrShard, usize) {
        let k = (i / self.shard_size).min(self.shards.len() - 1);
        let s = &self.shards[k];
        (s, i - s.start)
    }

    /// The CSR neighbor row of node `i` (ascending ids).
    #[inline]
    fn row(&self, i: usize) -> &[u32] {
        let (s, li) = self.shard_and_local(i);
        &s.neighbors[s.offsets[li] as usize..s.offsets[li + 1] as usize]
    }

    /// Eq. (2)/(10) value for edge `i → j`, or `None` when not adjacent.
    #[inline]
    fn edge_closeness(&self, i: usize, j: u32) -> Option<f64> {
        let (s, li) = self.shard_and_local(i);
        let start = s.offsets[li] as usize;
        let row = &s.neighbors[start..s.offsets[li + 1] as usize];
        row.binary_search(&j)
            .ok()
            .map(|p| s.value_at(li, start + p))
    }

    /// Closeness between *adjacent* nodes — Eq. (2)/(10). `0.0` when not
    /// adjacent. Bit-for-bit equal to
    /// [`ClosenessModel::adjacent_closeness`](crate::closeness::ClosenessModel::adjacent_closeness).
    pub fn adjacent_closeness(&self, i: NodeId, j: NodeId) -> f64 {
        self.edge_closeness(i.index(), j.0).unwrap_or(0.0)
    }

    /// `Ωc(i,i)`: the maximum adjacent closeness of `i` (matches the
    /// live model's self-closeness convention).
    fn self_closeness(&self, i: usize) -> f64 {
        let (s, li) = self.shard_and_local(i);
        let (start, end) = (s.offsets[li] as usize, s.offsets[li + 1] as usize);
        let mut best = 0.0f64;
        for slot in start..end {
            best = f64::max(best, s.value_at(li, slot));
        }
        best
    }

    /// The Eq. (3) common-friend sum, or `None` when the rows share no
    /// common friend. Allocation-free sorted-slice intersection over the
    /// two CSR rows, accumulating in ascending-id order (the live model's
    /// summation order).
    fn common_friend_sum(&self, i: usize, j: NodeId) -> Option<f64> {
        let (si, li) = self.shard_and_local(i);
        let start_a = si.offsets[li] as usize;
        let ra = &si.neighbors[start_a..si.offsets[li + 1] as usize];
        let rb = self.row(j.index());
        let mut sum = 0.0;
        let mut any = false;
        let (mut x, mut y) = (0usize, 0usize);
        while x < ra.len() && y < rb.len() {
            match ra[x].cmp(&rb[y]) {
                std::cmp::Ordering::Less => x += 1,
                std::cmp::Ordering::Greater => y += 1,
                std::cmp::Ordering::Equal => {
                    let k = ra[x];
                    let a_ik = si.value_at(li, start_a + x);
                    let a_kj = self.adjacent_closeness(NodeId(k), j);
                    sum += (a_ik + a_kj) / 2.0;
                    any = true;
                    x += 1;
                    y += 1;
                }
            }
        }
        any.then_some(sum)
    }

    /// Full closeness `Ωc(i,j)` — Eqs. (2)/(3)/(4)/(10) — using this
    /// thread's shared BFS scratch for the Eq. (4) fallback. Bit-for-bit
    /// equal to [`ClosenessModel::closeness`](crate::closeness::ClosenessModel::closeness).
    pub fn closeness(&self, i: NodeId, j: NodeId) -> f64 {
        with_thread_scratch(|scratch| self.closeness_with(i, j, scratch))
    }

    /// [`GraphSnapshot::closeness`] on a caller-provided scratch.
    pub fn closeness_with(&self, i: NodeId, j: NodeId, scratch: &mut BfsScratch) -> f64 {
        let iu = i.index();
        if i == j {
            return self.self_closeness(iu);
        }
        if let Some(value) = self.edge_closeness(iu, j.0) {
            return value;
        }
        if let Some(sum) = self.common_friend_sum(iu, j) {
            return sum;
        }
        if !self.bfs_to(iu, j.0, scratch) {
            return 0.0;
        }
        self.min_on_path(j.0, scratch)
    }

    /// Closeness from `i` to every target, in order. Targets on the
    /// Eq. (4) fallback are all served from **one** capped BFS rooted at
    /// `i` — the batched single-source kernel this snapshot exists for.
    pub fn closeness_to_all(&self, i: NodeId, targets: &[NodeId]) -> Vec<f64> {
        with_thread_scratch(|scratch| self.closeness_to_all_with(i, targets, scratch))
    }

    /// [`GraphSnapshot::closeness_to_all`] on a caller-provided scratch.
    pub fn closeness_to_all_with(
        &self,
        i: NodeId,
        targets: &[NodeId],
        scratch: &mut BfsScratch,
    ) -> Vec<f64> {
        let iu = i.index();
        let mut out = vec![0.0f64; targets.len()];
        let mut fallback: Vec<(usize, u32)> = Vec::new();
        for (idx, &j) in targets.iter().enumerate() {
            if i == j {
                out[idx] = self.self_closeness(iu);
            } else if let Some(value) = self.edge_closeness(iu, j.0) {
                out[idx] = value;
            } else if let Some(sum) = self.common_friend_sum(iu, j) {
                out[idx] = sum;
            } else {
                fallback.push((idx, j.0));
            }
        }
        if fallback.is_empty() {
            return out;
        }
        let mut wanted: Vec<u32> = fallback.iter().map(|&(_, dst)| dst).collect();
        wanted.sort_unstable();
        wanted.dedup();
        self.bfs_all(iu, &wanted, scratch);
        for (idx, dst) in fallback {
            out[idx] = if scratch.visited(dst as usize) {
                self.min_on_path(dst, scratch)
            } else {
                0.0
            };
        }
        out
    }

    /// Capped BFS from `src` that stops as soon as `dst` is discovered.
    /// Returns whether it was. The expansion order (sorted CSR rows, FIFO
    /// frontier, first-parent-wins) is identical to
    /// [`shortest_path`](crate::distance::shortest_path), so the parent
    /// chain of `dst` reconstructs the exact same path; truncating at the
    /// hop cap yields the same `0.0` the live model's post-hoc length
    /// check produces.
    fn bfs_to(&self, src: usize, dst: u32, scratch: &mut BfsScratch) -> bool {
        let cap = self.config.path_hop_cap;
        scratch.begin(self.n);
        scratch.visit(src);
        scratch.dist[src] = 0;
        scratch.parent[src] = u32::MAX;
        scratch.queue.push_back(src as u32);
        while let Some(v) = scratch.queue.pop_front() {
            let d = scratch.dist[v as usize];
            if let Some(c) = cap {
                if d >= c {
                    continue;
                }
            }
            for &w in self.row(v as usize) {
                if scratch.visit(w as usize) {
                    scratch.dist[w as usize] = d + 1;
                    scratch.parent[w as usize] = v;
                    if w == dst {
                        return true;
                    }
                    scratch.queue.push_back(w);
                }
            }
        }
        false
    }

    /// Capped BFS from `src` that stops once every node in `wanted`
    /// (sorted, deduped) has been discovered — or the capped ball is
    /// exhausted for the ones that are unreachable. A node's shortest-path
    /// parent chain is final the moment it is discovered, so cutting the
    /// traversal afterwards leaves every discovered chain identical to
    /// what an uncut (or single-target early-exit) search would have
    /// produced.
    fn bfs_all(&self, src: usize, wanted: &[u32], scratch: &mut BfsScratch) {
        let cap = self.config.path_hop_cap;
        let mut remaining = wanted.len();
        scratch.begin(self.n);
        scratch.visit(src);
        scratch.dist[src] = 0;
        scratch.parent[src] = u32::MAX;
        scratch.queue.push_back(src as u32);
        while let Some(v) = scratch.queue.pop_front() {
            let d = scratch.dist[v as usize];
            if let Some(c) = cap {
                if d >= c {
                    continue;
                }
            }
            for &w in self.row(v as usize) {
                if scratch.visit(w as usize) {
                    scratch.dist[w as usize] = d + 1;
                    scratch.parent[w as usize] = v;
                    if wanted.binary_search(&w).is_ok() {
                        remaining -= 1;
                        if remaining == 0 {
                            return;
                        }
                    }
                    scratch.queue.push_back(w);
                }
            }
        }
    }

    /// Eq. (4): the minimum adjacent closeness along the BFS-tree path to
    /// `dst`, folded source→destination exactly like the live model folds
    /// `path.windows(2)` (same order, same `f64::min` association).
    fn min_on_path(&self, dst: u32, scratch: &mut BfsScratch) -> f64 {
        let mut path = std::mem::take(&mut scratch.path);
        path.clear();
        let mut cur = dst;
        path.push(cur);
        while scratch.parent[cur as usize] != u32::MAX {
            cur = scratch.parent[cur as usize];
            path.push(cur);
        }
        let mut min = f64::INFINITY;
        for t in (1..path.len()).rev() {
            let a = path[t] as usize; // nearer the source
            let b = path[t - 1]; // one hop toward dst
            let value = self
                .edge_closeness(a, b)
                .expect("BFS tree edges are adjacent by construction");
            min = f64::min(min, value);
        }
        scratch.path = path;
        if min.is_finite() {
            min
        } else {
            0.0
        }
    }

    /// Closeness for many `(rater, ratee)` pairs, grouped by rater so each
    /// rater's Eq. (4) targets share one BFS, with the groups fanned out
    /// over rayon (thread-local scratch per worker). Results are in input
    /// order and bit-for-bit equal to per-pair [`GraphSnapshot::closeness`]
    /// calls.
    pub fn closeness_for_pairs(&self, pairs: &[(NodeId, NodeId)]) -> Vec<f64> {
        use rayon::prelude::*;
        let mut group_of: HashMap<NodeId, usize> = HashMap::new();
        let mut groups: Vec<(NodeId, Vec<(usize, NodeId)>)> = Vec::new();
        for (idx, &(i, j)) in pairs.iter().enumerate() {
            let g = *group_of.entry(i).or_insert_with(|| {
                groups.push((i, Vec::new()));
                groups.len() - 1
            });
            groups[g].1.push((idx, j));
        }
        let scattered: Vec<Vec<(usize, f64)>> = groups
            .par_iter()
            .map(|(rater, items)| {
                with_thread_scratch(|scratch| {
                    let targets: Vec<NodeId> = items.iter().map(|&(_, j)| j).collect();
                    let values = self.closeness_to_all_with(*rater, &targets, scratch);
                    items
                        .iter()
                        .zip(values)
                        .map(|(&(idx, _), v)| (idx, v))
                        .collect()
                })
            })
            .collect();
        let mut out = vec![0.0f64; pairs.len()];
        for chunk in scattered {
            for (idx, v) in chunk {
                out[idx] = v;
            }
        }
        out
    }

    /// Plain interest similarity — Eq. (1)/(7) over the declared bitsets:
    /// AND + popcount, divided by the smaller declared-set size. Bit-for-bit
    /// equal to [`crate::interest::similarity`] on the live sets.
    pub fn similarity(&self, i: NodeId, j: NodeId) -> f64 {
        let t = &*self.interest;
        let (iu, ju) = (i.index(), j.index());
        let (la, lb) = (t.declared_len[iu], t.declared_len[ju]);
        if la == 0 || lb == 0 {
            return 0.0;
        }
        let mut inter = 0u32;
        let (ra, rb) = (iu * t.words, ju * t.words);
        for w in 0..t.words {
            inter += (t.declared_bits[ra + w] & t.declared_bits[rb + w]).count_ones();
        }
        inter as f64 / la.min(lb) as f64
    }

    /// Request-weighted interest similarity — Eq. (11) over the effective
    /// bitsets, walking the AND mask's set bits (ascending category order)
    /// against the per-node weight rows. Bit-for-bit equal to
    /// [`crate::interest::weighted_similarity`] on the live profiles.
    pub fn weighted_similarity(&self, i: NodeId, j: NodeId) -> f64 {
        let t = &*self.interest;
        let (iu, ju) = (i.index(), j.index());
        let la = t.eff_offsets[iu + 1] - t.eff_offsets[iu];
        let lb = t.eff_offsets[ju + 1] - t.eff_offsets[ju];
        if la == 0 || lb == 0 {
            return 0.0;
        }
        // `Iterator::sum::<f64>()` folds from -0.0, so an empty
        // intersection must yield -0.0 to stay bit-identical to the live
        // path (products of non-negative weights can never be -0.0, so any
        // non-empty sum is unaffected by the seed).
        let mut numerator = -0.0f64;
        let (ra, rb) = (iu * t.words, ju * t.words);
        for w in 0..t.words {
            let mut mask = t.effective_bits[ra + w] & t.effective_bits[rb + w];
            while mask != 0 {
                let bit = mask.trailing_zeros() as usize;
                let id = ((w << 6) + bit) as u16;
                numerator += self.eff_weight(iu, id) * self.eff_weight(ju, id);
                mask &= mask - 1;
            }
        }
        numerator / u32::min(la, lb) as f64
    }

    /// Interest similarity in either mode: Eq. (11)
    /// ([`GraphSnapshot::weighted_similarity`]) when `weighted` is set,
    /// otherwise Eq. (7) ([`GraphSnapshot::similarity`]).
    pub fn interest_similarity(&self, i: NodeId, j: NodeId, weighted: bool) -> f64 {
        if weighted {
            self.weighted_similarity(i, j)
        } else {
            self.similarity(i, j)
        }
    }

    /// `ws(node, id)` from the interned weight rows. `id` must be in the
    /// node's effective set (guaranteed when it came from the AND mask).
    #[inline]
    fn eff_weight(&self, node: usize, id: u16) -> f64 {
        let t = &*self.interest;
        let (start, end) = (
            t.eff_offsets[node] as usize,
            t.eff_offsets[node + 1] as usize,
        );
        match t.eff_ids[start..end].binary_search(&id) {
            Ok(pos) => t.eff_weights[start + pos],
            Err(_) => 0.0,
        }
    }
}

/// `(start, end)` node ranges for shards of `shard_size` covering `0..n`.
/// Always at least one range (possibly empty, for `n = 0`).
fn shard_bounds(n: usize, shard_size: usize) -> Vec<(usize, usize)> {
    let count = (n.div_ceil(shard_size)).max(1);
    (0..count)
        .map(|k| {
            let start = k * shard_size;
            let end = if k + 1 == count {
                n
            } else {
                start + shard_size
            };
            (start, end)
        })
        .collect()
}

/// The Eq. (2)/(10) numerator for one edge's relationship list under
/// `config` — the exact expression `ClosenessModel::adjacent_closeness`
/// evaluates per query, hoisted to build time.
fn edge_numerator(rels: &[crate::relationship::Relationship], config: ClosenessConfig) -> f64 {
    if rels.is_empty() {
        return 0.0;
    }
    if config.weighted_relationships {
        weighted_relationship_sum(rels, config.lambda).max(1.0)
    } else {
        rels.len() as f64
    }
}

/// Hashable identity of a [`ClosenessConfig`] (λ keyed by bit pattern).
#[inline]
fn config_key(config: ClosenessConfig) -> (bool, u64, Option<u32>) {
    (
        config.weighted_relationships,
        config.lambda.to_bits(),
        config.path_hop_cap,
    )
}

/// Holder of the most recent [`GraphSnapshot`], refreshing it on demand
/// and reporting rebuild/patch telemetry.
///
/// `snapshot()` takes `&self` (interior `RwLock`), so an owner exposing it
/// through shared references stays queryable from parallel readers; all
/// callers inside one cycle receive clones of the same `Arc`.
#[derive(Debug)]
pub struct SnapshotStore {
    current: RwLock<Option<Arc<GraphSnapshot>>>,
    /// Explicit shard count; `None` uses [`default_shard_count`].
    shard_count: Option<usize>,
    /// Full or partial rebuilds performed (`snapshot_rebuilds_total`).
    rebuilds: Counter,
    /// Incremental row-patch refreshes (`snapshot_patches_total`).
    patches: Counter,
    /// Wall-clock seconds per rebuild (`snapshot_rebuild_seconds`).
    rebuild_seconds: Histogram,
    /// Wall-clock seconds per patch (`snapshot_patch_seconds`).
    patch_seconds: Histogram,
    /// CSR + interest heap bytes per node (`snapshot_bytes_per_node`),
    /// updated after every refresh.
    bytes_per_node: Gauge,
    /// Destination for [`Event::SnapshotRebuild`]; disabled by default.
    sink: EventSink,
}

impl Default for SnapshotStore {
    fn default() -> Self {
        SnapshotStore {
            current: RwLock::new(None),
            shard_count: None,
            rebuilds: Counter::detached(),
            patches: Counter::detached(),
            rebuild_seconds: Histogram::detached(),
            patch_seconds: Histogram::detached(),
            bytes_per_node: Gauge::detached(),
            sink: EventSink::disabled(),
        }
    }
}

/// Cloning a store yields an **empty** store with the same shard policy:
/// the clone may be paired with a diverging copy of the graph, and
/// snapshots are semantically transparent.
impl Clone for SnapshotStore {
    fn clone(&self) -> Self {
        SnapshotStore {
            shard_count: self.shard_count,
            ..SnapshotStore::default()
        }
    }
}

impl SnapshotStore {
    /// An empty store; the first [`SnapshotStore::snapshot`] call builds,
    /// with the adaptive [`default_shard_count`] for the graph's size.
    pub fn new() -> Self {
        SnapshotStore::default()
    }

    /// An empty store whose snapshots are partitioned into at most `p`
    /// node-range shards (rows split into ranges of `ceil(n / p)`, so the
    /// realized count can round down). Results are bit-for-bit identical for every
    /// `p ≥ 1`; the shard count trades refresh granularity (structural
    /// churn rebuilds only dirty shards) against per-shard overhead.
    pub fn with_shards(p: usize) -> Self {
        SnapshotStore {
            shard_count: Some(p.max(1)),
            ..SnapshotStore::default()
        }
    }

    /// Re-homes the rebuild/patch counters onto `telemetry`'s registry
    /// (`snapshot_rebuilds_total` / `snapshot_patches_total`, counts
    /// migrated), registers the `snapshot_rebuild_seconds` and
    /// `snapshot_patch_seconds` histograms and the
    /// `snapshot_bytes_per_node` gauge, and routes `snapshot_rebuild`
    /// events to its sink.
    pub fn attach_telemetry(&mut self, telemetry: &Telemetry) {
        let registry = telemetry.registry();
        for (cell, name) in [
            (&mut self.rebuilds, "snapshot_rebuilds_total"),
            (&mut self.patches, "snapshot_patches_total"),
        ] {
            let registered = registry.counter(name);
            if !registered.same_cell(cell) {
                registered.add(cell.get());
                *cell = registered;
            }
        }
        self.rebuild_seconds = registry.histogram("snapshot_rebuild_seconds");
        self.patch_seconds = registry.histogram("snapshot_patch_seconds");
        self.bytes_per_node = registry.gauge("snapshot_bytes_per_node");
        self.sink = telemetry.sink().clone();
    }

    /// The current snapshot for the given state and config, refreshed if
    /// stale. Hold the returned `Arc` for the whole read cycle — repeated
    /// calls are cheap (`Arc` clone after one epoch comparison) but each
    /// re-validates against the live epochs — and drop it before the next
    /// refresh: a generation still held then makes the refresh copy every
    /// shard it patches.
    pub fn snapshot(
        &self,
        graph: &SocialGraph,
        interactions: &InteractionTracker,
        profiles: &[InterestProfile],
        profiles_version: u64,
        config: ClosenessConfig,
    ) -> Arc<GraphSnapshot> {
        if let Some(cur) = &*self.current.read() {
            if cur.is_fresh(graph, interactions, profiles_version, config) {
                return Arc::clone(cur);
            }
        }
        let mut slot = self.current.write();
        if let Some(cur) = &*slot {
            if cur.is_fresh(graph, interactions, profiles_version, config) {
                return Arc::clone(cur); // refreshed while we waited
            }
        }
        let started = Instant::now();
        let (snapshot, outcome) = match slot.take() {
            // Unwrapped without a copy unless a reader still holds the
            // generation, so the refresh can patch its shards in place.
            Some(prev) => GraphSnapshot::refreshed(
                Arc::unwrap_or_clone(prev),
                graph,
                interactions,
                profiles,
                profiles_version,
                config,
            ),
            None => (
                GraphSnapshot::build_with_shards(
                    graph,
                    interactions,
                    profiles,
                    profiles_version,
                    config,
                    self.shard_count
                        .unwrap_or_else(|| default_shard_count(graph.node_count())),
                ),
                RefreshOutcome::Rebuilt {
                    structural_dirty: None,
                },
            ),
        };
        let seconds = started.elapsed().as_secs_f64();
        match outcome {
            RefreshOutcome::Patched { .. } => {
                self.patches.inc();
                self.patch_seconds.observe(seconds);
            }
            RefreshOutcome::Rebuilt { structural_dirty } => {
                self.rebuilds.inc();
                self.rebuild_seconds.observe(seconds);
                if let Some(dirty_nodes) = structural_dirty {
                    if self.sink.is_enabled() {
                        self.sink.emit(Event::SnapshotRebuild {
                            dirty_nodes: dirty_nodes as u64,
                        });
                    }
                }
            }
        }
        self.bytes_per_node.set(snapshot.bytes_per_node());
        let arc = Arc::new(snapshot);
        *slot = Some(Arc::clone(&arc));
        arc
    }

    /// Drop the held snapshot; the next [`SnapshotStore::snapshot`] call
    /// rebuilds from scratch.
    pub fn invalidate(&self) {
        *self.current.write() = None;
    }

    /// `(rebuilds, patches)` performed so far.
    pub fn stats(&self) -> (u64, u64) {
        (self.rebuilds.get(), self.patches.get())
    }
}
#[cfg(test)]
mod tests {
    use super::*;
    use crate::closeness::ClosenessModel;
    use crate::interest::{
        similarity as live_similarity, weighted_similarity as live_weighted, InterestId,
        InterestSet,
    };
    use crate::relationship::Relationship;

    /// The hand-computable fixture shared with `closeness::tests`.
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

    fn profiles() -> Vec<InterestProfile> {
        let mut p: Vec<InterestProfile> = vec![
            InterestProfile::new(InterestSet::from_ids([1, 2, 3])),
            InterestProfile::new(InterestSet::from_ids([2, 3])),
            InterestProfile::new(InterestSet::from_ids([7, 70])),
            InterestProfile::new(InterestSet::new()),
            InterestProfile::new(InterestSet::from_ids([1, 70])),
        ];
        p[0].record_requests(InterestId(1), 3);
        p[0].record_requests(InterestId(9), 1);
        p[1].record_requests(InterestId(2), 4);
        p[2].record_requests(InterestId(70), 2);
        p[4].record_requests(InterestId(70), 5);
        p
    }

    #[test]
    fn snapshot_matches_live_model_on_fixture() {
        let (g, t) = fixture();
        let p = profiles();
        for config in [
            ClosenessConfig::default(),
            ClosenessConfig::weighted(0.8),
            ClosenessConfig {
                path_hop_cap: None,
                ..ClosenessConfig::default()
            },
        ] {
            let snap = GraphSnapshot::build(&g, &t, &p, 0, config);
            let model = ClosenessModel::new(&g, &t, config);
            for i in 0..5u32 {
                for j in 0..5u32 {
                    let (a, b) = (NodeId(i), NodeId(j));
                    assert_eq!(
                        snap.closeness(a, b).to_bits(),
                        model.closeness(a, b).to_bits(),
                        "Ωc({a},{b})"
                    );
                    assert_eq!(
                        snap.adjacent_closeness(a, b).to_bits(),
                        model.adjacent_closeness(a, b).to_bits()
                    );
                    assert_eq!(
                        snap.similarity(a, b).to_bits(),
                        live_similarity(p[i as usize].declared(), p[j as usize].declared())
                            .to_bits(),
                        "Ωs({a},{b})"
                    );
                    assert_eq!(
                        snap.weighted_similarity(a, b).to_bits(),
                        live_weighted(&p[i as usize], &p[j as usize]).to_bits(),
                        "weighted Ωs({a},{b})"
                    );
                }
            }
        }
    }

    #[test]
    fn batched_kernels_match_per_pair_queries() {
        let (g, t) = fixture();
        let p = profiles();
        let config = ClosenessConfig::default();
        let snap = GraphSnapshot::build(&g, &t, &p, 0, config);
        let targets: Vec<NodeId> = (0..5u32).map(NodeId).collect();
        for i in 0..5u32 {
            let batched = snap.closeness_to_all(NodeId(i), &targets);
            for (j, v) in batched.iter().enumerate() {
                assert_eq!(
                    v.to_bits(),
                    snap.closeness(NodeId(i), NodeId(j as u32)).to_bits()
                );
            }
        }
        let pairs: Vec<(NodeId, NodeId)> = (0..5u32)
            .flat_map(|i| (0..5u32).map(move |j| (NodeId(i), NodeId(j))))
            .collect();
        let bulk = snap.closeness_for_pairs(&pairs);
        for (idx, &(a, b)) in pairs.iter().enumerate() {
            assert_eq!(bulk[idx].to_bits(), snap.closeness(a, b).to_bits());
        }
    }

    #[test]
    fn eq4_fallback_served_by_single_bfs_matches_model() {
        // Path 0-1-2-3-4-5: pairs ≥2 hops apart with no common friends all
        // fall through to Eq. (4).
        let mut g = SocialGraph::new(6);
        let mut t = InteractionTracker::new(6);
        for v in 0..5u32 {
            g.add_relationship(NodeId(v), NodeId(v + 1), Relationship::friendship());
            t.record(NodeId(v), NodeId(v + 1), (v + 1) as f64);
            t.record(NodeId(v + 1), NodeId(v), 1.0);
        }
        for config in [
            ClosenessConfig::default(),
            ClosenessConfig {
                path_hop_cap: Some(2),
                ..ClosenessConfig::default()
            },
            ClosenessConfig {
                path_hop_cap: None,
                ..ClosenessConfig::default()
            },
        ] {
            let snap = GraphSnapshot::build(&g, &t, &[], 0, config);
            let model = ClosenessModel::new(&g, &t, config);
            let targets: Vec<NodeId> = (0..6u32).map(NodeId).collect();
            for i in 0..6u32 {
                let batched = snap.closeness_to_all(NodeId(i), &targets);
                for (j, &value) in batched.iter().enumerate() {
                    assert_eq!(
                        value.to_bits(),
                        model.closeness(NodeId(i), NodeId(j as u32)).to_bits(),
                        "Ωc({i},{j}) cap={:?}",
                        config.path_hop_cap
                    );
                }
            }
        }
    }

    #[test]
    fn interaction_dirt_is_patched_not_rebuilt() {
        let (g, mut t) = fixture();
        let p = profiles();
        let config = ClosenessConfig::default();
        let prev = GraphSnapshot::build(&g, &t, &p, 0, config);
        t.record(NodeId(0), NodeId(1), 2.0);
        t.record(NodeId(2), NodeId(3), 1.0);
        let (next, outcome) = GraphSnapshot::refreshed(prev.clone(), &g, &t, &p, 0, config);
        assert_eq!(outcome, RefreshOutcome::Patched { rows: 2 });
        let model = ClosenessModel::new(&g, &t, config);
        for i in 0..5u32 {
            for j in 0..5u32 {
                assert_eq!(
                    next.closeness(NodeId(i), NodeId(j)).to_bits(),
                    model.closeness(NodeId(i), NodeId(j)).to_bits()
                );
            }
        }
        assert!(next.is_fresh(&g, &t, 0, config));
        assert!(!prev.is_fresh(&g, &t, 0, config));
    }

    #[test]
    fn structural_change_forces_rebuild_with_dirty_count() {
        let (mut g, t) = fixture();
        let p = profiles();
        let config = ClosenessConfig::default();
        let prev = GraphSnapshot::build(&g, &t, &p, 0, config);
        g.add_relationship(NodeId(1), NodeId(4), Relationship::friendship());
        let (next, outcome) = GraphSnapshot::refreshed(prev, &g, &t, &p, 0, config);
        assert_eq!(
            outcome,
            RefreshOutcome::Rebuilt {
                structural_dirty: Some(2)
            }
        );
        let model = ClosenessModel::new(&g, &t, config);
        assert_eq!(
            next.closeness(NodeId(0), NodeId(4)).to_bits(),
            model.closeness(NodeId(0), NodeId(4)).to_bits()
        );
    }

    #[test]
    fn config_switch_rebuilds_without_structural_event() {
        let (g, t) = fixture();
        let prev = GraphSnapshot::build(&g, &t, &[], 0, ClosenessConfig::default());
        let weighted = ClosenessConfig::weighted(0.6);
        let (next, outcome) = GraphSnapshot::refreshed(prev, &g, &t, &[], 0, weighted);
        assert_eq!(
            outcome,
            RefreshOutcome::Rebuilt {
                structural_dirty: None
            }
        );
        let model = ClosenessModel::new(&g, &t, weighted);
        assert_eq!(
            next.closeness(NodeId(0), NodeId(1)).to_bits(),
            model.closeness(NodeId(0), NodeId(1)).to_bits()
        );
    }

    #[test]
    fn profile_version_bump_repatches_interest_tables() {
        let (g, t) = fixture();
        let mut p = profiles();
        let config = ClosenessConfig::default();
        let prev = GraphSnapshot::build(&g, &t, &p, 0, config);
        p[3].declared_mut().insert(InterestId(2));
        p[3].record_requests(InterestId(2), 9);
        let (next, outcome) = GraphSnapshot::refreshed(prev.clone(), &g, &t, &p, 1, config);
        assert_eq!(outcome, RefreshOutcome::Patched { rows: 0 });
        assert_eq!(
            next.similarity(NodeId(3), NodeId(1)).to_bits(),
            live_similarity(p[3].declared(), p[1].declared()).to_bits()
        );
        assert_eq!(
            next.weighted_similarity(NodeId(3), NodeId(1)).to_bits(),
            live_weighted(&p[3], &p[1]).to_bits()
        );
        // The stale snapshot still reports the old tables.
        assert_eq!(prev.similarity(NodeId(3), NodeId(1)), 0.0);
    }

    #[test]
    fn store_serves_same_arc_until_epochs_move() {
        let (g, mut t) = fixture();
        let p = profiles();
        let config = ClosenessConfig::default();
        let store = SnapshotStore::new();
        let a = store.snapshot(&g, &t, &p, 0, config);
        let b = store.snapshot(&g, &t, &p, 0, config);
        assert!(Arc::ptr_eq(&a, &b));
        assert_eq!(store.stats(), (1, 0));
        t.record(NodeId(0), NodeId(1), 1.0);
        let c = store.snapshot(&g, &t, &p, 0, config);
        assert!(!Arc::ptr_eq(&a, &c));
        assert_eq!(store.stats(), (1, 1), "interaction dirt must patch");
        store.invalidate();
        let _ = store.snapshot(&g, &t, &p, 0, config);
        assert_eq!(store.stats(), (2, 1));
        assert!(store.clone().stats() == (0, 0), "clones start empty");
    }

    #[test]
    fn store_attach_migrates_counts_and_emits_rebuild_events() {
        let (mut g, t) = fixture();
        let p = profiles();
        let config = ClosenessConfig::default();
        let mut store = SnapshotStore::new();
        let _ = store.snapshot(&g, &t, &p, 0, config);
        assert_eq!(store.stats(), (1, 0));

        let telemetry = Telemetry::with_sink(EventSink::in_memory());
        store.attach_telemetry(&telemetry);
        let snap = telemetry.registry().snapshot();
        assert_eq!(snap.counter("snapshot_rebuilds_total"), 1);
        assert_eq!(snap.counter("snapshot_patches_total"), 0);
        // Idempotent re-attach.
        store.attach_telemetry(&telemetry);
        assert_eq!(
            telemetry
                .registry()
                .snapshot()
                .counter("snapshot_rebuilds_total"),
            1
        );

        // A structural flush forces a rebuild and reports the dirty count.
        g.add_relationship(NodeId(2), NodeId(4), Relationship::friendship());
        let _ = store.snapshot(&g, &t, &p, 0, config);
        let events = telemetry.sink().events();
        assert!(
            events
                .iter()
                .any(|e| matches!(e, Event::SnapshotRebuild { dirty_nodes: 2 })),
            "expected a snapshot_rebuild event, got {events:?}"
        );
        let after = telemetry.registry().snapshot();
        assert_eq!(after.counter("snapshot_rebuilds_total"), 2);
        assert!(
            after.histogram("snapshot_rebuild_seconds").is_some(),
            "rebuild timings must be recorded"
        );
    }

    #[test]
    fn sharded_build_is_bit_for_bit_equal_across_shard_counts() {
        let (g, t) = fixture();
        let p = profiles();
        let config = ClosenessConfig::default();
        let base = GraphSnapshot::build_with_shards(&g, &t, &p, 0, config, 1);
        for shards in [2, 3, 8, 64] {
            let snap = GraphSnapshot::build_with_shards(&g, &t, &p, 0, config, shards);
            for i in 0..g.node_count() {
                for j in 0..g.node_count() {
                    let (a, b) = (NodeId::from(i), NodeId::from(j));
                    assert_eq!(
                        snap.closeness(a, b).to_bits(),
                        base.closeness(a, b).to_bits(),
                        "closeness({i},{j}) diverged at P={shards}"
                    );
                    assert_eq!(
                        snap.weighted_similarity(a, b).to_bits(),
                        base.weighted_similarity(a, b).to_bits(),
                        "weighted_similarity({i},{j}) diverged at P={shards}"
                    );
                }
            }
        }
    }

    #[test]
    fn structural_refresh_rebuilds_only_shards_owning_dirty_endpoints() {
        let (mut g, t) = fixture();
        let p = profiles();
        let config = ClosenessConfig::default();
        // 5 nodes, 5 shards: one row each.
        let prev = GraphSnapshot::build_with_shards(&g, &t, &p, 0, config, 5);
        assert_eq!(prev.shard_count(), 5);
        g.add_relationship(NodeId(2), NodeId(4), Relationship::friendship());
        let (next, outcome) = GraphSnapshot::refreshed(prev.clone(), &g, &t, &p, 0, config);
        assert_eq!(
            outcome,
            RefreshOutcome::Rebuilt {
                structural_dirty: Some(2)
            }
        );
        // The shards owning rows 2 and 4 were rebuilt; rows 0, 1, 3 still
        // share the previous generation's slabs.
        for i in [0usize, 1, 3] {
            assert!(
                Arc::ptr_eq(&prev.shards[i], &next.shards[i]),
                "clean shard {i} should be Arc-shared across the refresh"
            );
        }
        for i in [2usize, 4] {
            assert!(
                !Arc::ptr_eq(&prev.shards[i], &next.shards[i]),
                "dirty shard {i} must have been rebuilt"
            );
        }
        // And the partially rebuilt snapshot equals a from-scratch build.
        let fresh = GraphSnapshot::build_with_shards(&g, &t, &p, 0, config, 5);
        for i in 0..g.node_count() {
            for j in 0..g.node_count() {
                let (a, b) = (NodeId::from(i), NodeId::from(j));
                assert_eq!(
                    next.closeness(a, b).to_bits(),
                    fresh.closeness(a, b).to_bits()
                );
            }
        }
    }

    /// Every closeness answer of the fixture's 5 × 5 pairs, as bits.
    fn closeness_bits(snap: &GraphSnapshot) -> Vec<u64> {
        (0..5u32)
            .flat_map(|i| (0..5u32).map(move |j| snap.closeness(NodeId(i), NodeId(j)).to_bits()))
            .collect()
    }

    #[test]
    fn unheld_generation_is_patched_in_place() {
        let (g, mut t) = fixture();
        let p = profiles();
        let config = ClosenessConfig::default();
        // 5 nodes, 5 shards: one row each.
        let store = SnapshotStore::with_shards(5);
        let first = store.snapshot(&g, &t, &p, 0, config);
        assert_eq!(first.shard_count(), 5);
        let addresses: Vec<*const CsrShard> = first.shards.iter().map(Arc::as_ptr).collect();
        drop(first);
        t.record(NodeId(2), NodeId(1), 1.0);
        let next = store.snapshot(&g, &t, &p, 0, config);
        assert_eq!(store.stats(), (1, 1), "interaction dirt must patch");
        for (k, shard) in next.shards.iter().enumerate() {
            assert_eq!(
                Arc::as_ptr(shard),
                addresses[k],
                "shard {k} was copied although no reader held the generation"
            );
        }
        let model = ClosenessModel::new(&g, &t, config);
        for i in 0..5u32 {
            for j in 0..5u32 {
                assert_eq!(
                    next.closeness(NodeId(i), NodeId(j)).to_bits(),
                    model.closeness(NodeId(i), NodeId(j)).to_bits()
                );
            }
        }
    }

    #[test]
    fn held_generation_keeps_its_answers_and_shares_clean_shards() {
        let (g, mut t) = fixture();
        let p = profiles();
        let config = ClosenessConfig::default();
        let store = SnapshotStore::with_shards(5);
        let held = store.snapshot(&g, &t, &p, 0, config);
        let before = closeness_bits(&held);
        t.record(NodeId(2), NodeId(1), 1.0);
        let next = store.snapshot(&g, &t, &p, 0, config);
        assert_eq!(store.stats(), (1, 1), "interaction dirt must patch");
        assert_eq!(closeness_bits(&held), before, "held generation changed");
        assert_ne!(closeness_bits(&next), before, "row 2 was not repatched");
        for k in [0usize, 1, 3, 4] {
            assert!(
                Arc::ptr_eq(&held.shards[k], &next.shards[k]),
                "clean shard {k} should be shared with the held generation"
            );
        }
        assert!(
            !Arc::ptr_eq(&held.shards[2], &next.shards[2]),
            "the dirty shard must be copied while a reader holds it"
        );
    }

    #[test]
    fn store_with_shards_reports_bytes_per_node() {
        let (g, t) = fixture();
        let p = profiles();
        let store = SnapshotStore::with_shards(4);
        let snap = store.snapshot(&g, &t, &p, 0, ClosenessConfig::default());
        // ceil(5 / 4) = 2 rows per shard → 3 shards cover 5 nodes.
        assert_eq!(snap.shard_count(), 3);
        assert!(snap.bytes() > 0);
        assert!(snap.bytes_per_node() > 0.0);
    }

    #[test]
    fn node_growth_rebuilds_with_empty_rows() {
        let (mut g, mut t) = fixture();
        let mut p = profiles();
        let config = ClosenessConfig::default();
        let prev = GraphSnapshot::build(&g, &t, &p, 0, config);
        let v = g.add_node();
        t.ensure_nodes(g.node_count());
        p.push(InterestProfile::new(InterestSet::from_ids([2])));
        let (next, outcome) = GraphSnapshot::refreshed(prev, &g, &t, &p, 1, config);
        assert_eq!(
            outcome,
            RefreshOutcome::Rebuilt {
                structural_dirty: None
            }
        );
        assert_eq!(next.node_count(), 6);
        assert_eq!(next.closeness(v, NodeId(0)), 0.0);
        assert_eq!(
            next.similarity(v, NodeId(1)).to_bits(),
            live_similarity(p[v.index()].declared(), p[1].declared()).to_bits()
        );
    }
}
