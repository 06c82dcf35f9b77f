//! The social context: everything SocialTrust knows about the social side
//! of the network, bundled for concurrent access.
//!
//! [`SocialContext`] owns the social graph, the interaction tracker and the
//! per-node interest profiles; through [`SocialContext::snapshot`] it
//! answers the two questions the detector and the Gaussian filter ask:
//! *how close are i and j* (`Ωc`) and *how similar are their interests*
//! (`Ωs`).
//!
//! [`SharedSocialContext`] is an `Arc<RwLock<…>>` handle so that the
//! simulator (which mutates interactions and request profiles during a
//! cycle) and the [`crate::decorator::WithSocialTrust`] layer (which reads
//! them at the end of the cycle) can share one context. `parking_lot`'s
//! lock is used per the workspace's concurrency guidelines.

use std::sync::Arc;

use parking_lot::{RwLock, RwLockReadGuard, RwLockWriteGuard};
use socialtrust_socnet::closeness::ClosenessConfig;
use socialtrust_socnet::graph::SocialGraph;
use socialtrust_socnet::interaction::InteractionTracker;
use socialtrust_socnet::interest::{InterestId, InterestProfile, InterestSet};
use socialtrust_socnet::snapshot::{GraphSnapshot, SnapshotStore};
use socialtrust_socnet::NodeId;
use socialtrust_telemetry::Telemetry;

/// The bundled social state of the network.
///
/// Closeness and similarity are read through one epoch-validated CSR
/// snapshot ([`SocialContext::snapshot`]): the graph and the interaction
/// tracker carry epoch + per-node dirty logs that every mutator feeds, so
/// the first snapshot after a mutation repatches only the touched rows,
/// and repeat calls on an unchanged context return the same `Arc`.
#[derive(Debug, Clone)]
pub struct SocialContext {
    graph: SocialGraph,
    interactions: InteractionTracker,
    profiles: Vec<InterestProfile>,
    total_interests: u16,
    /// Holder of the per-cycle CSR snapshot (see [`SocialContext::snapshot`]).
    /// Cloning yields an empty store (snapshots are semantically
    /// transparent).
    snapshots: SnapshotStore,
    /// Bumped on every interest-profile mutation; the profiles carry no
    /// dirty log of their own, so this version is what stamps snapshots.
    profiles_version: u64,
}

impl SocialContext {
    /// An empty context over `n` nodes and `total_interests` interest
    /// categories. Nodes start with no relationships, no interactions and
    /// empty interest profiles.
    pub fn new(n: usize, total_interests: u16) -> Self {
        SocialContext {
            graph: SocialGraph::new(n),
            interactions: InteractionTracker::new(n),
            profiles: vec![InterestProfile::new(InterestSet::new()); n],
            total_interests,
            snapshots: SnapshotStore::new(),
            profiles_version: 0,
        }
    }

    /// Build a context from pre-constructed parts (e.g. the simulator's
    /// generated social network).
    ///
    /// # Panics
    /// Panics if the parts disagree on the node count.
    pub fn from_parts(
        graph: SocialGraph,
        interactions: InteractionTracker,
        profiles: Vec<InterestProfile>,
        total_interests: u16,
    ) -> Self {
        assert_eq!(graph.node_count(), profiles.len(), "node count mismatch");
        assert_eq!(
            graph.node_count(),
            interactions.node_count(),
            "node count mismatch"
        );
        SocialContext {
            graph,
            interactions,
            profiles,
            total_interests,
            snapshots: SnapshotStore::new(),
            profiles_version: 0,
        }
    }

    /// Number of nodes.
    pub fn node_count(&self) -> usize {
        self.graph.node_count()
    }

    /// Number of interest categories in the system.
    pub fn total_interests(&self) -> u16 {
        self.total_interests
    }

    /// The social graph.
    pub fn graph(&self) -> &SocialGraph {
        &self.graph
    }

    /// Mutable access to the social graph (e.g. for relationship
    /// falsification attacks).
    pub fn graph_mut(&mut self) -> &mut SocialGraph {
        &mut self.graph
    }

    /// The interaction tracker.
    pub fn interactions(&self) -> &InteractionTracker {
        &self.interactions
    }

    /// Mutable access to the interaction tracker (e.g. for bulk-loading a
    /// pre-built tracker in benches and tests). The tracker's dirty log
    /// keeps the snapshot coherent across such edits.
    pub fn interactions_mut(&mut self) -> &mut InteractionTracker {
        &mut self.interactions
    }

    /// The interest profile of `node`.
    pub fn profile(&self, node: NodeId) -> &InterestProfile {
        &self.profiles[node.index()]
    }

    /// Mutable interest profile (e.g. for declaring/deleting interests).
    /// Conservatively bumps the profiles version, so the next
    /// [`SocialContext::snapshot`] call repatches its interest tables.
    pub fn profile_mut(&mut self, node: NodeId) -> &mut InterestProfile {
        self.profiles_version += 1;
        &mut self.profiles[node.index()]
    }

    /// Record one resource request `from → to` in category `interest`.
    /// Updates both the interaction frequency `f(from,to)` and `from`'s
    /// request-weighted interest profile.
    pub fn record_request(&mut self, from: NodeId, to: NodeId, interest: InterestId) {
        self.interactions.record(from, to, 1.0);
        self.profiles[from.index()].record_requests(interest, 1);
        self.profiles_version += 1;
    }

    /// Record a bare social interaction without an interest annotation.
    pub fn record_interaction(&mut self, from: NodeId, to: NodeId, amount: f64) {
        self.interactions.record(from, to, amount);
    }

    /// Re-homes the snapshot store's counters onto `telemetry`'s registry
    /// (`snapshot_rebuilds_total` / `snapshot_patches_total`, plus the
    /// rebuild-latency and bytes-per-node series) and routes its
    /// `snapshot_rebuild` events to the bundle's sink. Idempotent;
    /// accumulated counts are preserved.
    pub fn attach_telemetry(&mut self, telemetry: &Telemetry) {
        self.snapshots.attach_telemetry(telemetry);
    }

    /// The current epoch-validated CSR snapshot of this context for
    /// `config` (see [`GraphSnapshot`]). Rebuilt or row-patched on demand
    /// from the dirty logs; repeated calls on an unchanged context return
    /// the same `Arc`. The detector and the social-trust decorator acquire
    /// one snapshot per cycle and serve every read of that cycle from it.
    pub fn snapshot(&self, config: ClosenessConfig) -> Arc<GraphSnapshot> {
        self.snapshots.snapshot(
            &self.graph,
            &self.interactions,
            &self.profiles,
            self.profiles_version,
            config,
        )
    }

    /// `(full rebuilds, incremental patches)` the snapshot store has
    /// performed, for diagnostics and tests.
    pub fn snapshot_stats(&self) -> (u64, u64) {
        self.snapshots.stats()
    }
}

/// A cloneable, thread-safe handle to a [`SocialContext`].
#[derive(Debug, Clone)]
pub struct SharedSocialContext {
    inner: Arc<RwLock<SocialContext>>,
}

impl SharedSocialContext {
    /// Wrap a context in a shared handle.
    pub fn new(ctx: SocialContext) -> Self {
        SharedSocialContext {
            inner: Arc::new(RwLock::new(ctx)),
        }
    }

    /// Acquire a read guard.
    pub fn read(&self) -> RwLockReadGuard<'_, SocialContext> {
        self.inner.read()
    }

    /// Acquire a write guard.
    pub fn write(&self) -> RwLockWriteGuard<'_, SocialContext> {
        self.inner.write()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use socialtrust_socnet::closeness::ClosenessModel;
    use socialtrust_socnet::interest::{similarity, weighted_similarity};
    use socialtrust_socnet::relationship::Relationship;

    /// `Ωc(i,j)` from the live-graph reference model.
    fn oracle(ctx: &SocialContext, cfg: ClosenessConfig, i: NodeId, j: NodeId) -> f64 {
        ClosenessModel::new(ctx.graph(), ctx.interactions(), cfg).closeness(i, j)
    }

    #[test]
    fn new_context_is_empty() {
        let ctx = SocialContext::new(3, 20);
        assert_eq!(ctx.node_count(), 3);
        assert_eq!(ctx.total_interests(), 20);
        let snap = ctx.snapshot(ClosenessConfig::default());
        assert_eq!(snap.interest_similarity(NodeId(0), NodeId(1), false), 0.0);
        assert_eq!(snap.closeness(NodeId(0), NodeId(1)), 0.0);
    }

    #[test]
    fn record_request_updates_both_signals() {
        let mut ctx = SocialContext::new(2, 4);
        ctx.record_request(NodeId(0), NodeId(1), InterestId(2));
        assert_eq!(ctx.interactions().frequency(NodeId(0), NodeId(1)), 1.0);
        assert_eq!(ctx.profile(NodeId(0)).total_requests(), 1);
        assert_eq!(ctx.profile(NodeId(0)).request_weight(InterestId(2)), 1.0);
    }

    #[test]
    fn closeness_flows_through_graph_and_interactions() {
        let mut ctx = SocialContext::new(2, 4);
        ctx.graph_mut()
            .add_relationship(NodeId(0), NodeId(1), Relationship::friendship());
        ctx.record_interaction(NodeId(0), NodeId(1), 3.0);
        let cfg = ClosenessConfig::default();
        let c = ctx.snapshot(cfg).closeness(NodeId(0), NodeId(1));
        assert!((c - 1.0).abs() < 1e-12, "1 rel · 3/3 interactions = 1");
        assert_eq!(
            c.to_bits(),
            oracle(&ctx, cfg, NodeId(0), NodeId(1)).to_bits()
        );
    }

    #[test]
    fn similarity_modes_differ_under_falsification() {
        let mut ctx = SocialContext::new(2, 4);
        ctx.profile_mut(NodeId(0))
            .declared_mut()
            .insert(InterestId(1));
        ctx.profile_mut(NodeId(1))
            .declared_mut()
            .insert(InterestId(1));
        let snap = ctx.snapshot(ClosenessConfig::default());
        // Declared profiles overlap fully…
        assert_eq!(snap.interest_similarity(NodeId(0), NodeId(1), false), 1.0);
        // …but nobody ever requested category 1, so Eq. (11) sees nothing.
        assert_eq!(snap.interest_similarity(NodeId(0), NodeId(1), true), 0.0);
        let (p0, p1) = (ctx.profile(NodeId(0)), ctx.profile(NodeId(1)));
        assert_eq!(similarity(p0.declared(), p1.declared()), 1.0);
        assert_eq!(weighted_similarity(p0, p1), 0.0);
    }

    #[test]
    fn snapshot_closeness_refreshes_after_mutation_through_context() {
        let mut ctx = SocialContext::new(3, 4);
        ctx.graph_mut()
            .add_relationship(NodeId(0), NodeId(1), Relationship::friendship());
        ctx.record_interaction(NodeId(0), NodeId(1), 3.0);
        let cfg = ClosenessConfig::default();
        let closeness = |ctx: &SocialContext| {
            let c = ctx.snapshot(cfg).closeness(NodeId(0), NodeId(1));
            assert_eq!(
                c.to_bits(),
                oracle(ctx, cfg, NodeId(0), NodeId(1)).to_bits()
            );
            c
        };
        assert!((closeness(&ctx) - 1.0).abs() < 1e-12);
        // Mutating through graph_mut() bumps the graph epoch, so the next
        // snapshot sees m(0,1) = 2.
        ctx.graph_mut()
            .add_relationship(NodeId(0), NodeId(1), Relationship::colleague());
        assert!((closeness(&ctx) - 2.0).abs() < 1e-12);
        // Mutating interactions through record_request also refreshes:
        // f(0,2) = 1 with an 0-2 edge shifts the denominator.
        ctx.graph_mut()
            .add_relationship(NodeId(0), NodeId(2), Relationship::friendship());
        ctx.record_request(NodeId(0), NodeId(2), InterestId(1));
        let c = closeness(&ctx);
        assert!((c - 2.0 * 3.0 / 4.0).abs() < 1e-12, "got {c}");
    }

    #[test]
    fn bulk_closeness_matches_oracle_and_refreshes() {
        let mut ctx = SocialContext::new(4, 4);
        ctx.graph_mut()
            .add_relationship(NodeId(0), NodeId(1), Relationship::friendship());
        ctx.graph_mut()
            .add_relationship(NodeId(1), NodeId(2), Relationship::friendship());
        ctx.record_interaction(NodeId(0), NodeId(1), 2.0);
        ctx.record_interaction(NodeId(1), NodeId(2), 5.0);
        let cfg = ClosenessConfig::default();
        let pairs = [
            (NodeId(0), NodeId(1)),
            (NodeId(0), NodeId(2)),
            (NodeId(1), NodeId(2)),
            (NodeId(0), NodeId(3)),
        ];
        let bulk = ctx.snapshot(cfg).closeness_for_pairs(&pairs);
        for (idx, &(i, j)) in pairs.iter().enumerate() {
            assert_eq!(bulk[idx].to_bits(), oracle(&ctx, cfg, i, j).to_bits());
        }
        ctx.record_interaction(NodeId(1), NodeId(0), 1.0);
        let bulk2 = ctx.snapshot(cfg).closeness_for_pairs(&pairs);
        assert_ne!(
            bulk, bulk2,
            "new interaction must show through the bulk path"
        );
        for (idx, &(i, j)) in pairs.iter().enumerate() {
            assert_eq!(bulk2[idx].to_bits(), oracle(&ctx, cfg, i, j).to_bits());
        }
    }

    #[test]
    fn snapshot_tracks_context_mutations() {
        let mut ctx = SocialContext::new(3, 4);
        ctx.graph_mut()
            .add_relationship(NodeId(0), NodeId(1), Relationship::friendship());
        ctx.record_interaction(NodeId(0), NodeId(1), 3.0);
        let cfg = ClosenessConfig::default();
        let snap = ctx.snapshot(cfg);
        assert_eq!(
            snap.closeness(NodeId(0), NodeId(1)).to_bits(),
            oracle(&ctx, cfg, NodeId(0), NodeId(1)).to_bits()
        );
        // Unchanged context → same Arc.
        assert!(Arc::ptr_eq(&snap, &ctx.snapshot(cfg)));
        // Interaction dirt is patched in, not rebuilt.
        ctx.record_interaction(NodeId(0), NodeId(1), 2.0);
        let snap2 = ctx.snapshot(cfg);
        assert_eq!(
            snap2.closeness(NodeId(0), NodeId(1)).to_bits(),
            oracle(&ctx, cfg, NodeId(0), NodeId(1)).to_bits()
        );
        assert_eq!(ctx.snapshot_stats(), (1, 1));
        // Profile mutations show up through the similarity kernels.
        ctx.profile_mut(NodeId(0))
            .declared_mut()
            .insert(InterestId(1));
        ctx.profile_mut(NodeId(1))
            .declared_mut()
            .insert(InterestId(1));
        let snap3 = ctx.snapshot(cfg);
        assert_eq!(
            snap3
                .interest_similarity(NodeId(0), NodeId(1), false)
                .to_bits(),
            similarity(
                ctx.profile(NodeId(0)).declared(),
                ctx.profile(NodeId(1)).declared()
            )
            .to_bits()
        );
    }

    #[test]
    fn shared_context_allows_concurrent_reads() {
        let shared = SharedSocialContext::new(SocialContext::new(2, 4));
        let g1 = shared.read();
        let g2 = shared.read();
        assert_eq!(g1.node_count(), g2.node_count());
        drop((g1, g2));
        shared.write().record_interaction(NodeId(0), NodeId(1), 1.0);
        assert_eq!(
            shared.read().interactions().frequency(NodeId(0), NodeId(1)),
            1.0
        );
    }

    #[test]
    #[should_panic(expected = "node count mismatch")]
    fn from_parts_checks_consistency() {
        SocialContext::from_parts(
            SocialGraph::new(3),
            InteractionTracker::new(3),
            vec![InterestProfile::new(InterestSet::new()); 2],
            4,
        );
    }
}
