//! The undirected, multi-relationship social graph (the paper's "personal
//! network").
//!
//! Each edge carries a list of [`Relationship`]s; `m(i,j)` in Equation (2)
//! is the length of that list. Neighbor lists are kept sorted so that common
//! friends (needed by Equation (3)) can be computed by a linear merge.
//!
//! Storage is deliberately map-free on the hot path: adjacency is a sorted
//! `u32`-id slice per node with a *parallel* edge-id slice, and the
//! relationship lists live in an id-indexed arena with a free list. Looking
//! up `relationships(a, b)` is one binary search on `a`'s row — no hashing,
//! no `(a, b)` key materialization — and the whole structure is a handful
//! of flat `Vec`s whose footprint [`SocialGraph::bytes`] can account for
//! exactly.

use crate::dirty::{DirtyDeltaRef, DirtyLog};
use crate::relationship::Relationship;
use crate::NodeId;

/// An undirected social graph over dense node ids `0..n`.
///
/// The graph stores, per edge, the list of declared social relationships.
/// It supports the queries SocialTrust needs:
///
/// * adjacency and sorted neighbor lists,
/// * the relationship multiset of an edge (`m(i,j)` and Eq. (10) weights),
/// * common friends of two nodes (`S_i ∩ S_j` in Eq. (3)).
///
/// Self-loops are rejected; parallel *edges* do not exist (adding another
/// relationship to an existing edge extends that edge's relationship list).
#[derive(Debug, Clone, Default)]
pub struct SocialGraph {
    /// Sorted neighbor ids per node.
    adj: Vec<Vec<NodeId>>,
    /// Edge ids parallel to `adj`: `adj_edge[v][k]` indexes the
    /// relationship list of the edge `(v, adj[v][k])` in `edge_rels`.
    adj_edge: Vec<Vec<u32>>,
    /// Relationship lists by edge id. Slots of removed edges are emptied
    /// and recycled through `free_edges`.
    edge_rels: Vec<Vec<Relationship>>,
    /// Recycled edge-id slots.
    free_edges: Vec<u32>,
    edge_count: usize,
    dirty: DirtyLog,
}

impl SocialGraph {
    /// An empty graph with `n` isolated nodes (`0..n`).
    pub fn new(n: usize) -> Self {
        SocialGraph {
            adj: vec![Vec::new(); n],
            adj_edge: vec![Vec::new(); n],
            edge_rels: Vec::new(),
            free_edges: Vec::new(),
            edge_count: 0,
            dirty: DirtyLog::new(),
        }
    }

    /// Number of nodes.
    #[inline]
    pub fn node_count(&self) -> usize {
        self.adj.len()
    }

    /// Number of (undirected) edges.
    #[inline]
    pub fn edge_count(&self) -> usize {
        self.edge_count
    }

    /// Mutation epoch: bumped by every change (`add_node`,
    /// `add_relationship`, `remove_edge`). Two calls observing the same
    /// epoch on the same graph are guaranteed to see identical structure,
    /// which is what lets a [`crate::snapshot::GraphSnapshot`] stamped with
    /// it be reused.
    #[inline]
    pub fn epoch(&self) -> u64 {
        self.dirty.epoch()
    }

    /// Which nodes were touched by mutations after epoch `since`, as a
    /// borrowed view of the dirty log (see [`DirtyLog::changes_since_ref`]).
    /// Edge mutations dirty both endpoints and carry the `structural` flag;
    /// `add_node` dirties only the new (isolated) node, since it cannot
    /// affect any existing path or neighborhood.
    #[inline]
    pub fn changes_since_ref(&self, since: u64) -> DirtyDeltaRef<'_> {
        self.dirty.changes_since_ref(since)
    }

    /// Append a new isolated node, returning its id.
    pub fn add_node(&mut self) -> NodeId {
        let id = NodeId::from(self.adj.len());
        self.adj.push(Vec::new());
        self.adj_edge.push(Vec::new());
        // A new node is isolated: it cannot change any existing adjacency,
        // common-friend set, or shortest path, so only the node itself is
        // marked dirty (non-structurally).
        self.dirty.touch([id]);
        id
    }

    /// Iterator over all node ids.
    pub fn nodes(&self) -> impl Iterator<Item = NodeId> + '_ {
        (0..self.adj.len()).map(NodeId::from)
    }

    #[inline]
    fn check_node(&self, v: NodeId) {
        assert!(
            v.index() < self.adj.len(),
            "node {v} out of range (graph has {} nodes)",
            self.adj.len()
        );
    }

    /// The edge id of `(a, b)`, if adjacent.
    #[inline]
    fn edge_of(&self, a: NodeId, b: NodeId) -> Option<u32> {
        self.adj[a.index()]
            .binary_search(&b)
            .ok()
            .map(|pos| self.adj_edge[a.index()][pos])
    }

    /// Add one relationship between `a` and `b`, creating the edge if it
    /// does not exist yet.
    ///
    /// # Panics
    /// Panics if `a == b` (self-relationships are meaningless) or either
    /// node is out of range.
    pub fn add_relationship(&mut self, a: NodeId, b: NodeId, rel: Relationship) {
        assert!(a != b, "self-relationship on {a} is not allowed");
        self.check_node(a);
        self.check_node(b);
        match self.adj[a.index()].binary_search(&b) {
            Ok(pos) => {
                let e = self.adj_edge[a.index()][pos];
                self.edge_rels[e as usize].push(rel);
            }
            Err(pos) => {
                let e = match self.free_edges.pop() {
                    Some(e) => {
                        self.edge_rels[e as usize].push(rel);
                        e
                    }
                    None => {
                        self.edge_rels.push(vec![rel]);
                        (self.edge_rels.len() - 1) as u32
                    }
                };
                self.adj[a.index()].insert(pos, b);
                self.adj_edge[a.index()].insert(pos, e);
                let pos_b = self.adj[b.index()]
                    .binary_search(&a)
                    .expect_err("edge must be absent from both rows");
                self.adj[b.index()].insert(pos_b, a);
                self.adj_edge[b.index()].insert(pos_b, e);
                self.edge_count += 1;
            }
        }
        self.dirty.touch_structural([a, b]);
    }

    /// Remove the edge between `a` and `b` entirely (all relationships).
    /// Returns the removed relationships, or an empty vector if the edge did
    /// not exist.
    pub fn remove_edge(&mut self, a: NodeId, b: NodeId) -> Vec<Relationship> {
        self.check_node(a);
        self.check_node(b);
        match self.adj[a.index()].binary_search(&b) {
            Ok(pos) => {
                let e = self.adj_edge[a.index()][pos];
                self.adj[a.index()].remove(pos);
                self.adj_edge[a.index()].remove(pos);
                let pos_b = self.adj[b.index()]
                    .binary_search(&a)
                    .expect("edge must be present in both rows");
                self.adj[b.index()].remove(pos_b);
                self.adj_edge[b.index()].remove(pos_b);
                self.edge_count -= 1;
                self.dirty.touch_structural([a, b]);
                self.free_edges.push(e);
                std::mem::take(&mut self.edge_rels[e as usize])
            }
            Err(_) => Vec::new(),
        }
    }

    /// Are `a` and `b` directly connected (social distance 1)?
    #[inline]
    pub fn are_adjacent(&self, a: NodeId, b: NodeId) -> bool {
        self.check_node(a);
        self.check_node(b);
        if a == b {
            return false;
        }
        self.adj[a.index()].binary_search(&b).is_ok()
    }

    /// The sorted neighbor list of `v` (the friend set `S_v`).
    #[inline]
    pub fn neighbors(&self, v: NodeId) -> &[NodeId] {
        self.check_node(v);
        &self.adj[v.index()]
    }

    /// Degree (number of friends, `|S_v|`).
    #[inline]
    pub fn degree(&self, v: NodeId) -> usize {
        self.neighbors(v).len()
    }

    /// The relationships declared on edge `(a, b)`; empty if not adjacent.
    pub fn relationships(&self, a: NodeId, b: NodeId) -> &[Relationship] {
        self.check_node(a);
        self.check_node(b);
        match self.edge_of(a, b) {
            Some(e) => self.edge_rels[e as usize].as_slice(),
            None => &[],
        }
    }

    /// `m(i,j)`: the number of social relationships between `a` and `b`
    /// (0 if not adjacent).
    #[inline]
    pub fn relationship_count(&self, a: NodeId, b: NodeId) -> usize {
        self.relationships(a, b).len()
    }

    /// The common friends `S_a ∩ S_b`, by linear merge of the sorted
    /// neighbor lists. Excludes `a` and `b` themselves (they cannot appear:
    /// no self-loops).
    pub fn common_friends(&self, a: NodeId, b: NodeId) -> Vec<NodeId> {
        self.check_node(a);
        self.check_node(b);
        let (sa, sb) = (&self.adj[a.index()], &self.adj[b.index()]);
        let mut out = Vec::new();
        let (mut i, mut j) = (0, 0);
        while i < sa.len() && j < sb.len() {
            match sa[i].cmp(&sb[j]) {
                std::cmp::Ordering::Less => i += 1,
                std::cmp::Ordering::Greater => j += 1,
                std::cmp::Ordering::Equal => {
                    out.push(sa[i]);
                    i += 1;
                    j += 1;
                }
            }
        }
        out
    }

    /// Iterator over all edges as `(a, b, relationships)` with `a < b`, in
    /// ascending `(a, b)` order.
    pub fn edges(&self) -> impl Iterator<Item = (NodeId, NodeId, &[Relationship])> + '_ {
        (0..self.adj.len()).flat_map(move |i| {
            let a = NodeId::from(i);
            self.adj[i]
                .iter()
                .zip(&self.adj_edge[i])
                .filter(move |&(&b, _)| a < b)
                .map(move |(&b, &e)| (a, b, self.edge_rels[e as usize].as_slice()))
        })
    }

    /// Approximate heap bytes held by the graph: adjacency rows, edge-id
    /// rows, the relationship arena, and the dirty log.
    pub fn bytes(&self) -> usize {
        let mut total = self.adj.capacity() * std::mem::size_of::<Vec<NodeId>>()
            + self.adj_edge.capacity() * std::mem::size_of::<Vec<u32>>()
            + self.edge_rels.capacity() * std::mem::size_of::<Vec<Relationship>>()
            + self.free_edges.capacity() * std::mem::size_of::<u32>();
        for row in &self.adj {
            total += row.capacity() * std::mem::size_of::<NodeId>();
        }
        for row in &self.adj_edge {
            total += row.capacity() * std::mem::size_of::<u32>();
        }
        for rels in &self.edge_rels {
            total += rels.capacity() * std::mem::size_of::<Relationship>();
        }
        total + self.dirty.bytes()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::relationship::RelationshipKind;

    fn triangle() -> SocialGraph {
        let mut g = SocialGraph::new(3);
        g.add_relationship(NodeId(0), NodeId(1), Relationship::friendship());
        g.add_relationship(NodeId(1), NodeId(2), Relationship::friendship());
        g.add_relationship(NodeId(0), NodeId(2), Relationship::kinship());
        g
    }

    #[test]
    fn new_graph_is_empty() {
        let g = SocialGraph::new(5);
        assert_eq!(g.node_count(), 5);
        assert_eq!(g.edge_count(), 0);
        for v in g.nodes() {
            assert_eq!(g.degree(v), 0);
        }
    }

    #[test]
    fn add_node_extends_graph() {
        let mut g = SocialGraph::new(2);
        let v = g.add_node();
        assert_eq!(v, NodeId(2));
        assert_eq!(g.node_count(), 3);
    }

    #[test]
    fn adjacency_is_symmetric() {
        let g = triangle();
        for (a, b, _) in g.edges() {
            assert!(g.are_adjacent(a, b));
            assert!(g.are_adjacent(b, a));
        }
    }

    #[test]
    fn neighbors_are_sorted() {
        let mut g = SocialGraph::new(4);
        g.add_relationship(NodeId(2), NodeId(3), Relationship::friendship());
        g.add_relationship(NodeId(2), NodeId(0), Relationship::friendship());
        g.add_relationship(NodeId(2), NodeId(1), Relationship::friendship());
        assert_eq!(g.neighbors(NodeId(2)), &[NodeId(0), NodeId(1), NodeId(3)]);
    }

    #[test]
    fn multiple_relationships_share_one_edge() {
        let mut g = SocialGraph::new(2);
        g.add_relationship(NodeId(0), NodeId(1), Relationship::friendship());
        g.add_relationship(NodeId(0), NodeId(1), Relationship::colleague());
        assert_eq!(g.edge_count(), 1);
        assert_eq!(g.relationship_count(NodeId(0), NodeId(1)), 2);
        assert_eq!(g.relationship_count(NodeId(1), NodeId(0)), 2);
        let kinds: Vec<RelationshipKind> = g
            .relationships(NodeId(0), NodeId(1))
            .iter()
            .map(|r| r.kind)
            .collect();
        assert_eq!(
            kinds,
            vec![RelationshipKind::Friendship, RelationshipKind::Colleague]
        );
    }

    #[test]
    fn relationship_count_zero_for_non_adjacent() {
        let g = SocialGraph::new(3);
        assert_eq!(g.relationship_count(NodeId(0), NodeId(2)), 0);
        assert!(!g.are_adjacent(NodeId(0), NodeId(2)));
    }

    #[test]
    fn common_friends_merge() {
        // 0-1, 0-2, 3-1, 3-2, plus 0-4: common friends of 0 and 3 are {1, 2}.
        let mut g = SocialGraph::new(5);
        g.add_relationship(NodeId(0), NodeId(1), Relationship::friendship());
        g.add_relationship(NodeId(0), NodeId(2), Relationship::friendship());
        g.add_relationship(NodeId(3), NodeId(1), Relationship::friendship());
        g.add_relationship(NodeId(3), NodeId(2), Relationship::friendship());
        g.add_relationship(NodeId(0), NodeId(4), Relationship::friendship());
        assert_eq!(
            g.common_friends(NodeId(0), NodeId(3)),
            vec![NodeId(1), NodeId(2)]
        );
        assert_eq!(
            g.common_friends(NodeId(3), NodeId(0)),
            vec![NodeId(1), NodeId(2)]
        );
    }

    #[test]
    fn common_friends_empty_when_none() {
        let g = triangle();
        // In a triangle, 0 and 1 have exactly one common friend: 2.
        assert_eq!(g.common_friends(NodeId(0), NodeId(1)), vec![NodeId(2)]);
        let g2 = SocialGraph::new(3);
        assert!(g2.common_friends(NodeId(0), NodeId(1)).is_empty());
    }

    #[test]
    fn remove_edge_returns_relationships() {
        let mut g = triangle();
        let removed = g.remove_edge(NodeId(0), NodeId(2));
        assert_eq!(removed.len(), 1);
        assert_eq!(removed[0].kind, RelationshipKind::Kinship);
        assert!(!g.are_adjacent(NodeId(0), NodeId(2)));
        assert_eq!(g.edge_count(), 2);
        // Removing again is a no-op.
        assert!(g.remove_edge(NodeId(0), NodeId(2)).is_empty());
        assert_eq!(g.edge_count(), 2);
    }

    #[test]
    fn removed_edge_slot_is_recycled() {
        let mut g = SocialGraph::new(4);
        g.add_relationship(NodeId(0), NodeId(1), Relationship::friendship());
        g.add_relationship(NodeId(2), NodeId(3), Relationship::kinship());
        g.remove_edge(NodeId(0), NodeId(1));
        // The freed id is reused; the arena does not grow.
        g.add_relationship(NodeId(1), NodeId(2), Relationship::colleague());
        assert_eq!(g.edge_rels.len(), 2);
        assert_eq!(g.edge_count(), 2);
        assert_eq!(
            g.relationships(NodeId(1), NodeId(2))[0].kind,
            RelationshipKind::Colleague
        );
        assert_eq!(
            g.relationships(NodeId(2), NodeId(3))[0].kind,
            RelationshipKind::Kinship
        );
        assert!(g.relationships(NodeId(0), NodeId(1)).is_empty());
    }

    #[test]
    #[should_panic(expected = "self-relationship")]
    fn self_loop_rejected() {
        let mut g = SocialGraph::new(2);
        g.add_relationship(NodeId(1), NodeId(1), Relationship::friendship());
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_rejected() {
        let mut g = SocialGraph::new(2);
        g.add_relationship(NodeId(0), NodeId(5), Relationship::friendship());
    }

    #[test]
    fn epoch_tracks_every_mutation() {
        let mut g = SocialGraph::new(2);
        assert_eq!(g.epoch(), 0);
        g.add_relationship(NodeId(0), NodeId(1), Relationship::friendship());
        let after_add = g.epoch();
        assert!(after_add > 0);
        // Queries never bump.
        let _ = g.are_adjacent(NodeId(0), NodeId(1));
        let _ = g.common_friends(NodeId(0), NodeId(1));
        assert_eq!(g.epoch(), after_add);
        // Adding a second relationship to the same edge still bumps.
        g.add_relationship(NodeId(0), NodeId(1), Relationship::colleague());
        assert!(g.epoch() > after_add);
        let before_remove = g.epoch();
        g.remove_edge(NodeId(0), NodeId(1));
        assert!(g.epoch() > before_remove);
        // No-op removal does not bump.
        let after_remove = g.epoch();
        g.remove_edge(NodeId(0), NodeId(1));
        assert_eq!(g.epoch(), after_remove);
        let before_node = g.epoch();
        g.add_node();
        assert!(g.epoch() > before_node);
    }

    #[test]
    fn dirty_set_names_touched_endpoints() {
        let mut g = SocialGraph::new(4);
        let e0 = g.epoch();
        g.add_relationship(NodeId(0), NodeId(1), Relationship::friendship());
        let delta = g.changes_since_ref(e0);
        let mut nodes: Vec<NodeId> = delta.nodes().collect();
        nodes.sort();
        assert_eq!(nodes, vec![NodeId(0), NodeId(1)]);
        assert!(
            matches!(
                delta,
                DirtyDeltaRef::Sparse {
                    structural: true,
                    ..
                }
            ),
            "edge add is structural"
        );
        let e1 = g.epoch();
        let v = g.add_node();
        let delta = g.changes_since_ref(e1);
        assert_eq!(delta.nodes().collect::<Vec<_>>(), vec![v]);
        assert!(
            matches!(
                delta,
                DirtyDeltaRef::Sparse {
                    structural: false,
                    ..
                }
            ),
            "isolated node add is not structural"
        );
        assert_eq!(g.changes_since_ref(g.epoch()), DirtyDeltaRef::Clean);
    }

    #[test]
    fn edges_iterator_covers_all() {
        let g = triangle();
        let mut edges: Vec<(NodeId, NodeId)> = g.edges().map(|(a, b, _)| (a, b)).collect();
        edges.sort();
        assert_eq!(
            edges,
            vec![
                (NodeId(0), NodeId(1)),
                (NodeId(0), NodeId(2)),
                (NodeId(1), NodeId(2))
            ]
        );
    }

    #[test]
    fn bytes_accounts_for_growth() {
        let empty = SocialGraph::new(0).bytes();
        let mut g = SocialGraph::new(1000);
        for v in 1..1000u32 {
            g.add_relationship(NodeId(0), NodeId(v), Relationship::friendship());
        }
        assert!(g.bytes() > empty);
    }
}
