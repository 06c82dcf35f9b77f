//! # socialtrust-socnet
//!
//! Social-network substrate for the SocialTrust collusion-deterrence mechanism
//! (Li, Shen & Sapra, *Leveraging Social Networks to Combat Collusion in
//! Reputation Systems for Peer-to-Peer Networks*, IEEE TC 2012 / IPPS 2011).
//!
//! This crate provides everything SocialTrust needs to know about the social
//! side of a P2P network:
//!
//! * [`graph::SocialGraph`] — an undirected multi-relationship social graph
//!   (the paper's "personal network").
//! * [`distance`] — BFS social distance and shortest social paths.
//! * [`interaction::InteractionTracker`] — pairwise interaction frequencies
//!   `f(i,j)` (resource requests between peers).
//! * [`closeness::ClosenessModel`] — social closeness `Ωc(i,j)` implementing
//!   the paper's Equations (2), (3), (4) and the falsification-resilient
//!   weighted variant, Equation (10), straight from the live graph. It is
//!   the reference the snapshot kernels are tested against.
//! * [`dirty`] — the epoch + per-node dirty-set log that mutation sources
//!   embed so snapshots can refresh incrementally.
//! * [`interest`] — interest sets and interest similarity `Ωs(i,j)`
//!   (Equations (1)/(7)) plus the request-weighted variant, Equation (11).
//! * [`snapshot::GraphSnapshot`] — an immutable, epoch-stamped CSR view of
//!   graph + interactions + interest profiles with batched single-source
//!   closeness kernels and bitset similarity, refreshed incrementally by
//!   [`snapshot::SnapshotStore`]. It is the one path production reads
//!   `Ωc` and `Ωs` through.
//! * [`builder`] — random social-network generators used by the simulator
//!   and the trace substrate.
//!
//! The crate is deliberately self-contained: it has no opinion about
//! reputations or collusion; it only measures social structure.
//!
//! ## Quick example
//!
//! ```
//! use socialtrust_socnet::prelude::*;
//!
//! let mut g = SocialGraph::new(4);
//! let (a, b, c, d) = (NodeId(0), NodeId(1), NodeId(2), NodeId(3));
//! g.add_relationship(a, b, Relationship::friendship());
//! g.add_relationship(b, c, Relationship::friendship());
//! g.add_relationship(c, d, Relationship::kinship());
//!
//! assert_eq!(socialtrust_socnet::distance::bfs_distance(&g, a, d, None), Some(3));
//!
//! let mut inter = InteractionTracker::new(4);
//! inter.record(a, b, 5.0);
//! let model = ClosenessModel::new(&g, &inter, ClosenessConfig::default());
//! // a and b are adjacent with one relationship and all of a's interactions
//! // going to b, so Eq. (2) gives closeness 1.0.
//! assert!((model.closeness(a, b) - 1.0).abs() < 1e-12);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod builder;
pub mod closeness;
pub mod community;
pub mod dirty;
pub mod distance;
pub mod graph;
pub mod interaction;
pub mod interest;
pub mod relationship;
pub mod snapshot;

/// Identifier of a node (peer / user) in a social network.
///
/// `NodeId` is a dense index: graphs with `n` nodes use ids `0..n`. Using a
/// newtype (rather than a bare `usize`) keeps node indices from being mixed
/// up with interest ids, counts, and other integers, at zero runtime cost.
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, serde::Serialize, serde::Deserialize,
)]
pub struct NodeId(pub u32);

impl NodeId {
    /// The id as a `usize`, for indexing dense per-node storage.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl From<u32> for NodeId {
    #[inline]
    fn from(v: u32) -> Self {
        NodeId(v)
    }
}

impl From<usize> for NodeId {
    #[inline]
    fn from(v: usize) -> Self {
        NodeId(v as u32)
    }
}

impl std::fmt::Display for NodeId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "n{}", self.0)
    }
}

/// Convenience re-exports of the most commonly used types.
pub mod prelude {
    pub use crate::closeness::{ClosenessConfig, ClosenessModel};
    pub use crate::distance;
    pub use crate::graph::SocialGraph;
    pub use crate::interaction::InteractionTracker;
    pub use crate::interest::{InterestId, InterestProfile, InterestSet};
    pub use crate::relationship::{Relationship, RelationshipKind};
    pub use crate::snapshot::{GraphSnapshot, RefreshOutcome, SnapshotStore};
    pub use crate::NodeId;
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn node_id_roundtrips() {
        let id = NodeId(42);
        assert_eq!(id.index(), 42);
        assert_eq!(NodeId::from(42u32), id);
        assert_eq!(NodeId::from(42usize), id);
        assert_eq!(id.to_string(), "n42");
    }

    #[test]
    fn node_id_ordering_follows_raw_value() {
        assert!(NodeId(1) < NodeId(2));
        assert_eq!(NodeId(7), NodeId(7));
    }
}
