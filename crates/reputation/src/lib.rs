//! # socialtrust-reputation
//!
//! Reputation-system substrates for the SocialTrust reproduction.
//!
//! The paper evaluates SocialTrust as a layer over two baseline reputation
//! systems, both of which are implemented here in full:
//!
//! * [`eigentrust::EigenTrust`] — the EigenTrust algorithm (Kamvar,
//!   Schlosser & Garcia-Molina, WWW'03): normalized local trust values,
//!   a pre-trusted peer distribution, and damped power iteration to the
//!   global trust vector.
//! * [`ebay::EBayModel`] — an eBay-style accumulative reputation: each
//!   rater contributes at most one (sign-of-net) rating per ratee per
//!   cycle ("week"), scores accumulate over time, and global reputations
//!   are the scores normalized onto the probability simplex.
//! * [`average::SimpleAverage`] — a naive mean-rating baseline used in
//!   ablations.
//! * [`feedback_similarity::FeedbackSimilarity`] — a TrustGuard-style
//!   feedback-credibility baseline (raters deviating from the community
//!   consensus lose weight), used as a no-social-information comparator.
//! * [`power_trust::PowerTrust`] — a PowerTrust-style engine whose
//!   teleport distribution follows dynamically-elected power nodes
//!   instead of a static pre-trusted set.
//!
//! All systems implement the [`system::ReputationSystem`] trait: buffer
//! ratings with [`system::ReputationSystem::record`], close an update
//! interval with [`system::ReputationSystem::end_cycle`], read the global
//! reputation vector with [`system::ReputationSystem::reputations`].
//!
//! The [`rating::RatingLedger`] tracks per-pair rating frequencies
//! (`t⁺(i,j)`, `t⁻(i,j)` in the paper's Section 4.3) — the raw signal the
//! SocialTrust layer uses to flag suspected colluders.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod average;
pub mod ebay;
pub mod eigentrust;
pub mod feedback_similarity;
pub mod normalize;
pub mod power_trust;
pub mod rating;
pub mod system;

/// Convenience re-exports of the most commonly used types.
pub mod prelude {
    pub use crate::average::SimpleAverage;
    pub use crate::ebay::EBayModel;
    pub use crate::eigentrust::{EigenTrust, EigenTrustConfig};
    pub use crate::feedback_similarity::FeedbackSimilarity;
    pub use crate::power_trust::{PowerTrust, PowerTrustConfig};
    pub use crate::rating::{PairKey, PairStats, Rating, RatingLedger};
    pub use crate::system::ReputationSystem;
}
