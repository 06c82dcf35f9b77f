//! Interest sets and interest similarity `Ωs(i,j)` — Equations (1)/(7) and
//! the request-weighted, falsification-resilient Equation (11).
//!
//! Each node has an interest set `V = <v1, v2, …, vk>` of product/resource
//! categories. Plain similarity is the overlap coefficient
//!
//! ```text
//! Eq. (1)/(7):  Ωs(i,j) = |Vi ∩ Vj| / min(|Vi|, |Vj|)
//! ```
//!
//! Section 4.4 hardens this against profile falsification by weighting each
//! interest with the node's *observed* request share `ws(i,l)` (the percent
//! of `i`'s requests in category `l`):
//!
//! ```text
//! Eq. (11):  Ωs(i,j) = Σ_{l ∈ Vi ∩ Vj} ws(i,l) · ws(j,l) / min(|Vi|, |Vj|)
//! ```
//!
//! Declared-but-never-requested interests then contribute nothing, and
//! deleted-but-still-requested interests keep contributing, because the
//! *effective* interest set of a profile is its declared set united with
//! every category it actually requested.

use std::collections::BTreeMap;

use serde::{Deserialize, Serialize};

/// Identifier of an interest category (e.g. "Electronics", "Clothing").
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct InterestId(pub u16);

impl From<u16> for InterestId {
    #[inline]
    fn from(v: u16) -> Self {
        InterestId(v)
    }
}

impl std::fmt::Display for InterestId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "cat{}", self.0)
    }
}

/// A set of interest categories, stored sorted for linear-merge
/// intersections.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct InterestSet {
    items: Vec<InterestId>,
}

impl InterestSet {
    /// An empty interest set.
    pub fn new() -> Self {
        InterestSet::default()
    }

    /// Build from any iterator of category ids; duplicates are collapsed.
    #[allow(clippy::should_implement_trait)]
    pub fn from_iter<I: IntoIterator<Item = InterestId>>(iter: I) -> Self {
        let mut items: Vec<InterestId> = iter.into_iter().collect();
        items.sort_unstable();
        items.dedup();
        InterestSet { items }
    }

    /// Build from raw `u16` category ids.
    pub fn from_ids<I: IntoIterator<Item = u16>>(iter: I) -> Self {
        Self::from_iter(iter.into_iter().map(InterestId))
    }

    /// Number of categories in the set (`|V|`).
    #[inline]
    pub fn len(&self) -> usize {
        self.items.len()
    }

    /// `true` if the set has no categories.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.items.is_empty()
    }

    /// Membership test.
    #[inline]
    pub fn contains(&self, id: InterestId) -> bool {
        self.items.binary_search(&id).is_ok()
    }

    /// Insert a category (no-op if present).
    pub fn insert(&mut self, id: InterestId) {
        if let Err(pos) = self.items.binary_search(&id) {
            self.items.insert(pos, id);
        }
    }

    /// Remove a category (no-op if absent).
    pub fn remove(&mut self, id: InterestId) {
        if let Ok(pos) = self.items.binary_search(&id) {
            self.items.remove(pos);
        }
    }

    /// The sorted categories.
    #[inline]
    pub fn as_slice(&self) -> &[InterestId] {
        &self.items
    }

    /// Size of the intersection `|self ∩ other|` by linear merge.
    pub fn intersection_size(&self, other: &InterestSet) -> usize {
        self.intersection(other).count()
    }

    /// Iterator over the intersection, in sorted order.
    pub fn intersection<'a>(
        &'a self,
        other: &'a InterestSet,
    ) -> impl Iterator<Item = InterestId> + 'a {
        IntersectIter {
            a: &self.items,
            b: &other.items,
            i: 0,
            j: 0,
        }
    }

    /// Union with another set, returning a new set.
    pub fn union(&self, other: &InterestSet) -> InterestSet {
        let mut items = self.items.clone();
        items.extend_from_slice(&other.items);
        items.sort_unstable();
        items.dedup();
        InterestSet { items }
    }
}

impl IntoIterator for InterestSet {
    type Item = InterestId;
    type IntoIter = std::vec::IntoIter<InterestId>;

    /// Consume the set, yielding its categories in ascending order.
    fn into_iter(self) -> Self::IntoIter {
        self.items.into_iter()
    }
}

struct IntersectIter<'a> {
    a: &'a [InterestId],
    b: &'a [InterestId],
    i: usize,
    j: usize,
}

impl<'a> Iterator for IntersectIter<'a> {
    type Item = InterestId;
    fn next(&mut self) -> Option<InterestId> {
        while self.i < self.a.len() && self.j < self.b.len() {
            match self.a[self.i].cmp(&self.b[self.j]) {
                std::cmp::Ordering::Less => self.i += 1,
                std::cmp::Ordering::Greater => self.j += 1,
                std::cmp::Ordering::Equal => {
                    let out = self.a[self.i];
                    self.i += 1;
                    self.j += 1;
                    return Some(out);
                }
            }
        }
        None
    }
}

/// Plain interest similarity — Eq. (1)/(7): `|Vi ∩ Vj| / min(|Vi|, |Vj|)`.
///
/// Returns `0.0` when either set is empty (no declared interests ⇒ no
/// measurable similarity). The result is always in `[0, 1]`.
pub fn similarity(a: &InterestSet, b: &InterestSet) -> f64 {
    if a.is_empty() || b.is_empty() {
        return 0.0;
    }
    a.intersection_size(b) as f64 / a.len().min(b.len()) as f64
}

/// A node's interest profile: the declared set plus observed request counts
/// per category.
///
/// Request counts are what makes Eq. (11) resilient: they cannot be removed
/// from the record, and padding them toward a fake interest costs real
/// request traffic that dilutes the weights of the node's true interests.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct InterestProfile {
    declared: InterestSet,
    requests: BTreeMap<InterestId, u64>,
    total_requests: u64,
}

impl InterestProfile {
    /// A profile with the given declared interests and no requests yet.
    pub fn new(declared: InterestSet) -> Self {
        InterestProfile {
            declared,
            requests: BTreeMap::new(),
            total_requests: 0,
        }
    }

    /// The declared interest set (what the user's profile page claims).
    pub fn declared(&self) -> &InterestSet {
        &self.declared
    }

    /// Mutable access to the declared set — used by falsification attacks
    /// in the simulator (adding or deleting profile interests).
    pub fn declared_mut(&mut self) -> &mut InterestSet {
        &mut self.declared
    }

    /// Record `count` resource requests in category `id`.
    pub fn record_requests(&mut self, id: InterestId, count: u64) {
        *self.requests.entry(id).or_insert(0) += count;
        self.total_requests += count;
    }

    /// Total observed requests across all categories.
    pub fn total_requests(&self) -> u64 {
        self.total_requests
    }

    /// The observed request weight `ws(i,l)`: the fraction of this node's
    /// requests that targeted category `l` (0 when the node has made no
    /// requests).
    pub fn request_weight(&self, id: InterestId) -> f64 {
        self.share(self.requests.get(&id).copied().unwrap_or(0))
    }

    /// `count` as a fraction of all requests (0 when there are none).
    fn share(&self, count: u64) -> f64 {
        if self.total_requests == 0 {
            return 0.0;
        }
        count as f64 / self.total_requests as f64
    }

    /// The *effective* interest set: declared interests united with every
    /// category the node actually requested. Deleting a category from the
    /// profile does not remove it from here while requests keep flowing.
    pub fn effective_set(&self) -> InterestSet {
        let requested = InterestSet::from_iter(self.requests.keys().copied());
        self.declared.union(&requested)
    }

    /// `(category, ws(i,l))` over the effective set, in ascending category
    /// order — exactly the per-node rows the interned interest tables of
    /// [`crate::snapshot::GraphSnapshot`] are built from. Declared-but-never-
    /// requested categories appear with weight `0.0`. One merge of the
    /// declared slice with the request map (both sorted); allocates nothing.
    pub fn effective_weights(&self) -> impl Iterator<Item = (InterestId, f64)> + '_ {
        let mut declared = self.declared.as_slice().iter().copied().peekable();
        let mut requested = self.requests.iter().map(|(&id, &n)| (id, n)).peekable();
        std::iter::from_fn(move || {
            let (id, count) = match (declared.peek(), requested.peek()) {
                (Some(&d), Some(&(r, _))) if d < r => (declared.next()?, 0),
                (Some(&d), Some(&(r, _))) if d == r => {
                    declared.next();
                    requested.next()?
                }
                (_, Some(_)) => requested.next()?,
                (Some(_), None) => (declared.next()?, 0),
                (None, None) => return None,
            };
            Some((id, self.share(count)))
        })
    }
}

/// Request-weighted interest similarity — Eq. (11):
/// `Σ_{l ∈ Vi ∩ Vj} ws(i,l) · ws(j,l) / min(|Vi|, |Vj|)`
/// computed over the *effective* interest sets of both profiles.
///
/// Result is in `[0, 1]`: each `ws ≤ 1`, the intersection has at most
/// `min(|Vi|, |Vj|)` terms, and `Σ ws = 1` per node bounds the numerator by 1.
pub fn weighted_similarity(a: &InterestProfile, b: &InterestProfile) -> f64 {
    let va = a.effective_set();
    let vb = b.effective_set();
    if va.is_empty() || vb.is_empty() {
        return 0.0;
    }
    let numerator: f64 = va
        .intersection(&vb)
        .map(|l| a.request_weight(l) * b.request_weight(l))
        .sum();
    numerator / va.len().min(vb.len()) as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    fn set(ids: &[u16]) -> InterestSet {
        InterestSet::from_ids(ids.iter().copied())
    }

    #[test]
    fn from_ids_sorts_and_dedups() {
        let s = set(&[3, 1, 2, 3, 1]);
        assert_eq!(s.as_slice(), &[InterestId(1), InterestId(2), InterestId(3)]);
        assert_eq!(s.len(), 3);
    }

    #[test]
    fn insert_and_remove() {
        let mut s = set(&[1, 3]);
        s.insert(InterestId(2));
        assert!(s.contains(InterestId(2)));
        s.insert(InterestId(2)); // duplicate no-op
        assert_eq!(s.len(), 3);
        s.remove(InterestId(1));
        assert!(!s.contains(InterestId(1)));
        s.remove(InterestId(99)); // absent no-op
        assert_eq!(s.len(), 2);
    }

    #[test]
    fn intersection_and_union() {
        let a = set(&[1, 2, 3, 5]);
        let b = set(&[2, 3, 4]);
        let inter: Vec<InterestId> = a.intersection(&b).collect();
        assert_eq!(inter, vec![InterestId(2), InterestId(3)]);
        assert_eq!(a.intersection_size(&b), 2);
        assert_eq!(a.union(&b).len(), 5);
    }

    #[test]
    fn similarity_matches_equation_1() {
        // |{2,3}| / min(4, 3) = 2/3
        let a = set(&[1, 2, 3, 5]);
        let b = set(&[2, 3, 4]);
        assert!((similarity(&a, &b) - 2.0 / 3.0).abs() < 1e-12);
        // Symmetric.
        assert_eq!(similarity(&a, &b), similarity(&b, &a));
    }

    #[test]
    fn similarity_identical_sets_is_one() {
        let a = set(&[4, 7, 9]);
        assert_eq!(similarity(&a, &a), 1.0);
        // Subset relationship also yields 1 (overlap coefficient).
        let b = set(&[4, 7]);
        assert_eq!(similarity(&a, &b), 1.0);
    }

    #[test]
    fn similarity_disjoint_is_zero_and_empty_is_zero() {
        assert_eq!(similarity(&set(&[1]), &set(&[2])), 0.0);
        assert_eq!(similarity(&set(&[]), &set(&[2])), 0.0);
        assert_eq!(similarity(&set(&[]), &set(&[])), 0.0);
    }

    #[test]
    fn request_weights_are_shares() {
        let mut p = InterestProfile::new(set(&[1, 2]));
        p.record_requests(InterestId(1), 3);
        p.record_requests(InterestId(2), 1);
        assert_eq!(p.total_requests(), 4);
        assert!((p.request_weight(InterestId(1)) - 0.75).abs() < 1e-12);
        assert!((p.request_weight(InterestId(2)) - 0.25).abs() < 1e-12);
        assert_eq!(p.request_weight(InterestId(9)), 0.0);
    }

    #[test]
    fn weighted_similarity_matches_equation_11() {
        let mut a = InterestProfile::new(set(&[1, 2]));
        a.record_requests(InterestId(1), 3);
        a.record_requests(InterestId(2), 1);
        let mut b = InterestProfile::new(set(&[1, 2, 3]));
        b.record_requests(InterestId(1), 1);
        b.record_requests(InterestId(2), 1);
        b.record_requests(InterestId(3), 2);
        // Intersection {1,2}; ws_a = (.75,.25), ws_b = (.25,.25).
        // numerator = .75·.25 + .25·.25 = 0.25; min(|Va|,|Vb|) = 2 → 0.125
        assert!((weighted_similarity(&a, &b) - 0.125).abs() < 1e-12);
    }

    #[test]
    fn declared_but_unrequested_interests_contribute_nothing() {
        // Colluder pads profile with the ratee's interests but never
        // requests them — Section 4.4's B3 resilience.
        let mut honest = InterestProfile::new(set(&[1, 2]));
        honest.record_requests(InterestId(1), 5);
        honest.record_requests(InterestId(2), 5);
        let mut faker = InterestProfile::new(set(&[1, 2])); // fake declaration
        faker.record_requests(InterestId(7), 10); // real traffic elsewhere
        let ws = weighted_similarity(&faker, &honest);
        assert_eq!(ws, 0.0, "fake declared interests must not raise Eq. (11)");
        // Whereas the naive Eq. (7) on declared sets is fully fooled:
        assert_eq!(similarity(faker.declared(), honest.declared()), 1.0);
    }

    #[test]
    fn deleted_interests_still_count_via_requests() {
        // Colluder deletes common interests from its profile to dodge B4 —
        // the request history keeps them in the effective set.
        let mut a = InterestProfile::new(set(&[])); // profile wiped
        a.record_requests(InterestId(1), 10);
        let mut b = InterestProfile::new(set(&[1]));
        b.record_requests(InterestId(1), 10);
        assert!(a.effective_set().contains(InterestId(1)));
        let ws = weighted_similarity(&a, &b);
        assert!((ws - 1.0).abs() < 1e-12, "got {ws}");
    }

    #[test]
    fn effective_weights_cover_declared_and_requested() {
        let mut p = InterestProfile::new(set(&[1, 5]));
        p.record_requests(InterestId(3), 1);
        p.record_requests(InterestId(5), 3);
        let rows: Vec<(InterestId, f64)> = p.effective_weights().collect();
        assert_eq!(rows.len(), 3, "declared ∪ requested = {{1, 3, 5}}");
        assert_eq!(rows[0], (InterestId(1), 0.0));
        assert_eq!(rows[1].0, InterestId(3));
        assert!((rows[1].1 - 0.25).abs() < 1e-12);
        assert_eq!(rows[2].0, InterestId(5));
        assert!((rows[2].1 - 0.75).abs() < 1e-12);
        // Ascending order, and each weight equals request_weight exactly.
        for (id, w) in rows {
            assert_eq!(w.to_bits(), p.request_weight(id).to_bits());
        }
    }

    #[test]
    fn into_iter_yields_sorted_categories() {
        let ids: Vec<InterestId> = set(&[4, 1, 7]).into_iter().collect();
        assert_eq!(ids, vec![InterestId(1), InterestId(4), InterestId(7)]);
    }

    #[test]
    fn weighted_similarity_bounds() {
        let mut a = InterestProfile::new(set(&[1]));
        a.record_requests(InterestId(1), 1);
        let mut b = InterestProfile::new(set(&[1]));
        b.record_requests(InterestId(1), 1);
        assert!((weighted_similarity(&a, &b) - 1.0).abs() < 1e-12);
        let empty = InterestProfile::new(set(&[]));
        assert_eq!(weighted_similarity(&a, &empty), 0.0);
    }
}
