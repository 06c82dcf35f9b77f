//! Point-in-time views of a registry.
//!
//! A [`Snapshot`] is a plain serializable tree (sorted maps of metric name
//! to value) so it can be embedded in `RunResult`s, JSON exports, and
//! tests.

use std::collections::BTreeMap;

use serde::{Deserialize, Serialize};

/// Serializable view of a single histogram.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct HistogramSnapshot {
    /// Finite upper bounds, strictly increasing (`+Inf` implicit).
    pub bounds: Vec<f64>,
    /// Per-bucket (non-cumulative) counts, parallel to `bounds`.
    pub counts: Vec<u64>,
    /// Total observations, including those above every finite bound.
    pub count: u64,
    /// Sum of finite observations.
    pub sum: f64,
}

impl HistogramSnapshot {
    /// Cumulative counts per finite bound (Prometheus `le` semantics).
    pub fn cumulative(&self) -> Vec<u64> {
        let mut total = 0u64;
        self.counts
            .iter()
            .map(|c| {
                total += c;
                total
            })
            .collect()
    }

    /// Mean observation, or `None` when empty.
    pub fn mean(&self) -> Option<f64> {
        if self.count == 0 {
            None
        } else {
            Some(self.sum / self.count as f64)
        }
    }

    /// Estimated `q`-quantile (`0.0 ≤ q ≤ 1.0`) by linear interpolation
    /// within the bucket containing the target rank, mirroring Prometheus's
    /// `histogram_quantile`. Observations that landed above every finite
    /// bound clamp to the largest finite bound (the estimate cannot exceed
    /// what the buckets resolve).
    ///
    /// The edge cases are defined, not accidental: an **empty** histogram
    /// (`count == 0`) has no distribution to estimate, so the result is
    /// `None` — callers rendering quantile gauges (the Prometheus
    /// exposition, `MetricsExport::quantiles`) skip the series entirely
    /// rather than emit `NaN`. A NaN or out-of-range `q` also returns
    /// `None`, and a degenerate deserialized snapshot (non-empty count
    /// with no bounds and a non-finite sum) returns `None` rather than
    /// propagate the non-finite mean.
    pub fn quantile(&self, q: f64) -> Option<f64> {
        // NaN fails the range check, so `q.is_nan()` lands here too.
        if self.count == 0 || !(0.0..=1.0).contains(&q) {
            return None;
        }
        let rank = q * self.count as f64;
        let mut cumulative = 0u64;
        let mut lower = 0.0f64;
        for (bound, bucket) in self.bounds.iter().zip(&self.counts) {
            let before = cumulative;
            cumulative += bucket;
            if cumulative as f64 >= rank {
                if *bucket == 0 {
                    return Some(*bound);
                }
                let frac = (rank - before as f64) / *bucket as f64;
                return Some(lower + frac * (bound - lower));
            }
            lower = *bound;
        }
        // Rank falls in the implicit +Inf bucket.
        self.bounds
            .last()
            .copied()
            .or_else(|| self.mean())
            .filter(|v| v.is_finite())
    }
}

/// Point-in-time view of every metric in a registry.
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct Snapshot {
    /// Counter values by metric name.
    pub counters: BTreeMap<String, u64>,
    /// Gauge values by metric name.
    pub gauges: BTreeMap<String, f64>,
    /// Histogram views by metric name.
    pub histograms: BTreeMap<String, HistogramSnapshot>,
}

impl Snapshot {
    /// Counter value by name (0 when absent).
    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    /// Gauge value by name.
    pub fn gauge(&self, name: &str) -> Option<f64> {
        self.gauges.get(name).copied()
    }

    /// Histogram view by name.
    pub fn histogram(&self, name: &str) -> Option<&HistogramSnapshot> {
        self.histograms.get(name)
    }

    /// True when no metric has recorded anything.
    pub fn is_empty(&self) -> bool {
        self.counters.values().all(|v| *v == 0)
            && self.histograms.values().all(|h| h.count == 0)
            && self.gauges.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn hist(counts: Vec<u64>, count: u64, sum: f64) -> HistogramSnapshot {
        HistogramSnapshot {
            bounds: vec![1.0, 2.0],
            counts,
            count,
            sum,
        }
    }

    #[test]
    fn quantile_interpolates_within_buckets() {
        // 4 obs ≤1.0, 4 obs in (1.0, 2.0], 2 obs above 2.0 → count 10.
        let h = HistogramSnapshot {
            bounds: vec![1.0, 2.0],
            counts: vec![4, 4],
            count: 10,
            sum: 12.0,
        };
        // rank(0.5) = 5 → 1 into the second bucket of 4 → 1.0 + 0.25.
        assert!((h.quantile(0.5).unwrap() - 1.25).abs() < 1e-12);
        // rank(0.2) = 2 → halfway through the first bucket.
        assert!((h.quantile(0.2).unwrap() - 0.5).abs() < 1e-12);
        // rank(0.99) = 9.9 → +Inf bucket → clamps to largest finite bound.
        assert_eq!(h.quantile(0.99), Some(2.0));
        // Edges and degenerate inputs.
        assert_eq!(h.quantile(1.1), None);
        assert_eq!(h.quantile(-0.1), None);
        let empty = HistogramSnapshot {
            bounds: vec![1.0],
            counts: vec![0],
            count: 0,
            sum: 0.0,
        };
        assert_eq!(empty.quantile(0.5), None);
    }

    #[test]
    fn quantile_empty_and_degenerate_cases_never_yield_nan() {
        let empty = HistogramSnapshot {
            bounds: vec![0.5, 1.0],
            counts: vec![0, 0],
            count: 0,
            sum: 0.0,
        };
        // Empty histogram: no quantile at any q, including the edges.
        for q in [0.0, 0.5, 0.99, 1.0] {
            assert_eq!(empty.quantile(q), None);
        }
        // NaN q is out of range, not a panic and not a NaN result.
        let h = hist(vec![1, 1], 2, 1.5);
        assert_eq!(h.quantile(f64::NAN), None);
        // Degenerate deserialized snapshot: observations but no bounds and
        // a non-finite sum. The +Inf fallthrough must not surface NaN.
        let degenerate = HistogramSnapshot {
            bounds: vec![],
            counts: vec![],
            count: 3,
            sum: f64::NAN,
        };
        assert_eq!(degenerate.quantile(0.5), None);
        // Same shape with a finite sum falls back to the mean.
        let boundless = HistogramSnapshot {
            bounds: vec![],
            counts: vec![],
            count: 4,
            sum: 8.0,
        };
        assert_eq!(boundless.quantile(0.5), Some(2.0));
        // Any value returned is finite.
        for q in [0.0, 0.25, 0.5, 0.75, 0.95, 1.0] {
            if let Some(v) = h.quantile(q) {
                assert!(v.is_finite(), "quantile({q}) = {v}");
            }
        }
    }

    #[test]
    fn snapshot_serde_roundtrip() {
        let mut snap = Snapshot::default();
        snap.counters.insert("cache_hits_total".into(), 7);
        snap.gauges.insert("eigentrust_residual".into(), 1e-9);
        snap.histograms
            .insert("detect_seconds".into(), hist(vec![1, 0], 1, 0.25));
        let text = serde_json::to_string(&snap).unwrap();
        let back: Snapshot = serde_json::from_str(&text).unwrap();
        assert_eq!(back, snap);
    }
}
