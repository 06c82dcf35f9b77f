//! Export formats: Prometheus text exposition, a line-format validator,
//! and the combined [`MetricsExport`] JSON document written by
//! `--metrics-out`.

use serde::{Deserialize, Serialize};

use crate::event::Event;
use crate::snapshot::{HistogramSnapshot, Snapshot};
use crate::Telemetry;

/// Renders an `f64` the way Prometheus expects sample values: `+Inf`,
/// `-Inf`, `NaN`, or a plain decimal.
fn render_value(v: f64) -> String {
    if v.is_nan() {
        "NaN".to_string()
    } else if v == f64::INFINITY {
        "+Inf".to_string()
    } else if v == f64::NEG_INFINITY {
        "-Inf".to_string()
    } else {
        let mut s = format!("{v}");
        if !s.contains('.') && !s.contains('e') && !s.contains("inf") {
            s.push_str(".0");
        }
        s
    }
}

/// Quantiles exported per histogram family, as `{quantile="pXX"}` gauge
/// samples in the exposition and a `quantiles` map in the JSON bundle.
pub const EXPORT_QUANTILES: &[(&str, f64)] = &[("p50", 0.5), ("p95", 0.95), ("p99", 0.99)];

/// Splits a registry key into its family name and the inner label list
/// (without braces): `m{a="1"}` → `("m", Some("a=\"1\""))`, `m` →
/// `("m", None)`.
fn split_key(key: &str) -> (&str, Option<&str>) {
    match key.split_once('{') {
        Some((family, rest)) => (family, Some(rest.strip_suffix('}').unwrap_or(rest))),
        None => (key, None),
    }
}

/// Appends `extra` (e.g. `le="0.5"`) to an optional inner label list,
/// producing a full `{...}` suffix.
fn merge_labels(inner: Option<&str>, extra: &str) -> String {
    match inner {
        Some(inner) if !inner.is_empty() => format!("{{{inner},{extra}}}"),
        _ => format!("{{{extra}}}"),
    }
}

/// Renders one histogram series. `inner` is the series' own label list
/// (without braces), merged ahead of the synthetic `le=`/`quantile=`
/// labels on each sample line.
fn render_histogram(out: &mut String, family: &str, inner: Option<&str>, h: &HistogramSnapshot) {
    let own = match inner {
        Some(inner) if !inner.is_empty() => format!("{{{inner}}}"),
        _ => String::new(),
    };
    let mut cumulative = 0u64;
    for (bound, count) in h.bounds.iter().zip(&h.counts) {
        cumulative += count;
        out.push_str(&format!(
            "{family}_bucket{} {cumulative}\n",
            merge_labels(inner, &format!("le=\"{}\"", render_value(*bound)))
        ));
    }
    out.push_str(&format!(
        "{family}_bucket{} {}\n",
        merge_labels(inner, "le=\"+Inf\""),
        h.count
    ));
    out.push_str(&format!("{family}_sum{own} {}\n", render_value(h.sum)));
    out.push_str(&format!("{family}_count{own} {}\n", h.count));
    // EXPORT_QUANTILES is sorted by label value, so the `quantile=` sample
    // lines come out ordered by label set within the series.
    for (label, q) in EXPORT_QUANTILES {
        if let Some(v) = h.quantile(*q) {
            out.push_str(&format!(
                "{family}{} {}\n",
                merge_labels(inner, &format!("quantile=\"{label}\"")),
                render_value(v)
            ));
        }
    }
}

/// One metric series to render, borrowed from a [`Snapshot`].
enum Series<'a> {
    Counter(u64),
    Gauge(f64),
    Histogram(&'a HistogramSnapshot),
}

impl Series<'_> {
    fn kind(&self) -> &'static str {
        match self {
            Series::Counter(_) => "counter",
            Series::Gauge(_) => "gauge",
            Series::Histogram(_) => "histogram",
        }
    }
}

/// Renders a [`Snapshot`] in the Prometheus text exposition format
/// (version 0.0.4). Series are grouped by family (label sets of one
/// family are contiguous, unlabeled series first, then label sets in
/// lexicographic order) with one `# TYPE` line per family; within a
/// histogram series, samples appear in a fixed order (buckets by
/// ascending `le`, then `_sum`/`_count`, then `quantile="pXX"` gauges).
/// Two renderings of equal snapshots are byte-identical. Histograms
/// expose cumulative `_bucket{le="..."}` samples plus `_sum`/`_count`
/// and estimated [`EXPORT_QUANTILES`]; a labeled histogram's own labels
/// are merged ahead of the synthetic `le=`/`quantile=` labels.
pub fn prometheus_text(snapshot: &Snapshot) -> String {
    // (family, label list) pairs; sorting on the pair keeps a family's
    // series contiguous even when another family's name extends it
    // (`abc{...}` vs `abcd`).
    let mut series: Vec<(&str, Option<&str>, Series<'_>)> = Vec::new();
    for (key, value) in &snapshot.counters {
        let (family, inner) = split_key(key);
        series.push((family, inner, Series::Counter(*value)));
    }
    for (key, value) in &snapshot.gauges {
        let (family, inner) = split_key(key);
        series.push((family, inner, Series::Gauge(*value)));
    }
    for (key, h) in &snapshot.histograms {
        let (family, inner) = split_key(key);
        series.push((family, inner, Series::Histogram(h)));
    }
    series.sort_by_key(|(family, inner, _)| (*family, *inner));

    let mut out = String::new();
    let mut last_type: Option<(&str, &'static str)> = None;
    for (family, inner, series) in series {
        if last_type != Some((family, series.kind())) {
            out.push_str(&format!("# TYPE {family} {}\n", series.kind()));
            last_type = Some((family, series.kind()));
        }
        let own = match inner {
            Some(inner) if !inner.is_empty() => format!("{{{inner}}}"),
            _ => String::new(),
        };
        match series {
            Series::Counter(value) => {
                out.push_str(&format!("{family}{own} {value}\n"));
            }
            Series::Gauge(value) => {
                out.push_str(&format!("{family}{own} {}\n", render_value(value)));
            }
            Series::Histogram(h) => render_histogram(&mut out, family, inner, h),
        }
    }
    out
}

fn parse_sample_value(raw: &str) -> Option<f64> {
    match raw {
        "+Inf" => Some(f64::INFINITY),
        "-Inf" => Some(f64::NEG_INFINITY),
        "NaN" => Some(f64::NAN),
        other => other.parse::<f64>().ok(),
    }
}

/// One parsed exposition sample line:
/// `name[{label="value",...}] value`. The synthetic `le=`/`quantile=`
/// labels are pulled out; the remaining labels are kept for grouping.
struct Sample {
    name: String,
    /// Labels other than `le`/`quantile`, in line order.
    labels: Vec<(String, String)>,
    le: Option<f64>,
    quantile: Option<String>,
    value: f64,
}

impl Sample {
    /// A normalized rendering of the non-synthetic labels, used to group
    /// the series of one (family × label set) together regardless of
    /// label order on the line.
    fn label_group(&self) -> String {
        let mut pairs: Vec<&(String, String)> = self.labels.iter().collect();
        pairs.sort();
        pairs
            .iter()
            .map(|(k, v)| format!("{k}=\"{v}\""))
            .collect::<Vec<_>>()
            .join(",")
    }
}

fn parse_sample(line: &str, lineno: usize) -> Result<Sample, String> {
    let (name_part, value_part) = line
        .rsplit_once(' ')
        .ok_or_else(|| format!("line {lineno}: no sample value in {line:?}"))?;
    let value = parse_sample_value(value_part.trim())
        .ok_or_else(|| format!("line {lineno}: bad sample value {value_part:?}"))?;
    let mut labels = Vec::new();
    let mut le = None;
    let mut quantile = None;
    let name = match name_part.split_once('{') {
        None => name_part.to_string(),
        Some((name, rest)) => {
            let rest = rest
                .strip_suffix('}')
                .ok_or_else(|| format!("line {lineno}: unterminated label set in {line:?}"))?;
            // Registration forbids commas inside label values, so a plain
            // comma split recovers the pairs the renderer joined.
            for pair in rest.split(',') {
                let (key, raw) = pair
                    .split_once('=')
                    .ok_or_else(|| format!("line {lineno}: malformed label {pair:?}"))?;
                let val = raw
                    .strip_prefix('"')
                    .and_then(|r| r.strip_suffix('"'))
                    .ok_or_else(|| format!("line {lineno}: unquoted label value {raw:?}"))?;
                match key {
                    "le" => {
                        let bound = parse_sample_value(val)
                            .ok_or_else(|| format!("line {lineno}: bad le bound {val:?}"))?;
                        le = Some(bound);
                    }
                    "quantile" => {
                        if val.is_empty() {
                            return Err(format!("line {lineno}: empty quantile label"));
                        }
                        quantile = Some(val.to_string());
                    }
                    other => {
                        if !crate::registry::is_valid_label_name(other) {
                            return Err(format!("line {lineno}: invalid label name {other:?}"));
                        }
                        labels.push((other.to_string(), val.to_string()));
                    }
                }
            }
            if le.is_some() && quantile.is_some() {
                return Err(format!(
                    "line {lineno}: both le= and quantile= on one sample"
                ));
            }
            name.to_string()
        }
    };
    if !crate::registry::is_valid_metric_name(&name) {
        return Err(format!("line {lineno}: invalid metric name {name:?}"));
    }
    Ok(Sample {
        name,
        labels,
        le,
        quantile,
        value,
    })
}

/// A histogram series key: the metric family plus the label group other
/// than `le` (two strings), mapped to the series' accumulated samples.
type SeriesKey = (String, String);

/// Validates Prometheus text-exposition output line by line:
///
/// * every non-comment line parses as `name[{label="value",...}] value`;
/// * every metric name matches `[a-zA-Z_:][a-zA-Z0-9_:]*` and every
///   label name matches `[a-zA-Z_][a-zA-Z0-9_]*`;
/// * histogram bucket series — grouped by family **and** the labels
///   other than `le` — have non-decreasing cumulative counts with
///   strictly increasing bounds, ending in a `+Inf` bucket;
/// * each histogram series' `+Inf` bucket equals its `_count` sample
///   with the same label set;
/// * `quantile` samples never appear on `_bucket` series, and no sample
///   carries both `le=` and `quantile=`.
///
/// Returns the number of sample lines validated.
pub fn validate_exposition(text: &str) -> Result<usize, String> {
    // (family, label group) -> (bound, cumulative count) pairs seen, for
    // `*_bucket` series.
    let mut buckets: Vec<(SeriesKey, Vec<(f64, f64)>)> = Vec::new();
    let mut counts: Vec<((String, String), f64)> = Vec::new();
    let mut samples = 0usize;

    for (idx, line) in text.lines().enumerate() {
        let lineno = idx + 1;
        let line = line.trim_end();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let sample = parse_sample(line, lineno)?;
        samples += 1;
        if let Some(bound) = sample.le {
            let base = sample
                .name
                .strip_suffix("_bucket")
                .ok_or_else(|| format!("line {lineno}: le label on non-bucket sample"))?
                .to_string();
            let group = (base, sample.label_group());
            match buckets.iter_mut().find(|(g, _)| *g == group) {
                Some((_, series)) => series.push((bound, sample.value)),
                None => buckets.push((group, vec![(bound, sample.value)])),
            }
        } else if sample.quantile.is_some() {
            if sample.name.ends_with("_bucket") {
                return Err(format!(
                    "line {lineno}: quantile label on bucket sample {:?}",
                    sample.name
                ));
            }
        } else if let Some(base) = sample.name.strip_suffix("_count") {
            counts.push(((base.to_string(), sample.label_group()), sample.value));
        }
    }

    for ((base, labels), series) in &buckets {
        let shown = if labels.is_empty() {
            base.clone()
        } else {
            format!("{base}{{{labels}}}")
        };
        for pair in series.windows(2) {
            if pair[1].0 <= pair[0].0 {
                return Err(format!(
                    "histogram {shown}: bucket bounds not strictly increasing ({} then {})",
                    pair[0].0, pair[1].0
                ));
            }
            if pair[1].1 < pair[0].1 {
                return Err(format!(
                    "histogram {shown}: cumulative bucket counts decrease at le={}",
                    pair[1].0
                ));
            }
        }
        let last = series
            .last()
            .ok_or_else(|| format!("histogram {shown}: empty bucket series"))?;
        if last.0 != f64::INFINITY {
            return Err(format!("histogram {shown}: missing +Inf bucket"));
        }
        let count = counts
            .iter()
            .find(|((n, l), _)| n == base && l == labels)
            .map(|(_, v)| *v)
            .ok_or_else(|| format!("histogram {shown}: missing _count sample"))?;
        if last.1 != count {
            return Err(format!(
                "histogram {shown}: +Inf bucket {} != count {count}",
                last.1
            ));
        }
    }
    Ok(samples)
}

/// The document written by `--metrics-out`: the Prometheus rendering, the
/// structured snapshot, and every buffered event, in one JSON file.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MetricsExport {
    /// Prometheus text exposition of `metrics`.
    pub prometheus: String,
    /// Structured snapshot of every registered metric.
    pub metrics: Snapshot,
    /// Estimated [`EXPORT_QUANTILES`] per non-empty histogram family
    /// (`family → quantile label → value`), mirroring the
    /// `{quantile="pXX"}` samples in `prometheus`.
    pub quantiles: std::collections::BTreeMap<String, std::collections::BTreeMap<String, f64>>,
    /// Buffered structured events, in emission order.
    pub events: Vec<Event>,
}

/// Estimated [`EXPORT_QUANTILES`] for every non-empty histogram in
/// `snapshot`, keyed family → quantile label.
pub fn histogram_quantiles(
    snapshot: &Snapshot,
) -> std::collections::BTreeMap<String, std::collections::BTreeMap<String, f64>> {
    snapshot
        .histograms
        .iter()
        .filter_map(|(name, h)| {
            let per_family: std::collections::BTreeMap<String, f64> = EXPORT_QUANTILES
                .iter()
                .filter_map(|(label, q)| h.quantile(*q).map(|v| (label.to_string(), v)))
                .collect();
            (!per_family.is_empty()).then(|| (name.clone(), per_family))
        })
        .collect()
}

impl MetricsExport {
    /// Collects the current registry snapshot and buffered events from
    /// `telemetry` into an export document.
    pub fn collect(telemetry: &Telemetry) -> MetricsExport {
        let metrics = telemetry.registry().snapshot();
        MetricsExport {
            prometheus: prometheus_text(&metrics),
            quantiles: histogram_quantiles(&metrics),
            metrics,
            events: telemetry.sink().events(),
        }
    }

    /// Serializes the export as pretty-printed JSON.
    pub fn to_json(&self) -> String {
        serde_json::to_string_pretty(self).expect("MetricsExport serialization is infallible")
    }

    /// Writes the export as pretty JSON to `path`.
    pub fn write_to(&self, path: impl AsRef<std::path::Path>) -> std::io::Result<()> {
        std::fs::write(path, self.to_json())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Registry;

    fn populated_registry() -> Registry {
        let r = Registry::new();
        r.counter("cache_hits_total").add(10);
        r.counter("cache_misses_total").add(3);
        r.gauge("eigentrust_residual").set(1.25e-7);
        let h = r.histogram_with_bounds("detect_seconds", &[0.001, 0.01, 0.1]);
        for v in [0.0005, 0.004, 0.05, 2.0] {
            h.observe(v);
        }
        r
    }

    #[test]
    fn exposition_round_trips_through_validator() {
        let text = prometheus_text(&populated_registry().snapshot());
        let samples = validate_exposition(&text).expect("valid exposition");
        // 2 counters + 1 gauge + (3 buckets + Inf + sum + count) + 3 quantiles.
        assert_eq!(samples, 12);
        assert!(text.contains("# TYPE detect_seconds histogram\n"));
        assert!(text.contains("detect_seconds_bucket{le=\"+Inf\"} 4\n"));
        assert!(text.contains("cache_hits_total 10\n"));
        assert!(text.contains("detect_seconds{quantile=\"p50\"}"));
        assert!(text.contains("detect_seconds{quantile=\"p95\"}"));
        assert!(text.contains("detect_seconds{quantile=\"p99\"}"));
    }

    #[test]
    fn exposition_is_sorted_by_family_then_label_set() {
        let r = Registry::new();
        // Registration order deliberately scrambled relative to name order.
        r.histogram_with_bounds("m_hist_seconds", &[0.5])
            .observe(0.1);
        r.counter("z_total").add(1);
        r.gauge("a_gauge").set(2.0);
        r.counter("b_total").add(4);
        let text = prometheus_text(&r.snapshot());
        let families: Vec<&str> = text
            .lines()
            .filter_map(|l| l.strip_prefix("# TYPE "))
            .filter_map(|rest| rest.split(' ').next())
            .collect();
        let mut sorted = families.clone();
        sorted.sort_unstable();
        assert_eq!(families, sorted, "families must be in name order");
        // Within the histogram family: buckets, +Inf, sum, count, quantiles.
        let hist_lines: Vec<&str> = text
            .lines()
            .filter(|l| l.starts_with("m_hist_seconds"))
            .collect();
        assert!(hist_lines[0].starts_with("m_hist_seconds_bucket{le=\"0.5\"}"));
        assert!(hist_lines[1].starts_with("m_hist_seconds_bucket{le=\"+Inf\"}"));
        assert!(hist_lines[2].starts_with("m_hist_seconds_sum"));
        assert!(hist_lines[3].starts_with("m_hist_seconds_count"));
        assert!(hist_lines[4].starts_with("m_hist_seconds{quantile=\"p50\"}"));
        assert!(hist_lines[5].starts_with("m_hist_seconds{quantile=\"p95\"}"));
        assert!(hist_lines[6].starts_with("m_hist_seconds{quantile=\"p99\"}"));
        // Renders are deterministic: equal snapshots → identical bytes.
        assert_eq!(text, prometheus_text(&r.snapshot()));
        assert!(validate_exposition(&text).is_ok());
    }

    #[test]
    fn labeled_series_render_and_validate() {
        let r = Registry::new();
        r.counter("http_requests_total").add(7);
        r.counter_labeled(
            "http_requests_total",
            &[("endpoint", "scores"), ("status", "2xx")],
        )
        .add(5);
        r.counter_labeled(
            "http_requests_total",
            &[("endpoint", "healthz"), ("status", "2xx")],
        )
        .add(2);
        let ha = r.histogram_labeled_with_bounds(
            "http_request_seconds",
            &[("endpoint", "scores")],
            &[0.5],
        );
        let hb = r.histogram_labeled_with_bounds(
            "http_request_seconds",
            &[("endpoint", "healthz")],
            &[0.5],
        );
        ha.observe(0.1);
        ha.observe(2.0);
        hb.observe(0.2);
        let text = prometheus_text(&r.snapshot());
        validate_exposition(&text).expect("labeled exposition validates");
        assert!(text.contains("http_requests_total 7\n"));
        assert!(text.contains("http_requests_total{endpoint=\"scores\",status=\"2xx\"} 5\n"));
        assert!(text.contains("http_request_seconds_bucket{endpoint=\"scores\",le=\"0.5\"} 1\n"));
        assert!(text.contains("http_request_seconds_bucket{endpoint=\"scores\",le=\"+Inf\"} 2\n"));
        assert!(text.contains("http_request_seconds_sum{endpoint=\"scores\"}"));
        assert!(text.contains("http_request_seconds_count{endpoint=\"healthz\"} 1\n"));
        assert!(text.contains("http_request_seconds{endpoint=\"scores\",quantile=\"p50\"}"));
        // One TYPE line per family, not per label set.
        assert_eq!(
            text.matches("# TYPE http_requests_total counter").count(),
            1
        );
        assert_eq!(
            text.matches("# TYPE http_request_seconds histogram")
                .count(),
            1
        );
        // Unlabeled series leads its family; label sets follow sorted.
        let requests: Vec<&str> = text
            .lines()
            .filter(|l| l.starts_with("http_requests_total"))
            .collect();
        assert!(requests[0].starts_with("http_requests_total 7"));
        assert!(requests[1].contains("endpoint=\"healthz\""));
        assert!(requests[2].contains("endpoint=\"scores\""));
        assert_eq!(text, prometheus_text(&r.snapshot()), "deterministic");
    }

    #[test]
    fn family_grouping_survives_name_extension() {
        // `abc{...}` sorts after `abcd` as raw strings; grouping must be
        // by (family, labels), keeping each family's series contiguous.
        let r = Registry::new();
        r.counter_labeled("abc_total", &[("k", "v")]).add(1);
        r.counter("abc_total").add(1);
        r.counter("abc_totalx").add(1);
        let text = prometheus_text(&r.snapshot());
        validate_exposition(&text).expect("validates");
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(
            lines,
            vec![
                "# TYPE abc_total counter",
                "abc_total 1",
                "abc_total{k=\"v\"} 1",
                "# TYPE abc_totalx counter",
                "abc_totalx 1",
            ]
        );
    }

    #[test]
    fn empty_histogram_emits_no_quantile_samples() {
        let r = Registry::new();
        r.histogram_with_bounds("idle_seconds", &[0.5, 1.0]);
        let text = prometheus_text(&r.snapshot());
        validate_exposition(&text).expect("zeroed histogram validates");
        assert!(text.contains("idle_seconds_bucket{le=\"+Inf\"} 0\n"));
        assert!(text.contains("idle_seconds_count 0\n"));
        assert!(
            !text.contains("quantile="),
            "no quantile gauges for an empty histogram: {text}"
        );
        assert!(!text.contains("NaN"), "no NaN samples: {text}");
        assert!(
            histogram_quantiles(&r.snapshot()).is_empty(),
            "no quantiles map entry for an empty histogram"
        );
    }

    #[test]
    fn validator_rejects_quantile_on_bucket_series() {
        let bad = "x_bucket{quantile=\"p50\"} 1\n";
        assert!(validate_exposition(bad)
            .unwrap_err()
            .contains("quantile label on bucket sample"));
    }

    #[test]
    fn export_carries_histogram_quantiles() {
        let telemetry = Telemetry::with_sink(crate::EventSink::in_memory());
        let h = telemetry
            .registry()
            .histogram_with_bounds("detect_seconds", &[0.001, 0.01, 0.1]);
        for v in [0.0005, 0.004, 0.05, 2.0] {
            h.observe(v);
        }
        let export = MetricsExport::collect(&telemetry);
        let q = export.quantiles.get("detect_seconds").expect("family");
        assert_eq!(
            q.keys().collect::<Vec<_>>(),
            vec!["p50", "p95", "p99"],
            "all export quantiles present"
        );
        let p50 = q["p50"];
        assert!(
            p50 > 0.001 && p50 <= 0.01 + 1e-12,
            "p50 {p50} in second bucket"
        );
        // The same values appear as exposition samples.
        for (label, v) in q {
            assert!(export.prometheus.contains(&format!(
                "detect_seconds{{quantile=\"{label}\"}} {}",
                super::render_value(*v)
            )));
        }
    }

    #[test]
    fn validator_rejects_non_monotone_buckets() {
        let bad =
            "x_bucket{le=\"1.0\"} 5\nx_bucket{le=\"2.0\"} 3\nx_bucket{le=\"+Inf\"} 5\nx_count 5\n";
        assert!(validate_exposition(bad).unwrap_err().contains("decrease"));
    }

    #[test]
    fn validator_rejects_inf_count_mismatch() {
        let bad = "x_bucket{le=\"1.0\"} 2\nx_bucket{le=\"+Inf\"} 2\nx_count 3\n";
        assert!(validate_exposition(bad)
            .unwrap_err()
            .contains("+Inf bucket 2 != count 3"));
    }

    #[test]
    fn validator_rejects_missing_inf_bucket() {
        let bad = "x_bucket{le=\"1.0\"} 2\nx_count 2\n";
        assert!(validate_exposition(bad)
            .unwrap_err()
            .contains("missing +Inf bucket"));
    }

    #[test]
    fn validator_rejects_bad_names() {
        assert!(validate_exposition("bad-name 1\n").is_err());
        assert!(validate_exposition("1leading 1\n").is_err());
    }

    #[test]
    fn export_roundtrips_through_json() {
        let telemetry = Telemetry::with_sink(crate::EventSink::in_memory());
        telemetry
            .registry()
            .counter("detector_suspicions_total")
            .add(2);
        telemetry
            .sink()
            .emit(crate::Event::SnapshotRebuild { dirty_nodes: 100 });
        let export = MetricsExport::collect(&telemetry);
        let text = export.to_json();
        let back: MetricsExport = serde_json::from_str(&text).unwrap();
        assert_eq!(back, export);
        assert!(validate_exposition(&back.prometheus).is_ok());
    }
}
