//! The flight recorder: a fixed-capacity ring of registry samples.
//!
//! A point-in-time `/metrics` scrape answers "what is the counter now";
//! it cannot answer "what happened in the 60 seconds before the tick
//! thread stalled". The [`FlightRecorder`] closes that gap: a sampler
//! (typically a dedicated thread calling [`FlightRecorder::sample`] on a
//! fixed interval) reads every metric in a [`Registry`] into a
//! preallocated frame ring, and [`FlightRecorder::window_json`] exports
//! the last N frames — values plus per-interval rates/derivatives — as
//! one JSON document. The daemon serves that document from
//! `/debug/timeseries` and dumps it as a "black box" on shutdown or a
//! detected stall.
//!
//! Design constraints, in order:
//!
//! * **No allocation at steady state.** The schema (one cell per
//!   counter/gauge plus two per histogram: `_count` and `_sum`) and the
//!   frame ring are built once; each `sample()` only writes `f64`s in
//!   place. The schema is rebuilt — and the ring reset — only when the
//!   registry's metric count changes, which stabilizes right after boot.
//! * **Lock-free reads of the metrics themselves.** Cells hold live
//!   [`Counter`]/[`Gauge`]/[`Histogram`] handles, so sampling takes no
//!   registry lock after the schema build.
//! * **Self-describing export.** The JSON window carries the sampling
//!   interval, per-series kind, raw samples, and derived
//!   `rate_per_second` arrays, so consumers need no out-of-band schema.
//!
//! ```
//! use std::time::Duration;
//! use socialtrust_telemetry::{timeseries::{FlightRecorder, RecorderConfig}, Registry};
//!
//! let registry = Registry::new();
//! let patches = registry.counter("snapshot_patches_total");
//! let recorder = FlightRecorder::new(registry, RecorderConfig::default());
//! recorder.sample();
//! patches.add(10);
//! recorder.sample();
//! let window = recorder.window_json(usize::MAX);
//! assert!(window.contains("\"snapshot_patches_total\""));
//! assert!(window.contains("rate_per_second"));
//! ```

use std::time::{Duration, SystemTime, UNIX_EPOCH};

use std::sync::Mutex;

use crate::metric::{Counter, Gauge, Histogram};
use crate::registry::{MetricHandle, Registry};

/// Sampling interval and ring depth for a [`FlightRecorder`].
#[derive(Debug, Clone, Copy)]
pub struct RecorderConfig {
    /// Intended wall-clock spacing between samples. The recorder does not
    /// schedule itself — the owning thread sleeps — but the interval is
    /// exported with every window and used as the rate fallback when two
    /// frames carry identical timestamps.
    pub interval: Duration,
    /// Number of frames the ring retains before overwriting the oldest.
    pub capacity: usize,
}

impl Default for RecorderConfig {
    fn default() -> Self {
        RecorderConfig {
            interval: Duration::from_millis(250),
            capacity: 256,
        }
    }
}

/// One sampled series: a live handle plus how to reduce it to an `f64`.
enum Cell {
    /// Counter value.
    Counter(Counter),
    /// Gauge value.
    Gauge(Gauge),
    /// Histogram observation count (`<family>_count`).
    HistCount(Histogram),
    /// Histogram observation sum (`<family>_sum`).
    HistSum(Histogram),
}

impl Cell {
    fn read(&self) -> f64 {
        match self {
            Cell::Counter(c) => c.get() as f64,
            Cell::Gauge(g) => g.get(),
            Cell::HistCount(h) => h.count() as f64,
            Cell::HistSum(h) => h.sum(),
        }
    }

    /// Counters and histogram count/sum cells are monotone: their
    /// derivative is a rate clamped at zero. Gauges are instantaneous:
    /// the derivative is signed.
    fn monotone(&self) -> bool {
        !matches!(self, Cell::Gauge(_))
    }

    fn kind(&self) -> &'static str {
        match self {
            Cell::Counter(_) => "counter",
            Cell::Gauge(_) => "gauge",
            Cell::HistCount(_) => "histogram_count",
            Cell::HistSum(_) => "histogram_sum",
        }
    }
}

struct Schema {
    names: Vec<String>,
    cells: Vec<Cell>,
    /// Registry metric count the schema was built from; a change means
    /// new registrations and forces a rebuild.
    registry_metrics: usize,
}

struct Frame {
    seq: u64,
    unix_ms: u64,
    values: Vec<f64>,
}

struct Inner {
    schema: Schema,
    /// Ring storage, preallocated to `capacity` frames once the schema
    /// stabilizes. `head` is the next write slot; `len` ≤ capacity.
    frames: Vec<Frame>,
    head: usize,
    len: usize,
    next_seq: u64,
}

/// A fixed-capacity ring of whole-registry samples with windowed JSON
/// export. See the module docs for the design.
pub struct FlightRecorder {
    registry: Registry,
    interval: Duration,
    capacity: usize,
    inner: Mutex<Inner>,
}

impl std::fmt::Debug for FlightRecorder {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let inner = self.inner.lock().unwrap_or_else(|e| e.into_inner());
        f.debug_struct("FlightRecorder")
            .field("interval", &self.interval)
            .field("capacity", &self.capacity)
            .field("series", &inner.schema.cells.len())
            .field("frames", &inner.len)
            .finish()
    }
}

fn build_schema(registry: &Registry) -> Schema {
    let handles = registry.metric_handles();
    let registry_metrics = handles.len();
    let mut names = Vec::with_capacity(registry_metrics);
    let mut cells = Vec::with_capacity(registry_metrics);
    for (key, handle) in handles {
        match handle {
            MetricHandle::Counter(c) => {
                names.push(key);
                cells.push(Cell::Counter(c));
            }
            MetricHandle::Gauge(g) => {
                names.push(key);
                cells.push(Cell::Gauge(g));
            }
            MetricHandle::Histogram(h) => {
                // Labeled keys look like `family{...}`; the _count/_sum
                // suffix attaches to the family, matching the exposition.
                let (family, labels) = match key.split_once('{') {
                    Some((family, rest)) => (family.to_string(), format!("{{{rest}")),
                    None => (key, String::new()),
                };
                names.push(format!("{family}_count{labels}"));
                cells.push(Cell::HistCount(h.clone()));
                names.push(format!("{family}_sum{labels}"));
                cells.push(Cell::HistSum(h));
            }
        }
    }
    Schema {
        names,
        cells,
        registry_metrics,
    }
}

fn unix_ms_now() -> u64 {
    SystemTime::now()
        .duration_since(UNIX_EPOCH)
        .map(|d| d.as_millis() as u64)
        .unwrap_or(0)
}

/// Renders an `f64` as a JSON value (`null` when non-finite).
fn json_num(v: f64) -> String {
    if v.is_finite() {
        let s = format!("{v}");
        // `format!` never produces `inf`/`NaN` for finite values, and the
        // shortest round-trip form is already valid JSON.
        s
    } else {
        "null".to_string()
    }
}

impl FlightRecorder {
    /// Creates a recorder over `registry`. No sampling happens until
    /// [`FlightRecorder::sample`] is called; `config.capacity` is clamped
    /// to at least 2 so a window can always hold one delta.
    pub fn new(registry: Registry, config: RecorderConfig) -> FlightRecorder {
        let capacity = config.capacity.max(2);
        FlightRecorder {
            registry,
            interval: config.interval,
            capacity,
            inner: Mutex::new(Inner {
                // The sentinel count forces the first sample() to build
                // the schema and allocate the ring.
                schema: Schema {
                    names: Vec::new(),
                    cells: Vec::new(),
                    registry_metrics: usize::MAX,
                },
                frames: Vec::new(),
                head: 0,
                len: 0,
                next_seq: 0,
            }),
        }
    }

    /// The configured sampling interval.
    pub fn interval(&self) -> Duration {
        self.interval
    }

    /// The ring capacity in frames.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Number of frames currently retained (≤ capacity).
    pub fn frames(&self) -> usize {
        self.inner.lock().unwrap_or_else(|e| e.into_inner()).len
    }

    /// Number of series being sampled per frame.
    pub fn series(&self) -> usize {
        self.inner
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .schema
            .cells
            .len()
    }

    /// Takes one sample of every registered metric into the ring.
    ///
    /// If metrics were registered since the last sample, the schema is
    /// rebuilt and the ring reset (frames with different series sets
    /// cannot be compared); otherwise this allocates nothing — it writes
    /// the new values into the preallocated frame in place.
    pub fn sample(&self) {
        let mut inner = self.inner.lock().unwrap_or_else(|e| e.into_inner());
        if inner.schema.registry_metrics != self.registry.metric_count() {
            inner.schema = build_schema(&self.registry);
            let series = inner.schema.cells.len();
            let capacity = self.capacity;
            inner.frames.clear();
            for _ in 0..capacity {
                inner.frames.push(Frame {
                    seq: 0,
                    unix_ms: 0,
                    values: vec![0.0; series],
                });
            }
            inner.head = 0;
            inner.len = 0;
        }
        let slot = inner.head;
        let seq = inner.next_seq;
        let unix_ms = unix_ms_now();
        let inner = &mut *inner;
        let frame = &mut inner.frames[slot];
        frame.seq = seq;
        frame.unix_ms = unix_ms;
        for (value, cell) in frame.values.iter_mut().zip(&inner.schema.cells) {
            *value = cell.read();
        }
        inner.next_seq += 1;
        inner.head = (inner.head + 1) % self.capacity;
        inner.len = (inner.len + 1).min(self.capacity);
    }

    /// Exports the most recent `last_n` frames (all retained frames when
    /// larger) as a self-describing JSON document:
    ///
    /// ```json
    /// {
    ///   "interval_seconds": 0.25,
    ///   "capacity": 256,
    ///   "frames": 3,
    ///   "seq": [41, 42, 43],
    ///   "unix_ms": [...],
    ///   "series": [
    ///     {"name": "server_events_ingested_total", "kind": "counter",
    ///      "samples": [100.0, 160.0, 220.0],
    ///      "rate_per_second": [240.0, 240.0]},
    ///     ...
    ///   ]
    /// }
    /// ```
    ///
    /// `rate_per_second[i]` is the derivative between frames `i` and
    /// `i+1` (one shorter than `samples`): clamped at zero for monotone
    /// series (counters, histogram counts/sums), signed for gauges. The
    /// elapsed time comes from the frame timestamps, falling back to the
    /// configured interval when they coincide.
    pub fn window_json(&self, last_n: usize) -> String {
        let inner = self.inner.lock().unwrap_or_else(|e| e.into_inner());
        let n = last_n.min(inner.len);
        // Chronological (oldest→newest) indices of the last n frames.
        let indices: Vec<usize> = (0..n)
            .map(|i| (inner.head + self.capacity - n + i) % self.capacity)
            .collect();
        let mut out = String::with_capacity(256 + n * inner.schema.cells.len() * 8);
        out.push_str(&format!(
            "{{\"interval_seconds\":{},\"capacity\":{},\"frames\":{n},\"seq\":[",
            json_num(self.interval.as_secs_f64()),
            self.capacity
        ));
        for (i, &idx) in indices.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&inner.frames[idx].seq.to_string());
        }
        out.push_str("],\"unix_ms\":[");
        for (i, &idx) in indices.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&inner.frames[idx].unix_ms.to_string());
        }
        out.push_str("],\"series\":[");
        for (series_idx, (name, cell)) in inner
            .schema
            .names
            .iter()
            .zip(&inner.schema.cells)
            .enumerate()
        {
            if series_idx > 0 {
                out.push(',');
            }
            out.push_str(&format!(
                "{{\"name\":{},\"kind\":\"{}\",\"samples\":[",
                serde_json::to_string(name).unwrap_or_else(|_| "\"\"".to_string()),
                cell.kind()
            ));
            for (i, &idx) in indices.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                out.push_str(&json_num(inner.frames[idx].values[series_idx]));
            }
            out.push_str("],\"rate_per_second\":[");
            for (i, pair) in indices.windows(2).enumerate() {
                if i > 0 {
                    out.push(',');
                }
                let (a, b) = (&inner.frames[pair[0]], &inner.frames[pair[1]]);
                let dt = (b.unix_ms.saturating_sub(a.unix_ms)) as f64 / 1000.0;
                let dt = if dt > 0.0 {
                    dt
                } else {
                    self.interval.as_secs_f64().max(1e-9)
                };
                let mut dv = b.values[series_idx] - a.values[series_idx];
                if cell.monotone() {
                    dv = dv.max(0.0);
                }
                out.push_str(&json_num(dv / dt));
            }
            out.push_str("]}");
        }
        out.push_str("]}");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn recorder_with(capacity: usize) -> (Registry, FlightRecorder) {
        let registry = Registry::new();
        let recorder = FlightRecorder::new(
            registry.clone(),
            RecorderConfig {
                interval: Duration::from_millis(10),
                capacity,
            },
        );
        (registry, recorder)
    }

    #[test]
    fn samples_accumulate_and_ring_wraps() {
        let (registry, recorder) = recorder_with(4);
        let c = registry.counter("ticks_total");
        for i in 0..10 {
            c.add(i);
            recorder.sample();
        }
        assert_eq!(recorder.frames(), 4, "ring capped at capacity");
        let window = recorder.window_json(usize::MAX);
        // Last 4 seq values survive, in order.
        assert!(window.contains("\"seq\":[6,7,8,9]"), "{window}");
        assert!(window.contains("\"frames\":4"), "{window}");
    }

    #[test]
    fn window_respects_last_n() {
        let (registry, recorder) = recorder_with(8);
        registry.counter("c_total");
        for _ in 0..5 {
            recorder.sample();
        }
        let window = recorder.window_json(2);
        assert!(window.contains("\"frames\":2"), "{window}");
        assert!(window.contains("\"seq\":[3,4]"), "{window}");
        let empty = FlightRecorder::new(Registry::new(), RecorderConfig::default());
        let window = empty.window_json(16);
        assert!(window.contains("\"frames\":0"), "{window}");
        assert!(window.contains("\"series\":[]"), "{window}");
    }

    #[test]
    fn counter_rates_are_non_negative_and_gauges_signed() {
        let (registry, recorder) = recorder_with(8);
        let c = registry.counter("events_total");
        let g = registry.gauge("depth");
        c.add(100);
        g.set(5.0);
        recorder.sample();
        c.add(50);
        g.set(2.0);
        recorder.sample();
        let window = recorder.window_json(usize::MAX);
        // With identical-or-later timestamps the rate is positive for the
        // counter and negative for the gauge.
        let series_start = window.find("\"name\":\"depth\"").expect("gauge series");
        let gauge_rates = &window[series_start..];
        let rate_part = gauge_rates
            .split("\"rate_per_second\":[")
            .nth(1)
            .unwrap()
            .split(']')
            .next()
            .unwrap();
        let rate: f64 = rate_part.parse().expect("one gauge rate");
        assert!(rate < 0.0, "gauge derivative is signed: {rate}");

        let counter_start = window.find("\"name\":\"events_total\"").expect("counter");
        let counter_rates = &window[counter_start..];
        let rate_part = counter_rates
            .split("\"rate_per_second\":[")
            .nth(1)
            .unwrap()
            .split(']')
            .next()
            .unwrap();
        let rate: f64 = rate_part.parse().expect("one counter rate");
        assert!(rate > 0.0, "counter rate positive: {rate}");
    }

    #[test]
    fn histograms_contribute_count_and_sum_series() {
        let (registry, recorder) = recorder_with(4);
        let h = registry.histogram_with_bounds("op_seconds", &[1.0]);
        h.observe(0.5);
        h.observe(0.25);
        recorder.sample();
        assert_eq!(recorder.series(), 2);
        let window = recorder.window_json(usize::MAX);
        assert!(window.contains("\"name\":\"op_seconds_count\""), "{window}");
        assert!(window.contains("\"name\":\"op_seconds_sum\""), "{window}");
        assert!(window.contains("\"kind\":\"histogram_count\""), "{window}");
        assert!(window.contains("\"samples\":[2]"), "{window}");
        assert!(window.contains("\"samples\":[0.75]"), "{window}");
    }

    #[test]
    fn labeled_histogram_names_attach_suffix_to_family() {
        let (registry, recorder) = recorder_with(4);
        registry.histogram_labeled_with_bounds("req_seconds", &[("ep", "scores")], &[1.0]);
        recorder.sample();
        let window = recorder.window_json(usize::MAX);
        assert!(
            window.contains("req_seconds_count{ep=\\\"scores\\\"}")
                || window.contains("req_seconds_count{ep=\"scores\"}"),
            "{window}"
        );
    }

    #[test]
    fn schema_rebuild_on_new_registration_resets_ring() {
        let (registry, recorder) = recorder_with(8);
        registry.counter("a_total");
        recorder.sample();
        recorder.sample();
        assert_eq!(recorder.frames(), 2);
        registry.counter("b_total");
        recorder.sample();
        assert_eq!(
            recorder.frames(),
            1,
            "new registration invalidates old frames"
        );
        assert_eq!(recorder.series(), 2);
        let window = recorder.window_json(usize::MAX);
        assert!(window.contains("\"name\":\"b_total\""), "{window}");
        // Seq keeps counting across rebuilds.
        assert!(window.contains("\"seq\":[2]"), "{window}");
    }

    #[test]
    fn window_json_is_parseable() {
        let (registry, recorder) = recorder_with(4);
        registry.counter("c_total").add(3);
        registry.gauge("g").set(f64::NAN);
        registry
            .histogram_with_bounds("h_seconds", &[0.5])
            .observe(0.1);
        recorder.sample();
        recorder.sample();
        let window = recorder.window_json(usize::MAX);
        let parsed: serde_json::Value = serde_json::from_str(&window).expect("window parses");
        let text = serde_json::to_string(&parsed).unwrap();
        assert!(text.contains("interval_seconds"));
        assert!(window.contains("null"), "NaN gauge renders as null");
    }
}
