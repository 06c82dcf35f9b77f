//! The traced run: the daemon's log fed in-process through the layers'
//! public functions, at the daemon's recorded tick boundaries.
//!
//! This is `service::replay_offline` with the benchmark's own spans around
//! each call (`parse_event`, `ReputationService::apply`,
//! `ReputationService::tick`, `ScoreBoard::ranking`, `explain_entries`).
//! Tick stages without a public entry point are read as deltas of the
//! histograms the pipeline already records, around each `tick()`.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

use socialtrust::explain::explain_entries;
use socialtrust::prelude::{EventSink, SampleMode, Telemetry, Tracer, TracerConfig};
use socialtrust::telemetry::Snapshot;
use socialtrust_server::event::parse_event;
use socialtrust_server::service::{ReputationService, ScoreBoard, ServiceConfig};

use crate::gen::Lines;
use crate::stats::{median, percentile};

/// One recorded span; `parent` indexes the span that caused it
/// (`u32::MAX` for a top-level span).
#[derive(Debug, Clone, Copy)]
pub struct SpanRec {
    pub name: &'static str,
    pub parent: u32,
    pub start_ns: u64,
    pub dur_ns: u64,
}

/// Spans held in memory for the whole run; written out when it ends.
struct Spans {
    t0: Instant,
    on: bool,
    recs: Vec<SpanRec>,
}

impl Spans {
    /// Run `f`; with spans on, record it and return its duration in ns.
    fn span<T>(&mut self, name: &'static str, parent: u32, f: impl FnOnce() -> T) -> (T, u64) {
        if !self.on {
            return (f(), 0);
        }
        let start = Instant::now();
        let out = f();
        let end = Instant::now();
        let dur_ns = (end - start).as_nanos() as u64;
        self.recs.push(SpanRec {
            name,
            parent,
            start_ns: (start - self.t0).as_nanos() as u64,
            dur_ns,
        });
        (out, dur_ns)
    }

    /// Open a span that parents others; `close` records its duration.
    fn open(&mut self, name: &'static str) -> (u32, Instant) {
        let started = Instant::now();
        if !self.on {
            return (u32::MAX, started);
        }
        self.recs.push(SpanRec {
            name,
            parent: u32::MAX,
            start_ns: (started - self.t0).as_nanos() as u64,
            dur_ns: 0,
        });
        (self.recs.len() as u32 - 1, started)
    }

    fn close(&mut self, (id, started): (u32, Instant)) -> u64 {
        if !self.on {
            return 0;
        }
        let dur = started.elapsed().as_nanos() as u64;
        self.recs[id as usize].dur_ns = dur;
        dur
    }
}

/// What one replay produced.
pub struct Replay {
    pub board: Arc<ScoreBoard>,
    pub wall_s: f64,
    /// Per-layer metrics (empty with spans off).
    pub layers: BTreeMap<&'static str, f64>,
    /// Parse + apply + ticks up to the first board covering the initial
    /// state (spans on only).
    pub boot_s: f64,
    /// Total time inside `ReputationService::apply` (spans on only).
    pub apply_s: f64,
    spans: Vec<SpanRec>,
}

/// Nodes whose `/explain` answer the traced run builds at every tick.
fn explained(colluders: &[u32]) -> Vec<u64> {
    colluders
        .iter()
        .step_by(20)
        .map(|&c| u64::from(c))
        .collect()
}

fn seconds_sum(snap: &Snapshot, name: &str) -> f64 {
    snap.histogram(name).map_or(0.0, |h| h.sum)
}

/// Replay `logs` (in order) through a fresh pipeline, ticking exactly
/// where `journal` says the daemon ticked.
pub fn replay(
    config: ServiceConfig,
    logs: &[&Lines],
    journal: &[u64],
    boot_applied: u64,
    colluders: &[u32],
    spans_on: bool,
) -> Result<Replay, String> {
    let telemetry = Telemetry::with_parts(
        EventSink::disabled(),
        Tracer::new(TracerConfig::with_sample(SampleMode::Full)),
    );
    let mut spans = Spans {
        t0: Instant::now(),
        on: spans_on,
        recs: Vec::new(),
    };
    let explain_nodes = explained(colluders);
    let started = Instant::now();
    let mut service = ReputationService::new(config, &telemetry);
    let mut board = service.boot_board();
    let mut next = 0usize;
    let (mut lines, mut malformed) = (0u64, 0u64);
    let (mut parse_ns, mut apply_ns, mut tick_ns_total, mut boot_ns) = (0u64, 0u64, 0u64, 0u64);
    let mut boot_done = boot_applied == 0;
    let mut ticks: Vec<[f64; 4]> = Vec::new(); // tick, detect, gaussian, update (ms)
    let (mut ranking_ms, mut explain_us) = (Vec::new(), Vec::new());
    let (mut iterations, mut trace_spans, mut board_bytes) = (0.0, 0u64, 0.0);
    for log in logs {
        for i in 0..log.len() {
            let text = log.line(i);
            lines += 1;
            let (parsed, dt) = spans.span("event.parse", u32::MAX, || parse_event(text));
            parse_ns += dt;
            let Ok(event) = parsed else {
                malformed += 1;
                continue;
            };
            let (applied, dt) = spans.span("service.apply", u32::MAX, || service.apply(&event));
            apply_ns += dt;
            if applied.is_err() || journal.get(next) != Some(&service.events_applied()) {
                continue;
            }
            next += 1;
            let before = spans_on.then(|| telemetry.registry().snapshot());
            let tick = spans.open("service.tick");
            board = service.tick();
            let tick_ns = spans.close(tick);
            tick_ns_total += tick_ns;
            if let Some(before) = before {
                let after = telemetry.registry().snapshot();
                let stage = |name| (seconds_sum(&after, name) - seconds_sum(&before, name)) * 1e3;
                ticks.push([
                    tick_ns as f64 / 1e6,
                    stage("detect_seconds"),
                    stage("gaussian_weight_seconds"),
                    stage("reputation_update_seconds"),
                ]);
                iterations += after.gauge("eigentrust_iterations").unwrap_or(0.0);
            }
            let (_, dt) = spans.span("board.ranking", tick.0, || board.ranking().len());
            ranking_ms.push(dt as f64 / 1e6);
            for &node in &explain_nodes {
                let (_, dt) = spans.span("explain.entries", tick.0, || {
                    explain_entries(&board.trace, Some(node), Some(board.cycle)).len()
                });
                explain_us.push(dt as f64 / 1e3);
            }
            let spans_here: usize = board.trace.traces.iter().map(|t| t.spans.len()).sum();
            trace_spans += spans_here as u64;
            board_bytes = (board.scores.len() * 8 + board.journal.len() * 8) as f64
                + (spans_here * std::mem::size_of::<socialtrust::telemetry::SpanRecord>()) as f64;
            if !boot_done && service.events_applied() >= boot_applied {
                boot_done = true;
                boot_ns = parse_ns + apply_ns + tick_ns_total;
            }
        }
    }
    let wall_s = started.elapsed().as_secs_f64();
    if next != journal.len() {
        return Err(format!(
            "replay reached {next} of {} journal boundaries",
            journal.len()
        ));
    }
    let mut layers = BTreeMap::new();
    if spans_on {
        let snap = telemetry.registry().snapshot();
        let n = ticks.len().max(1) as f64;
        let column = |k: usize| ticks.iter().map(|t| t[k]).collect::<Vec<f64>>();
        let mean = |k: usize| column(k).iter().sum::<f64>() / n;
        let applied = service.events_applied() + service.events_rejected();
        let rebuild = snap.histogram("snapshot_rebuild_seconds");
        let stats = &board.trace.stats;
        for (name, value) in [
            ("event.parse_ns", parse_ns as f64 / lines.max(1) as f64),
            ("event.lines", lines as f64),
            ("event.malformed", malformed as f64),
            ("service.apply_ns", apply_ns as f64 / applied.max(1) as f64),
            ("service.tick_ms_p50", median(&column(0)).unwrap_or(0.0)),
            (
                "service.tick_ms_max",
                percentile(&column(0), 100.0).unwrap_or(0.0),
            ),
            ("service.ticks", ticks.len() as f64),
            ("board.ranking_ms", median(&ranking_ms).unwrap_or(0.0)),
            ("service.board_bytes", board_bytes),
            ("tick.detect_ms", mean(1)),
            ("tick.gaussian_ms", mean(2)),
            ("tick.update_ms", mean(3)),
            ("tick.self_ms", mean(0) - mean(1) - mean(2) - mean(3)),
            (
                "detector.suspicions",
                snap.counter("detector_suspicions_total") as f64,
            ),
            (
                "detector.b1",
                snap.counter("detector_b1_triggers_total") as f64,
            ),
            (
                "detector.b2",
                snap.counter("detector_b2_triggers_total") as f64,
            ),
            (
                "detector.b3",
                snap.counter("detector_b3_triggers_total") as f64,
            ),
            (
                "detector.b4",
                snap.counter("detector_b4_triggers_total") as f64,
            ),
            (
                "decorator.rescaled",
                snap.counter("decorator_rescaled_ratings_total") as f64,
            ),
            ("eigentrust.iterations", iterations),
            (
                "snapshot.patches",
                snap.counter("snapshot_patches_total") as f64,
            ),
            (
                "snapshot.rebuilds",
                snap.counter("snapshot_rebuilds_total") as f64,
            ),
            (
                "snapshot.rebuild_ms",
                rebuild.and_then(|h| h.mean()).unwrap_or(0.0) * 1e3,
            ),
            (
                "snapshot.bytes_per_node",
                snap.gauge("snapshot_bytes_per_node").unwrap_or(0.0),
            ),
            ("cache.hits", snap.counter("cache_hits_total") as f64),
            ("cache.misses", snap.counter("cache_misses_total") as f64),
            (
                "cache.evictions",
                snap.counter("cache_evictions_total") as f64,
            ),
            ("trace.spans_per_tick", trace_spans as f64 / n),
            ("trace.dropped", stats.spans_dropped as f64),
            ("explain.entries_us", median(&explain_us).unwrap_or(0.0)),
        ] {
            layers.insert(name, value);
        }
    }
    Ok(Replay {
        board,
        wall_s,
        layers,
        boot_s: boot_ns as f64 / 1e9,
        apply_s: apply_ns as f64 / 1e9,
        spans: spans.recs,
    })
}

impl Replay {
    /// Write the spans as tab-separated `id parent name start_ns dur_ns`.
    pub fn write_spans(&self, path: &Path) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(out, "id\tparent\tname\tstart_ns\tdur_ns")?;
        for (id, s) in self.spans.iter().enumerate() {
            let parent = if s.parent == u32::MAX {
                "-".to_string()
            } else {
                s.parent.to_string()
            };
            writeln!(
                out,
                "{id}\t{parent}\t{}\t{}\t{}",
                s.name, s.start_ns, s.dur_ns
            )?;
        }
        out.flush()
    }
}

/// Bit patterns of a score vector, for exact comparison.
pub fn bits(scores: &[f64]) -> Vec<u64> {
    scores.iter().map(|x| x.to_bits()).collect()
}
