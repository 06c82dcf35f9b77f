//! Structured event log: typed [`Event`] records and the JSONL
//! [`EventSink`] they flow into.
//!
//! Events are the low-frequency, high-information complement to the
//! registry's aggregates: one record per detection verdict, snapshot
//! rebuild, or EigenTrust convergence, each rendered as a single JSON line
//! (`{"event": "...", ...}`).
//!
//! The vendored serde derive cannot handle data-carrying enum variants, so
//! [`Event`] implements `Serialize`/`Deserialize` by hand against the
//! `Value` data model, using an `"event"` tag field.

use std::fs::File;
use std::io::{BufWriter, Write};
use std::path::Path;
use std::sync::{Arc, Mutex};

use parking_lot::RwLock;
use serde::{Deserialize, Error, Serialize, Value};

/// One structured telemetry record.
#[derive(Debug, Clone, PartialEq)]
pub enum Event {
    /// The detector flagged a rater→ratee pair.
    DetectionVerdict {
        /// Simulation/update cycle the verdict belongs to (0-based).
        cycle: u64,
        /// Flagged rater node id.
        rater: u32,
        /// Rated node id.
        ratee: u32,
        /// Matched behavior tags, each one of `"B1"`–`"B4"`.
        behaviors: Vec<String>,
        /// Social closeness Ωc at detection time.
        omega_c: f64,
        /// Interest similarity Ωs at detection time.
        omega_s: f64,
    },
    /// One EigenTrust power-iteration run completed.
    EigenTrustConvergence {
        /// Update cycle (0-based, counted per system instance).
        cycle: u64,
        /// Power iterations until `‖t⁽ᵏ⁾ − t⁽ᵏ⁻¹⁾‖₁ < ε` (or the cap).
        iterations: u64,
        /// Final L1 residual when iteration stopped.
        residual: f64,
        /// Whether the run started from the previous cycle's trust vector.
        warm_start: bool,
    },
    /// A structural flush forced a full CSR-snapshot rebuild: the social
    /// graph changed structurally (edge add/remove or whole-state reset)
    /// since the previous snapshot, so the incremental row-patch path could
    /// not be taken.
    SnapshotRebuild {
        /// Number of nodes the dirty log reported touched since the
        /// superseded snapshot's epoch.
        dirty_nodes: u64,
    },
}

impl Event {
    /// The `"event"` tag this record serializes under.
    pub fn kind(&self) -> &'static str {
        match self {
            Event::DetectionVerdict { .. } => "detection_verdict",
            Event::EigenTrustConvergence { .. } => "eigentrust_convergence",
            Event::SnapshotRebuild { .. } => "snapshot_rebuild",
        }
    }
}

impl Serialize for Event {
    fn to_value(&self) -> Value {
        let mut fields: Vec<(String, Value)> =
            vec![("event".to_string(), Value::Str(self.kind().to_string()))];
        match self {
            Event::DetectionVerdict {
                cycle,
                rater,
                ratee,
                behaviors,
                omega_c,
                omega_s,
            } => {
                fields.push(("cycle".into(), Value::U64(*cycle)));
                fields.push(("rater".into(), Value::U64(u64::from(*rater))));
                fields.push(("ratee".into(), Value::U64(u64::from(*ratee))));
                fields.push((
                    "behaviors".into(),
                    Value::Seq(behaviors.iter().map(|b| Value::Str(b.clone())).collect()),
                ));
                fields.push(("omega_c".into(), Value::F64(*omega_c)));
                fields.push(("omega_s".into(), Value::F64(*omega_s)));
            }
            Event::EigenTrustConvergence {
                cycle,
                iterations,
                residual,
                warm_start,
            } => {
                fields.push(("cycle".into(), Value::U64(*cycle)));
                fields.push(("iterations".into(), Value::U64(*iterations)));
                fields.push(("residual".into(), Value::F64(*residual)));
                fields.push(("warm_start".into(), Value::Bool(*warm_start)));
            }
            Event::SnapshotRebuild { dirty_nodes } => {
                fields.push(("dirty_nodes".into(), Value::U64(*dirty_nodes)));
            }
        }
        Value::Object(fields)
    }
}

fn field<'v>(value: &'v Value, name: &str) -> Result<&'v Value, Error> {
    value
        .get(name)
        .ok_or_else(|| Error::custom(format!("Event missing field `{name}`")))
}

fn f64_field(value: &Value, name: &str) -> Result<f64, Error> {
    field(value, name)?
        .as_f64()
        .ok_or_else(|| Error::custom(format!("Event field `{name}` is not a number")))
}

fn u64_field(value: &Value, name: &str) -> Result<u64, Error> {
    field(value, name)?
        .as_u64()
        .ok_or_else(|| Error::custom(format!("Event field `{name}` is not an unsigned integer")))
}

fn bool_field(value: &Value, name: &str) -> Result<bool, Error> {
    field(value, name)?
        .as_bool()
        .ok_or_else(|| Error::custom(format!("Event field `{name}` is not a bool")))
}

impl Deserialize for Event {
    fn from_value(value: &Value) -> Result<Self, Error> {
        let kind = field(value, "event")?
            .as_str()
            .ok_or_else(|| Error::custom("Event tag `event` is not a string"))?;
        match kind {
            "detection_verdict" => {
                let behaviors = field(value, "behaviors")?
                    .as_array()
                    .ok_or_else(|| Error::custom("`behaviors` is not an array"))?
                    .iter()
                    .map(|b| {
                        b.as_str()
                            .map(str::to_string)
                            .ok_or_else(|| Error::custom("behavior tag is not a string"))
                    })
                    .collect::<Result<Vec<_>, _>>()?;
                Ok(Event::DetectionVerdict {
                    cycle: u64_field(value, "cycle")?,
                    rater: u32::try_from(u64_field(value, "rater")?)
                        .map_err(|_| Error::custom("`rater` out of range for u32"))?,
                    ratee: u32::try_from(u64_field(value, "ratee")?)
                        .map_err(|_| Error::custom("`ratee` out of range for u32"))?,
                    behaviors,
                    omega_c: f64_field(value, "omega_c")?,
                    omega_s: f64_field(value, "omega_s")?,
                })
            }
            "eigentrust_convergence" => Ok(Event::EigenTrustConvergence {
                cycle: u64_field(value, "cycle")?,
                iterations: u64_field(value, "iterations")?,
                residual: f64_field(value, "residual")?,
                warm_start: bool_field(value, "warm_start")?,
            }),
            "snapshot_rebuild" => Ok(Event::SnapshotRebuild {
                dirty_nodes: u64_field(value, "dirty_nodes")?,
            }),
            other => Err(Error::custom(format!("unknown event kind {other:?}"))),
        }
    }
}

enum SinkKind {
    /// Emits are no-ops. The default for uninstrumented runs.
    Disabled,
    /// Events are buffered in memory (for export/testing).
    Memory(RwLock<Vec<Event>>),
    /// Events are written as JSON lines to a writer.
    Writer(WriterSink),
}

/// A writer-backed sink destination. A `std::sync::Mutex` rather than the
/// workspace `RwLock` because `Box<dyn Write + Send>` is not `Sync`, and
/// `Mutex<T: Send>` is.
struct WriterSink {
    writer: Mutex<BufWriter<Box<dyn Write + Send>>>,
    /// Duplicated handle onto the backing file, kept so the drop path can
    /// `sync_all` after the buffered writer flushes. `None` for sinks over
    /// arbitrary writers, where there is nothing to fsync.
    file: Option<File>,
}

impl Drop for WriterSink {
    /// Flush buffered lines and (for file-backed sinks) fsync, so a sink
    /// that is simply dropped — e.g. at the end of a CLI run — still leaves
    /// a complete, parseable JSONL file behind. Errors are swallowed:
    /// telemetry teardown must never panic the host.
    fn drop(&mut self) {
        if let Ok(w) = self.writer.get_mut() {
            let _ = w.flush();
        }
        if let Some(file) = &self.file {
            let _ = file.sync_all();
        }
    }
}

/// A cheaply clonable destination for [`Event`]s.
///
/// Emitting is fallible only in the I/O sense; write errors are swallowed
/// (telemetry must never crash the host pipeline) — callers that care can
/// [`EventSink::flush`] and inspect the result.
#[derive(Clone)]
pub struct EventSink {
    inner: Arc<SinkKind>,
}

impl std::fmt::Debug for EventSink {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let kind = match &*self.inner {
            SinkKind::Disabled => "disabled",
            SinkKind::Memory(_) => "memory",
            SinkKind::Writer(_) => "writer",
        };
        f.debug_struct("EventSink").field("kind", &kind).finish()
    }
}

impl Default for EventSink {
    fn default() -> Self {
        EventSink::disabled()
    }
}

impl EventSink {
    /// A sink that drops every event. Emitting is a single `match` on an
    /// `Arc`, so instrumented code need not special-case "telemetry off".
    pub fn disabled() -> Self {
        EventSink {
            inner: Arc::new(SinkKind::Disabled),
        }
    }

    /// A sink that buffers events in memory, retrievable via
    /// [`EventSink::events`].
    pub fn in_memory() -> Self {
        EventSink {
            inner: Arc::new(SinkKind::Memory(RwLock::new(Vec::new()))),
        }
    }

    /// A sink that writes one JSON line per event to `writer`. Buffered
    /// lines are flushed when the last clone of the sink drops.
    pub fn to_writer(writer: Box<dyn Write + Send>) -> Self {
        EventSink {
            inner: Arc::new(SinkKind::Writer(WriterSink {
                writer: Mutex::new(BufWriter::new(writer)),
                file: None,
            })),
        }
    }

    /// A sink that writes one JSON line per event to the file at `path`
    /// (created/truncated). When the last clone drops, the buffer is
    /// flushed and the file fsynced, so the final line is always complete
    /// on disk even without an explicit [`EventSink::flush`].
    pub fn to_file(path: impl AsRef<Path>) -> std::io::Result<Self> {
        let file = File::create(path)?;
        // A failed dup only costs the fsync-on-drop; flushing still works.
        let sync_handle = file.try_clone().ok();
        Ok(EventSink {
            inner: Arc::new(SinkKind::Writer(WriterSink {
                writer: Mutex::new(BufWriter::new(Box::new(file))),
                file: sync_handle,
            })),
        })
    }

    /// Whether emitted events go anywhere. Lets callers skip building
    /// expensive event payloads when nobody is listening.
    pub fn is_enabled(&self) -> bool {
        !matches!(&*self.inner, SinkKind::Disabled)
    }

    /// Records one event.
    pub fn emit(&self, event: Event) {
        match &*self.inner {
            SinkKind::Disabled => {}
            SinkKind::Memory(buf) => buf.write().push(event),
            SinkKind::Writer(sink) => {
                if let Ok(line) = serde_json::to_string(&event) {
                    if let Ok(mut w) = sink.writer.lock() {
                        let _ = w.write_all(line.as_bytes());
                        let _ = w.write_all(b"\n");
                    }
                }
            }
        }
    }

    /// A copy of the buffered events (empty for non-memory sinks).
    pub fn events(&self) -> Vec<Event> {
        match &*self.inner {
            SinkKind::Memory(buf) => buf.read().clone(),
            _ => Vec::new(),
        }
    }

    /// Flushes a writer-backed sink; no-op otherwise.
    pub fn flush(&self) -> std::io::Result<()> {
        match &*self.inner {
            SinkKind::Writer(sink) => sink
                .writer
                .lock()
                .map_err(|_| std::io::Error::other("event sink writer lock poisoned"))?
                .flush(),
            _ => Ok(()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_events() -> Vec<Event> {
        vec![
            Event::DetectionVerdict {
                cycle: 3,
                rater: 17,
                ratee: 4,
                behaviors: vec!["B1".into(), "B3".into()],
                omega_c: 0.0,
                omega_s: 0.125,
            },
            Event::EigenTrustConvergence {
                cycle: 3,
                iterations: 12,
                residual: 4.2e-7,
                warm_start: true,
            },
            Event::SnapshotRebuild { dirty_nodes: 37 },
        ]
    }

    #[test]
    fn events_roundtrip_through_json() {
        for event in sample_events() {
            let line = serde_json::to_string(&event).unwrap();
            let back: Event = serde_json::from_str(&line).unwrap();
            assert_eq!(back, event);
        }
    }

    #[test]
    fn serialized_events_carry_the_kind_tag() {
        for event in sample_events() {
            let line = serde_json::to_string(&event).unwrap();
            let value: Value = serde_json::from_str(&line).unwrap();
            assert_eq!(
                value.get("event").and_then(Value::as_str),
                Some(event.kind())
            );
        }
    }

    #[test]
    fn memory_sink_buffers_in_order() {
        let sink = EventSink::in_memory();
        assert!(sink.is_enabled());
        for event in sample_events() {
            sink.emit(event);
        }
        assert_eq!(sink.events(), sample_events());
        // Clones share the buffer.
        assert_eq!(sink.clone().events().len(), sample_events().len());
    }

    #[test]
    fn disabled_sink_drops_everything() {
        let sink = EventSink::disabled();
        assert!(!sink.is_enabled());
        sink.emit(Event::SnapshotRebuild { dirty_nodes: 1 });
        assert!(sink.events().is_empty());
    }

    #[test]
    fn writer_sink_emits_jsonl() {
        let dir = std::env::temp_dir().join("socialtrust-telemetry-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join(format!("events-{}.jsonl", std::process::id()));
        {
            let sink = EventSink::to_file(&path).unwrap();
            for event in sample_events() {
                sink.emit(event);
            }
            sink.flush().unwrap();
        }
        let text = std::fs::read_to_string(&path).unwrap();
        let parsed: Vec<Event> = text
            .lines()
            .map(|l| serde_json::from_str(l).unwrap())
            .collect();
        assert_eq!(parsed, sample_events());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn dropped_sink_leaves_complete_last_line() {
        let dir = std::env::temp_dir().join("socialtrust-telemetry-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join(format!("events-drop-{}.jsonl", std::process::id()));
        {
            // Two clones: the buffer must survive until the *last* one goes.
            let sink = EventSink::to_file(&path).unwrap();
            let clone = sink.clone();
            for event in sample_events() {
                sink.emit(event);
            }
            drop(sink);
            drop(clone);
            // No explicit flush() — the Drop impl is on the hook.
        }
        let text = std::fs::read_to_string(&path).unwrap();
        assert!(text.ends_with('\n'), "last line must be newline-terminated");
        let parsed: Vec<Event> = text
            .lines()
            .map(|l| serde_json::from_str(l).unwrap())
            .collect();
        assert_eq!(parsed, sample_events());
        assert_eq!(parsed.last(), sample_events().last());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn unknown_event_kind_is_rejected() {
        let err = serde_json::from_str::<Event>(r#"{"event":"wat"}"#);
        assert!(err.is_err());
    }
}
