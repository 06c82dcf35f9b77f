//! # socialtrust-telemetry
//!
//! The observability substrate for the SocialTrust workspace: a
//! zero-heavy-dependency metrics registry, scoped span timers, and a
//! structured JSONL event log, with Prometheus text-exposition and JSON
//! export.
//!
//! Design points:
//!
//! * **Global-free.** There is no process-wide registry; a [`Telemetry`]
//!   bundle (registry + event sink) is constructed by the caller and
//!   threaded through `attach_telemetry` hooks. Tests and parallel
//!   simulations each get isolated registries.
//! * **Lock-free hot path.** [`Counter`]/[`Gauge`]/[`Histogram`] are `Arc`
//!   handles over `AtomicU64` cells; `f64` updates use a bit-cast
//!   compare-and-swap loop. Registration (name → handle) takes a short
//!   lock once; increments never do.
//! * **Detached-by-default.** Instrumented components construct detached
//!   metric handles so they carry zero configuration burden; attaching a
//!   [`Telemetry`] swaps in registry-backed handles and migrates the
//!   accumulated counts.
//! * **Snapshots are data.** [`Registry::snapshot`] produces a plain
//!   serializable [`Snapshot`] of lifetime totals.
//!
//! ```
//! use socialtrust_telemetry::{Event, EventSink, Span, Telemetry};
//!
//! let telemetry = Telemetry::with_sink(EventSink::in_memory());
//! telemetry.registry().counter("snapshot_patches_total").inc();
//! {
//!     let _span = Span::enter(telemetry.registry(), "detect_all");
//! }
//! telemetry.sink().emit(Event::SnapshotRebuild { dirty_nodes: 64 });
//!
//! let snap = telemetry.registry().snapshot();
//! assert_eq!(snap.counter("snapshot_patches_total"), 1);
//! assert_eq!(snap.histogram("detect_all_seconds").unwrap().count, 1);
//! assert_eq!(telemetry.sink().events().len(), 1);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod event;
pub mod export;
pub mod log;
pub mod metric;
pub mod registry;
pub mod snapshot;
pub mod span;
pub mod timeseries;
pub mod trace;

pub use event::{Event, EventSink};
pub use export::{prometheus_text, validate_exposition, MetricsExport};
pub use log::{Level, LogBuffer, Logger};
pub use metric::{Counter, Gauge, Histogram, DEFAULT_COUNT_BUCKETS, DEFAULT_SECONDS_BUCKETS};
pub use registry::{is_valid_metric_name, MetricHandle, Registry};
pub use snapshot::{HistogramSnapshot, Snapshot};
pub use span::Span;
pub use timeseries::{FlightRecorder, RecorderConfig};
pub use trace::{
    chrome_trace_json, AttrValue, RootGuard, SampleMode, SpanHandle, SpanId, SpanRecord, TraceDump,
    TraceId, TraceRecord, TraceStats, Tracer, TracerConfig,
};

/// The bundle instrumented components receive: a metric [`Registry`], an
/// [`EventSink`], and a decision-provenance [`Tracer`]. Cloning shares all
/// three.
#[derive(Debug, Clone, Default)]
pub struct Telemetry {
    registry: Registry,
    sink: EventSink,
    tracer: Tracer,
}

impl Telemetry {
    /// A telemetry bundle with a fresh registry, a disabled event sink,
    /// and a disabled tracer.
    pub fn new() -> Self {
        Self::default()
    }

    /// A telemetry bundle with a fresh registry and the given event sink
    /// (tracer disabled).
    pub fn with_sink(sink: EventSink) -> Self {
        Telemetry {
            registry: Registry::new(),
            sink,
            tracer: Tracer::disabled(),
        }
    }

    /// A telemetry bundle with a fresh registry and the given sink and
    /// tracer.
    pub fn with_parts(sink: EventSink, tracer: Tracer) -> Self {
        Telemetry {
            registry: Registry::new(),
            sink,
            tracer,
        }
    }

    /// The metric registry.
    pub fn registry(&self) -> &Registry {
        &self.registry
    }

    /// The structured event sink.
    pub fn sink(&self) -> &EventSink {
        &self.sink
    }

    /// The decision-provenance tracer.
    pub fn tracer(&self) -> &Tracer {
        &self.tracer
    }

    /// Starts a [`Span`] recording into `{name}_seconds` on this bundle's
    /// registry.
    pub fn span(&self, name: &str) -> Span {
        Span::enter(&self.registry, name)
    }
}
