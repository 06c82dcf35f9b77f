//! # socialtrust-server
//!
//! A long-running reputation daemon over the SocialTrust pipeline,
//! mirroring the staged-service shape of production EigenTrust
//! deployments: an append-only JSONL event log is tailed by an **ingest
//! thread**, which reads, frames and parses it and hands each read's
//! events to the **writer thread**. The writer owns the pipeline: it
//! applies every batch through `DirtyLog` into the live social substrate
//! and, on a fixed `--tick-ms` period, recomputes warm-started blocked
//! EigenTrust behind the B1–B4 detector. A small **HTTP worker pool**
//! (keep-alive HTTP/1.1 over a `poll(2)` event loop, see [`http`]) serves
//! scores, audit explanations, and Prometheus metrics from immutable
//! published [`ScoreBoard`]s.
//!
//! Threading model (no async runtime, no HTTP/signal dependencies):
//!
//! ```text
//!  events.jsonl ──tail── ingest thread: read, frame, parse, count bad lines
//!                             │ one batch per read (bounded sync_channel)
//!                             ▼
//!                        writer thread: owns ReputationService
//!                             │ apply each batch as it arrives;
//!                             │ end_cycle() at every --tick-ms deadline
//!                             │ (skipped when idle)
//!                             ▼ publish Arc<ScoreBoard>
//!  RwLock<Arc<ScoreBoard>> ◀──read── HTTP workers (/score /scores /explain
//!                                       /journal /healthz /metrics)
//! ```
//!
//! Ingest: one chunked reader frames the log's lines, and each read's
//! events travel as one batch. `--replay` pumps it on the calling thread
//! up to the log length seen at open, applying each batch directly,
//! ticks once, and only then binds the listener; the ingest thread takes
//! over the same reader, so a backlog that ends mid-line is finished by
//! the tail, and restart cost is linear in backlog bytes. The tail
//! reopens a log it finds truncated or replaced. The handoff holds at
//! most `HANDOFF_BATCHES` (16) batches; when it is full the ingest thread
//! waits for room, so a burst cannot grow memory.
//!
//! Consistency: only the writer thread mutates the pipeline, and it
//! applies whole batches, so a tick always falls between two batches and
//! every tick journal entry (cumulative applied events per tick, served
//! at `/journal`) is a batch boundary. Queries see exactly the last
//! completed tick. Ticks with no newly applied events are skipped, so the
//! journal stays finite and the daemon's entire output is reproducible
//! offline via [`service::replay_offline`] — bit for bit, which the
//! integration tests assert over real sockets.
//!
//! Platform: the daemon is unix-only. The workspace vendors no `libc`, so
//! the HTTP workers wait on sockets through a direct `poll(2)` binding,
//! the binary installs its SIGINT/SIGTERM handler through `signal(2)`,
//! and the tail tells a replaced log from a truncated one by its
//! `(dev, inode)` pair (`std::os::unix::fs::MetadataExt`).

pub mod event;
pub mod http;
mod ingest;
pub mod service;

use std::net::{SocketAddr, TcpListener};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc::{self, Receiver, RecvTimeoutError, SyncSender};
use std::sync::{Arc, Mutex, RwLock};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use socialtrust::prelude::*;
use socialtrust::telemetry::{
    Counter, FlightRecorder, Gauge, Histogram, Level, Logger, RecorderConfig,
};

use event::ServerEvent;
use service::{HealthMachine, HealthState, ReputationService, ScoreBoard, ServiceConfig};

/// Batches the ingest thread may queue ahead of the writer. A batch is
/// one read of at most 64 KiB, so at most about 1 MiB of log waits.
const HANDOFF_BATCHES: usize = 16;

/// The writer's heartbeat period while it waits for batches, and its
/// sleep while frozen.
const BEAT: Duration = Duration::from_millis(10);

/// `oldest_pending` when every applied event is covered by a board.
const NONE_PENDING: u64 = u64::MAX;

/// What the writer thread receives, in order.
pub(crate) enum ToWriter {
    /// One read's parsed events, and the instant that read returned.
    Batch {
        events: Vec<ServerEvent>,
        read_at: Instant,
    },
    /// [`ServerState::force_tick`]: tick now if anything is pending, and
    /// answer whether a tick ran.
    Tick(SyncSender<bool>),
    /// Shutdown, sent once the ingest thread has drained the log: run the
    /// final tick and return.
    Stop,
}

/// Daemon configuration: where the log lives, where to listen, pipeline
/// capacity, and the tick/worker knobs.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// The append-only JSONL event log to tail (created if absent).
    pub log_path: PathBuf,
    /// Listen address, e.g. `127.0.0.1:8080` (port 0 for ephemeral).
    pub listen: String,
    /// Pipeline capacity and SocialTrust thresholds.
    pub service: ServiceConfig,
    /// Wall-clock interval between recompute ticks.
    pub tick_interval: Duration,
    /// HTTP worker threads.
    pub workers: usize,
    /// Keep-alive: close a connection after this much idle time.
    pub http_idle_timeout: Duration,
    /// Keep-alive: retire a connection after this many requests.
    pub http_max_requests: usize,
    /// Bootstrap mode: apply the log's backlog, up to its length at
    /// start, and run one tick *before* binding the listener, so the
    /// daemon goes live warm.
    pub replay: bool,
    /// Minimum severity the structured logger emits.
    pub log_level: Level,
    /// Emit JSONL log records instead of human-readable text.
    pub log_json: bool,
    /// Flight-recorder sampling interval (also the watchdog cadence).
    pub record_interval: Duration,
    /// Flight-recorder ring capacity, in frames.
    pub record_capacity: usize,
    /// Requests at or above this latency land in the `/debug/slow` ring.
    pub slow_threshold: Duration,
    /// Where the flight-recorder window is dumped on shutdown or on a
    /// watchdog-detected stall (`None` disables the blackbox).
    pub blackbox_out: Option<PathBuf>,
    /// Tick-heartbeat age at which `/healthz` reports `stalled` (503).
    /// `None` derives `max(8 × tick_interval, 2s)`.
    pub stall_after: Option<Duration>,
    /// Live ingest lag at which `/healthz` reports `degraded`.
    pub degraded_after: Duration,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            log_path: PathBuf::from("events.jsonl"),
            listen: "127.0.0.1:8080".to_string(),
            service: ServiceConfig::default(),
            tick_interval: Duration::from_millis(200),
            workers: 4,
            http_idle_timeout: Duration::from_secs(5),
            http_max_requests: 1000,
            replay: false,
            log_level: Level::Info,
            log_json: false,
            record_interval: Duration::from_millis(250),
            record_capacity: 256,
            slow_threshold: Duration::from_millis(100),
            blackbox_out: None,
            stall_after: None,
            degraded_after: Duration::from_secs(5),
        }
    }
}

/// Shared daemon state: the handoff to the writer thread (which owns the
/// pipeline), the published board behind an rwlock, and the telemetry
/// handles every thread updates.
pub struct ServerState {
    /// The ingest thread's batches, [`ServerState::force_tick`] requests
    /// and the shutdown stop, in order, to the writer thread.
    pub(crate) handoff: SyncSender<ToWriter>,
    board: RwLock<Arc<ScoreBoard>>,
    pub(crate) telemetry: Telemetry,
    pub(crate) shutdown: AtomicBool,
    pub(crate) start: Instant,
    // Ingest-side telemetry.
    pub(crate) events_ingested: Counter,
    pub(crate) events_malformed: Counter,
    pub(crate) events_rejected: Counter,
    queue_depth: Gauge,
    ingest_lag: Gauge,
    ingest_apply_seconds: Histogram,
    /// How long each handoff waited for room in the channel.
    pub(crate) ingest_handoff_seconds: Histogram,
    /// Per applied batch: from its read to the publish of the first board
    /// that covers it.
    event_freshness_seconds: Histogram,
    /// Read instant of the oldest applied batch not yet covered by a
    /// published board, in nanoseconds since `start` (`NONE_PENDING` when
    /// none). Only the writer stores it; it publishes no other data, so
    /// `Relaxed` suffices.
    oldest_pending: AtomicU64,
    // Tick-side telemetry.
    ticks_total: Counter,
    ticks_skipped: Counter,
    tick_seconds: Histogram,
    // HTTP-side telemetry. `http_requests` counts parsed requests (a
    // keep-alive connection contributes one per request it carries);
    // `http_connections` counts accepted connections.
    pub(crate) http_requests: Counter,
    pub(crate) http_connections: Counter,
    pub(crate) http_seconds: Histogram,
    // HTTP keep-alive tuning (from `ServerConfig`).
    pub(crate) http_idle_timeout: Duration,
    pub(crate) http_max_requests: usize,
    /// Rendered `/metrics` body, shared until its short TTL lapses.
    pub(crate) metrics_cache: Mutex<Option<(Instant, Arc<str>)>>,
    // Observability plane (PR 10).
    /// Structured leveled logger every thread writes through.
    pub(crate) log: Logger,
    /// Flight recorder the watchdog samples on `record_interval`.
    pub(crate) recorder: FlightRecorder,
    /// Heartbeat-driven health derivation (beaten by the writer thread).
    pub(crate) health: HealthMachine,
    /// `server_health_state` gauge (0 ok / 1 degraded / 2 stalled).
    health_gauge: Gauge,
    /// Ingest lines dropped for invalid UTF-8 (kept separate from
    /// `server_events_malformed_total`, which counts parse failures).
    pub(crate) events_invalid_utf8: Counter,
    /// Times the tail found the log truncated or replaced and reopened it.
    pub(crate) log_reopens: Counter,
    /// HTTP worker threads that died panicking (degrades health).
    pub(crate) worker_panics: Counter,
    /// Per-endpoint × status-class request counters and latency
    /// histograms (labeled views of the two aggregate families above).
    pub(crate) http_classes: http::HttpClassMetrics,
    /// Ring of the slowest recent requests, served at `/debug/slow`.
    pub(crate) slow: Mutex<SlowRing>,
    pub(crate) slow_threshold: Duration,
    pub(crate) blackbox_out: Option<PathBuf>,
    /// Test hook: while set, the writer thread neither applies, ticks nor
    /// beats the heartbeat, simulating a wedged recompute.
    tick_frozen: AtomicBool,
}

/// One `/debug/slow` record: which endpoint class, how slow, and which
/// published tick was current when it was served.
#[derive(Debug, Clone, Copy)]
pub(crate) struct SlowEntry {
    pub(crate) endpoint: &'static str,
    pub(crate) seconds: f64,
    pub(crate) tick: u64,
}

/// Fixed-capacity ring of [`SlowEntry`] — no allocation after the first
/// `SLOW_RING_CAP` pushes; oldest entries are overwritten.
#[derive(Debug)]
pub(crate) struct SlowRing {
    entries: Vec<SlowEntry>,
    head: usize,
    total: u64,
}

pub(crate) const SLOW_RING_CAP: usize = 64;

impl SlowRing {
    fn new() -> SlowRing {
        SlowRing {
            entries: Vec::with_capacity(SLOW_RING_CAP),
            head: 0,
            total: 0,
        }
    }

    pub(crate) fn push(&mut self, entry: SlowEntry) {
        self.total = self.total.saturating_add(1);
        if self.entries.len() < SLOW_RING_CAP {
            self.entries.push(entry);
        } else {
            self.entries[self.head] = entry;
            self.head = (self.head + 1) % SLOW_RING_CAP;
        }
    }

    /// Entries oldest-first.
    pub(crate) fn iter_chrono(&self) -> impl Iterator<Item = &SlowEntry> {
        self.entries[self.head..]
            .iter()
            .chain(self.entries[..self.head].iter())
    }

    /// Lifetime count of slow requests (including overwritten ones).
    pub(crate) fn total(&self) -> u64 {
        self.total
    }
}

impl ServerState {
    fn new(
        service: &ReputationService,
        handoff: SyncSender<ToWriter>,
        telemetry: Telemetry,
        config: &ServerConfig,
    ) -> ServerState {
        let board = service.boot_board();
        board.ranking(); // warm the boot board's score index
        let r = telemetry.registry();
        let stall_after = config
            .stall_after
            .unwrap_or_else(|| (config.tick_interval * 8).max(Duration::from_secs(2)));
        let recorder = FlightRecorder::new(
            r.clone(),
            RecorderConfig {
                interval: config.record_interval,
                capacity: config.record_capacity,
            },
        );
        ServerState {
            log: Logger::stderr(config.log_level, config.log_json),
            recorder,
            health: HealthMachine::new(stall_after, config.degraded_after),
            health_gauge: r.gauge("server_health_state"),
            events_invalid_utf8: r.counter("server_events_invalid_utf8_total"),
            log_reopens: r.counter("server_log_reopens_total"),
            worker_panics: r.counter("server_worker_panics_total"),
            http_classes: http::HttpClassMetrics::new(r),
            slow: Mutex::new(SlowRing::new()),
            slow_threshold: config.slow_threshold,
            blackbox_out: config.blackbox_out.clone(),
            tick_frozen: AtomicBool::new(false),
            handoff,
            board: RwLock::new(board),
            shutdown: AtomicBool::new(false),
            start: Instant::now(),
            events_ingested: r.counter("server_events_ingested_total"),
            events_malformed: r.counter("server_events_malformed_total"),
            events_rejected: r.counter("server_events_rejected_total"),
            queue_depth: r.gauge("server_ingest_queue_depth"),
            ingest_lag: r.gauge("server_ingest_lag_seconds"),
            ingest_apply_seconds: r.histogram("server_ingest_apply_seconds"),
            ingest_handoff_seconds: r.histogram("server_ingest_handoff_seconds"),
            event_freshness_seconds: r.histogram("server_event_freshness_seconds"),
            ticks_total: r.counter("server_ticks_total"),
            ticks_skipped: r.counter("server_ticks_skipped_total"),
            tick_seconds: r.histogram("server_tick_seconds"),
            http_requests: r.counter("server_http_requests_total"),
            http_connections: r.counter("server_http_connections_total"),
            http_seconds: r.histogram("server_http_request_seconds"),
            http_idle_timeout: config.http_idle_timeout,
            http_max_requests: config.http_max_requests.max(1),
            metrics_cache: Mutex::new(None),
            oldest_pending: AtomicU64::new(NONE_PENDING),
            telemetry,
        }
    }

    /// The last completed tick's published board.
    pub fn board(&self) -> Arc<ScoreBoard> {
        self.board.read().expect("board lock").clone()
    }

    /// The daemon's telemetry bundle.
    pub fn telemetry(&self) -> &Telemetry {
        &self.telemetry
    }

    /// Counter of events the writer thread has applied (benches and tests
    /// poll this to detect when an appended batch has landed).
    pub fn events_ingested(&self) -> &Counter {
        &self.events_ingested
    }

    /// Run one recompute tick immediately if any events are pending,
    /// instead of waiting out the tick interval. The request queues behind
    /// every batch already handed to the writer, so the tick covers them.
    /// Benches and tests use this to get deterministic tick boundaries;
    /// the daemon itself only ticks from the writer's schedule and the
    /// shutdown drain. Returns whether a tick ran (`false` once the writer
    /// has stopped).
    pub fn force_tick(&self) -> bool {
        let (reply, answer) = mpsc::sync_channel(1);
        self.handoff.send(ToWriter::Tick(reply)).is_ok() && answer.recv().unwrap_or(false)
    }

    /// Time elapsed since `read`, an instant stored as nanoseconds since
    /// `start`.
    fn since(&self, read: u64) -> Duration {
        self.start
            .elapsed()
            .saturating_sub(Duration::from_nanos(read))
    }

    /// The daemon's structured logger.
    pub fn logger(&self) -> &Logger {
        &self.log
    }

    /// Derive the current health plus the inputs it was derived from:
    /// `(state, heartbeat_age_seconds, ingest_lag_seconds)`. The lag is
    /// the **live** wait of the oldest event not yet covered by a tick
    /// (0 when nothing is pending), not the per-tick gauge.
    pub fn assess_health(&self) -> (HealthState, f64, f64) {
        let lag = match self.oldest_pending.load(Ordering::Relaxed) {
            NONE_PENDING => None,
            read => Some(self.since(read)),
        };
        let state = self.health.assess(lag, self.worker_panics.get());
        (
            state,
            self.health.heartbeat_age().as_secs_f64(),
            lag.map_or(0.0, |d| d.as_secs_f64()),
        )
    }

    /// Record one served request into the labeled counter/histogram
    /// matrix, and into the `/debug/slow` ring when it crossed the
    /// threshold. The board read (for the tick stamp) only happens on
    /// the slow path.
    pub(crate) fn record_request(&self, endpoint: http::Endpoint, status: u16, seconds: f64) {
        self.http_classes.record(endpoint, status, seconds);
        if seconds >= self.slow_threshold.as_secs_f64() {
            let tick = self.board().tick;
            self.slow.lock().expect("slow lock").push(SlowEntry {
                endpoint: endpoint.label(),
                seconds,
                tick,
            });
        }
    }

    /// Dump the flight-recorder window to `blackbox_out` (no-op when the
    /// blackbox is disabled). Forces samples until the ring holds at
    /// least two frames so even an immediately-terminated daemon leaves
    /// a usable rate window.
    pub(crate) fn dump_blackbox(&self, reason: &str) {
        let Some(path) = &self.blackbox_out else {
            return;
        };
        while self.recorder.frames() < 2 {
            self.recorder.sample();
        }
        let (health, _, _) = self.assess_health();
        let body = format!(
            "{{\"reason\":\"{reason}\",\"health\":\"{}\",\"uptime_seconds\":{:.3},\"window\":{}}}\n",
            health.as_str(),
            self.start.elapsed().as_secs_f64(),
            self.recorder.window_json(usize::MAX)
        );
        match std::fs::write(path, &body) {
            Ok(()) => self.log.info(
                "blackbox",
                "wrote flight-recorder blackbox",
                &[
                    ("path", path.display().to_string().into()),
                    ("reason", reason.into()),
                    ("frames", self.recorder.frames().into()),
                ],
            ),
            Err(e) => self.log.error(
                "blackbox",
                "failed to write blackbox",
                &[
                    ("path", path.display().to_string().into()),
                    ("error", e.to_string().into()),
                ],
            ),
        }
    }

    /// Test hook: freeze (or thaw) the writer thread. While frozen it
    /// neither applies batches, ticks nor beats the health heartbeat, so
    /// the watchdog and `/healthz` observe a genuine stall; the ingest
    /// thread keeps reading until the handoff is full. Shutdown thaws it.
    #[doc(hidden)]
    pub fn set_tick_frozen(&self, frozen: bool) {
        self.tick_frozen.store(frozen, Ordering::SeqCst);
    }
}

/// The daemon's single writer: it owns the pipeline, applies batches and
/// runs ticks. `--replay` drives it on the calling thread; the writer
/// thread ([`writer_loop`]) drives it from then on.
struct Writer {
    state: Arc<ServerState>,
    service: ReputationService,
    /// Read instants of the handed-over batches applied since the last
    /// tick, observed into `server_event_freshness_seconds` at publish.
    unpublished: Vec<Instant>,
}

impl Writer {
    /// Apply one batch. Rejections are counted, not applied. Returns
    /// whether any event was applied.
    fn apply(&mut self, events: &[ServerEvent], read_at: Instant) -> bool {
        let state = &*self.state;
        let started = Instant::now();
        let mut applied = 0u64;
        for ev in events {
            match self.service.apply(ev) {
                Ok(()) => applied += 1,
                Err(reason) => {
                    state.events_rejected.inc();
                    state.log.warn(
                        "ingest",
                        "rejected event",
                        &[("reason", reason.as_str().into())],
                    );
                }
            }
        }
        state.queue_depth.set(self.service.pending_events() as f64);
        state.events_ingested.add(applied);
        state
            .ingest_apply_seconds
            .observe(started.elapsed().as_secs_f64());
        if applied > 0 && state.oldest_pending.load(Ordering::Relaxed) == NONE_PENDING {
            let read = read_at.saturating_duration_since(state.start).as_nanos();
            let read = u64::try_from(read).unwrap_or(NONE_PENDING - 1);
            state.oldest_pending.store(read, Ordering::Relaxed);
        }
        applied > 0
    }

    /// Run one tick if any events arrived since the last one; publish the
    /// new board. Returns whether a tick ran.
    fn maybe_tick(&mut self) -> bool {
        let state = &*self.state;
        if self.service.pending_events() == 0 {
            state.ticks_skipped.inc();
            return false;
        }
        let started = Instant::now();
        let board = self.service.tick();
        state.tick_seconds.observe(started.elapsed().as_secs_f64());
        state.ticks_total.inc();
        state.queue_depth.set(self.service.pending_events() as f64);
        // Precompute the per-tick score index here, on the writer thread,
        // so `/scores` requests slice a warm shared ranking.
        board.ranking();
        *state.board.write().expect("board lock") = board;
        let oldest = state.oldest_pending.swap(NONE_PENDING, Ordering::Relaxed);
        if oldest != NONE_PENDING {
            state.ingest_lag.set(state.since(oldest).as_secs_f64());
        }
        for read_at in self.unpublished.drain(..) {
            state
                .event_freshness_seconds
                .observe(read_at.elapsed().as_secs_f64());
        }
        true
    }
}

/// The deadline after the tick due at `due` that ended at `now`: one
/// interval after `due`, so the period does not include the tick's cost;
/// or `now` when the tick overran that, so missed deadlines are not made
/// up by a burst of ticks.
fn next_deadline(due: Instant, interval: Duration, now: Instant) -> Instant {
    (due + interval).max(now)
}

/// The writer thread: apply each batch as it arrives, and run
/// `maybe_tick` at every deadline, until the shutdown stop. It beats the
/// health heartbeat on every pass, at least every [`BEAT`] while it waits,
/// so a long-but-running tick interval never reads as a stall — only a
/// thread that stopped scheduling does.
fn writer_loop(mut writer: Writer, handoff: Receiver<ToWriter>, interval: Duration) {
    let state = Arc::clone(&writer.state);
    let mut next = Instant::now() + interval;
    loop {
        if state.tick_frozen.load(Ordering::SeqCst) && !state.shutdown.load(Ordering::SeqCst) {
            // Frozen (test hook): simulate a wedged recompute — no
            // heartbeat, no applies, no ticks. Shutdown thaws it, so the
            // drain can finish.
            std::thread::sleep(BEAT);
            continue;
        }
        state.health.beat();
        let now = Instant::now();
        if now >= next {
            writer.maybe_tick();
            next = next_deadline(next, interval, Instant::now());
            continue;
        }
        match handoff.recv_timeout((next - now).min(BEAT)) {
            Ok(ToWriter::Batch { events, read_at }) => {
                if writer.apply(&events, read_at) {
                    writer.unpublished.push(read_at);
                }
            }
            Ok(ToWriter::Tick(reply)) => {
                let _ = reply.send(writer.maybe_tick());
            }
            Ok(ToWriter::Stop) | Err(RecvTimeoutError::Disconnected) => {
                // Every batch was handed over before the stop: cover them.
                writer.maybe_tick();
                return;
            }
            Err(RecvTimeoutError::Timeout) => {}
        }
    }
}

/// The watchdog thread: on every recorder interval, sample the flight
/// recorder, publish the derived health on `server_health_state`, log
/// transitions, and dump the blackbox the moment a stall is detected
/// (the post-mortem window is written while the evidence is fresh, not
/// at whatever later point the process dies).
fn watch_loop(state: Arc<ServerState>, interval: Duration) {
    let slice = Duration::from_millis(10).min(interval);
    let mut next = Instant::now();
    let mut last = HealthState::Ok;
    loop {
        if state.shutdown.load(Ordering::SeqCst) {
            return;
        }
        if Instant::now() >= next {
            state.recorder.sample();
            let (health, heartbeat_age, ingest_lag) = state.assess_health();
            state.health_gauge.set(health.gauge_value());
            if health != last {
                state.log.warn(
                    "health",
                    "health transition",
                    &[
                        ("from", last.as_str().into()),
                        ("to", health.as_str().into()),
                        ("heartbeat_age_seconds", heartbeat_age.into()),
                        ("ingest_lag_seconds", ingest_lag.into()),
                    ],
                );
                if health == HealthState::Stalled {
                    state.dump_blackbox("stall");
                }
                last = health;
            }
            next = Instant::now() + interval;
        }
        std::thread::sleep(slice);
    }
}

/// A running daemon: bound address, shared state, and the threads to
/// join on shutdown.
pub struct ServerHandle {
    addr: SocketAddr,
    state: Arc<ServerState>,
    ingest: Option<JoinHandle<()>>,
    writer: Option<JoinHandle<()>>,
    watch: Option<JoinHandle<()>>,
    workers: Vec<JoinHandle<()>>,
}

impl ServerHandle {
    /// The actually-bound listen address (resolves port 0).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Shared daemon state (boards, telemetry, counters).
    pub fn state(&self) -> &Arc<ServerState> {
        &self.state
    }

    /// Graceful shutdown: stop tailing after a final drain of the log,
    /// have the writer apply every handed-over batch and run one last tick
    /// over them, stop the HTTP workers, and return the state for a final
    /// metrics dump. The binary's SIGTERM handling calls this too.
    pub fn shutdown(mut self) -> Arc<ServerState> {
        self.state.shutdown.store(true, Ordering::SeqCst);
        if let Some(ingest) = self.ingest.take() {
            let _ = ingest.join(); // drains the log to EOF and hands it all over
        }
        // Queued behind the last batch; fails only if the writer is gone.
        let _ = self.state.handoff.send(ToWriter::Stop);
        if let Some(writer) = self.writer.take() {
            let _ = writer.join(); // applies the queue, then the final tick
        }
        if let Some(watch) = self.watch.take() {
            let _ = watch.join();
        }
        for worker in self.workers.drain(..) {
            let _ = worker.join();
        }
        // Post-drain flight-recorder dump: the blackbox captures the
        // final state of every counter after the last tick.
        self.state.dump_blackbox("shutdown");
        Arc::clone(&self.state)
    }
}

/// Start the daemon: open (or create) the log, optionally replay the
/// backlog, bind the listener, and spawn the ingest/writer/worker threads.
pub fn start(config: ServerConfig) -> std::io::Result<ServerHandle> {
    // The log must exist to be tailed; create it empty on first boot so
    // `--log fresh.jsonl` works out of the box.
    if !config.log_path.exists() {
        std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(&config.log_path)?;
    }
    // No event sink: nothing would ever drain it, so it would keep every
    // tick's verdicts for the daemon's whole uptime. Verdicts are served
    // by `/explain` (the tracer) and their counts by `/metrics`.
    let telemetry = Telemetry::with_parts(
        EventSink::disabled(),
        Tracer::new(TracerConfig::with_sample(SampleMode::Full)),
    );
    let service = ReputationService::new(config.service, &telemetry);
    let (handoff, batches) = mpsc::sync_channel(HANDOFF_BATCHES);
    let state = Arc::new(ServerState::new(&service, handoff, telemetry, &config));
    let mut writer = Writer {
        state: Arc::clone(&state),
        service,
        unpublished: Vec::new(),
    };

    // --replay: consume the backlog and tick once before going live, so
    // first queries see a warm trust vector. This thread applies the
    // batches itself; the tail then continues with the same reader,
    // partial line included, and hands its batches to the writer thread.
    let mut reader = ingest::LogReader::open(&config.log_path)?;
    if config.replay {
        reader.replay(&state, &mut |events, read_at| {
            writer.apply(&events, read_at);
        })?;
        writer.maybe_tick();
        state.log.info(
            "server",
            "replayed backlog",
            &[
                ("events", state.events_ingested.get().into()),
                ("path", config.log_path.display().to_string().into()),
            ],
        );
    }

    let listener = TcpListener::bind(&config.listen)?;
    listener.set_nonblocking(true)?;
    let addr = listener.local_addr()?;
    let listener = Arc::new(listener);

    let ingest = {
        let state = Arc::clone(&state);
        std::thread::Builder::new()
            .name("st-ingest".into())
            .spawn(move || ingest::ingest_loop(state, reader))?
    };
    let writer = {
        let interval = config.tick_interval.max(Duration::from_millis(1));
        std::thread::Builder::new()
            .name("st-writer".into())
            .spawn(move || writer_loop(writer, batches, interval))?
    };
    let watch = {
        let state = Arc::clone(&state);
        let interval = config.record_interval.max(Duration::from_millis(10));
        std::thread::Builder::new()
            .name("st-watch".into())
            .spawn(move || watch_loop(state, interval))?
    };
    let workers = (0..config.workers.max(1))
        .map(|k| {
            let listener = Arc::clone(&listener);
            let state = Arc::clone(&state);
            std::thread::Builder::new()
                .name(format!("st-http-{k}"))
                .spawn(move || {
                    let guard = PanicGuard {
                        state: Arc::clone(&state),
                    };
                    http::worker_loop(listener, state);
                    drop(guard);
                })
        })
        .collect::<std::io::Result<Vec<_>>>()?;

    Ok(ServerHandle {
        addr,
        state,
        ingest: Some(ingest),
        writer: Some(writer),
        watch: Some(watch),
        workers,
    })
}

/// Armed on every HTTP worker: if the worker unwinds, the drop runs
/// during the panic and records it on `server_worker_panics_total`, which
/// degrades `/healthz` (the pool does not self-heal, so a dead worker is
/// a permanent capacity loss worth surfacing).
struct PanicGuard {
    state: Arc<ServerState>,
}

impl Drop for PanicGuard {
    fn drop(&mut self) {
        if std::thread::panicking() {
            self.state.worker_panics.inc();
            self.state.log.error("http", "worker thread panicked", &[]);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const INTERVAL: Duration = Duration::from_millis(100);

    /// The start of every tick the writer runs over `costs`, one tick per
    /// cost, following the writer loop: a tick starts at its deadline or,
    /// when the previous tick ended later, as soon as that one ends.
    fn tick_starts(t0: Instant, costs: &[u64]) -> Vec<Instant> {
        let mut due = t0 + INTERVAL;
        let mut free = t0;
        let mut starts = Vec::new();
        for &cost in costs {
            let start = due.max(free);
            let end = start + Duration::from_millis(cost);
            starts.push(start);
            due = next_deadline(due, INTERVAL, end);
            free = end;
        }
        starts
    }

    #[test]
    fn ticks_shorter_than_the_interval_start_on_a_fixed_grid() {
        let t0 = Instant::now();
        let starts = tick_starts(t0, &[30, 99, 0, 60, 1]);
        let grid: Vec<Instant> = (1..=5).map(|k| t0 + INTERVAL * k).collect();
        assert_eq!(starts, grid, "the period must not include the tick");
    }

    #[test]
    fn an_overrun_moves_the_next_deadline_to_now() {
        let t0 = Instant::now();
        let due = t0 + INTERVAL;
        let end = due + Duration::from_millis(350);
        assert_eq!(next_deadline(due, INTERVAL, end), end);
        // Ending exactly on the next deadline is not an overrun.
        let on_time = due + INTERVAL;
        assert_eq!(next_deadline(due, INTERVAL, on_time), on_time);
    }

    #[test]
    fn an_overrun_is_not_made_up_by_catch_up_ticks() {
        let t0 = Instant::now();
        // The second tick takes 3.5 intervals: the deadlines it spans are
        // dropped, not replayed back to back.
        let starts = tick_starts(t0, &[10, 350, 10, 10]);
        let ms = |k: u64| Duration::from_millis(k);
        assert_eq!(
            starts,
            vec![
                t0 + ms(100),
                t0 + ms(200),
                // Runs as soon as the overrun ends, once ...
                t0 + ms(550),
                // ... and the grid restarts from there.
                t0 + ms(650),
            ]
        );
    }
}
