//! # socialtrust-server
//!
//! A long-running reputation daemon over the SocialTrust pipeline,
//! mirroring the staged-service shape of production EigenTrust
//! deployments: an append-only JSONL event log is tailed by an **ingest
//! thread**, applied through `DirtyLog` into the live social substrate, a
//! **tick thread** recomputes warm-started blocked EigenTrust behind the
//! B1–B4 detector on a configurable interval, and a small **HTTP worker
//! pool** (keep-alive HTTP/1.1 over a `poll(2)` event loop, see
//! [`http`]) serves scores, audit explanations, and Prometheus metrics
//! from immutable published [`ScoreBoard`]s.
//!
//! Threading model (no async runtime, no HTTP/signal dependencies):
//!
//! ```text
//!  events.jsonl ──tail── ingest thread ──apply──▶ Mutex<ReputationService>
//!                                                    │ end_cycle() per tick
//!  tick thread ──every --tick-ms, skip when idle─────┘
//!       │ publish Arc<ScoreBoard>
//!       ▼
//!  RwLock<Arc<ScoreBoard>> ◀──read── HTTP workers (/score /scores /explain
//!                                       /journal /healthz /metrics)
//! ```
//!
//! Ingest: one chunked reader frames the log's lines and applies each
//! read's events in one batch. `--replay` pumps it on the calling thread
//! up to the log length seen at open, ticks once, and only then binds the
//! listener; the ingest thread takes over the same reader, so a backlog
//! that ends mid-line is finished by the tail, and restart cost is linear
//! in backlog bytes. The tail reopens a log it finds truncated or
//! replaced.
//!
//! Consistency: queries see exactly the last completed tick. Ticks with
//! no newly applied events are skipped, so the tick journal (cumulative
//! events per tick, served at `/journal`) stays finite and the daemon's
//! entire output is reproducible offline via
//! [`service::replay_offline`] — bit for bit, which the integration
//! tests assert over real sockets.

pub mod event;
pub mod http;
mod ingest;
pub mod service;

use std::net::{SocketAddr, TcpListener};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex, RwLock};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use socialtrust::prelude::*;
use socialtrust::telemetry::{
    Counter, FlightRecorder, Gauge, Histogram, Level, Logger, RecorderConfig,
};

use service::{HealthMachine, HealthState, ReputationService, ScoreBoard, ServiceConfig};

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

/// Shared daemon state: the pipeline behind a mutex, the published board
/// behind an rwlock, and the telemetry handles every thread updates.
pub struct ServerState {
    pub(crate) service: Mutex<ReputationService>,
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
    /// When the oldest event not yet covered by a completed tick was
    /// applied (drives the `server_ingest_lag_seconds` gauge).
    oldest_pending: Mutex<Option<Instant>>,
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
    /// Heartbeat-driven health derivation (beaten by the tick thread).
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
    /// Test hook: while set, the tick thread neither ticks nor beats the
    /// heartbeat, simulating a wedged recompute.
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
    fn new(service: ReputationService, telemetry: Telemetry, config: &ServerConfig) -> ServerState {
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
            service: Mutex::new(service),
            board: RwLock::new(board),
            shutdown: AtomicBool::new(false),
            start: Instant::now(),
            events_ingested: r.counter("server_events_ingested_total"),
            events_malformed: r.counter("server_events_malformed_total"),
            events_rejected: r.counter("server_events_rejected_total"),
            queue_depth: r.gauge("server_ingest_queue_depth"),
            ingest_lag: r.gauge("server_ingest_lag_seconds"),
            ingest_apply_seconds: r.histogram("server_ingest_apply_seconds"),
            ticks_total: r.counter("server_ticks_total"),
            ticks_skipped: r.counter("server_ticks_skipped_total"),
            tick_seconds: r.histogram("server_tick_seconds"),
            http_requests: r.counter("server_http_requests_total"),
            http_connections: r.counter("server_http_connections_total"),
            http_seconds: r.histogram("server_http_request_seconds"),
            http_idle_timeout: config.http_idle_timeout,
            http_max_requests: config.http_max_requests.max(1),
            metrics_cache: Mutex::new(None),
            oldest_pending: Mutex::new(None),
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

    /// Counter of events the ingest thread has applied (benches and tests
    /// poll this to detect when an appended batch has landed).
    pub fn events_ingested(&self) -> &Counter {
        &self.events_ingested
    }

    /// Run one recompute tick immediately if any events are pending,
    /// instead of waiting out the tick interval. Benches and tests use
    /// this to get deterministic tick boundaries; the daemon itself only
    /// ticks from the tick thread and the shutdown drain.
    pub fn force_tick(&self) -> bool {
        self.maybe_tick()
    }

    /// Apply a batch of parsed events under one service lock. Rejections
    /// are counted, not applied.
    fn apply_batch(&self, events: &[event::ServerEvent]) {
        if events.is_empty() {
            return;
        }
        let started = Instant::now();
        let mut applied = 0usize;
        {
            let mut service = self.service.lock().expect("service lock");
            for ev in events {
                match service.apply(ev) {
                    Ok(()) => applied += 1,
                    Err(reason) => {
                        self.events_rejected.inc();
                        self.log.warn(
                            "ingest",
                            "rejected event",
                            &[("reason", reason.as_str().into())],
                        );
                    }
                }
            }
            self.queue_depth.set(service.pending_events() as f64);
        }
        self.events_ingested.add(applied as u64);
        self.ingest_apply_seconds
            .observe(started.elapsed().as_secs_f64());
        if applied > 0 {
            let mut oldest = self.oldest_pending.lock().expect("oldest lock");
            oldest.get_or_insert(started);
        }
    }

    /// Run one tick if any events arrived since the last one; publish the
    /// new board. Returns whether a tick ran.
    fn maybe_tick(&self) -> bool {
        let mut service = self.service.lock().expect("service lock");
        if service.pending_events() == 0 {
            self.ticks_skipped.inc();
            return false;
        }
        let started = Instant::now();
        let board = service.tick();
        self.tick_seconds.observe(started.elapsed().as_secs_f64());
        self.ticks_total.inc();
        self.queue_depth.set(service.pending_events() as f64);
        drop(service);
        if let Some(oldest) = self.oldest_pending.lock().expect("oldest lock").take() {
            self.ingest_lag.set(oldest.elapsed().as_secs_f64());
        }
        // Precompute the per-tick score index here, on the tick thread,
        // so `/scores` requests slice a warm shared ranking.
        board.ranking();
        *self.board.write().expect("board lock") = board;
        true
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
        let lag = self
            .oldest_pending
            .lock()
            .expect("oldest lock")
            .map(|t| t.elapsed());
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

    /// Test hook: freeze (or thaw) the tick thread. While frozen it
    /// neither runs `maybe_tick` nor beats the health heartbeat, so the
    /// watchdog and `/healthz` observe a genuine stall.
    #[doc(hidden)]
    pub fn set_tick_frozen(&self, frozen: bool) {
        self.tick_frozen.store(frozen, Ordering::SeqCst);
    }
}

/// The tick thread: one `maybe_tick` per interval until shutdown. Every
/// slice (not just completed ticks) beats the health heartbeat, so a
/// long-but-running tick interval never reads as a stall — only a thread
/// that stopped scheduling does.
fn tick_loop(state: Arc<ServerState>, interval: Duration) {
    // Sleep in small slices so shutdown is honored promptly even with
    // multi-second tick intervals.
    let slice = Duration::from_millis(10).min(interval);
    let mut next = Instant::now() + interval;
    loop {
        if state.shutdown.load(Ordering::SeqCst) {
            return;
        }
        if state.tick_frozen.load(Ordering::SeqCst) {
            // Frozen (test hook): simulate a wedged recompute — no
            // heartbeat, no ticks, but shutdown stays honored.
            std::thread::sleep(slice);
            continue;
        }
        state.health.beat();
        if Instant::now() >= next {
            state.maybe_tick();
            next = Instant::now() + interval;
        }
        std::thread::sleep(slice);
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
    tick: Option<JoinHandle<()>>,
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
    /// run one last tick over whatever the drain applied, stop the HTTP
    /// workers, and return the state for a final metrics dump. The
    /// sequence mirrors SIGTERM handling in the binary.
    pub fn shutdown(mut self) -> Arc<ServerState> {
        self.state.shutdown.store(true, Ordering::SeqCst);
        if let Some(ingest) = self.ingest.take() {
            let _ = ingest.join(); // drains the log to EOF first
        }
        if let Some(tick) = self.tick.take() {
            let _ = tick.join();
        }
        self.state.maybe_tick(); // cover events applied by the drain
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
/// backlog, bind the listener, and spawn the ingest/tick/worker threads.
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
    let state = Arc::new(ServerState::new(service, telemetry, &config));

    // --replay: consume the backlog and tick once before going live, so
    // first queries see a warm trust vector. The tail then continues with
    // the same reader, partial line included.
    let mut reader = ingest::LogReader::open(&config.log_path)?;
    if config.replay {
        reader.replay(&state)?;
        state.maybe_tick();
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
    let tick = {
        let state = Arc::clone(&state);
        let interval = config.tick_interval.max(Duration::from_millis(1));
        std::thread::Builder::new()
            .name("st-tick".into())
            .spawn(move || tick_loop(state, interval))?
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
        tick: Some(tick),
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
