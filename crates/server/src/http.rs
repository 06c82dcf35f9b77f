//! A high-throughput hand-rolled HTTP/1.1 query plane (the workspace
//! carries no HTTP dependency).
//!
//! Three layers replace the PR-8 one-shot accept→close path:
//!
//! * **Keep-alive + pipelining** — each connection runs a request loop:
//!   requests are parsed out of a growing input buffer (so pipelined
//!   requests buffered in one segment are answered back-to-back, in
//!   order), responses honor the `Connection:` header (HTTP/1.1 defaults
//!   to keep-alive, HTTP/1.0 to close), and a connection is retired after
//!   [`ServerConfig::http_max_requests`] requests or
//!   [`ServerConfig::http_idle_timeout`] of silence.
//! * **Readiness-based event loop** — workers block in `poll(2)` (direct
//!   FFI, mirroring the `signal(2)` FFI in `main.rs`) on the shared
//!   listener plus their live connections, instead of the old 300µs
//!   sleep-poll accept loop. Sockets are non-blocking; a worker wakes
//!   only when there is a connection to accept, bytes to read, or buffer
//!   space to finish a stalled write. The poll timeout doubles as the
//!   shutdown/idle sweep granularity.
//! * **Per-tick response caching** — every published [`ScoreBoard`]
//!   carries a lazily-built score-descending index prefix (warmed by the
//!   writer thread), so `/scores?top=N` is an O(top) slice instead of an
//!   O(n log n) sort per request; the default `/scores` body and the
//!   `/journal` body render once per board into shared `Arc<str>`s, and
//!   `/metrics` is cached for a short TTL. Each response is assembled
//!   into the connection's output buffer and usually leaves in a single
//!   `write(2)`.
//!
//! Endpoints (all `GET`):
//!
//! * `/healthz` — liveness + tick/ingest counters.
//! * `/score/{node}` — one node's trust score as of the last completed
//!   tick.
//! * `/scores?top=N` — the N highest-scored nodes (score-descending,
//!   node-ascending tie-break).
//! * `/explain/{node}` — audit entries for the node's rescaled ratings in
//!   the last completed tick, joined from the decision-provenance trace.
//! * `/journal` — the tick journal (cumulative applied-event count per
//!   tick), read from the immutable board.
//! * `/metrics` — Prometheus text exposition of the whole registry,
//!   cached for [`METRICS_TTL`].
//! * `/debug/vars` — instantaneous JSON dump of every metric in the
//!   registry (the expvar idiom), uncached.
//! * `/debug/timeseries?window=N` — the last N flight-recorder frames
//!   with per-family rates (the whole ring without `window`).
//! * `/debug/slow` — the ring of recent requests slower than the
//!   `--slow-ms` threshold.
//!
//! Every response is classified into a per-endpoint × status-class
//! labeled counter/histogram pair ([`HttpClassMetrics`]) alongside the
//! aggregate `server_http_request_seconds` histogram.

use std::io::{Read, Write};
use std::net::{TcpListener, TcpStream};
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::{Duration, Instant};

use socialtrust::explain::explain_entries;
use socialtrust::telemetry::{prometheus_text, Counter, Histogram, Registry};

use crate::ServerState;

/// `poll(2)` timeout: bounds shutdown latency and the idle-connection
/// sweep granularity. Workers otherwise sleep in the kernel.
const POLL_TICK: Duration = Duration::from_millis(100);
/// Largest request head (request line + headers) the parser accepts.
const MAX_HEAD: usize = 16 * 1024;
/// `/metrics` renders the whole registry; cache the rendered body this
/// long so metric scrapes under load stay O(1).
const METRICS_TTL: Duration = Duration::from_millis(250);
/// Per-worker live-connection cap; beyond it the worker stops accepting
/// and leaves new connections in the listen backlog.
const MAX_CONNS_PER_WORKER: usize = 1024;
/// Grace period for flushing in-flight responses during shutdown drain.
const DRAIN_FLUSH_TIMEOUT: Duration = Duration::from_millis(500);

/// Minimal `poll(2)` FFI. Linux/macOS share the event bit values used
/// here; `nfds_t` differs (`c_ulong` vs `c_uint`).
#[cfg(unix)]
mod sys {
    #[repr(C)]
    #[derive(Clone, Copy)]
    pub struct PollFd {
        pub fd: i32,
        pub events: i16,
        pub revents: i16,
    }

    pub const POLLIN: i16 = 0x001;
    pub const POLLOUT: i16 = 0x004;
    pub const POLLERR: i16 = 0x008;
    pub const POLLHUP: i16 = 0x010;
    pub const POLLNVAL: i16 = 0x020;

    #[cfg(target_os = "macos")]
    type Nfds = std::os::raw::c_uint;
    #[cfg(not(target_os = "macos"))]
    type Nfds = std::os::raw::c_ulong;

    extern "C" {
        fn poll(fds: *mut PollFd, nfds: Nfds, timeout: i32) -> i32;
    }

    /// Block until any registered fd is ready or `timeout_ms` elapses.
    /// On error (e.g. EINTR from the daemon's signal handlers) the
    /// zeroed `revents` are left untouched, so callers simply see an
    /// empty readiness set and re-check the shutdown flag.
    pub fn wait(fds: &mut [PollFd], timeout_ms: i32) -> i32 {
        unsafe { poll(fds.as_mut_ptr(), fds.len() as Nfds, timeout_ms) }
    }

    pub fn raw_fd(stream: &impl std::os::unix::io::AsRawFd) -> i32 {
        stream.as_raw_fd()
    }
}

/// Portability fallback: no readiness notification, so report every fd
/// ready after a short sleep and let the non-blocking reads/writes
/// return `WouldBlock`. Costs ~1k wakeups/s per worker, like the old
/// sleep-poll loop; only the FFI path is exercised on unix.
#[cfg(not(unix))]
mod sys {
    #[derive(Clone, Copy)]
    pub struct PollFd {
        pub fd: i32,
        pub events: i16,
        pub revents: i16,
    }

    pub const POLLIN: i16 = 0x001;
    pub const POLLOUT: i16 = 0x004;
    pub const POLLERR: i16 = 0x008;
    pub const POLLHUP: i16 = 0x010;
    pub const POLLNVAL: i16 = 0x020;

    pub fn wait(fds: &mut [PollFd], timeout_ms: i32) -> i32 {
        std::thread::sleep(std::time::Duration::from_millis(
            timeout_ms.clamp(1, 10) as u64
        ));
        for fd in fds.iter_mut() {
            fd.revents = fd.events;
        }
        fds.len() as i32
    }

    pub fn raw_fd(_stream: &impl Sized) -> i32 {
        -1
    }
}

/// Endpoint class a request resolved to, used as the `endpoint` label on
/// the per-class request metrics and as the `/debug/slow` tag. A static
/// class (not the raw target) keeps label cardinality bounded and the
/// hot path allocation-free.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Endpoint {
    Healthz = 0,
    Score = 1,
    Scores = 2,
    Explain = 3,
    Journal = 4,
    Metrics = 5,
    DebugVars = 6,
    DebugTimeseries = 7,
    DebugSlow = 8,
    /// Unroutable targets and protocol-level rejections (bad request
    /// line, bodies, non-GET).
    Other = 9,
}

impl Endpoint {
    pub(crate) const ALL: [Endpoint; 10] = [
        Endpoint::Healthz,
        Endpoint::Score,
        Endpoint::Scores,
        Endpoint::Explain,
        Endpoint::Journal,
        Endpoint::Metrics,
        Endpoint::DebugVars,
        Endpoint::DebugTimeseries,
        Endpoint::DebugSlow,
        Endpoint::Other,
    ];

    pub(crate) fn label(self) -> &'static str {
        match self {
            Endpoint::Healthz => "healthz",
            Endpoint::Score => "score",
            Endpoint::Scores => "scores",
            Endpoint::Explain => "explain",
            Endpoint::Journal => "journal",
            Endpoint::Metrics => "metrics",
            Endpoint::DebugVars => "debug_vars",
            Endpoint::DebugTimeseries => "debug_timeseries",
            Endpoint::DebugSlow => "debug_slow",
            Endpoint::Other => "other",
        }
    }
}

/// Status classes the per-endpoint metrics distinguish. 1xx/3xx never
/// leave this server; they fold into the success class defensively.
const STATUS_CLASSES: [&str; 3] = ["2xx", "4xx", "5xx"];

fn status_class_index(status: u16) -> usize {
    match status / 100 {
        4 => 1,
        5 => 2,
        _ => 0,
    }
}

/// Pre-registered per-endpoint × status-class views of
/// `server_http_requests_total` and `server_http_request_seconds`. The
/// whole matrix is built once at boot, so the request path is two array
/// indexes and two atomic updates — no label formatting, no registry
/// lock.
pub(crate) struct HttpClassMetrics {
    requests: [[Counter; 3]; 10],
    seconds: [[Histogram; 3]; 10],
}

impl HttpClassMetrics {
    pub(crate) fn new(registry: &Registry) -> HttpClassMetrics {
        HttpClassMetrics {
            requests: std::array::from_fn(|e| {
                std::array::from_fn(|s| {
                    registry.counter_labeled(
                        "server_http_requests_total",
                        &[
                            ("endpoint", Endpoint::ALL[e].label()),
                            ("status", STATUS_CLASSES[s]),
                        ],
                    )
                })
            }),
            seconds: std::array::from_fn(|e| {
                std::array::from_fn(|s| {
                    registry.histogram_labeled(
                        "server_http_request_seconds",
                        &[
                            ("endpoint", Endpoint::ALL[e].label()),
                            ("status", STATUS_CLASSES[s]),
                        ],
                    )
                })
            }),
        }
    }

    pub(crate) fn record(&self, endpoint: Endpoint, status: u16, seconds: f64) {
        let (e, s) = (endpoint as usize, status_class_index(status));
        self.requests[e][s].inc();
        self.seconds[e][s].observe(seconds);
    }
}

/// A response body: either rendered for this request or shared from a
/// per-board / TTL cache.
enum Body {
    Owned(String),
    Shared(Arc<str>),
}

impl Body {
    fn as_bytes(&self) -> &[u8] {
        match self {
            Body::Owned(s) => s.as_bytes(),
            Body::Shared(s) => s.as_bytes(),
        }
    }
}

impl From<String> for Body {
    fn from(s: String) -> Body {
        Body::Owned(s)
    }
}

impl From<Arc<str>> for Body {
    fn from(s: Arc<str>) -> Body {
        Body::Shared(s)
    }
}

/// Why a connection decided to stop serving further requests.
#[derive(PartialEq)]
enum Outcome {
    KeepGoing,
    /// Flush what is buffered, then close.
    Close,
}

/// One live keep-alive connection owned by a worker.
struct Conn {
    stream: TcpStream,
    /// Bytes read but not yet consumed by the request parser.
    inbuf: Vec<u8>,
    /// How far `inbuf` has been scanned for the head terminator, so each
    /// new chunk rescans only the last 3 carried-over bytes (the old
    /// `windows(4).any` rescan of the whole buffer was O(n²)).
    scanned: usize,
    /// Bytes waiting to go out, from `outpos` onward.
    outbuf: Vec<u8>,
    outpos: usize,
    /// Requests served on this connection (drives the per-connection cap).
    served: usize,
    last_active: Instant,
    /// Stop parsing; close once `outbuf` drains.
    closing: bool,
    /// Peer half-closed its write side (read returned 0).
    saw_eof: bool,
}

impl Conn {
    fn new(stream: TcpStream, now: Instant) -> Conn {
        Conn {
            stream,
            inbuf: Vec::with_capacity(512),
            scanned: 0,
            outbuf: Vec::with_capacity(512),
            outpos: 0,
            served: 0,
            last_active: now,
            closing: false,
            saw_eof: false,
        }
    }

    fn wants_write(&self) -> bool {
        self.outpos < self.outbuf.len()
    }

    /// Drain the socket into `inbuf` until `WouldBlock`/EOF. `Err` means
    /// the connection is unusable.
    fn fill(&mut self) -> std::io::Result<()> {
        let mut chunk = [0u8; 16 * 1024];
        loop {
            match self.stream.read(&mut chunk) {
                Ok(0) => {
                    self.saw_eof = true;
                    return Ok(());
                }
                Ok(n) => self.inbuf.extend_from_slice(&chunk[..n]),
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => return Ok(()),
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                Err(e) => return Err(e),
            }
        }
    }

    /// Write `outbuf` until done or `WouldBlock`. `Err` means the
    /// connection is unusable.
    fn flush_some(&mut self) -> std::io::Result<()> {
        while self.wants_write() {
            match self.stream.write(&self.outbuf[self.outpos..]) {
                Ok(0) => return Err(std::io::Error::other("zero-length write")),
                Ok(n) => {
                    self.outpos += n;
                    self.last_active = Instant::now();
                }
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => return Ok(()),
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                Err(e) => return Err(e),
            }
        }
        self.outbuf.clear();
        self.outpos = 0;
        Ok(())
    }

    /// Find the end (exclusive, past `\r\n\r\n`) of the first complete
    /// request head in `inbuf`, scanning only bytes not already scanned.
    fn head_end(&mut self) -> Option<usize> {
        let start = self.scanned.saturating_sub(3);
        match self.inbuf[start..]
            .windows(4)
            .position(|w| w == b"\r\n\r\n")
        {
            Some(pos) => Some(start + pos + 4),
            None => {
                self.scanned = self.inbuf.len();
                None
            }
        }
    }

    /// Parse and answer every complete request currently buffered. With
    /// `force_close` (shutdown drain) each response advertises
    /// `Connection: close` and parsing stops after the buffered tail.
    fn serve_buffered(&mut self, state: &ServerState, force_close: bool) {
        while !self.closing {
            let Some(end) = self.head_end() else {
                if self.inbuf.len() > MAX_HEAD {
                    self.bad_request(state, "{\"error\":\"request head too large\"}");
                }
                return;
            };
            let started = Instant::now();
            state.http_requests.inc();
            let head: Vec<u8> = self.inbuf.drain(..end).collect();
            self.scanned = 0;
            let Ok(head) = std::str::from_utf8(&head) else {
                self.bad_request(state, "{\"error\":\"bad request\"}");
                return;
            };
            let (outcome, endpoint, status) = self.serve_one(state, head, force_close);
            let elapsed = started.elapsed().as_secs_f64();
            state.http_seconds.observe(elapsed);
            state.record_request(endpoint, status, elapsed);
            if outcome == Outcome::Close {
                self.closing = true;
            }
        }
    }

    /// Answer one parsed request head. Returns whether the connection
    /// may serve another request afterwards, plus the endpoint class and
    /// status it resolved to (for the per-class metrics).
    fn serve_one(
        &mut self,
        state: &ServerState,
        head: &str,
        force_close: bool,
    ) -> (Outcome, Endpoint, u16) {
        let request_line = head.split("\r\n").next().unwrap_or_default();
        let mut parts = request_line.split(' ');
        let (method, target, version) = (
            parts.next().unwrap_or_default(),
            parts.next().unwrap_or_default(),
            parts.next().unwrap_or_default(),
        );
        if !version.starts_with("HTTP/1.") || target.is_empty() {
            self.push_response(
                400,
                "application/json",
                &Body::Owned("{\"error\":\"bad request line\"}".to_owned()),
                false,
            );
            return (Outcome::Close, Endpoint::Other, 400);
        }
        // Every endpoint is a bodyless GET; a request that carries a body
        // would desynchronize the pipelined parser, so refuse and close.
        let has_body = header_value(head, "content-length")
            .is_some_and(|v| v.trim().parse::<u64>().map_or(true, |n| n > 0))
            || header_value(head, "transfer-encoding").is_some();
        if has_body {
            self.push_response(
                400,
                "application/json",
                &Body::Owned("{\"error\":\"request bodies are not supported\"}".to_owned()),
                false,
            );
            return (Outcome::Close, Endpoint::Other, 400);
        }
        if method != "GET" {
            self.push_response(
                405,
                "application/json",
                &Body::Owned("{\"error\":\"only GET is served\"}".to_owned()),
                false,
            );
            return (Outcome::Close, Endpoint::Other, 405);
        }
        // Connection lifecycle: HTTP/1.1 keeps alive unless told to
        // close; HTTP/1.0 closes unless told to keep alive; the
        // per-connection request cap retires long-lived connections.
        let connection = header_value(head, "connection").unwrap_or("");
        let wants_keep_alive = if version == "HTTP/1.0" {
            connection_token(connection, "keep-alive")
        } else {
            !connection_token(connection, "close")
        };
        self.served += 1;
        let keep_alive = wants_keep_alive && !force_close && self.served < state.http_max_requests;
        let (endpoint, status, content_type, body) = route(state, target);
        self.push_response(status, content_type, &body, keep_alive);
        let outcome = if keep_alive {
            Outcome::KeepGoing
        } else {
            Outcome::Close
        };
        (outcome, endpoint, status)
    }

    fn bad_request(&mut self, state: &ServerState, body: &str) {
        state.http_requests.inc();
        state.record_request(Endpoint::Other, 400, 0.0);
        self.push_response(
            400,
            "application/json",
            &Body::Owned(body.to_owned()),
            false,
        );
        self.closing = true;
    }

    /// Assemble head + body into the output buffer; the caller's flush
    /// usually moves the whole response in one `write(2)`.
    fn push_response(&mut self, status: u16, content_type: &str, body: &Body, keep_alive: bool) {
        let reason = match status {
            200 => "OK",
            400 => "Bad Request",
            404 => "Not Found",
            405 => "Method Not Allowed",
            503 => "Service Unavailable",
            _ => "Internal Server Error",
        };
        let bytes = body.as_bytes();
        let connection = if keep_alive { "keep-alive" } else { "close" };
        self.outbuf.extend_from_slice(
            format!(
                "HTTP/1.1 {status} {reason}\r\nContent-Type: {content_type}\r\nContent-Length: {}\r\nConnection: {connection}\r\n\r\n",
                bytes.len()
            )
            .as_bytes(),
        );
        self.outbuf.extend_from_slice(bytes);
    }

    /// One scheduling round for this connection. Returns `false` when
    /// the connection should be dropped.
    fn step(&mut self, revents: i16, now: Instant, state: &ServerState) -> bool {
        if revents & (sys::POLLERR | sys::POLLNVAL) != 0 {
            return false;
        }
        if revents & (sys::POLLIN | sys::POLLHUP) != 0 {
            if self.fill().is_err() {
                return false;
            }
            self.last_active = now;
            if !self.closing {
                self.serve_buffered(state, false);
            }
        }
        if self.wants_write() && self.flush_some().is_err() {
            return false;
        }
        if (self.closing || self.saw_eof) && !self.wants_write() {
            return false;
        }
        now.duration_since(self.last_active) <= state.http_idle_timeout
    }

    /// Shutdown drain: answer whatever complete requests the peer has
    /// already sent (marked `Connection: close`), flush with a bounded
    /// blocking write, and close.
    fn drain(mut self, state: &ServerState) {
        let _ = self.fill();
        if !self.closing {
            self.serve_buffered(state, true);
        }
        if self.wants_write() {
            let _ = self.stream.set_nonblocking(false);
            let _ = self.stream.set_write_timeout(Some(DRAIN_FLUSH_TIMEOUT));
            let _ = self.stream.write_all(&self.outbuf[self.outpos..]);
            let _ = self.stream.flush();
        }
    }
}

/// The value of the first header named `name` (ASCII case-insensitive),
/// trimmed.
fn header_value<'h>(head: &'h str, name: &str) -> Option<&'h str> {
    head.split("\r\n").skip(1).find_map(|line| {
        let (field, value) = line.split_once(':')?;
        field
            .trim()
            .eq_ignore_ascii_case(name)
            .then(|| value.trim())
    })
}

/// Whether a `Connection:` header value lists `token` (comma-separated,
/// case-insensitive).
fn connection_token(value: &str, token: &str) -> bool {
    value
        .split(',')
        .any(|t| t.trim().eq_ignore_ascii_case(token))
}

/// One worker's event loop: block in `poll(2)` on the shared listener
/// plus this worker's live connections; accept, read, serve, and flush
/// whatever became ready. Returns after the shutdown flag flips, once
/// in-flight requests are drained.
pub(crate) fn worker_loop(listener: Arc<TcpListener>, state: Arc<ServerState>) {
    let mut conns: Vec<Conn> = Vec::new();
    let mut fds: Vec<sys::PollFd> = Vec::new();
    loop {
        if state.shutdown.load(Ordering::SeqCst) {
            for conn in conns.drain(..) {
                conn.drain(&state);
            }
            return;
        }
        fds.clear();
        let accepting = conns.len() < MAX_CONNS_PER_WORKER;
        fds.push(sys::PollFd {
            fd: sys::raw_fd(&*listener),
            events: if accepting { sys::POLLIN } else { 0 },
            revents: 0,
        });
        for conn in &conns {
            let mut events = sys::POLLIN;
            if conn.wants_write() {
                events |= sys::POLLOUT;
            }
            fds.push(sys::PollFd {
                fd: sys::raw_fd(&conn.stream),
                events,
                revents: 0,
            });
        }
        sys::wait(&mut fds, POLL_TICK.as_millis() as i32);

        let polled = conns.len();
        if accepting && fds[0].revents != 0 {
            accept_ready(&listener, &state, &mut conns);
        }
        let now = Instant::now();
        for i in (0..conns.len()).rev() {
            // Freshly accepted connections (index >= polled) were not in
            // this round's poll set; treat them as readable so a request
            // already sitting in the socket buffer is answered now.
            let revents = if i < polled {
                fds[i + 1].revents
            } else {
                sys::POLLIN
            };
            if !conns[i].step(revents, now, &state) {
                conns.swap_remove(i);
            }
        }
    }
}

/// Accept every pending connection (the listener is non-blocking and
/// level-triggered, so drain it) up to the per-worker cap.
fn accept_ready(listener: &TcpListener, state: &ServerState, conns: &mut Vec<Conn>) {
    let now = Instant::now();
    while conns.len() < MAX_CONNS_PER_WORKER {
        match listener.accept() {
            Ok((stream, _peer)) => {
                // Non-blocking for the event loop; NODELAY because the
                // request/response ping-pong is latency-bound.
                if stream.set_nonblocking(true).is_err() {
                    continue;
                }
                let _ = stream.set_nodelay(true);
                state.http_connections.inc();
                conns.push(Conn::new(stream, now));
            }
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
            Err(_) => return, // WouldBlock (drained) or transient accept error
        }
    }
}

/// Format an `f64` as a JSON number. Rust's shortest round-trip `Display`
/// keeps the full bit pattern, which is what the bit-for-bit `/score`
/// contract (and its offline-replay test) relies on.
fn json_f64(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".to_string()
    }
}

fn route(state: &ServerState, target: &str) -> (Endpoint, u16, &'static str, Body) {
    let (path, query) = match target.split_once('?') {
        Some((p, q)) => (p, q),
        None => (target, ""),
    };
    match path {
        "/healthz" => {
            let (status, body) = healthz_json(state);
            (Endpoint::Healthz, status, "application/json", body.into())
        }
        "/journal" => (
            Endpoint::Journal,
            200,
            "application/json",
            journal_body(state),
        ),
        "/metrics" => (
            Endpoint::Metrics,
            200,
            "text/plain; version=0.0.4",
            metrics_body(state),
        ),
        "/scores" => {
            let (status, ct, body) = scores_json(state, query);
            (Endpoint::Scores, status, ct, body)
        }
        "/debug/vars" => {
            let (status, ct, body) = debug_vars_json(state);
            (Endpoint::DebugVars, status, ct, body)
        }
        "/debug/timeseries" => {
            let (status, ct, body) = debug_timeseries_json(state, query);
            (Endpoint::DebugTimeseries, status, ct, body)
        }
        "/debug/slow" => (
            Endpoint::DebugSlow,
            200,
            "application/json",
            debug_slow_json(state).into(),
        ),
        _ => {
            if let Some(raw) = path.strip_prefix("/score/") {
                let (status, ct, body) = score_json(state, raw);
                return (Endpoint::Score, status, ct, body);
            }
            if let Some(raw) = path.strip_prefix("/explain/") {
                let (status, ct, body) = explain_json(state, raw);
                return (Endpoint::Explain, status, ct, body);
            }
            (
                Endpoint::Other,
                404,
                "application/json",
                format!("{{\"error\":\"no route {path}\"}}").into(),
            )
        }
    }
}

/// `/healthz`: liveness counters plus the derived health state. The
/// status code follows the state — 503 when stalled so load balancers
/// eject the instance, 200 otherwise (degraded instances still serve
/// correct, if lagging, answers).
fn healthz_json(state: &ServerState) -> (u16, String) {
    let board = state.board();
    let (health, heartbeat_age, ingest_lag) = state.assess_health();
    let body = format!(
        "{{\"status\":\"{}\",\"tick\":{},\"events_applied\":{},\"events_malformed\":{},\"events_invalid_utf8\":{},\"events_rejected\":{},\"worker_panics\":{},\"nodes\":{},\"uptime_seconds\":{:.3},\"heartbeat_age_seconds\":{:.3},\"ingest_lag_seconds\":{:.3}}}",
        health.as_str(),
        board.tick,
        board.events_applied,
        state.events_malformed.get(),
        state.events_invalid_utf8.get(),
        state.events_rejected.get(),
        state.worker_panics.get(),
        board.scores.len(),
        state.start.elapsed().as_secs_f64(),
        heartbeat_age,
        ingest_lag,
    );
    (health.http_status(), body)
}

/// `/debug/vars`: instantaneous JSON dump of the whole registry (the
/// expvar idiom — no TTL cache, every hit is a fresh snapshot).
fn debug_vars_json(state: &ServerState) -> (u16, &'static str, Body) {
    let snap = state.telemetry.registry().snapshot();
    match serde_json::to_string(&snap) {
        Ok(metrics) => (
            200,
            "application/json",
            format!(
                "{{\"uptime_seconds\":{:.3},\"tick\":{},\"metrics\":{metrics}}}",
                state.start.elapsed().as_secs_f64(),
                state.board().tick,
            )
            .into(),
        ),
        Err(e) => (
            500,
            "application/json",
            format!("{{\"error\":\"snapshot serialization: {e:?}\"}}").into(),
        ),
    }
}

/// `/debug/timeseries?window=N`: the last N flight-recorder frames with
/// per-family rates; without `window`, the whole ring.
fn debug_timeseries_json(state: &ServerState, query: &str) -> (u16, &'static str, Body) {
    let mut window = usize::MAX;
    for pair in query.split('&').filter(|p| !p.is_empty()) {
        match pair.split_once('=') {
            Some(("window", raw)) => match raw.parse::<usize>() {
                Ok(n) if n > 0 => window = n,
                _ => {
                    return (
                        400,
                        "application/json",
                        format!("{{\"error\":\"bad window value {raw:?}\"}}").into(),
                    )
                }
            },
            _ => {
                return (
                    400,
                    "application/json",
                    format!("{{\"error\":\"unknown query parameter {pair:?}\"}}").into(),
                )
            }
        }
    }
    (
        200,
        "application/json",
        state.recorder.window_json(window).into(),
    )
}

/// `/debug/slow`: the ring of recent requests at or above the slow
/// threshold, oldest first, plus the lifetime slow-request count.
fn debug_slow_json(state: &ServerState) -> String {
    let ring = state.slow.lock().expect("slow lock");
    let rows: Vec<String> = ring
        .iter_chrono()
        .map(|e| {
            format!(
                "{{\"endpoint\":\"{}\",\"seconds\":{},\"tick\":{}}}",
                e.endpoint,
                json_f64(e.seconds),
                e.tick
            )
        })
        .collect();
    format!(
        "{{\"slow_threshold_seconds\":{},\"recorded_total\":{},\"capacity\":{},\"entries\":[{}]}}",
        json_f64(state.slow_threshold.as_secs_f64()),
        ring.total(),
        crate::SLOW_RING_CAP,
        rows.join(",")
    )
}

/// `/journal` renders once per published board, from the journal the
/// immutable [`ScoreBoard`] carries.
fn journal_body(state: &ServerState) -> Body {
    let board = state.board();
    board
        .cached_journal_body
        .get_or_init(|| {
            let cells: Vec<String> = board.journal.iter().map(u64::to_string).collect();
            format!("{{\"journal\":[{}]}}", cells.join(",")).into()
        })
        .clone()
        .into()
}

/// `/metrics` snapshots and renders the whole registry; under load that
/// dominated, so the rendered body is shared for [`METRICS_TTL`].
fn metrics_body(state: &ServerState) -> Body {
    let mut cache = state.metrics_cache.lock().expect("metrics cache lock");
    if let Some((at, body)) = cache.as_ref() {
        if at.elapsed() < METRICS_TTL {
            return body.clone().into();
        }
    }
    let body: Arc<str> = prometheus_text(&state.telemetry.registry().snapshot()).into();
    *cache = Some((Instant::now(), body.clone()));
    body.into()
}

fn score_json(state: &ServerState, raw: &str) -> (u16, &'static str, Body) {
    let Ok(node) = raw.parse::<usize>() else {
        return (
            400,
            "application/json",
            format!("{{\"error\":\"bad node id {raw:?}\"}}").into(),
        );
    };
    let board = state.board();
    match board.scores.get(node) {
        Some(&score) => (
            200,
            "application/json",
            format!(
                "{{\"node\":{node},\"score\":{},\"tick\":{},\"events_applied\":{}}}",
                json_f64(score),
                board.tick,
                board.events_applied
            )
            .into(),
        ),
        None => (
            404,
            "application/json",
            format!("{{\"error\":\"node {node} out of range\"}}").into(),
        ),
    }
}

/// The `top` value `/scores` serves without an explicit query.
const DEFAULT_TOP: usize = 10;

fn render_scores(board: &crate::service::ScoreBoard, order: &[u32]) -> String {
    let rows: Vec<String> = order
        .iter()
        .map(|&node| {
            format!(
                "{{\"node\":{node},\"score\":{}}}",
                json_f64(board.scores[node as usize])
            )
        })
        .collect();
    format!(
        "{{\"tick\":{},\"events_applied\":{},\"scores\":[{}]}}",
        board.tick,
        board.events_applied,
        rows.join(",")
    )
}

fn scores_json(state: &ServerState, query: &str) -> (u16, &'static str, Body) {
    let mut top = DEFAULT_TOP;
    for pair in query.split('&').filter(|p| !p.is_empty()) {
        match pair.split_once('=') {
            Some(("top", raw)) => match raw.parse::<usize>() {
                Ok(n) => top = n,
                Err(_) => {
                    return (
                        400,
                        "application/json",
                        format!("{{\"error\":\"bad top value {raw:?}\"}}").into(),
                    )
                }
            },
            _ => {
                return (
                    400,
                    "application/json",
                    format!("{{\"error\":\"unknown query parameter {pair:?}\"}}").into(),
                )
            }
        }
    }
    let board = state.board();
    if top == DEFAULT_TOP {
        // The hot default renders once per tick into a shared body.
        let body = board
            .cached_scores_body
            .get_or_init(|| render_scores(&board, &board.top_nodes(DEFAULT_TOP)).into())
            .clone();
        return (200, "application/json", body.into());
    }
    let body = render_scores(&board, &board.top_nodes(top));
    (200, "application/json", body.into())
}

fn explain_json(state: &ServerState, raw: &str) -> (u16, &'static str, Body) {
    let Ok(node) = raw.parse::<u64>() else {
        return (
            400,
            "application/json",
            format!("{{\"error\":\"bad node id {raw:?}\"}}").into(),
        );
    };
    let board = state.board();
    if node >= board.scores.len() as u64 {
        return (
            404,
            "application/json",
            format!("{{\"error\":\"node {node} out of range\"}}").into(),
        );
    }
    let entries = explain_entries(&board.trace, Some(node), Some(board.cycle));
    match serde_json::to_string(&entries) {
        Ok(body) => (
            200,
            "application/json",
            format!(
                "{{\"node\":{node},\"tick\":{},\"entries\":{body}}}",
                board.tick
            )
            .into(),
        ),
        Err(e) => (
            500,
            "application/json",
            format!("{{\"error\":\"explain serialization: {e:?}\"}}").into(),
        ),
    }
}
