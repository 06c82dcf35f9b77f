//! Server bench — streaming ingest and loopback HTTP query throughput.
//!
//! For every size in `SERVER_SIZES` (default `10000,100000`) this boots a
//! real daemon (ephemeral port, long tick interval so the recompute thread
//! stays out of the timed windows) and measures:
//!
//! 1. `ingest_{n}_seconds`: wall time for the ingest thread to tail,
//!    parse, and apply a pre-rendered JSONL batch (edge/profile bootstrap
//!    plus five ratings per sampled rater) appended to the log in one
//!    write — the daemon's end-to-end ingest path. The informational
//!    `ingest_{n}_events_per_sec` is the same number as a rate.
//!
//! 2. `query_{n}_seconds`: wall time for `QUERIES` sequential
//!    `GET /score/{node}` requests over **one keep-alive connection**
//!    (reconnecting transparently if the server retires it at the
//!    per-connection request cap), after one forced tick published a
//!    board. This is the primary query-plane cell the ISSUE's ≥10×
//!    target applies to; `query_{n}_requests_per_sec` is informational.
//!
//! 3. `query_close_{n}_seconds`: the PR-8 shape — one fresh connection
//!    per request (`Connection: close`) — kept as the comparison cell
//!    for the keep-alive win.
//!
//! 4. `query_c4_{n}_seconds` / `query_c16_{n}_seconds`: `CONC_QUERIES`
//!    requests spread over 4 / 16 concurrent keep-alive connections
//!    (one thread each), exercising the workers' `poll(2)` loops with
//!    many live sockets.
//!
//! 5. `query_norec_{n}_seconds`: the recorder-overhead pair. The same
//!    keep-alive loop runs against the primary daemon (default 250 ms
//!    flight recorder) and against a second daemon whose recorder is
//!    effectively off (1-hour sampling interval), warmed to the same
//!    substrate via `--replay`. Because the bound being checked is
//!    small (< 5%), this pair uses its own longer window —
//!    `OVERHEAD_QUERIES` requests, warmed up, best of
//!    `OVERHEAD_ROUNDS` — instead of the short cell-2 loop. The
//!    reported key is the recorder-off side; the informational
//!    `recorder_overhead_{n}_percent` is the relative cost of the
//!    recorder on the query plane (the PR-10 acceptance bound is < 5%).
//!
//! 6. `replay_{n}_seconds`: wall time of `start()` with `replay: true`
//!    over cell 1's log, best of `REPLAY_ROUNDS` starts (the last one is
//!    cell 5's recorder-off daemon). Each start reads, parses and applies
//!    the whole batch (≈0.6 MB at 10k nodes, ≈6 MB at 100k) and ticks
//!    once before it binds, so restart cost must stay linear in backlog
//!    bytes.
//!
//! Results land in `BENCH_server.json` (override with `BENCH_SERVER_OUT`);
//! `_seconds` keys are gated by `scripts/bench_diff.sh`. `--test` is
//! accepted for CLI uniformity; CI smoke shrinks via `SERVER_SIZES=10000`.

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

use socialtrust_server::event::{render_event, RelKind, ServerEvent};
use socialtrust_server::service::ServiceConfig;
use socialtrust_server::{start, ServerConfig};

const QUERIES: usize = 2000;
const CONC_QUERIES: usize = 8000;
/// The recorder-overhead pair discriminates a < 5% delta, so it gets a
/// much longer timed window than the throughput cells (~200 ms per
/// round at loopback rates) plus warmup and best-of-rounds.
const OVERHEAD_QUERIES: usize = 20_000;
const OVERHEAD_WARMUP: usize = 2_000;
const OVERHEAD_ROUNDS: usize = 3;
/// Cell 6 reports the fastest of this many replaying starts.
const REPLAY_ROUNDS: usize = 3;

/// Deterministic event batch: a ring of friendships, sparse interest
/// profiles, and five ratings per sampled rater.
fn event_batch(n: usize) -> Vec<ServerEvent> {
    let mut events = Vec::new();
    for k in 0..n {
        events.push(ServerEvent::EdgeAdd {
            a: k as u32,
            b: ((k + 1) % n) as u32,
            rel: match k % 3 {
                0 => RelKind::Friend,
                1 => RelKind::Colleague,
                _ => RelKind::Kin,
            },
        });
    }
    for k in (0..n).step_by(16) {
        events.push(ServerEvent::Profile {
            node: k as u32,
            declare: vec![(k % 40) as u16, ((k + 11) % 40) as u16],
            requests: vec![((k % 40) as u16, 3)],
        });
    }
    let raters = (n / 500).clamp(50, 2000).min(n);
    let stride = (n / raters).max(1);
    for r in 0..raters {
        let rater = (r * stride) % n;
        for j in 1..=5 {
            let ratee = (rater + j * 17 + 1) % n;
            if ratee == rater {
                continue;
            }
            events.push(ServerEvent::Rating {
                rater: rater as u32,
                ratee: ratee as u32,
                value: if (rater + j).is_multiple_of(10) {
                    -1.0
                } else {
                    1.0
                },
                interest: Some(((rater + j) % 40) as u16),
            });
        }
    }
    events
}

/// One-shot client: fresh connection, explicit `Connection: close`.
fn http_get_close(addr: SocketAddr, target: &str) -> String {
    let mut stream = TcpStream::connect(addr).expect("connect to bench server");
    stream.set_nodelay(true).expect("nodelay");
    stream
        .write_all(
            format!("GET {target} HTTP/1.1\r\nHost: bench\r\nConnection: close\r\n\r\n").as_bytes(),
        )
        .expect("write request");
    let mut response = String::new();
    stream.read_to_string(&mut response).expect("read response");
    response
}

/// A keep-alive client: sequential requests on one persistent
/// connection, parsing `Content-Length` to frame responses, and
/// reconnecting transparently when the server retires the connection
/// (idle timeout or per-connection request cap).
struct KeepAliveClient {
    addr: SocketAddr,
    stream: TcpStream,
    buf: Vec<u8>,
}

impl KeepAliveClient {
    fn connect(addr: SocketAddr) -> KeepAliveClient {
        let stream = TcpStream::connect(addr).expect("connect keep-alive client");
        stream.set_nodelay(true).expect("nodelay");
        stream
            .set_read_timeout(Some(Duration::from_secs(30)))
            .expect("read timeout");
        KeepAliveClient {
            addr,
            stream,
            buf: Vec::new(),
        }
    }

    fn reconnect(&mut self) {
        *self = KeepAliveClient::connect(self.addr);
    }

    /// Issue one GET and return the full response (head + body). Panics
    /// on malformed responses; reconnects and retries once if the server
    /// closed the connection between requests.
    fn get(&mut self, target: &str) -> String {
        match self.try_get(target) {
            Some(response) => response,
            None => {
                self.reconnect();
                self.try_get(target).expect("request after reconnect")
            }
        }
    }

    fn try_get(&mut self, target: &str) -> Option<String> {
        let request = format!("GET {target} HTTP/1.1\r\nHost: bench\r\n\r\n");
        if self.stream.write_all(request.as_bytes()).is_err() {
            return None;
        }
        // Read until the head terminator, then exactly the body.
        let head_end = loop {
            if let Some(pos) = self.buf.windows(4).position(|w| w == b"\r\n\r\n") {
                break pos + 4;
            }
            let mut chunk = [0u8; 4096];
            match self.stream.read(&mut chunk) {
                Ok(0) => return None, // server closed (cap/idle); caller reconnects
                Ok(n) => self.buf.extend_from_slice(&chunk[..n]),
                Err(_) => return None,
            }
        };
        let head = std::str::from_utf8(&self.buf[..head_end])
            .expect("utf-8 head")
            .to_owned();
        let content_length: usize = head
            .split("\r\n")
            .find_map(|line| {
                let (name, value) = line.split_once(':')?;
                name.trim()
                    .eq_ignore_ascii_case("content-length")
                    .then(|| value.trim().parse().expect("content-length"))
            })
            .expect("response has content-length");
        while self.buf.len() < head_end + content_length {
            let mut chunk = [0u8; 4096];
            match self.stream.read(&mut chunk) {
                Ok(0) => return None,
                Ok(n) => self.buf.extend_from_slice(&chunk[..n]),
                Err(_) => return None,
            }
        }
        let response: Vec<u8> = self.buf.drain(..head_end + content_length).collect();
        let closing = head
            .split("\r\n")
            .any(|l| l.eq_ignore_ascii_case("connection: close"));
        if closing {
            self.reconnect();
        }
        Some(String::from_utf8(response).expect("utf-8 response"))
    }
}

struct SizeReport {
    n: usize,
    events: usize,
    ingest: f64,
    query: f64,
    query_close: f64,
    query_c4: f64,
    query_c16: f64,
    query_rec: f64,
    query_norec: f64,
    replay: f64,
}

/// The recorder-overhead measurement loop: one keep-alive connection,
/// `OVERHEAD_WARMUP` untimed requests, then the best (minimum) of
/// `OVERHEAD_ROUNDS` timed rounds of `OVERHEAD_QUERIES` requests each.
/// Min-of-rounds suppresses scheduler noise, which would otherwise
/// swamp a single-digit-percent delta.
fn overhead_cell(addr: SocketAddr, n: usize) -> f64 {
    let mut client = KeepAliveClient::connect(addr);
    for k in 0..OVERHEAD_WARMUP {
        let node = (k * 37) % n;
        let response = client.get(&format!("/score/{node}"));
        std::hint::black_box(&response);
    }
    let mut best = f64::INFINITY;
    for _ in 0..OVERHEAD_ROUNDS {
        let started = Instant::now();
        for k in 0..OVERHEAD_QUERIES {
            let node = (k * 37) % n;
            let response = client.get(&format!("/score/{node}"));
            std::hint::black_box(&response);
        }
        best = best.min(started.elapsed().as_secs_f64());
    }
    best
}

/// `total` sequential keep-alive requests spread over `clients` threads.
fn run_concurrent(addr: SocketAddr, n: usize, clients: usize, total: usize) -> f64 {
    let per_client = total / clients;
    let started = Instant::now();
    std::thread::scope(|scope| {
        for c in 0..clients {
            scope.spawn(move || {
                let mut client = KeepAliveClient::connect(addr);
                for k in 0..per_client {
                    let node = (c * 7919 + k * 37) % n;
                    let response = client.get(&format!("/score/{node}"));
                    std::hint::black_box(&response);
                }
            });
        }
    });
    started.elapsed().as_secs_f64()
}

fn bench_size(n: usize) -> SizeReport {
    let dir = std::env::temp_dir().join(format!("st-server-bench-{n}-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("bench temp dir");
    let log_path = dir.join("events.jsonl");
    std::fs::write(&log_path, b"").expect("create log");

    let events = event_batch(n);
    let mut payload = String::with_capacity(events.len() * 48);
    for event in &events {
        payload.push_str(&render_event(event));
        payload.push('\n');
    }

    let handle = start(ServerConfig {
        log_path: log_path.clone(),
        listen: "127.0.0.1:0".to_owned(),
        service: ServiceConfig {
            nodes: n,
            interests: 40,
            pretrusted: 32.min(n),
            ..ServiceConfig::default()
        },
        // Keep the periodic recompute out of the timed windows; the bench
        // forces its tick explicitly.
        tick_interval: Duration::from_secs(3600),
        workers: 4,
        replay: false,
        ..ServerConfig::default()
    })
    .expect("bench server boots");
    let state = handle.state().clone();

    // 1. Ingest: append the whole batch, then wait for the tail thread to
    //    parse and apply every event.
    let total = events.len() as u64;
    let started = Instant::now();
    {
        use std::io::Write as _;
        let mut log = std::fs::OpenOptions::new()
            .append(true)
            .open(&log_path)
            .expect("open log for append");
        log.write_all(payload.as_bytes()).expect("append events");
        log.flush().expect("flush log");
    }
    while state.events_ingested().get() < total {
        assert!(
            started.elapsed() < Duration::from_secs(600),
            "ingest stalled at {}/{total}",
            state.events_ingested().get()
        );
        std::thread::yield_now();
    }
    let ingest = started.elapsed().as_secs_f64();

    // 2. Queries against a published board: keep-alive sequential (the
    //    primary cell), close-per-request (the PR-8 comparison), then
    //    the 4/16-connection concurrency cells.
    assert!(state.force_tick(), "tick covers the ingested batch");
    let mut client = KeepAliveClient::connect(handle.addr());
    let probe = client.get("/score/0");
    assert!(probe.contains("\"score\":"), "probe response: {probe}");
    let started = Instant::now();
    for k in 0..QUERIES {
        let node = (k * 37) % n;
        let response = client.get(&format!("/score/{node}"));
        std::hint::black_box(&response);
    }
    let query = started.elapsed().as_secs_f64();

    let started = Instant::now();
    for k in 0..QUERIES {
        let node = (k * 37) % n;
        let response = http_get_close(handle.addr(), &format!("/score/{node}"));
        std::hint::black_box(&response);
    }
    let query_close = started.elapsed().as_secs_f64();

    let query_c4 = run_concurrent(handle.addr(), n, 4, CONC_QUERIES);
    let query_c16 = run_concurrent(handle.addr(), n, 16, CONC_QUERIES);

    // 3. Recorder-overhead pair: the long warmed loop against the
    //    primary daemon (recorder at the default 250 ms) ...
    let query_rec = overhead_cell(handle.addr(), n);
    handle.shutdown();

    //    ... and against a second daemon over the same log (warmed via
    //    replay, which cell 6 times) with an hour-long sampling interval,
    //    so the delta isolates the flight recorder.
    let norec_config = ServerConfig {
        log_path: log_path.clone(),
        listen: "127.0.0.1:0".to_owned(),
        service: ServiceConfig {
            nodes: n,
            interests: 40,
            pretrusted: 32.min(n),
            ..ServiceConfig::default()
        },
        tick_interval: Duration::from_secs(3600),
        workers: 4,
        replay: true,
        record_interval: Duration::from_secs(3600),
        ..ServerConfig::default()
    };
    let mut replay = f64::INFINITY;
    for _ in 1..REPLAY_ROUNDS {
        let started = Instant::now();
        let daemon = start(norec_config.clone()).expect("replaying bench server boots");
        replay = replay.min(started.elapsed().as_secs_f64());
        daemon.shutdown();
    }
    let started = Instant::now();
    let norec = start(norec_config).expect("recorder-off bench server boots");
    let replay = replay.min(started.elapsed().as_secs_f64());
    let mut client = KeepAliveClient::connect(norec.addr());
    let probe = client.get("/score/0");
    assert!(probe.contains("\"score\":"), "norec probe: {probe}");
    let query_norec = overhead_cell(norec.addr(), n);
    norec.shutdown();

    let _ = std::fs::remove_dir_all(&dir);
    eprintln!(
        "[server {n}] ingest {ingest:.4}s ({:.0} ev/s over {} events), \
         keep-alive {query:.4}s ({:.0} req/s), close {query_close:.4}s ({:.0} req/s), \
         c4 {query_c4:.4}s ({:.0} req/s), c16 {query_c16:.4}s ({:.0} req/s), \
         recorder pair {query_rec:.4}s vs {query_norec:.4}s (overhead {:+.2}%), \
         replay {replay:.4}s ({:.0} ev/s)",
        total as f64 / ingest,
        events.len(),
        QUERIES as f64 / query,
        QUERIES as f64 / query_close,
        CONC_QUERIES as f64 / query_c4,
        CONC_QUERIES as f64 / query_c16,
        (query_rec / query_norec - 1.0) * 100.0,
        total as f64 / replay,
    );
    SizeReport {
        n,
        events: events.len(),
        ingest,
        query,
        query_close,
        query_c4,
        query_c16,
        query_rec,
        query_norec,
        replay,
    }
}

/// Hand-assembled report (the vendored serde_json has no dynamic maps).
/// Keys ending in `_seconds` gate regressions; rates are informational.
fn write_report(reports: &[SizeReport], sizes: &str) {
    let mut fields: Vec<String> = vec![
        "\"bench\": \"server\"".to_owned(),
        format!("\"sizes\": \"{sizes}\""),
        format!("\"queries\": {QUERIES}"),
        format!("\"concurrent_queries\": {CONC_QUERIES}"),
        format!("\"overhead_queries\": {OVERHEAD_QUERIES}"),
    ];
    for r in reports {
        fields.push(format!("\"ingest_{}_seconds\": {:.9}", r.n, r.ingest));
        fields.push(format!("\"query_{}_seconds\": {:.9}", r.n, r.query));
        fields.push(format!(
            "\"query_close_{}_seconds\": {:.9}",
            r.n, r.query_close
        ));
        fields.push(format!("\"query_c4_{}_seconds\": {:.9}", r.n, r.query_c4));
        fields.push(format!("\"query_c16_{}_seconds\": {:.9}", r.n, r.query_c16));
        fields.push(format!(
            "\"query_norec_{}_seconds\": {:.9}",
            r.n, r.query_norec
        ));
        fields.push(format!("\"replay_{}_seconds\": {:.9}", r.n, r.replay));
        fields.push(format!(
            "\"recorder_overhead_{}_percent\": {:.3}",
            r.n,
            (r.query_rec / r.query_norec - 1.0) * 100.0
        ));
        fields.push(format!("\"ingest_{}_events\": {}", r.n, r.events));
        fields.push(format!(
            "\"ingest_{}_events_per_sec\": {:.1}",
            r.n,
            r.events as f64 / r.ingest
        ));
        fields.push(format!(
            "\"query_{}_requests_per_sec\": {:.1}",
            r.n,
            QUERIES as f64 / r.query
        ));
        fields.push(format!(
            "\"query_close_{}_requests_per_sec\": {:.1}",
            r.n,
            QUERIES as f64 / r.query_close
        ));
        fields.push(format!(
            "\"query_c4_{}_requests_per_sec\": {:.1}",
            r.n,
            CONC_QUERIES as f64 / r.query_c4
        ));
        fields.push(format!(
            "\"query_c16_{}_requests_per_sec\": {:.1}",
            r.n,
            CONC_QUERIES as f64 / r.query_c16
        ));
        fields.push(format!(
            "\"query_norec_{}_requests_per_sec\": {:.1}",
            r.n,
            OVERHEAD_QUERIES as f64 / r.query_norec
        ));
    }
    let json = format!("{{\n  {}\n}}\n", fields.join(",\n  "));
    let path = std::env::var("BENCH_SERVER_OUT").unwrap_or_else(|_| "BENCH_server.json".to_owned());
    std::fs::write(&path, json).expect("bench report is writable");
    println!("[server json] {} size(s) -> {path}", reports.len());
}

fn main() {
    let _ = std::env::args().any(|a| a == "--test");
    let sizes = std::env::var("SERVER_SIZES").unwrap_or_else(|_| "10000,100000".to_owned());
    let parsed: Vec<usize> = sizes
        .split(',')
        .filter_map(|s| s.trim().parse().ok())
        .filter(|&n: &usize| n >= 2)
        .collect();
    assert!(
        !parsed.is_empty(),
        "SERVER_SIZES has no valid sizes: {sizes}"
    );
    let reports: Vec<SizeReport> = parsed.iter().map(|&n| bench_size(n)).collect();
    write_report(&reports, &sizes);
}
