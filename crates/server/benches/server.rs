//! Server bench — streaming ingest and loopback HTTP query throughput.
//!
//! For every size in `SERVER_SIZES` (default `10000,100000`) this boots
//! real daemons (ephemeral port, long tick interval so the recompute
//! thread stays out of the timed windows) and measures, each cell as the
//! median of `REPS` repetitions (see `socialtrust_bench::timing`):
//!
//! 1. `ingest_{n}_seconds`: wall time for the ingest thread to tail,
//!    parse, and apply a pre-rendered JSONL batch (edge/profile bootstrap
//!    plus five ratings per sampled rater) appended to the log in one
//!    write — the daemon's end-to-end ingest path. Each repetition boots
//!    a fresh daemon over an empty log, untimed; the last one serves the
//!    query cells. The informational `ingest_{n}_events_per_sec` is the
//!    same number as a rate.
//!
//! 2. `query_{n}_seconds`: wall time for `QUERIES` sequential
//!    `GET /score/{node}` requests over **one keep-alive connection**
//!    (reconnecting transparently if the server retires it at the
//!    per-connection request cap), after one forced tick published a
//!    board; `query_{n}_requests_per_sec` is informational.
//!
//! 3. `query_close_{n}_seconds`: one fresh connection per request
//!    (`Connection: close`), the comparison cell for the keep-alive win.
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
//!    `OVERHEAD_QUERIES` requests after `OVERHEAD_WARMUP` untimed ones —
//!    instead of the short cell-2 loop. The reported key is the
//!    recorder-off side; the informational
//!    `recorder_overhead_{n}_percent` is the relative cost of the
//!    recorder on the query plane (the acceptance bound is < 5%).
//!
//! 6. `replay_{n}_seconds`: wall time of `start()` with `replay: true`
//!    over cell 1's log. Each start reads, parses and applies the whole
//!    batch (≈0.6 MB at 10k nodes, ≈6 MB at 100k) and ticks once before
//!    it binds, so restart cost must stay linear in backlog bytes.
//!
//! Results land in `BENCH_server.json` in `BENCH_OUT_DIR` (default: the
//! workspace root). CI's smoke run sets `SERVER_SIZES=10000`.

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

use socialtrust_bench::timing::{self, Cell, Report};
use socialtrust_server::event::{render_event, RelKind, ServerEvent};
use socialtrust_server::service::ServiceConfig;
use socialtrust_server::{start, ServerConfig, ServerHandle};

/// Repetitions per cell, at every size.
const REPS: usize = 11;
const QUERIES: usize = 2000;
const CONC_QUERIES: usize = 8000;
/// The recorder-overhead pair discriminates a < 5% delta, so it gets a
/// much longer timed window than the throughput cells (~200 ms per
/// repetition at loopback rates) after an untimed warm-up.
const OVERHEAD_QUERIES: usize = 20_000;
const OVERHEAD_WARMUP: usize = 2_000;

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

/// `count` sequential `GET /score/{node}` requests on one client,
/// striding through the nodes from `first`.
fn score_queries(client: &mut KeepAliveClient, n: usize, first: usize, count: usize) {
    for k in 0..count {
        let node = (first + k * 37) % n;
        std::hint::black_box(client.get(&format!("/score/{node}")));
    }
}

/// A keep-alive query cell: each repetition connects, checks one probe
/// response and sends `warmup` requests, all untimed, then times `count`
/// requests on the same connection.
fn keep_alive_cell(addr: SocketAddr, n: usize, warmup: usize, count: usize) -> Cell {
    timing::measure(REPS, |rep| {
        let mut client = KeepAliveClient::connect(addr);
        let probe = client.get("/score/0");
        assert!(probe.contains("\"score\":"), "probe response: {probe}");
        score_queries(&mut client, n, 0, warmup);
        rep.time(|| score_queries(&mut client, n, 0, count));
    })
}

/// `total` sequential keep-alive requests spread over `clients` threads.
fn run_concurrent(addr: SocketAddr, n: usize, clients: usize, total: usize) {
    std::thread::scope(|scope| {
        for c in 0..clients {
            scope.spawn(move || {
                let mut client = KeepAliveClient::connect(addr);
                score_queries(&mut client, n, c * 7919, total / clients);
            });
        }
    });
}

fn bench_size(n: usize, report: &mut Report) {
    let dir = std::env::temp_dir().join(format!("st-server-bench-{n}-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("bench temp dir");
    let log_path = dir.join("events.jsonl");

    let events = event_batch(n);
    let mut payload = String::with_capacity(events.len() * 48);
    for event in &events {
        payload.push_str(&render_event(event));
        payload.push('\n');
    }

    let primary_config = ServerConfig {
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
    };

    // 1. Ingest: a fresh daemon over an empty log per repetition, then
    //    append the whole batch and wait for the tail thread to parse and
    //    apply every event.
    let total = events.len() as u64;
    let mut primary: Option<ServerHandle> = None;
    let ingest = timing::measure(REPS, |rep| {
        if let Some(previous) = primary.take() {
            previous.shutdown();
        }
        std::fs::write(&log_path, b"").expect("create log");
        let handle = start(primary_config.clone()).expect("bench server boots");
        let state = handle.state().clone();
        rep.time(|| {
            let mut log = std::fs::OpenOptions::new()
                .append(true)
                .open(&log_path)
                .expect("open log for append");
            log.write_all(payload.as_bytes()).expect("append events");
            log.flush().expect("flush log");
            let started = Instant::now();
            while state.events_ingested().get() < total {
                assert!(
                    started.elapsed() < Duration::from_secs(600),
                    "ingest stalled at {}/{total}",
                    state.events_ingested().get()
                );
                std::thread::yield_now();
            }
        });
        primary = Some(handle);
    });
    let handle = primary.expect("at least one repetition");

    // 2. Queries against a published board: keep-alive sequential (the
    //    primary cell), close-per-request, then the 4/16-connection
    //    concurrency cells.
    assert!(
        handle.state().force_tick(),
        "tick covers the ingested batch"
    );
    let addr = handle.addr();
    let query = keep_alive_cell(addr, n, 0, QUERIES);
    let query_close = timing::measure(REPS, |rep| {
        rep.time(|| {
            for k in 0..QUERIES {
                let node = (k * 37) % n;
                std::hint::black_box(http_get_close(addr, &format!("/score/{node}")));
            }
        })
    });
    let query_c4 = timing::measure(REPS, |rep| {
        rep.time(|| run_concurrent(addr, n, 4, CONC_QUERIES))
    });
    let query_c16 = timing::measure(REPS, |rep| {
        rep.time(|| run_concurrent(addr, n, 16, CONC_QUERIES))
    });

    // 3. Recorder-overhead pair: the long warmed loop against the
    //    primary daemon (recorder at the default 250 ms) ...
    let query_rec = keep_alive_cell(addr, n, OVERHEAD_WARMUP, OVERHEAD_QUERIES);
    handle.shutdown();

    //    ... and against a daemon over the same log (warmed via replay,
    //    which cell 6 times) with an hour-long sampling interval, so the
    //    delta isolates the flight recorder.
    let norec_config = ServerConfig {
        replay: true,
        record_interval: Duration::from_secs(3600),
        ..primary_config
    };
    let replay = timing::measure(REPS, |rep| {
        let config = norec_config.clone();
        rep.time(|| start(config).expect("replaying bench server boots"))
            .shutdown();
    });
    let norec = start(norec_config).expect("recorder-off bench server boots");
    let query_norec = keep_alive_cell(norec.addr(), n, OVERHEAD_WARMUP, OVERHEAD_QUERIES);
    norec.shutdown();
    let _ = std::fs::remove_dir_all(&dir);

    report.cell(&format!("ingest_{n}"), ingest);
    report.put(format!("ingest_{n}_events"), events.len());
    report.put(
        format!("ingest_{n}_events_per_sec"),
        events.len() as f64 / ingest.median,
    );
    for (stem, requests, cell) in [
        ("query", QUERIES, query),
        ("query_close", QUERIES, query_close),
        ("query_c4", CONC_QUERIES, query_c4),
        ("query_c16", CONC_QUERIES, query_c16),
        ("query_norec", OVERHEAD_QUERIES, query_norec),
    ] {
        report.cell(&format!("{stem}_{n}"), cell);
        report.put(
            format!("{stem}_{n}_requests_per_sec"),
            requests as f64 / cell.median,
        );
    }
    report.put(
        format!("recorder_overhead_{n}_percent"),
        (query_rec.median / query_norec.median - 1.0) * 100.0,
    );
    report.cell(&format!("replay_{n}"), replay);
}

fn main() {
    let (listed, sizes) = timing::sizes("SERVER_SIZES", "10000,100000");
    let mut report = Report::new("server");
    report.put("sizes", listed);
    report.put("reps", REPS);
    report.put("queries", QUERIES);
    report.put("concurrent_queries", CONC_QUERIES);
    report.put("overhead_queries", OVERHEAD_QUERIES);
    for n in sizes {
        bench_size(n, &mut report);
    }
    report.write(&timing::out_dir());
}
