//! End-to-end daemon tests over real sockets.
//!
//! * `scores_match_offline_replay_bit_for_bit` — the ISSUE's core
//!   contract: boot on an ephemeral port, append events to the log, wait
//!   for ticks, and require every `/score/{node}` response to carry the
//!   exact f64 bit pattern that [`replay_offline`] computes from the same
//!   events and the `/journal` tick boundaries.
//! * `malformed_events_are_counted_and_skipped` — garbage lines never
//!   panic the daemon; they are counted in `/healthz` and `/metrics`
//!   while the valid lines around them still apply.
//! * `sigterm_exits_cleanly` — the installed binary drains and exits 0
//!   on SIGTERM.
//! * single writer — the ingest thread keeps reading and counting bad
//!   lines while the writer thread is frozen, and `/metrics` carries the
//!   handoff, apply and freshness histograms.
//! * ingest framing — a replayed backlog that ends mid-line finishes that
//!   line from the tail exactly once, a line nested past the JSON depth
//!   cap is counted as malformed without taking the daemon down, and a
//!   truncated or replaced log is reopened and read from the start.
//! * keep-alive conformance — sequential requests on one socket,
//!   pipelined pairs answered in order, a malformed second request gets
//!   a 400 and a clean close, idle connections are reaped on the
//!   configured timeout, the per-connection request cap retires
//!   connections with `Connection: close`, and shutdown drains in-flight
//!   keep-alive connections before the workers exit.

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::Path;
use std::time::{Duration, Instant};

use socialtrust::telemetry::MetricsExport;
use socialtrust_server::event::{render_event, RelKind, ServerEvent};
use socialtrust_server::service::{replay_offline, ServiceConfig};
use socialtrust_server::{start, ServerConfig, ServerHandle};

fn http_get(addr: SocketAddr, target: &str) -> (u16, String) {
    // One-shot client: `Connection: close` lets `read_to_string` frame
    // the response by EOF (the server keeps HTTP/1.1 connections alive
    // otherwise).
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    stream
        .write_all(
            format!("GET {target} HTTP/1.1\r\nHost: test\r\nConnection: close\r\n\r\n").as_bytes(),
        )
        .expect("write request");
    let mut response = String::new();
    stream.read_to_string(&mut response).expect("read response");
    let status: u16 = response
        .split(' ')
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or_else(|| panic!("unparsable response: {response:?}"));
    let body = response
        .split_once("\r\n\r\n")
        .map(|(_, b)| b.to_owned())
        .unwrap_or_default();
    (status, body)
}

/// A keep-alive test client over one socket: no `Connection:` header
/// (HTTP/1.1 defaults to keep-alive), responses framed by
/// `Content-Length`.
struct KaConn {
    stream: TcpStream,
    buf: Vec<u8>,
}

impl KaConn {
    fn connect(addr: SocketAddr) -> KaConn {
        let stream = TcpStream::connect(addr).expect("connect keep-alive");
        stream.set_nodelay(true).expect("nodelay");
        stream
            .set_read_timeout(Some(Duration::from_secs(10)))
            .expect("read timeout");
        KaConn {
            stream,
            buf: Vec::new(),
        }
    }

    fn send(&mut self, target: &str) {
        self.stream
            .write_all(format!("GET {target} HTTP/1.1\r\nHost: test\r\n\r\n").as_bytes())
            .expect("write keep-alive request");
    }

    fn send_raw(&mut self, bytes: &[u8]) {
        self.stream.write_all(bytes).expect("write raw bytes");
    }

    /// Read one response. Returns `(status, head, body)`.
    fn read_response(&mut self) -> (u16, String, String) {
        let head_end = loop {
            if let Some(pos) = self.buf.windows(4).position(|w| w == b"\r\n\r\n") {
                break pos + 4;
            }
            let mut chunk = [0u8; 4096];
            let n = self.stream.read(&mut chunk).expect("read response head");
            assert!(n > 0, "connection closed before a full response head");
            self.buf.extend_from_slice(&chunk[..n]);
        };
        let head = String::from_utf8(self.buf[..head_end].to_vec()).expect("utf-8 head");
        let status: u16 = head
            .split(' ')
            .nth(1)
            .and_then(|s| s.parse().ok())
            .unwrap_or_else(|| panic!("unparsable head: {head:?}"));
        let content_length: usize = head
            .split("\r\n")
            .find_map(|line| {
                let (name, value) = line.split_once(':')?;
                name.trim()
                    .eq_ignore_ascii_case("content-length")
                    .then(|| value.trim().parse().expect("content-length value"))
            })
            .expect("response carries content-length");
        while self.buf.len() < head_end + content_length {
            let mut chunk = [0u8; 4096];
            let n = self.stream.read(&mut chunk).expect("read response body");
            assert!(n > 0, "connection closed mid-body");
            self.buf.extend_from_slice(&chunk[..n]);
        }
        let body = String::from_utf8(self.buf[head_end..head_end + content_length].to_vec())
            .expect("utf-8 body");
        self.buf.drain(..head_end + content_length);
        (status, head, body)
    }

    /// Expect the server to close this connection: the next read must
    /// return EOF (not a reset, not a timeout).
    fn expect_eof(&mut self) {
        let mut chunk = [0u8; 256];
        match self.stream.read(&mut chunk) {
            Ok(0) => {}
            Ok(n) => panic!(
                "expected EOF, got {n} bytes: {:?}",
                String::from_utf8_lossy(&chunk[..n])
            ),
            Err(e) => panic!("expected clean EOF, got error: {e}"),
        }
    }
}

/// Pull one numeric field out of a flat JSON body.
fn json_number(body: &str, key: &str) -> f64 {
    let needle = format!("\"{key}\":");
    let at = body
        .find(&needle)
        .unwrap_or_else(|| panic!("no {key:?} in {body:?}"));
    let rest = &body[at + needle.len()..];
    let end = rest
        .find([',', '}', ']'])
        .unwrap_or_else(|| panic!("unterminated {key:?} in {body:?}"));
    rest[..end]
        .trim()
        .parse()
        .unwrap_or_else(|_| panic!("non-numeric {key:?} in {body:?}"))
}

fn append_lines(path: &Path, lines: &[String]) {
    let mut log = std::fs::OpenOptions::new()
        .append(true)
        .open(path)
        .expect("open log");
    for line in lines {
        writeln!(log, "{line}").expect("append line");
    }
    log.flush().expect("flush log");
}

/// Append raw bytes (for lines that are deliberately not valid UTF-8).
fn append_raw(path: &Path, bytes: &[u8]) {
    let mut log = std::fs::OpenOptions::new()
        .append(true)
        .open(path)
        .expect("open log");
    log.write_all(bytes).expect("append raw bytes");
    log.flush().expect("flush log");
}

/// Poll `/healthz` until it answers `want_status` with the given
/// `"status"` value; returns the matching body.
fn wait_for_health(addr: SocketAddr, want_status: u16, want_state: &str) -> String {
    let needle = format!("\"status\":\"{want_state}\"");
    let deadline = Instant::now() + Duration::from_secs(30);
    loop {
        let (status, body) = http_get(addr, "/healthz");
        if status == want_status && body.contains(&needle) {
            return body;
        }
        assert!(
            Instant::now() < deadline,
            "healthz never reached {want_status}/{want_state}: last {status} {body}"
        );
        std::thread::sleep(Duration::from_millis(20));
    }
}

fn wait_for_applied(addr: SocketAddr, expected: u64) {
    let deadline = Instant::now() + Duration::from_secs(30);
    loop {
        let (status, body) = http_get(addr, "/healthz");
        assert_eq!(status, 200, "healthz failed: {body}");
        if json_number(&body, "events_applied") as u64 >= expected {
            return;
        }
        assert!(
            Instant::now() < deadline,
            "daemon never applied {expected} events: {body}"
        );
        std::thread::sleep(Duration::from_millis(10));
    }
}

fn boot_tuned(
    dir: &Path,
    config: ServiceConfig,
    tick: Duration,
    tune: impl FnOnce(&mut ServerConfig),
) -> ServerHandle {
    let log_path = dir.join("events.jsonl");
    let mut server = ServerConfig {
        log_path,
        listen: "127.0.0.1:0".to_owned(),
        service: config,
        tick_interval: tick,
        workers: 2,
        replay: false,
        ..ServerConfig::default()
    };
    tune(&mut server);
    start(server).expect("daemon boots on an ephemeral port")
}

fn boot(dir: &Path, config: ServiceConfig, tick: Duration) -> ServerHandle {
    boot_tuned(dir, config, tick, |_| {})
}

fn temp_dir(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("st-daemon-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("temp dir");
    dir
}

fn fixture_events() -> Vec<ServerEvent> {
    let mut events = Vec::new();
    for k in 0u32..12 {
        events.push(ServerEvent::EdgeAdd {
            a: k % 8,
            b: (k + 1) % 8,
            rel: match k % 3 {
                0 => RelKind::Friend,
                1 => RelKind::Colleague,
                _ => RelKind::Kin,
            },
        });
    }
    for k in 0u32..8 {
        events.push(ServerEvent::Profile {
            node: k,
            declare: vec![(k % 6) as u16, ((k + 2) % 6) as u16],
            requests: vec![((k % 6) as u16, 1 + k as u64)],
        });
    }
    for k in 0u32..30 {
        let rater = k % 8;
        let ratee = (k * 3 + 1) % 8;
        if rater == ratee {
            continue;
        }
        events.push(ServerEvent::Rating {
            rater,
            ratee,
            value: if k % 9 == 0 { -1.0 } else { 1.0 },
            interest: if k % 4 == 0 {
                None
            } else {
                Some((k % 6) as u16)
            },
        });
    }
    events.push(ServerEvent::EdgeRemove { a: 3, b: 4 });
    events
}

#[test]
fn scores_match_offline_replay_bit_for_bit() {
    let dir = temp_dir("replay");
    let config = ServiceConfig {
        nodes: 16,
        interests: 8,
        pretrusted: 4,
        ..ServiceConfig::default()
    };
    let handle = boot(&dir, config, Duration::from_millis(20));
    let addr = handle.addr();
    let log_path = dir.join("events.jsonl");

    // Append in three batches with pauses, so the daemon takes several
    // ticks at boundaries this test does not control.
    let events = fixture_events();
    let lines: Vec<String> = events.iter().map(render_event).collect();
    let third = lines.len() / 3;
    for chunk in [
        &lines[..third],
        &lines[third..2 * third],
        &lines[2 * third..],
    ] {
        append_lines(&log_path, chunk);
        std::thread::sleep(Duration::from_millis(60));
    }
    wait_for_applied(addr, events.len() as u64);
    // One more poll round: applied == total guarantees the *next* tick
    // publishes the final board; wait until the board caught up too.
    let deadline = Instant::now() + Duration::from_secs(30);
    loop {
        let (_, body) = http_get(addr, "/score/0");
        if json_number(&body, "events_applied") as u64 == events.len() as u64 {
            break;
        }
        assert!(Instant::now() < deadline, "board never caught up: {body}");
        std::thread::sleep(Duration::from_millis(10));
    }

    // The daemon's own tick boundaries, then the offline replay.
    let (status, journal_body) = http_get(addr, "/journal");
    assert_eq!(status, 200);
    let journal: Vec<u64> = journal_body
        .trim_start_matches("{\"journal\":[")
        .trim_end_matches("]}")
        .split(',')
        .filter(|s| !s.is_empty())
        .map(|s| s.parse().expect("journal entry"))
        .collect();
    assert!(!journal.is_empty(), "no ticks recorded: {journal_body}");
    assert_eq!(*journal.last().unwrap(), events.len() as u64);
    let replayed = replay_offline(config, &events, &journal);

    for node in 0..config.nodes {
        let (status, body) = http_get(addr, &format!("/score/{node}"));
        assert_eq!(status, 200, "score {node}: {body}");
        let served = json_number(&body, "score");
        assert_eq!(
            served.to_bits(),
            replayed.scores[node].to_bits(),
            "node {node}: served {served} != replayed {}",
            replayed.scores[node]
        );
    }

    // /scores and /explain stay consistent with the same board.
    let (status, body) = http_get(addr, "/scores?top=5");
    assert_eq!(status, 200);
    assert_eq!(json_number(&body, "events_applied") as usize, events.len());
    let (status, body) = http_get(addr, "/explain/1");
    assert_eq!(status, 200, "explain: {body}");
    assert!(body.contains("\"entries\":"), "explain body: {body}");

    let state = handle.shutdown();
    assert_eq!(state.board().events_applied, events.len() as u64);
    // The daemon keeps no telemetry events: nothing drains them, so they
    // would grow by at least one per tick for its whole uptime.
    assert!(
        MetricsExport::collect(state.telemetry()).events.is_empty(),
        "the daemon must not buffer telemetry events"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn malformed_events_are_counted_and_skipped() {
    let dir = temp_dir("malformed");
    let config = ServiceConfig {
        nodes: 8,
        interests: 4,
        pretrusted: 2,
        ..ServiceConfig::default()
    };
    let handle = boot(&dir, config, Duration::from_millis(20));
    let addr = handle.addr();
    let log_path = dir.join("events.jsonl");

    append_lines(
        &log_path,
        &[
            r#"{"type":"edge_add","a":1,"b":2}"#.to_owned(),
            "this is not json".to_owned(),
            r#"{"type":"rating","rater":1,"ratee":1,"value":1.0}"#.to_owned(),
            r#"{"type":"rating","rater":1,"ratee":2,"value":99.0}"#.to_owned(),
            r#"{"type":"warp","x":1}"#.to_owned(),
            r#"{"type":"rating","rater":1,"ratee":2,"value":1.0,"interest":3}"#.to_owned(),
            // Valid JSON but out of the 8-node capacity: rejected, not malformed.
            r#"{"type":"rating","rater":1,"ratee":500,"value":1.0}"#.to_owned(),
            r#"{"type":"rating","rater":2,"ratee":1,"value":0.5}"#.to_owned(),
        ],
    );
    // One line of raw binary garbage: counted as invalid UTF-8, NOT as
    // malformed (malformed = valid text that fails to parse).
    append_raw(&log_path, &[0xFF, 0xFE, 0x80, b'x', b'\n']);
    wait_for_applied(addr, 3);

    // The invalid-UTF-8 line lands asynchronously with the batch above.
    let deadline = Instant::now() + Duration::from_secs(30);
    let body = loop {
        let (status, body) = http_get(addr, "/healthz");
        assert_eq!(status, 200);
        if json_number(&body, "events_invalid_utf8") as u64 == 1 {
            break body;
        }
        assert!(
            Instant::now() < deadline,
            "invalid-UTF-8 line never counted: {body}"
        );
        std::thread::sleep(Duration::from_millis(10));
    };
    assert_eq!(json_number(&body, "events_applied") as u64, 3, "{body}");
    assert_eq!(json_number(&body, "events_malformed") as u64, 4, "{body}");
    assert_eq!(json_number(&body, "events_rejected") as u64, 1, "{body}");

    // The daemon still serves: scores exist and metrics expose the counts.
    let (status, body) = http_get(addr, "/score/1");
    assert_eq!(status, 200, "{body}");
    let (status, metrics) = http_get(addr, "/metrics");
    assert_eq!(status, 200);
    let samples = socialtrust::telemetry::validate_exposition(&metrics)
        .expect("served /metrics must pass the exposition validator");
    assert!(samples > 0, "empty exposition");
    assert!(
        metrics.contains("server_events_malformed_total 4"),
        "{metrics}"
    );
    assert!(
        metrics.contains("server_events_rejected_total 1"),
        "{metrics}"
    );
    assert!(
        metrics.contains("server_events_invalid_utf8_total 1"),
        "{metrics}"
    );

    // Unknown routes and bad requests answer without harming the daemon.
    assert_eq!(http_get(addr, "/nope").0, 404);
    assert_eq!(http_get(addr, "/score/banana").0, 400);
    assert_eq!(http_get(addr, "/score/9999").0, 404);
    assert_eq!(http_get(addr, "/scores?top=banana").0, 400);
    let (status, _) = http_get(addr, "/healthz");
    assert_eq!(status, 200);

    handle.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

/// Parse every `{"node":N,"score":S}` row of a `/scores` body.
fn score_rows(body: &str) -> Vec<(usize, f64)> {
    body.split("{\"node\":")
        .skip(1)
        .map(|row| {
            let (node, rest) = row.split_once(",\"score\":").expect("score row");
            let score = rest.trim_end_matches([']', '}', ',']);
            (
                node.parse().expect("node id"),
                score.parse().expect("score value"),
            )
        })
        .collect()
}

#[test]
fn replay_carries_a_partial_line_into_the_tail() {
    let dir = temp_dir("replay-partial");
    let config = ServiceConfig {
        nodes: 16,
        interests: 8,
        pretrusted: 4,
        ..ServiceConfig::default()
    };
    // The backlog ends mid-way through its last event, as if the writer
    // were caught mid-append.
    let events = fixture_events();
    let lines: Vec<String> = events.iter().map(render_event).collect();
    let (last, whole) = lines.split_last().expect("fixture has events");
    let (head, rest) = last.split_at(last.len() / 2);
    let mut backlog = whole.join("\n");
    backlog.push('\n');
    backlog.push_str(head);
    let log_path = dir.join("events.jsonl");
    std::fs::write(&log_path, backlog).expect("write backlog");

    let handle = boot_tuned(&dir, config, Duration::from_millis(20), |server| {
        server.replay = true;
    });
    let addr = handle.addr();
    let board = handle.state().board();
    assert_eq!(board.tick, 1, "replay ticks once before binding");
    assert_eq!(board.events_applied, whole.len() as u64);

    append_lines(&log_path, &[rest.to_owned()]);
    wait_for_applied(addr, events.len() as u64);
    let (status, body) = http_get(addr, "/healthz");
    assert_eq!(status, 200);
    assert_eq!(json_number(&body, "events_applied") as usize, events.len());
    assert_eq!(json_number(&body, "events_malformed") as u64, 0, "{body}");
    assert_eq!(
        handle.state().events_ingested().get(),
        events.len() as u64,
        "the completed line was applied exactly once"
    );

    let (status, journal_body) = http_get(addr, "/journal");
    assert_eq!(status, 200);
    let journal: Vec<u64> = journal_body
        .trim_start_matches("{\"journal\":[")
        .trim_end_matches("]}")
        .split(',')
        .map(|s| s.parse().expect("journal entry"))
        .collect();
    assert_eq!(
        journal.first(),
        Some(&(whole.len() as u64)),
        "{journal_body}"
    );
    assert_eq!(
        journal.last(),
        Some(&(events.len() as u64)),
        "{journal_body}"
    );
    let replayed = replay_offline(config, &events, &journal);
    let (status, body) = http_get(addr, &format!("/scores?top={}", config.nodes));
    assert_eq!(status, 200);
    let rows = score_rows(&body);
    assert_eq!(rows.len(), config.nodes, "{body}");
    for (node, served) in rows {
        assert_eq!(
            served.to_bits(),
            replayed.scores[node].to_bits(),
            "node {node}: served {served} != replayed {}",
            replayed.scores[node]
        );
    }
    handle.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn overly_nested_line_is_malformed_not_fatal() {
    let dir = temp_dir("nested");
    let config = ServiceConfig {
        nodes: 8,
        interests: 4,
        pretrusted: 2,
        ..ServiceConfig::default()
    };
    let handle = boot(&dir, config, Duration::from_millis(20));
    let addr = handle.addr();
    // 100k levels: far past the 128-level cap, and more than one read
    // long; parsed by recursion it would overflow the ingest stack.
    append_lines(
        &dir.join("events.jsonl"),
        &[
            "[".repeat(100_000),
            r#"{"type":"edge_add","a":1,"b":2}"#.to_owned(),
        ],
    );
    wait_for_applied(addr, 1);
    let (status, body) = http_get(addr, "/healthz");
    assert_eq!(status, 200, "{body}");
    assert_eq!(json_number(&body, "events_applied") as u64, 1, "{body}");
    assert_eq!(json_number(&body, "events_malformed") as u64, 1, "{body}");
    handle.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn over_long_line_is_malformed_not_buffered() {
    let dir = temp_dir("longline");
    let config = ServiceConfig {
        nodes: 8,
        interests: 4,
        pretrusted: 2,
        ..ServiceConfig::default()
    };
    let handle = boot(&dir, config, Duration::from_millis(20));
    let addr = handle.addr();
    // A 2 MiB line, twice the framing cap: a valid event padded with an
    // unknown field, so only the cap keeps it from being applied.
    let padded = format!(
        r#"{{"type":"edge_add","a":1,"b":2,"pad":"{}"}}"#,
        "x".repeat(2 << 20)
    );
    append_lines(
        &dir.join("events.jsonl"),
        &[padded, r#"{"type":"edge_add","a":3,"b":4}"#.to_owned()],
    );
    wait_for_applied(addr, 1);
    let (status, body) = http_get(addr, "/healthz");
    assert_eq!(status, 200, "{body}");
    assert_eq!(json_number(&body, "events_applied") as u64, 1, "{body}");
    assert_eq!(json_number(&body, "events_malformed") as u64, 1, "{body}");
    handle.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn truncated_or_replaced_log_is_reopened() {
    let dir = temp_dir("rotate");
    let config = ServiceConfig {
        nodes: 32,
        interests: 4,
        pretrusted: 2,
        ..ServiceConfig::default()
    };
    let handle = boot(&dir, config, Duration::from_millis(20));
    let addr = handle.addr();
    let log_path = dir.join("events.jsonl");
    let edge = |a: u32| {
        render_event(&ServerEvent::EdgeAdd {
            a,
            b: a + 1,
            rel: RelKind::Friend,
        })
    };
    let reopens = || {
        handle
            .state()
            .telemetry()
            .registry()
            .counter("server_log_reopens_total")
            .get()
    };
    append_lines(&log_path, &(0..20).map(edge).collect::<Vec<_>>());
    wait_for_applied(addr, 20);
    // A half-written line the truncation must discard, not glue onto the
    // first line of the new content.
    append_raw(&log_path, br#"{"type":"edge_add","a":"#);
    std::thread::sleep(Duration::from_millis(50));

    // Copy-truncate rotation: the log shrinks below the tail's offset.
    std::fs::File::create(&log_path).expect("truncate log");
    append_lines(&log_path, &[edge(20), edge(21)]);
    wait_for_applied(addr, 22);
    assert_eq!(reopens(), 1);

    // Rename rotation: the path now names a new file.
    std::fs::rename(&log_path, dir.join("events.jsonl.1")).expect("rotate log");
    std::fs::write(&log_path, format!("{}\n", edge(22))).expect("start a new log");
    wait_for_applied(addr, 23);
    assert_eq!(reopens(), 2);

    let (status, body) = http_get(addr, "/healthz");
    assert_eq!(status, 200);
    assert_eq!(json_number(&body, "events_malformed") as u64, 0, "{body}");
    let (_, metrics) = http_get(addr, "/metrics");
    assert!(metrics.contains("server_log_reopens_total 2"), "{metrics}");
    handle.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn shutdown_drains_pending_log_lines() {
    let dir = temp_dir("drain");
    let config = ServiceConfig {
        nodes: 8,
        interests: 4,
        pretrusted: 2,
        ..ServiceConfig::default()
    };
    // Hour-long tick: only the shutdown drain can cover these events.
    let handle = boot(&dir, config, Duration::from_secs(3600));
    let log_path = dir.join("events.jsonl");
    append_lines(
        &log_path,
        &[
            r#"{"type":"edge_add","a":1,"b":2}"#.to_owned(),
            r#"{"type":"rating","rater":1,"ratee":2,"value":1.0}"#.to_owned(),
        ],
    );
    let state = handle.shutdown();
    let board = state.board();
    assert_eq!(board.events_applied, 2, "drain applied the tail");
    assert_eq!(board.tick, 1, "final tick covered the drained events");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn handoff_apply_and_freshness_are_exposed() {
    let dir = temp_dir("handoff-metrics");
    let handle = seed_daemon(&dir);
    let addr = handle.addr();
    // `seed_daemon` waited for a board covering its two appended events,
    // and the writer observes freshness when it publishes that board.
    let deadline = Instant::now() + Duration::from_secs(30);
    let metrics = loop {
        let (status, metrics) = http_get(addr, "/metrics");
        assert_eq!(status, 200);
        let count = metrics
            .lines()
            .find_map(|line| line.strip_prefix("server_event_freshness_seconds_count "))
            .map(|n| n.parse::<u64>().expect("freshness count"));
        if count.is_some_and(|n| n >= 1) {
            break metrics;
        }
        assert!(
            Instant::now() < deadline,
            "no freshness sample after a covering board: {metrics}"
        );
        std::thread::sleep(Duration::from_millis(50));
    };
    socialtrust::telemetry::validate_exposition(&metrics)
        .expect("served /metrics must pass the exposition validator");
    for family in [
        "server_ingest_handoff_seconds_count ",
        "server_ingest_apply_seconds_count ",
        "server_event_freshness_seconds_count ",
    ] {
        assert!(metrics.contains(family), "missing {family}: {metrics}");
    }
    handle.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn ingest_reads_while_the_writer_is_frozen() {
    let dir = temp_dir("frozen-writer");
    let handle = seed_daemon(&dir);
    let addr = handle.addr();
    let state = handle.state();
    let registry = state.telemetry().registry();
    let malformed = registry.counter("server_events_malformed_total");
    let handoffs = registry.histogram("server_ingest_handoff_seconds");
    let applied = state.events_ingested().get();
    let handed = handoffs.count();

    // Freeze the writer, and wait until it has stopped beating: from then
    // on it takes nothing off the handoff.
    state.set_tick_frozen(true);
    let deadline = Instant::now() + Duration::from_secs(30);
    loop {
        let (_, body) = http_get(addr, "/healthz");
        if json_number(&body, "heartbeat_age_seconds") >= 0.3 {
            break;
        }
        assert!(Instant::now() < deadline, "writer never froze: {body}");
        std::thread::sleep(Duration::from_millis(10));
    }

    // One write: a malformed line, then a valid event in the same batch.
    append_raw(
        &dir.join("events.jsonl"),
        b"not an event\n{\"type\":\"edge_add\",\"a\":3,\"b\":4}\n",
    );
    // Wait until the batch is handed over (or, wrongly, applied).
    let deadline = Instant::now() + Duration::from_secs(30);
    while malformed.get() < 1
        || (handoffs.count() <= handed && state.events_ingested().get() == applied)
    {
        assert!(
            Instant::now() < deadline,
            "ingest stopped while the writer was frozen: {} malformed, {} handoffs",
            malformed.get(),
            handoffs.count()
        );
        std::thread::sleep(Duration::from_millis(5));
    }
    assert_eq!(malformed.get(), 1);
    assert_eq!(
        state.events_ingested().get(),
        applied,
        "an event was applied while the writer was frozen"
    );
    assert_eq!(state.board().events_applied, applied);

    // Thawed, the writer applies the queued batch and the next board
    // covers it.
    state.set_tick_frozen(false);
    wait_for_applied(addr, applied + 1);
    assert_eq!(state.events_ingested().get(), applied + 1);
    handle.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

/// A tiny substrate every keep-alive test shares: two events so the
/// first tick publishes a non-boot board.
fn seed_daemon(dir: &Path) -> ServerHandle {
    let config = ServiceConfig {
        nodes: 8,
        interests: 4,
        pretrusted: 2,
        ..ServiceConfig::default()
    };
    let handle = boot(dir, config, Duration::from_millis(20));
    append_lines(
        &dir.join("events.jsonl"),
        &[
            r#"{"type":"edge_add","a":1,"b":2}"#.to_owned(),
            r#"{"type":"rating","rater":1,"ratee":2,"value":1.0}"#.to_owned(),
        ],
    );
    wait_for_applied(handle.addr(), 2);
    handle
}

#[test]
fn keep_alive_serves_sequential_requests_on_one_socket() {
    let dir = temp_dir("keepalive-seq");
    let handle = seed_daemon(&dir);
    let registry = handle.state().telemetry().registry();
    let connections_before = registry.counter("server_http_connections_total").get();
    let requests_before = registry.counter("server_http_requests_total").get();

    let mut conn = KaConn::connect(handle.addr());
    for (target, expect) in [
        ("/healthz", "\"status\":\"ok\""),
        ("/score/1", "\"node\":1"),
        ("/scores?top=3", "\"scores\":["),
        ("/scores", "\"scores\":["),
        ("/journal", "\"journal\":["),
        ("/metrics", "server_http_requests_total"),
    ] {
        conn.send(target);
        let (status, head, body) = conn.read_response();
        assert_eq!(status, 200, "{target}: {body}");
        assert!(
            head.contains("Connection: keep-alive"),
            "{target} head: {head}"
        );
        assert!(body.contains(expect), "{target} body: {body}");
    }

    let registry = handle.state().telemetry().registry();
    assert_eq!(
        registry.counter("server_http_connections_total").get(),
        connections_before + 1,
        "six requests rode one connection"
    );
    assert!(
        registry.counter("server_http_requests_total").get() >= requests_before + 6,
        "requests are counted per parsed request, not per connection"
    );

    handle.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn pipelined_requests_answer_in_order() {
    let dir = temp_dir("keepalive-pipeline");
    let handle = seed_daemon(&dir);
    let mut conn = KaConn::connect(handle.addr());
    conn.send_raw(
        b"GET /healthz HTTP/1.1\r\nHost: test\r\n\r\n\
          GET /score/1 HTTP/1.1\r\nHost: test\r\n\r\n",
    );
    let (status, _, body) = conn.read_response();
    assert_eq!(status, 200);
    assert!(body.contains("\"status\":\"ok\""), "first response: {body}");
    let (status, _, body) = conn.read_response();
    assert_eq!(status, 200);
    assert!(body.contains("\"node\":1"), "second response: {body}");
    handle.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn malformed_second_request_closes_cleanly() {
    let dir = temp_dir("keepalive-malformed");
    let handle = seed_daemon(&dir);
    let mut conn = KaConn::connect(handle.addr());
    conn.send("/healthz");
    let (status, _, _) = conn.read_response();
    assert_eq!(status, 200);
    conn.send_raw(b"THIS IS NOT HTTP\r\n\r\n");
    let (status, head, _) = conn.read_response();
    assert_eq!(status, 400, "malformed request head: {head}");
    assert!(head.contains("Connection: close"), "head: {head}");
    conn.expect_eof();
    handle.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn idle_connections_are_reaped_on_timeout() {
    let dir = temp_dir("keepalive-idle");
    let config = ServiceConfig {
        nodes: 8,
        interests: 4,
        pretrusted: 2,
        ..ServiceConfig::default()
    };
    let handle = boot_tuned(&dir, config, Duration::from_millis(20), |server| {
        server.http_idle_timeout = Duration::from_millis(200);
    });
    let mut conn = KaConn::connect(handle.addr());
    conn.send("/healthz");
    let (status, _, _) = conn.read_response();
    assert_eq!(status, 200);
    // No further requests: the server must close within the idle timeout
    // plus one poll sweep, well inside this client's 10s read timeout.
    conn.expect_eof();
    handle.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn request_cap_retires_connection_with_close() {
    let dir = temp_dir("keepalive-cap");
    let config = ServiceConfig {
        nodes: 8,
        interests: 4,
        pretrusted: 2,
        ..ServiceConfig::default()
    };
    let handle = boot_tuned(&dir, config, Duration::from_millis(20), |server| {
        server.http_max_requests = 2;
    });
    let mut conn = KaConn::connect(handle.addr());
    conn.send("/healthz");
    let (status, head, _) = conn.read_response();
    assert_eq!(status, 200);
    assert!(head.contains("Connection: keep-alive"), "head: {head}");
    conn.send("/healthz");
    let (status, head, _) = conn.read_response();
    assert_eq!(status, 200);
    assert!(
        head.contains("Connection: close"),
        "capped response must advertise close: {head}"
    );
    conn.expect_eof();
    handle.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn shutdown_drains_inflight_keepalive_connections() {
    let dir = temp_dir("keepalive-drain");
    let handle = seed_daemon(&dir);
    let mut conn = KaConn::connect(handle.addr());
    conn.send("/score/1");
    let (status, _, _) = conn.read_response();
    assert_eq!(status, 200);

    // Second request in flight while shutdown runs on another thread:
    // the drain must still answer it (Connection: close) before EOF.
    conn.send("/score/2");
    let shutdown = std::thread::spawn(move || handle.shutdown());
    let (status, _, body) = conn.read_response();
    assert_eq!(status, 200, "in-flight request answered during drain");
    assert!(body.contains("\"node\":2"), "drained response: {body}");
    conn.expect_eof();
    let state = shutdown.join().expect("shutdown thread");
    assert_eq!(state.board().events_applied, 2);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn healthz_flips_to_stalled_and_recovers() {
    let dir = temp_dir("health-stall");
    let config = ServiceConfig {
        nodes: 8,
        interests: 4,
        pretrusted: 2,
        ..ServiceConfig::default()
    };
    let blackbox = dir.join("blackbox.json");
    let handle = boot_tuned(&dir, config, Duration::from_millis(20), |server| {
        server.stall_after = Some(Duration::from_millis(300));
        server.record_interval = Duration::from_millis(50);
        server.blackbox_out = Some(dir.join("blackbox.json"));
    });
    let addr = handle.addr();
    append_lines(
        &dir.join("events.jsonl"),
        &[
            r#"{"type":"edge_add","a":1,"b":2}"#.to_owned(),
            r#"{"type":"rating","rater":1,"ratee":2,"value":1.0}"#.to_owned(),
        ],
    );
    wait_for_applied(addr, 2);
    let body = wait_for_health(addr, 200, "ok");
    assert!(body.contains("\"heartbeat_age_seconds\":"), "{body}");

    // Freeze the writer thread: the heartbeat stops, and once its age
    // crosses stall_after, /healthz must flip to 503 "stalled".
    handle.state().set_tick_frozen(true);
    let body = wait_for_health(addr, 503, "stalled");
    assert!(json_number(&body, "heartbeat_age_seconds") >= 0.3, "{body}");

    // The watchdog dumps the blackbox the moment it sees the stall.
    let deadline = Instant::now() + Duration::from_secs(30);
    let dump = loop {
        if let Ok(text) = std::fs::read_to_string(&blackbox) {
            if text.contains("\"reason\":\"stall\"") {
                break text;
            }
        }
        assert!(
            Instant::now() < deadline,
            "watchdog never dumped a stall blackbox"
        );
        std::thread::sleep(Duration::from_millis(20));
    };
    assert!(dump.contains("\"health\":\"stalled\""), "{dump}");
    assert!(json_number(&dump, "frames") >= 2.0, "{dump}");
    assert!(dump.contains("server_ticks_total"), "{dump}");

    // Thawing resumes heartbeats; health recovers without a restart.
    handle.state().set_tick_frozen(false);
    wait_for_health(addr, 200, "ok");

    // Shutdown overwrites the blackbox with the final window.
    handle.shutdown();
    let dump = std::fs::read_to_string(&blackbox).expect("shutdown blackbox");
    assert!(dump.contains("\"reason\":\"shutdown\""), "{dump}");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn debug_endpoints_serve_keepalive() {
    let dir = temp_dir("debug-keepalive");
    let config = ServiceConfig {
        nodes: 8,
        interests: 4,
        pretrusted: 2,
        ..ServiceConfig::default()
    };
    let handle = boot_tuned(&dir, config, Duration::from_millis(20), |server| {
        // Every request is "slow" so /debug/slow has entries to serve,
        // and the recorder runs fast enough to fill frames mid-test.
        server.slow_threshold = Duration::ZERO;
        server.record_interval = Duration::from_millis(50);
    });
    let addr = handle.addr();
    append_lines(
        &dir.join("events.jsonl"),
        &[
            r#"{"type":"edge_add","a":1,"b":2}"#.to_owned(),
            r#"{"type":"rating","rater":1,"ratee":2,"value":1.0}"#.to_owned(),
        ],
    );
    wait_for_applied(addr, 2);
    // Let the recorder take a few frames before asking for a window.
    std::thread::sleep(Duration::from_millis(200));

    let mut conn = KaConn::connect(addr);
    conn.send("/debug/vars");
    let (status, head, body) = conn.read_response();
    assert_eq!(status, 200, "{body}");
    assert!(head.contains("Connection: keep-alive"), "head: {head}");
    assert!(body.contains("\"metrics\":"), "{body}");
    assert!(body.contains("server_events_ingested_total"), "{body}");
    assert!(body.contains("\"uptime_seconds\":"), "{body}");

    conn.send("/debug/timeseries?window=8");
    let (status, head, body) = conn.read_response();
    assert_eq!(status, 200, "{body}");
    assert!(head.contains("Connection: keep-alive"), "head: {head}");
    assert!(json_number(&body, "frames") >= 1.0, "{body}");
    assert!(body.contains("\"series\":["), "{body}");
    assert!(body.contains("\"rate_per_second\":["), "{body}");
    assert!(body.contains("server_ticks_total"), "{body}");

    conn.send("/debug/slow");
    let (status, head, body) = conn.read_response();
    assert_eq!(status, 200, "{body}");
    assert!(head.contains("Connection: keep-alive"), "head: {head}");
    // The two /debug requests above crossed the zero threshold.
    assert!(
        body.contains("\"endpoint\":\"debug_vars\""),
        "slow ring: {body}"
    );
    assert!(json_number(&body, "recorded_total") >= 2.0, "{body}");

    // Bad query parameters answer 400 without killing the connection.
    conn.send("/debug/timeseries?window=banana");
    let (status, _, body) = conn.read_response();
    assert_eq!(status, 400, "{body}");
    conn.send("/debug/timeseries?frobnicate=1");
    let (status, _, body) = conn.read_response();
    assert_eq!(status, 400, "{body}");
    // …and the connection still serves afterwards.
    conn.send("/healthz");
    let (status, _, _) = conn.read_response();
    assert_eq!(status, 200);

    handle.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn sigterm_exits_cleanly() {
    let dir = temp_dir("sigterm");
    let log_path = dir.join("events.jsonl");
    std::fs::write(
        &log_path,
        "{\"type\":\"edge_add\",\"a\":1,\"b\":2}\n{\"type\":\"rating\",\"rater\":1,\"ratee\":2,\"value\":1.0}\n",
    )
    .unwrap();
    let metrics_path = dir.join("metrics.json");
    let blackbox_path = dir.join("blackbox.json");
    let mut child = std::process::Command::new(env!("CARGO_BIN_EXE_socialtrust-server"))
        .args([
            "--log",
            log_path.to_str().unwrap(),
            "--listen",
            "127.0.0.1:0",
            "--nodes",
            "8",
            "--interests",
            "4",
            "--pretrusted",
            "2",
            "--tick-ms",
            "20",
            "--record-ms",
            "50",
            "--replay",
            "--metrics-out",
            metrics_path.to_str().unwrap(),
            "--blackbox-out",
            blackbox_path.to_str().unwrap(),
            "--max-runtime-secs",
            "60",
        ])
        .stderr(std::process::Stdio::piped())
        .spawn()
        .expect("spawn daemon binary");

    // Wait until the daemon reports its listen address, then SIGTERM it.
    let mut stderr = child.stderr.take().expect("stderr piped");
    let mut seen = Vec::new();
    let deadline = Instant::now() + Duration::from_secs(30);
    while !String::from_utf8_lossy(&seen).contains("listening on http://") {
        assert!(Instant::now() < deadline, "daemon never reported listening");
        let mut byte = [0u8; 256];
        let n = stderr.read(&mut byte).expect("read child stderr");
        assert!(
            n > 0,
            "daemon stderr closed early: {:?}",
            String::from_utf8_lossy(&seen)
        );
        seen.extend_from_slice(&byte[..n]);
    }
    let term = std::process::Command::new("kill")
        .args(["-TERM", &child.id().to_string()])
        .status()
        .expect("run kill");
    assert!(term.success(), "kill -TERM failed");

    let deadline = Instant::now() + Duration::from_secs(30);
    let status = loop {
        if let Some(status) = child.try_wait().expect("try_wait") {
            break status;
        }
        assert!(Instant::now() < deadline, "daemon ignored SIGTERM");
        std::thread::sleep(Duration::from_millis(20));
    };
    let mut rest = String::new();
    let _ = stderr.read_to_string(&mut rest);
    let all = format!("{}{rest}", String::from_utf8_lossy(&seen));
    assert!(status.success(), "non-zero exit: {status:?}\n{all}");
    assert!(
        all.contains("clean shutdown"),
        "no shutdown summary:\n{all}"
    );
    assert!(
        metrics_path.exists(),
        "metrics document missing after shutdown:\n{all}"
    );
    // The SIGTERM'd daemon leaves a parseable blackbox with at least two
    // sampled frames of the server_* families.
    let blackbox = std::fs::read_to_string(&blackbox_path)
        .unwrap_or_else(|e| panic!("blackbox missing after shutdown: {e}\n{all}"));
    assert!(blackbox.contains("\"reason\":\"shutdown\""), "{blackbox}");
    assert!(json_number(&blackbox, "frames") >= 2.0, "{blackbox}");
    assert!(
        blackbox.contains("server_events_ingested_total"),
        "{blackbox}"
    );
    assert!(blackbox.contains("server_ticks_total"), "{blackbox}");
    let _ = std::fs::remove_dir_all(&dir);
}
