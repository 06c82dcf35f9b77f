//! `socialtrust-server` — the long-running reputation daemon.
//!
//! ```text
//! socialtrust-server --log events.jsonl --listen 127.0.0.1:8080
//! ```
//!
//! Flags (hand-parsed; the workspace carries no CLI dependency):
//!
//! * `--log PATH` — append-only JSONL event log to tail (required;
//!   created empty if absent).
//! * `--listen ADDR` — listen address, default `127.0.0.1:8080`
//!   (port 0 picks an ephemeral port, printed on boot).
//! * `--nodes N` / `--interests N` / `--pretrusted N` — pipeline
//!   capacity (defaults 1024 / 64 / 16).
//! * `--tick-ms MS` — recompute interval, default 200.
//! * `--workers N` — HTTP worker threads, default 4.
//! * `--http-idle-ms MS` — close keep-alive connections idle longer than
//!   this, default 5000.
//! * `--http-max-requests N` — retire a keep-alive connection after N
//!   requests, default 1000.
//! * `--replay` — apply the log's existing backlog and tick once before
//!   binding, so the daemon goes live warm.
//! * `--metrics-out PATH` — write a final `MetricsExport` JSON document
//!   on shutdown. Its `events` list is always empty: the daemon keeps no
//!   event log (verdicts are on `/explain`, counts on `/metrics`).
//! * `--max-runtime-secs S` — exit cleanly after S seconds (CI smoke
//!   harnesses use this as a belt-and-braces bound alongside SIGTERM).
//! * `--log-level LEVEL` — minimum log severity
//!   (`error|warn|info|debug|trace`), default `info`.
//! * `--log-json` — emit JSONL log records instead of text.
//! * `--record-ms MS` — flight-recorder sampling interval, default 250.
//! * `--slow-ms MS` — requests at or above this latency land in the
//!   `/debug/slow` ring, default 100.
//! * `--blackbox-out PATH` — dump the flight-recorder window as JSON on
//!   shutdown or on a watchdog-detected stall.
//!
//! On SIGTERM/SIGINT the daemon drains: the ingest thread reads the log
//! to EOF, one final tick covers whatever the drain applied, HTTP
//! workers stop, the optional metrics document and blackbox are
//! written, and a one-line summary goes to stderr before a clean
//! exit 0.

use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

use socialtrust::telemetry::{Level, Logger, MetricsExport};
use socialtrust_server::service::ServiceConfig;
use socialtrust_server::ServerConfig;

/// Flipped by the signal handler; polled by the main loop.
static SHUTDOWN: AtomicBool = AtomicBool::new(false);

extern "C" fn on_signal(_signum: i32) {
    SHUTDOWN.store(true, Ordering::SeqCst);
}

#[cfg(unix)]
fn install_signal_handlers() {
    // Direct signal(2) FFI: the workspace vendors no libc crate, and the
    // handler only touches an AtomicBool (async-signal-safe).
    extern "C" {
        fn signal(signum: i32, handler: extern "C" fn(i32)) -> usize;
    }
    const SIGINT: i32 = 2;
    const SIGTERM: i32 = 15;
    unsafe {
        signal(SIGINT, on_signal);
        signal(SIGTERM, on_signal);
    }
}

#[cfg(not(unix))]
fn install_signal_handlers() {}

struct Args {
    config: ServerConfig,
    metrics_out: Option<PathBuf>,
    max_runtime: Option<Duration>,
}

fn usage() -> ! {
    eprintln!(
        "usage: socialtrust-server --log events.jsonl [--listen 127.0.0.1:8080] \
         [--nodes 1024] [--interests 64] [--pretrusted 16] [--tick-ms 200] \
         [--workers 4] [--http-idle-ms 5000] [--http-max-requests 1000] \
         [--replay] [--metrics-out PATH] [--max-runtime-secs S] \
         [--log-level info] [--log-json] [--record-ms 250] [--slow-ms 100] \
         [--blackbox-out PATH]"
    );
    std::process::exit(2);
}

fn parse_args() -> Args {
    let mut log_path: Option<PathBuf> = None;
    let mut config = ServerConfig::default();
    let mut service = ServiceConfig::default();
    let mut metrics_out = None;
    let mut max_runtime = None;
    let mut argv = std::env::args().skip(1);
    let value = |argv: &mut dyn Iterator<Item = String>, flag: &str| -> String {
        argv.next().unwrap_or_else(|| {
            eprintln!("socialtrust-server: {flag} needs a value");
            usage();
        })
    };
    fn number<T: std::str::FromStr>(raw: &str, flag: &str) -> T {
        raw.parse().unwrap_or_else(|_| {
            eprintln!("socialtrust-server: bad value {raw:?} for {flag}");
            usage();
        })
    }
    while let Some(arg) = argv.next() {
        match arg.as_str() {
            "--log" => log_path = Some(PathBuf::from(value(&mut argv, "--log"))),
            "--listen" => config.listen = value(&mut argv, "--listen"),
            "--nodes" => service.nodes = number(&value(&mut argv, "--nodes"), "--nodes"),
            "--interests" => {
                service.interests = number(&value(&mut argv, "--interests"), "--interests")
            }
            "--pretrusted" => {
                service.pretrusted = number(&value(&mut argv, "--pretrusted"), "--pretrusted")
            }
            "--tick-ms" => {
                let ms: u64 = number(&value(&mut argv, "--tick-ms"), "--tick-ms");
                config.tick_interval = Duration::from_millis(ms.max(1));
            }
            "--workers" => config.workers = number(&value(&mut argv, "--workers"), "--workers"),
            "--http-idle-ms" => {
                let ms: u64 = number(&value(&mut argv, "--http-idle-ms"), "--http-idle-ms");
                config.http_idle_timeout = Duration::from_millis(ms.max(1));
            }
            "--http-max-requests" => {
                let n: usize = number(
                    &value(&mut argv, "--http-max-requests"),
                    "--http-max-requests",
                );
                config.http_max_requests = n.max(1);
            }
            "--replay" => config.replay = true,
            "--log-level" => {
                config.log_level = number::<Level>(&value(&mut argv, "--log-level"), "--log-level")
            }
            "--log-json" => config.log_json = true,
            "--record-ms" => {
                let ms: u64 = number(&value(&mut argv, "--record-ms"), "--record-ms");
                config.record_interval = Duration::from_millis(ms.max(10));
            }
            "--slow-ms" => {
                let ms: u64 = number(&value(&mut argv, "--slow-ms"), "--slow-ms");
                config.slow_threshold = Duration::from_millis(ms);
            }
            "--blackbox-out" => {
                config.blackbox_out = Some(PathBuf::from(value(&mut argv, "--blackbox-out")))
            }
            "--metrics-out" => metrics_out = Some(PathBuf::from(value(&mut argv, "--metrics-out"))),
            "--max-runtime-secs" => {
                let secs: u64 = number(
                    &value(&mut argv, "--max-runtime-secs"),
                    "--max-runtime-secs",
                );
                max_runtime = Some(Duration::from_secs(secs));
            }
            "--help" | "-h" => usage(),
            other => {
                eprintln!("socialtrust-server: unknown flag {other:?}");
                usage();
            }
        }
    }
    let Some(log_path) = log_path else {
        eprintln!("socialtrust-server: --log is required");
        usage();
    };
    config.log_path = log_path;
    config.service = service;
    Args {
        config,
        metrics_out,
        max_runtime,
    }
}

fn main() {
    let args = parse_args();
    // The binary's own logger: same level/format as the daemon's, so
    // boot and shutdown lines interleave consistently with thread logs.
    let log = Logger::stderr(args.config.log_level, args.config.log_json);
    install_signal_handlers();
    let started = Instant::now();
    let handle = match socialtrust_server::start(args.config) {
        Ok(handle) => handle,
        Err(e) => {
            log.error(
                "server",
                "failed to start",
                &[("error", e.to_string().into())],
            );
            std::process::exit(1);
        }
    };
    log.info(
        "server",
        &format!("listening on http://{}", handle.addr()),
        &[],
    );

    // The threads do all the work; the main loop just waits for a stop
    // condition (signal or runtime bound).
    loop {
        if SHUTDOWN.load(Ordering::SeqCst) {
            log.info("server", "signal received, draining", &[]);
            break;
        }
        if let Some(bound) = args.max_runtime {
            if started.elapsed() >= bound {
                log.info("server", "max runtime reached, draining", &[]);
                break;
            }
        }
        std::thread::sleep(Duration::from_millis(20));
    }

    let state = handle.shutdown();
    if let Some(path) = &args.metrics_out {
        let export = MetricsExport::collect(state.telemetry());
        match export.write_to(path) {
            Ok(()) => log.info(
                "server",
                "metrics written",
                &[("path", path.display().to_string().into())],
            ),
            Err(e) => log.error(
                "server",
                "failed to write metrics",
                &[
                    ("path", path.display().to_string().into()),
                    ("error", e.to_string().into()),
                ],
            ),
        }
    }
    let board = state.board();
    log.info(
        "server",
        &format!(
            "clean shutdown after {:.1}s — {} tick(s), {} event(s) applied",
            started.elapsed().as_secs_f64(),
            board.tick,
            board.events_applied,
        ),
        &[],
    );
}
