//! perfbench — end-to-end and per-layer benchmark of `socialtrust-server`.
//!
//! ```text
//! perfbench --server PATH --workload serve|stream --seed N --seconds S --trace 0|1
//! ```
//!
//! Each run generates its workload from the seed, starts the release daemon
//! as a child process (several times, to time set-up), drives it from the
//! seeded load generator, checks its outputs, and prints one JSON object
//! as the last line of standard output: the end-to-end metrics with
//! `--trace 0`, the per-layer metrics with `--trace 1`. See README.md.

mod client;
mod daemon;
mod gen;
mod load;
mod stats;
mod traced;

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use socialtrust::telemetry::Snapshot;
use socialtrust_server::event::parse_event;
use socialtrust_server::service::{replay_offline, ServiceConfig};

use client::{json_u64, Client};
use daemon::{peak_rss_mb, wait_applied, Daemon};
use gen::{Fate, Lines, Workload, INTERESTS, PRETRUSTED};
use stats::{due_latency_ns, freshness, median, median_of_windows, percentile, Tally};

/// Daemon start-ups per run; `setup_s` is their median.
const SETUP_REPS: usize = 3;
/// A query not answered 2xx within this long of its due time has failed.
const QUERY_DEADLINE_NS: u64 = 1_000_000_000;
/// How long the daemon gets to make every appended event visible.
const DRAIN_DEADLINE: Duration = Duration::from_secs(60);

struct Args {
    server: PathBuf,
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut server = None;
    let mut workload = None;
    let (mut seed, mut seconds, mut trace) = (1u64, 10.0f64, false);
    let mut argv = std::env::args().skip(1);
    while let Some(flag) = argv.next() {
        let value = argv.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("bad value {value:?} for {flag}: {e}");
        match flag.as_str() {
            "--server" => server = Some(PathBuf::from(&value)),
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = value.parse().map_err(|e| bad(&e))?,
            "--seconds" => seconds = value.parse().map_err(|e| bad(&e))?,
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad(&"expected 0 or 1")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if !(seconds > 0.0 && seconds <= 60.0) {
        return Err(format!("--seconds {seconds} outside (0, 60]"));
    }
    Ok(Args {
        server: server.ok_or("--server is required")?,
        workload: workload.ok_or("--workload is required")?,
        seed,
        seconds,
        trace,
    })
}

/// Metrics, check failures and operation counts of one run.
#[derive(Default)]
struct Report {
    end_to_end: Vec<(&'static str, f64)>,
    per_layer: Vec<(&'static str, f64)>,
    failures: Vec<String>,
    tally: Tally,
}

impl Report {
    fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.failures.push(what());
        }
    }
}

/// Unit of a metric, from its name.
fn unit(name: &str) -> &'static str {
    match name {
        "query_rps" | "ingest_eps" => "1/s",
        "rss_mb" => "MB",
        "colluder_trust_share" => "share",
        "service.board_bytes" | "snapshot.bytes_per_node" => "B",
        _ if name.ends_with("_ms") || name.contains("_ms_") => "ms",
        _ if name.ends_with("_us") => "us",
        _ if name.ends_with("_ns") => "ns",
        _ if name.ends_with("_s") => "s",
        _ if name.ends_with("_pct") => "%",
        _ => "count",
    }
}

fn main() {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    match run(&args) {
        Ok(report) => {
            let metrics = if args.trace {
                &report.per_layer
            } else {
                &report.end_to_end
            };
            let mut correct = report.failures.is_empty();
            let mut cells = Vec::new();
            for &(name, value) in metrics {
                if !value.is_finite() {
                    correct = false;
                    eprintln!("perfbench: metric {name} is not finite");
                }
                let value = if value.is_finite() { value } else { 0.0 };
                println!("{name:>26} {value:>16.6} {}", unit(name));
                cells.push(format!(
                    "\"{name}\": {{\"value\": {value}, \"unit\": \"{}\"}}",
                    unit(name)
                ));
            }
            for failure in &report.failures {
                println!("CHECK FAILED: {failure}");
            }
            println!(
                "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
                report.tally.attempted.max(1),
                report.tally.failed,
                cells.join(", ")
            );
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(1);
        }
    }
}

fn service_config(workload: &Workload) -> ServiceConfig {
    ServiceConfig {
        nodes: workload.spec.nodes as usize,
        interests: INTERESTS,
        pretrusted: PRETRUSTED as usize,
        ..ServiceConfig::default()
    }
}

/// Parse a `/scores` body into a score vector indexed by node.
fn parse_scores(body: &str, nodes: usize) -> Result<Vec<f64>, String> {
    let mut scores = vec![f64::NAN; nodes];
    let mut rest = body;
    let mut count = 0usize;
    while let Some(at) = rest.find("{\"node\":") {
        rest = &rest[at + 8..];
        let (node, tail) = rest.split_once(",\"score\":").ok_or("bad /scores row")?;
        let end = tail.find('}').ok_or("bad /scores row")?;
        let node: usize = node.parse().map_err(|_| "bad node id in /scores")?;
        let score: f64 = tail[..end].parse().map_err(|_| "bad score in /scores")?;
        *scores.get_mut(node).ok_or("node out of range in /scores")? = score;
        count += 1;
        rest = &tail[end..];
    }
    if count != nodes {
        return Err(format!("/scores returned {count} of {nodes} nodes"));
    }
    Ok(scores)
}

fn parse_journal(body: &str) -> Result<Vec<u64>, String> {
    let inner = body
        .split_once('[')
        .and_then(|(_, rest)| rest.split_once(']'))
        .ok_or("bad /journal body")?
        .0;
    inner
        .split(',')
        .filter(|s| !s.is_empty())
        .map(|s| s.parse().map_err(|_| format!("bad journal cell {s:?}")))
        .collect()
}

/// The registry snapshot inside a `/debug/vars` body.
fn parse_vars(body: &str) -> Result<Snapshot, String> {
    let at = body
        .find("\"metrics\":")
        .ok_or("no metrics in /debug/vars")?
        + 10;
    let inner = body[at..].strip_suffix('}').ok_or("bad /debug/vars body")?;
    serde_json::from_str(inner).map_err(|e| format!("/debug/vars: {e:?}"))
}

fn get(client: &mut Client, target: &str) -> Result<String, String> {
    let response = client
        .get(target)
        .map_err(|e| format!("GET {target}: {e}"))?;
    if response.status != 200 {
        return Err(format!("GET {target}: status {}", response.status));
    }
    Ok(response.text().to_string())
}

fn applied_events(lines: &Lines, limit: usize) -> Vec<socialtrust_server::event::ServerEvent> {
    (0..lines.len())
        .filter(|&i| lines.fates[i] == Fate::Applied)
        .take(limit)
        .map(|i| parse_event(lines.line(i)).expect("applied lines parse"))
        .collect()
}

/// Trust mass on the colluders after a deterministic offline replay of
/// the initial state plus a prefix of the later events, ticking once after
/// the initial state and then every `share_every` events.
fn colluder_trust_share(workload: &Workload) -> f64 {
    let spec = workload.spec;
    let mut events = applied_events(&workload.boot, usize::MAX);
    let boot = events.len() as u64;
    let later = applied_events(&workload.stream, spec.share_prefix);
    let rest = spec.share_prefix.saturating_sub(later.len());
    events.extend(later);
    events.extend(applied_events(&workload.burst, rest));
    let total = events.len() as u64;
    let mut journal: Vec<u64> = (boot..total).step_by(spec.share_every).collect();
    journal.push(total);
    journal.dedup();
    let board = replay_offline(service_config(workload), &events, &journal);
    workload
        .colluders
        .iter()
        .map(|&c| board.scores[c as usize])
        .sum()
}

fn run(args: &Args) -> Result<Report, String> {
    let spec = gen::spec(&args.workload)
        .ok_or_else(|| format!("unknown workload {:?} (serve|stream)", args.workload))?;
    let w = gen::generate(spec, args.seed, args.seconds);
    let dir = Path::new(".perfbench_out").join(spec.name);
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    let log = dir.join("events.jsonl");
    std::fs::write(&log, &w.boot.bytes).map_err(|e| format!("{}: {e}", log.display()))?;
    let logs = [&w.boot, &w.stream, &w.burst];
    let count = |fate| logs.iter().map(|l| l.count(fate)).sum::<u64>();
    let boot_applied = w.boot.count(Fate::Applied);
    let stream_applied = w.stream.count(Fate::Applied);
    let total_applied = count(Fate::Applied);
    let mut report = Report::default();

    // Set-up: start the daemon over the initial state several times; the
    // last one serves the rest of the run.
    let mut setups = Vec::new();
    let mut live = None;
    for rep in 0..SETUP_REPS {
        let started = Instant::now();
        let stderr = dir.join(format!("daemon-{rep}.log"));
        let daemon = Daemon::spawn(&args.server, &log, &spec, spec.replay_boot, &stderr)?;
        let mut client = Client::new(daemon.addr);
        let seen = wait_applied(&mut client, boot_applied, DRAIN_DEADLINE);
        if seen < boot_applied {
            return Err(format!("set-up saw {seen} of {boot_applied} events"));
        }
        setups.push(started.elapsed().as_secs_f64());
        if rep + 1 < SETUP_REPS {
            let status = daemon.terminate()?;
            report.check(status.success(), || {
                format!("set-up daemon exited {status}")
            });
        } else {
            live = Some(daemon);
        }
    }
    let daemon = live.expect("SETUP_REPS > 0");
    let setup_s = median(&setups).expect("set-up ran");
    let (addr, pid) = (daemon.addr, daemon.pid());
    let mut client = Client::new(addr);

    // Fixed-rate phase.
    let phase = load::run_phase(addr, &log, &w, pid, boot_applied + stream_applied)?;
    let appended: Vec<u64> = phase
        .append_ns
        .iter()
        .zip(&w.stream.fates)
        .filter(|(_, &f)| f == Fate::Applied)
        .map(|(&t, _)| t)
        .collect();
    let (fresh, fresh_boards) = freshness(&appended, boot_applied, &phase.seen);
    let fresh_ms: Vec<f64> = fresh.iter().map(|&ns| ns as f64 / 1e6).collect();
    let lag: Vec<f64> = phase
        .seen
        .iter()
        .map(|&(received, applied)| {
            let appended_by = appended.partition_point(|&t| t <= received) as u64;
            (boot_applied + appended_by).saturating_sub(applied) as f64
        })
        .collect();
    let mut latency_ms = Vec::new();
    let mut timed_latency = Vec::new();
    let mut non2xx = 0u64;
    let phase_queries = w.phase_queries();
    for (id, outcome) in phase.outcomes.iter().enumerate().take(phase.sent) {
        let latency = outcome
            .received_ns
            .map_or(u64::MAX, |r| due_latency_ns(w.queries[id].due_ns, r));
        report
            .tally
            .query(outcome.status, latency, QUERY_DEADLINE_NS);
        if outcome.status.is_some_and(|s| !(200..300).contains(&s)) {
            non2xx += 1;
        }
        if id < phase_queries && outcome.status == Some(200) {
            latency_ms.push(latency as f64 / 1e6);
            timed_latency.push((w.queries[id].due_ns, latency as f64 / 1e6));
        }
    }
    report.check(fresh.len() as u64 == stream_applied, || {
        format!(
            "freshness sampled {} of {stream_applied} events",
            fresh.len()
        )
    });

    // Saturation pass.
    let saturation = load::saturate(addr, &w, (args.seconds / 2.0).max(1.0))?;
    report.tally.attempted += saturation.completed + saturation.failed;
    report.tally.failed += saturation.failed;
    non2xx += saturation.failed;

    // Burst: ingest rate while ticks run.
    let ingested = |client: &mut Client| -> Result<u64, String> {
        json_u64(&get(client, "/debug/vars")?, "server_events_ingested_total")
            .ok_or_else(|| "no ingest counter in /debug/vars".to_string())
    };
    let ingest_before = ingested(&mut client)?;
    let burst_applied = w.burst.count(Fate::Applied);
    let burst_started = Instant::now();
    {
        use std::io::Write;
        let mut file = std::fs::OpenOptions::new()
            .append(true)
            .open(&log)
            .map_err(|e| format!("{}: {e}", log.display()))?;
        file.write_all(&w.burst.bytes)
            .map_err(|e| format!("append burst: {e}"))?;
    }
    loop {
        if ingested(&mut client)? >= ingest_before + burst_applied {
            break;
        }
        if burst_started.elapsed() > DRAIN_DEADLINE {
            return Err("burst was not ingested".into());
        }
        std::thread::sleep(Duration::from_millis(5));
    }
    let ingest_eps = burst_applied as f64 / burst_started.elapsed().as_secs_f64();
    let visible = wait_applied(&mut client, total_applied, DRAIN_DEADLINE);
    report.tally.events(total_applied, visible);

    // Sequential round trips per endpoint.
    let colluder = w.colluders[0];
    let http_us = [
        (
            "http.score_us",
            load::round_trip_us(&mut client, "/score/17", 400)?,
        ),
        (
            "http.scores_us",
            load::round_trip_us(&mut client, "/scores?top=100", 100)?,
        ),
        (
            "http.explain_us",
            load::round_trip_us(&mut client, &format!("/explain/{colluder}"), 100)?,
        ),
        (
            "http.metrics_us",
            load::round_trip_us(&mut client, "/metrics", 20)?,
        ),
    ];

    // Final state, then a clean shutdown.
    let health = get(&mut client, "/healthz")?;
    let vars = parse_vars(&get(&mut client, "/debug/vars")?)?;
    let journal = parse_journal(&get(&mut client, "/journal")?)?;
    let scores = parse_scores(
        &get(&mut client, &format!("/scores?top={}", spec.nodes))?,
        spec.nodes as usize,
    )?;
    let rss_mb = peak_rss_mb(pid).ok_or("cannot read daemon VmHWM")?;
    drop(client);
    let status = daemon.terminate()?;
    report.check(status.success(), || {
        format!("daemon exited {status} after SIGTERM")
    });

    let counts = [
        ("events_applied", total_applied),
        ("events_malformed", count(Fate::Malformed)),
        ("events_rejected", count(Fate::Rejected)),
    ];
    for (key, expected) in counts {
        let got = json_u64(&health, key);
        report.check(got == Some(expected), || {
            format!("daemon {key} = {got:?}, generator expects {expected}")
        });
    }
    let sum: f64 = scores.iter().sum();
    report.check(scores.iter().all(|s| s.is_finite()), || {
        "non-finite score".into()
    });
    report.check((sum - 1.0).abs() < 1e-6, || format!("scores sum to {sum}"));
    if spec.name == "stream" {
        for b in 1..=4 {
            let fired = vars.counter(&format!("detector_b{b}_triggers_total"));
            report.check(fired > 0, || format!("B{b} never fired"));
        }
    }

    // Offline replays at the daemon's tick boundaries: the daemon's final
    // board must be reproduced bit for bit.
    let config = service_config(&w);
    let plain = traced::replay(config, &logs, &journal, boot_applied, &w.colluders, false)?;
    let daemon_bits = traced::bits(&scores);
    report.check(traced::bits(&plain.board.scores) == daemon_bits, || {
        "offline replay differs from the daemon's final board".into()
    });
    let share = colluder_trust_share(&w);

    let q = |v: &[f64], p| percentile(v, p).unwrap_or(f64::NAN);
    report.end_to_end = vec![
        ("setup_s", setup_s),
        (
            "query_rps",
            median(&saturation.slice_rates).unwrap_or(f64::NAN),
        ),
        ("freshness_p50_ms", q(&fresh_ms, 50.0)),
        ("freshness_p99_ms", q(&fresh_ms, 99.0)),
        ("ingest_eps", ingest_eps),
        ("daemon_cpu_s", phase.cpu_s),
        ("rss_mb", rss_mb),
        ("colluder_trust_share", share),
    ];
    let ticks = vars.histogram("server_tick_seconds");
    println!(
        "{}: seed {} | initial state {} lines, {:.2} MB | set-up runs {:?} s | {} freshness samples over {} boards | {} timed queries | saturation {} queries in {:.2} s | daemon ticks {} (mean {:.1} ms)",
        spec.name,
        args.seed,
        w.boot.len(),
        w.boot.bytes.len() as f64 / 1e6,
        setups.iter().map(|s| (s * 1e3).round() / 1e3).collect::<Vec<_>>(),
        fresh.len(),
        fresh_boards,
        latency_ms.len(),
        saturation.completed,
        saturation.seconds,
        ticks.map_or(0, |h| h.count),
        ticks.and_then(|h| h.mean()).unwrap_or(0.0) * 1e3,
    );
    if args.trace {
        let traced = traced::replay(config, &logs, &journal, boot_applied, &w.colluders, true)?;
        report.check(traced::bits(&traced.board.scores) == daemon_bits, || {
            "traced replay differs from the daemon's final board".into()
        });
        traced
            .write_spans(&dir.join("spans.tsv"))
            .map_err(|e| format!("write spans: {e}"))?;
        let daemon_apply_s = vars
            .histogram("server_ingest_apply_seconds")
            .map_or(0.0, |h| h.sum);
        let mut layers: BTreeMap<&'static str, f64> = traced.layers;
        let untraced = [
            ("ingest.lag_events_p50", q(&lag, 50.0)),
            ("ingest.lag_events_max", q(&lag, 100.0)),
            ("ingest.split_s", setup_s - traced.boot_s),
            ("service.lock_wait_s", daemon_apply_s - traced.apply_s),
            ("replay.wall_s", plain.wall_s),
            (
                "http.query_p50_ms",
                median_of_windows(&timed_latency, 1_000_000_000).unwrap_or(f64::NAN),
            ),
            ("http.query_p99_ms", q(&latency_ms, 99.0)),
            ("http.query_samples", latency_ms.len() as f64),
            (
                "http.reconnects",
                (phase.reconnects + saturation.reconnects) as f64,
            ),
            ("http.non2xx", non2xx as f64),
            ("gen.late_ms_max", phase.late_ns_max as f64 / 1e6),
            ("freshness.samples", fresh.len() as f64),
            ("freshness.boards", fresh_boards as f64),
            (
                "bench.trace_overhead_pct",
                (traced.wall_s - plain.wall_s) / plain.wall_s * 100.0,
            ),
        ];
        layers.extend(untraced);
        layers.extend(http_us);
        report.per_layer = layers.into_iter().collect();
    }
    Ok(report)
}
