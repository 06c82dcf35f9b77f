//! The load generator: a fixed-rate appender thread plus an open-loop
//! pipelined query stream on the calling thread, then a window-limited
//! saturation pass.

use std::collections::VecDeque;
use std::fs::OpenOptions;
use std::io::Write;
use std::net::SocketAddr;
use std::path::Path;
use std::time::{Duration, Instant};

use crate::client::{precise_timers, Client, Conn};
use crate::daemon::cpu_seconds;
use crate::gen::{Kind, Workload};

/// What one query of the schedule saw.
#[derive(Debug, Clone, Copy, Default)]
pub struct Outcome {
    pub received_ns: Option<u64>,
    pub status: Option<u16>,
}

/// Raw observations of the fixed-rate phase.
pub struct Phase {
    /// When each fixed-rate line was written to the log.
    pub append_ns: Vec<u64>,
    /// Per scheduled query (only a prefix is sent when the grace period
    /// ends early).
    pub outcomes: Vec<Outcome>,
    /// Queries sent (the rest of the schedule was grace not needed).
    pub sent: usize,
    /// `(received_ns, events_applied)` of every response carrying it, in
    /// arrival order.
    pub seen: Vec<(u64, u64)>,
    pub late_ns_max: u64,
    pub reconnects: u64,
    pub cpu_s: f64,
}

/// Append `workload.stream` at its fixed rate while running the query
/// schedule. Queries past the phase (the grace period) are sent only until
/// a response shows `applied_target` events.
pub fn run_phase(
    addr: SocketAddr,
    log: &Path,
    workload: &Workload,
    pid: u32,
    applied_target: u64,
) -> Result<Phase, String> {
    let mut file = OpenOptions::new()
        .append(true)
        .open(log)
        .map_err(|e| format!("{}: {e}", log.display()))?;
    let lines = &workload.stream;
    let phase_ns = (workload.seconds * 1e9) as u64;
    let cpu_start = cpu_seconds(pid).ok_or("cannot read daemon CPU time")?;
    let t0 = Instant::now();
    std::thread::scope(|scope| {
        let appender = scope.spawn(move || -> Result<(Vec<u64>, u64), String> {
            let mut append_ns = vec![0u64; lines.len()];
            let mut late = 0u64;
            let mut next = 0usize;
            while next < lines.len() {
                let now = t0.elapsed().as_nanos() as u64;
                let mut due = next;
                while due < lines.len() && workload.event_due_ns(due) <= now {
                    due += 1;
                }
                if due == next {
                    // Appending in batches of at least a millisecond keeps
                    // the generator's own wake-ups off the daemon's cores.
                    let wait = workload.event_due_ns(next) - now;
                    std::thread::sleep(Duration::from_nanos(wait.max(1_000_000)));
                    continue;
                }
                file.write_all(lines.span(next, due))
                    .map_err(|e| format!("append: {e}"))?;
                let written = t0.elapsed().as_nanos() as u64;
                for (k, slot) in append_ns.iter_mut().enumerate().take(due).skip(next) {
                    *slot = written;
                    late = late.max(written.saturating_sub(workload.event_due_ns(k)));
                }
                next = due;
            }
            Ok((append_ns, late))
        });
        let queries = query_loop(addr, workload, t0, phase_ns, applied_target, pid);
        let (append_ns, append_late) = appender
            .join()
            .map_err(|_| "appender thread panicked".to_string())??;
        let (mut phase, cpu_end) = queries?;
        phase.append_ns = append_ns;
        phase.late_ns_max = phase.late_ns_max.max(append_late);
        phase.cpu_s = cpu_end - cpu_start;
        Ok(phase)
    })
}

fn query_loop(
    addr: SocketAddr,
    workload: &Workload,
    t0: Instant,
    phase_ns: u64,
    applied_target: u64,
    pid: u32,
) -> Result<(Phase, f64), String> {
    precise_timers();
    let queries = &workload.queries;
    let mut outcomes = vec![Outcome::default(); queries.len()];
    let mut seen = Vec::new();
    let mut conn = Conn::connect(addr).map_err(|e| format!("connect: {e}"))?;
    let mut resend: VecDeque<usize> = VecDeque::new();
    let (mut next, mut late, mut reconnects) = (0usize, 0u64, 0u64);
    let mut cpu_end = None;
    let mut max_applied = 0u64;
    let give_up = phase_ns + 30_000_000_000;
    loop {
        let now = t0.elapsed().as_nanos() as u64;
        if cpu_end.is_none() && now >= phase_ns {
            cpu_end = Some(cpu_seconds(pid).ok_or("cannot read daemon CPU time")?);
        }
        if conn.spent() {
            resend.extend(conn.inflight.drain(..));
            conn = Conn::connect(addr).map_err(|e| format!("reconnect: {e}"))?;
            reconnects += 1;
        }
        let grace_over = now >= phase_ns && max_applied >= applied_target;
        while conn.open() && !resend.is_empty() {
            let id = resend.pop_front().expect("checked non-empty");
            conn.send(id, &queries[id].target);
        }
        while conn.open() && next < queries.len() && queries[next].due_ns <= now && !grace_over {
            conn.send(next, &queries[next].target);
            let sent = t0.elapsed().as_nanos() as u64;
            late = late.max(sent.saturating_sub(queries[next].due_ns));
            next += 1;
        }
        let done_sending = grace_over || next == queries.len();
        if done_sending && conn.inflight.is_empty() && resend.is_empty() && cpu_end.is_some() {
            break;
        }
        if now > give_up {
            break; // the unanswered queries are counted as failed
        }
        let wait = queries
            .get(next)
            .filter(|_| !done_sending)
            .map_or(1_000_000, |q| q.due_ns.saturating_sub(now))
            .clamp(20_000, 1_000_000);
        conn.poll(Duration::from_nanos(wait), |id, response| {
            let received = t0.elapsed().as_nanos() as u64;
            let outcome = &mut outcomes[id];
            outcome.received_ns = Some(received);
            outcome.status = Some(response.status);
            if queries[id].kind.shows_applied() {
                if let Some(applied) = response.events_applied() {
                    max_applied = max_applied.max(applied);
                    seen.push((received, applied));
                }
            }
        })
        .map_err(|e| format!("poll: {e}"))?;
    }
    let phase = Phase {
        append_ns: Vec::new(),
        outcomes,
        sent: next,
        seen,
        late_ns_max: late,
        reconnects,
        cpu_s: 0.0,
    };
    let cpu_end = match cpu_end {
        Some(cpu) => cpu,
        None => cpu_seconds(pid).ok_or("cannot read daemon CPU time")?,
    };
    Ok((phase, cpu_end))
}

/// Result of the saturation pass.
pub struct Saturation {
    pub completed: u64,
    pub failed: u64,
    pub seconds: f64,
    pub reconnects: u64,
    /// Completions per second in each `SLICE` of the counted window.
    pub slice_rates: Vec<f64>,
}

/// The saturation pass reports the median rate over slices this long, so
/// a stall in a few slices does not set the figure.
const SLICE: Duration = Duration::from_millis(500);

/// Requests kept in flight during the saturation pass.
const WINDOW: usize = 64;

/// Untimed lead-in of the saturation pass, so connections and the
/// daemon's per-board caches are warm when counting starts.
const WARM_UP: Duration = Duration::from_millis(500);

/// One connection keeping `WINDOW` requests in flight for `seconds` after
/// a warm-up. One client thread against one daemon worker keeps the pass
/// to the box's two cores. Both workloads use the same mix, per 20
/// requests: 16 `/score` lookups (the schedule's node ids), one
/// `/scores?top=100` (rank-prefix slice), one `/scores?top=5000`
/// (partial-sort fallback at 10k nodes and above) and two `/healthz`.
/// The sorts give the pass CPU work to measure rather than only
/// round trips, whose rate swings with host scheduling.
pub fn saturate(addr: SocketAddr, workload: &Workload, seconds: f64) -> Result<Saturation, String> {
    let scores: Vec<&str> = workload
        .queries
        .iter()
        .filter(|q| q.kind == Kind::Score)
        .map(|q| q.target.as_str())
        .collect();
    let targets: Vec<&str> = (0..scores.len())
        .map(|k| match k % 20 {
            16 => "/scores?top=100",
            17 => "/scores?top=5000",
            18 | 19 => "/healthz",
            _ => scores[k],
        })
        .collect();
    let window_end = WARM_UP + Duration::from_secs_f64(seconds);
    let slices = (seconds / SLICE.as_secs_f64()).ceil().max(1.0) as usize;
    let mut counts = vec![0u64; slices];
    let mut out = Saturation {
        completed: 0,
        failed: 0,
        seconds,
        reconnects: 0,
        slice_rates: Vec::new(),
    };
    let mut conn = Conn::connect(addr).map_err(|e| format!("connect: {e}"))?;
    let mut cursor = 0usize;
    let t0 = Instant::now();
    loop {
        let sending = t0.elapsed() < window_end;
        if conn.spent() && sending {
            // Requests lost on a connection the server closed early are
            // not counted: the pass counts completions.
            conn = Conn::connect(addr).map_err(|e| format!("reconnect: {e}"))?;
            out.reconnects += 1;
        }
        while sending && conn.open() && conn.inflight.len() < WINDOW {
            conn.send(cursor, targets[cursor % targets.len()]);
            cursor += 1;
        }
        if !sending && (conn.inflight.is_empty() || conn.retired) {
            out.slice_rates = counts
                .iter()
                .map(|&c| c as f64 / SLICE.as_secs_f64())
                .collect();
            return Ok(out);
        }
        conn.poll(Duration::from_millis(5), |_, response| {
            if (200..300).contains(&response.status) {
                let at = t0.elapsed();
                if at >= WARM_UP && at < window_end {
                    out.completed += 1;
                    let slice = ((at - WARM_UP).as_nanos() / SLICE.as_nanos()) as usize;
                    counts[slice.min(slices - 1)] += 1;
                }
            } else {
                out.failed += 1;
            }
        })
        .map_err(|e| format!("poll: {e}"))?;
    }
}

/// Median round-trip time, in µs, of `count` sequential GETs of `target`.
pub fn round_trip_us(client: &mut Client, target: &str, count: usize) -> Result<f64, String> {
    let mut times = Vec::with_capacity(count);
    for _ in 0..count {
        let started = Instant::now();
        let response = client
            .get(target)
            .map_err(|e| format!("GET {target}: {e}"))?;
        times.push(started.elapsed().as_secs_f64() * 1e6);
        if response.status != 200 {
            return Err(format!("GET {target}: status {}", response.status));
        }
    }
    crate::stats::median(&times).ok_or_else(|| "no round trips".into())
}
