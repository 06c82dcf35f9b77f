//! The daemon as a child process, observed only from outside: its log
//! file, HTTP and `/proc/<pid>`.

use std::fs::File;
use std::net::SocketAddr;
use std::path::Path;
use std::process::{Child, Command, ExitStatus, Stdio};
use std::time::{Duration, Instant};

use crate::client::{Client, MAX_REQUESTS};
use crate::gen::{Spec, INTERESTS, PRETRUSTED};

/// How long a daemon may take to come up or to drain before the run fails.
const START_DEADLINE: Duration = Duration::from_secs(120);
const STOP_DEADLINE: Duration = Duration::from_secs(60);

extern "C" {
    fn kill(pid: i32, sig: i32) -> i32;
    fn sysconf(name: i32) -> i64;
}
const SIGTERM: i32 = 15;
const SC_CLK_TCK: i32 = 2;

/// A running `socialtrust-server`. Dropping it kills and reaps the process.
pub struct Daemon {
    child: Child,
    pub addr: SocketAddr,
}

impl Daemon {
    /// Spawn the daemon over `log` and wait until it listens.
    pub fn spawn(
        bin: &Path,
        log: &Path,
        spec: &Spec,
        replay: bool,
        stderr: &Path,
    ) -> Result<Daemon, String> {
        let mut command = Command::new(bin);
        command
            .arg("--log")
            .arg(log)
            .args(["--listen", "127.0.0.1:0"])
            .args(["--nodes", &spec.nodes.to_string()])
            .args(["--interests", &INTERESTS.to_string()])
            .args(["--pretrusted", &PRETRUSTED.to_string()])
            .args(["--tick-ms", &spec.tick_ms.to_string()])
            .args(["--http-max-requests", &MAX_REQUESTS.to_string()])
            .args(["--max-runtime-secs", "170"]);
        if replay {
            command.arg("--replay");
        }
        let err = File::create(stderr).map_err(|e| format!("{}: {e}", stderr.display()))?;
        let child = command
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(err)
            .spawn()
            .map_err(|e| format!("spawn {}: {e}", bin.display()))?;
        let mut daemon = Daemon {
            child,
            addr: SocketAddr::from(([127, 0, 0, 1], 0)),
        };
        let started = Instant::now();
        loop {
            let text = std::fs::read_to_string(stderr).unwrap_or_default();
            if let Some(at) = text.find("listening on http://") {
                let rest = &text[at + "listening on http://".len()..];
                let addr = rest.split_whitespace().next().unwrap_or_default();
                daemon.addr = addr
                    .parse()
                    .map_err(|e| format!("bad listen address {addr:?}: {e}"))?;
                return Ok(daemon);
            }
            if let Ok(Some(status)) = daemon.child.try_wait() {
                return Err(format!("daemon exited during start-up: {status}\n{text}"));
            }
            if started.elapsed() > START_DEADLINE {
                return Err("daemon did not start listening".into());
            }
            std::thread::sleep(Duration::from_millis(2));
        }
    }

    pub fn pid(&self) -> u32 {
        self.child.id()
    }

    /// SIGTERM, then wait for the drain to finish.
    pub fn terminate(mut self) -> Result<ExitStatus, String> {
        // SAFETY: kill(2) takes plain integers; the pid is our own child,
        // which has not been reaped yet (we still own its `Child`).
        unsafe { kill(self.child.id() as i32, SIGTERM) };
        let started = Instant::now();
        loop {
            match self.child.try_wait() {
                Ok(Some(status)) => return Ok(status),
                Ok(None) if started.elapsed() < STOP_DEADLINE => {
                    std::thread::sleep(Duration::from_millis(5))
                }
                Ok(None) => return Err("daemon did not exit after SIGTERM".into()),
                Err(e) => return Err(format!("wait: {e}")),
            }
        }
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        if let Ok(None) = self.child.try_wait() {
            let _ = self.child.kill();
            let _ = self.child.wait();
        }
    }
}

/// Poll `/healthz` until the published board covers `applied` events (or
/// `deadline` passes); returns the last count seen.
pub fn wait_applied(client: &mut Client, applied: u64, deadline: Duration) -> u64 {
    let started = Instant::now();
    loop {
        let seen = client
            .get("/healthz")
            .ok()
            .and_then(|r| r.events_applied())
            .unwrap_or(0);
        if seen >= applied || started.elapsed() > deadline {
            return seen;
        }
        std::thread::sleep(Duration::from_millis(2));
    }
}

/// User + system CPU seconds of `pid` so far.
pub fn cpu_seconds(pid: u32) -> Option<f64> {
    let stat = std::fs::read_to_string(format!("/proc/{pid}/stat")).ok()?;
    // Fields after the parenthesised command name; utime and stime are
    // fields 14 and 15 of the whole line.
    let rest = &stat[stat.rfind(')')? + 2..];
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let ticks: u64 = fields.get(11)?.parse::<u64>().ok()? + fields.get(12)?.parse::<u64>().ok()?;
    // SAFETY: sysconf reads a process-wide constant.
    let hz = unsafe { sysconf(SC_CLK_TCK) }.max(1);
    Some(ticks as f64 / hz as f64)
}

/// Peak resident set (`VmHWM`) of `pid`, in MB.
pub fn peak_rss_mb(pid: u32) -> Option<f64> {
    let status = std::fs::read_to_string(format!("/proc/{pid}/status")).ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}
