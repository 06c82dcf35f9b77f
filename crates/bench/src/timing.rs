//! The timing harness shared by the gated benches (`scale`, `snapshot`,
//! `tracing` and the server crate's `server`).
//!
//! * [`measure`] runs a fixed number of repetitions of one cell and times
//!   each on its own. A repetition's sample is the time spent inside
//!   [`Rep::time`]; whatever the repetition does around that call (boot a
//!   fresh daemon, warm a connection, generate a batch) stays untimed.
//! * [`Cell`] reduces the samples to their nearest-rank median and
//!   quartiles, the definition `perfbench/src/stats.rs` uses.
//! * [`Report`] collects a bench's keys in order and writes
//!   `BENCH_<name>.json` into [`out_dir`]: `BENCH_OUT_DIR` if set, else
//!   the workspace root, where the committed baselines live.
//!
//! A timed cell lands as two keys: `{stem}_seconds`, the median, which
//! `scripts/bench_diff.sh` gates, and `{stem}_spread`, the quartile spread
//! `(q3 - q1) / median`, which it does not. Repetition counts are
//! constants in each bench file, so every host and every run measures the
//! same workload, including the cells that carry state from one
//! repetition to the next.

use std::path::{Path, PathBuf};
use std::time::Instant;

use serde::{Serialize, Value};

/// One repetition of a cell: hands the harness the duration of the work
/// it wraps in [`Rep::time`].
#[derive(Debug, Default)]
pub struct Rep(Option<f64>);

impl Rep {
    /// Runs `work` under the clock and returns its output, so the caller
    /// can drop or inspect it outside the sample. Call once per repetition.
    pub fn time<T>(&mut self, work: impl FnOnce() -> T) -> T {
        assert!(self.0.is_none(), "one timed region per repetition");
        let start = Instant::now();
        let output = work();
        self.0 = Some(start.elapsed().as_secs_f64());
        output
    }
}

/// Runs `reps` repetitions of `routine` and reduces their samples.
pub fn measure(reps: usize, mut routine: impl FnMut(&mut Rep)) -> Cell {
    let samples: Vec<f64> = (0..reps)
        .map(|_| {
            let mut rep = Rep::default();
            routine(&mut rep);
            rep.0
                .expect("each repetition times its work with Rep::time")
        })
        .collect();
    Cell::from_samples(&samples)
}

/// A cell's statistic, in seconds.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Cell {
    pub median: f64,
    pub q1: f64,
    pub q3: f64,
}

impl Cell {
    pub fn from_samples(samples: &[f64]) -> Cell {
        assert!(!samples.is_empty(), "a cell needs at least one sample");
        let mut sorted = samples.to_vec();
        sorted.sort_by(f64::total_cmp);
        Cell {
            median: percentile(&sorted, 50.0),
            q1: percentile(&sorted, 25.0),
            q3: percentile(&sorted, 75.0),
        }
    }

    /// Interquartile range relative to the median; 0 for a constant sample.
    pub fn spread(&self) -> f64 {
        if self.median > 0.0 {
            (self.q3 - self.q1) / self.median
        } else {
            0.0
        }
    }
}

/// Nearest-rank percentile (`p` in `0..=100`) of ascending `sorted`.
fn percentile(sorted: &[f64], p: f64) -> f64 {
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// The comma-separated node counts in the environment variable `var`, or
/// `default` when it is unset; returns the list as given and as parsed.
pub fn sizes(var: &str, default: &str) -> (String, Vec<usize>) {
    let listed = std::env::var(var).unwrap_or_else(|_| default.to_owned());
    let parsed: Vec<usize> = listed
        .split(',')
        .filter_map(|s| s.trim().parse().ok())
        .filter(|&n| n >= 2)
        .collect();
    assert!(!parsed.is_empty(), "{var} has no valid sizes: {listed}");
    (listed, parsed)
}

/// Where reports land: `BENCH_OUT_DIR`, else the workspace root.
pub fn out_dir() -> PathBuf {
    match std::env::var_os("BENCH_OUT_DIR") {
        Some(dir) => PathBuf::from(dir),
        None => Path::new(env!("CARGO_MANIFEST_DIR"))
            .ancestors()
            .nth(2)
            .expect("crates/bench sits two levels below the workspace root")
            .to_path_buf(),
    }
}

/// One bench's flat JSON object, keys in insertion order.
#[derive(Debug)]
pub struct Report {
    name: &'static str,
    fields: Vec<(String, Value)>,
}

impl Report {
    /// An empty `BENCH_<name>.json` report whose first key is `bench`.
    pub fn new(name: &'static str) -> Report {
        Report {
            name,
            fields: vec![("bench".to_owned(), Value::Str(name.to_owned()))],
        }
    }

    /// An informational key: sizes, counts, ratios, footprints.
    pub fn put(&mut self, key: impl Into<String>, value: impl Serialize) {
        self.fields.push((key.into(), value.to_value()));
    }

    /// A timed cell: `{stem}_seconds` (gated) and `{stem}_spread`.
    pub fn cell(&mut self, stem: &str, cell: Cell) {
        self.put(format!("{stem}_seconds"), cell.median);
        self.put(format!("{stem}_spread"), cell.spread());
    }

    /// Writes `BENCH_<name>.json` into `dir`, echoes it to stdout, and
    /// returns its path.
    pub fn write(&self, dir: &Path) -> PathBuf {
        let json = serde_json::to_string_pretty(&Value::Object(self.fields.clone()))
            .expect("report serializes");
        std::fs::create_dir_all(dir).expect("bench output directory is creatable");
        let path = dir.join(format!("BENCH_{}.json", self.name));
        std::fs::write(&path, format!("{json}\n")).expect("bench report is writable");
        println!("{json}\n[{} json] -> {}", self.name, path.display());
        path
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn stats(samples: &[f64]) -> (f64, f64, f64) {
        let cell = Cell::from_samples(samples);
        (cell.q1, cell.median, cell.q3)
    }

    /// Expected values are what perfbench's `stats::percentile` returns
    /// for the same inputs at p = 25, 50 and 75.
    #[test]
    fn quartiles_follow_the_nearest_rank_rule() {
        assert_eq!(stats(&[3.0, 1.0, 2.0]), (1.0, 2.0, 3.0));
        assert_eq!(stats(&[4.0, 1.0, 3.0, 2.0]), (1.0, 2.0, 3.0));
        assert_eq!(stats(&[5.0, 1.0, 4.0, 2.0, 3.0]), (2.0, 3.0, 4.0));
        assert_eq!(stats(&[6.0, 2.0, 5.0, 1.0, 4.0, 3.0]), (2.0, 3.0, 5.0));
        let eleven: Vec<f64> = (1..=11).rev().map(f64::from).collect();
        assert_eq!(stats(&eleven), (3.0, 6.0, 9.0));
        assert_eq!(stats(&[7.5]), (7.5, 7.5, 7.5));
    }

    #[test]
    fn spread_is_the_relative_interquartile_range() {
        assert_eq!(Cell::from_samples(&[0.25; 7]).spread(), 0.0);
        assert_eq!(Cell::from_samples(&[0.0; 3]).spread(), 0.0);
        let cell = Cell::from_samples(&[1.0, 2.0, 4.0, 3.0, 5.0]);
        assert_eq!(cell.spread(), (4.0 - 2.0) / 3.0);
    }

    #[test]
    fn measure_times_only_the_wrapped_work() {
        let mut setups = 0;
        let cell = measure(3, |rep| {
            setups += 1;
            std::thread::sleep(std::time::Duration::from_millis(20));
            rep.time(|| ());
        });
        assert_eq!(setups, 3);
        assert!(cell.q3 < 0.02, "setup leaked into the sample: {cell:?}");
    }

    #[test]
    #[should_panic(expected = "each repetition times its work")]
    fn a_repetition_must_time_something() {
        measure(1, |_| ());
    }

    #[test]
    fn report_round_trips_through_serde_json() {
        let mut report = Report::new("unit");
        report.put("sizes", "10,20");
        report.put("reps", 3usize);
        report.cell("patch_10", Cell::from_samples(&[0.5, 0.25, 0.75]));
        report.put("patch_speedup_10", 2.5);
        let dir = std::env::temp_dir().join(format!("st-timing-{}", std::process::id()));
        let path = report.write(&dir);
        assert_eq!(path, dir.join("BENCH_unit.json"));
        let text = std::fs::read_to_string(&path).expect("report is readable");
        std::fs::remove_dir_all(&dir).expect("temp dir is removable");

        let parsed: Value = serde_json::from_str(&text).expect("report parses");
        let fields = parsed.as_object().expect("report is one object");
        let keys: Vec<&str> = fields.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(
            keys,
            [
                "bench",
                "sizes",
                "reps",
                "patch_10_seconds",
                "patch_10_spread",
                "patch_speedup_10"
            ]
        );
        assert_eq!(parsed.get("bench").and_then(Value::as_str), Some("unit"));
        assert_eq!(parsed.get("reps").and_then(Value::as_u64), Some(3));
        assert_eq!(
            parsed.get("patch_10_seconds").and_then(Value::as_f64),
            Some(0.5)
        );
        assert_eq!(
            parsed.get("patch_10_spread").and_then(Value::as_f64),
            Some(1.0)
        );
    }
}
