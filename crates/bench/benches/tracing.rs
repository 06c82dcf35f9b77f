//! Tracing bench — decision-provenance tracing overhead on full
//! simulation runs.
//!
//! Tracing must be cheap enough to leave on: the contract (DESIGN.md,
//! "Tracing & provenance contract") promises ≤5% overhead at the default
//! 1-in-16 sampling. Three cells, identical scenario and seed, differing
//! only in the tracer handed to `run_scenario_with_telemetry`:
//!
//! * `off` — `Tracer::disabled()`: the baseline; every instrumentation
//!   point short-circuits on a `None` inner.
//! * `sampled` — `SampleMode::Ratio(16)`, the default: non-admitted cycle
//!   roots cost one atomic increment, admitted cycles record fully.
//! * `full` — `SampleMode::Full`: every cycle records verdict, weight,
//!   and rescale spans (the worst case `--trace-out` enables).
//!
//! The scenario has 10k nodes, the scale the CSR-snapshot work targets.
//! Every cell is the median of `REPS` repetitions (see
//! `socialtrust_bench::timing`); the medians and the overhead percentages
//! derived from them land in `BENCH_trace.json` in `BENCH_OUT_DIR`
//! (default: the workspace root).

use socialtrust_bench::timing::{self, Report};
use socialtrust_sim::prelude::*;
use socialtrust_telemetry::{EventSink, SampleMode, Telemetry, Tracer, TracerConfig};

/// Repetitions per cell; one 10k run takes a few seconds.
const REPS: usize = 5;

/// The 10k-node scenario: paper proportions (15% colluders, ~5%
/// pretrusted) scaled up 50x, with the query load trimmed so one run
/// stays in bench-smoke territory. 16 simulation cycles so `Ratio(16)`
/// gets its true 1-in-16 duty cycle rather than degenerating into "trace
/// the only cycle".
fn scenario_10k() -> ScenarioConfig {
    let mut s = ScenarioConfig::paper_default()
        .with_collusion(CollusionModel::PairWise)
        .with_colluder_behavior(0.6)
        .with_cycles(16);
    s.nodes = 10_000;
    s.colluder_count = 1_500;
    s.pretrusted_count = 450;
    s.boosted_count = 350;
    s.query_cycles = 5;
    s
}

fn tracer_for(mode: Option<SampleMode>) -> Tracer {
    match mode {
        None => Tracer::disabled(),
        Some(sample) => Tracer::new(TracerConfig::with_sample(sample)),
    }
}

/// One instrumented run; traces are drained afterwards so the ring buffer
/// never carries state across repetitions.
fn run_traced(scenario: &ScenarioConfig, mode: Option<SampleMode>, seed: u64) -> usize {
    let telemetry = Telemetry::with_parts(EventSink::disabled(), tracer_for(mode));
    let result = run_scenario_with_telemetry(
        scenario,
        ReputationKind::EigenTrustWithSocialTrust,
        seed,
        &telemetry,
    );
    let spans: usize = telemetry
        .tracer()
        .take_traces()
        .iter()
        .map(|t| t.spans.len())
        .sum();
    std::hint::black_box(result);
    spans
}

fn main() {
    let s = scenario_10k();
    // Warm-up run so first-touch costs (page faults, allocator growth)
    // don't land in the `off` baseline.
    let spans_full = run_traced(&s, Some(SampleMode::Full), 42);
    let cell = |mode| {
        timing::measure(REPS, |rep| {
            rep.time(|| run_traced(&s, mode, 42));
        })
    };
    let off = cell(None);
    let sampled = cell(Some(SampleMode::Ratio(16)));
    let full = cell(Some(SampleMode::Full));

    let mut report = Report::new("trace");
    report.put("nodes", s.nodes);
    report.put("sim_cycles", s.sim_cycles);
    report.put("reps", REPS);
    report.put("spans_recorded_full", spans_full);
    report.cell("tracing_off", off);
    report.cell("tracing_sampled", sampled);
    report.cell("tracing_full", full);
    report.put(
        "sampled_overhead_percent",
        100.0 * (sampled.median / off.median - 1.0),
    );
    report.put(
        "full_overhead_percent",
        100.0 * (full.median / off.median - 1.0),
    );
    report.write(&timing::out_dir());
}
