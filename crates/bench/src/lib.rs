//! # socialtrust-bench
//!
//! The experiment harness that regenerates every table and figure of the
//! SocialTrust paper's evaluation (Section 5) plus the Section-3 trace
//! analysis (Figures 1–4), and the Criterion benches for the
//! performance-critical kernels.
//!
//! One binary per experiment lives in `src/bin/`; run e.g.
//!
//! ```text
//! cargo run --release -p socialtrust-bench --bin fig08_pcm_b06
//! ```
//!
//! or everything at once with `--bin all_experiments`. Each binary prints
//! the paper's rows/series to stdout and writes a JSON result file into
//! `experiments_out/`.
//!
//! Environment knobs:
//!
//! * `ST_FAST=1` — quick mode (fewer cycles / runs) for smoke testing;
//! * `ST_RUNS`, `ST_CYCLES`, `ST_SEED` — override the defaults (5 runs,
//!   50 cycles, seed 1000 — the paper's setup).

#![forbid(unsafe_code)]

use std::fs;
use std::path::PathBuf;

use serde::Serialize;
use socialtrust_sim::prelude::*;
use socialtrust_socnet::NodeId;

/// How many seeded runs per experiment (paper: 5).
pub fn runs() -> usize {
    std::env::var("ST_RUNS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(if fast_mode() { 2 } else { 5 })
}

/// Simulation cycles per run (paper: 50).
pub fn cycles() -> usize {
    std::env::var("ST_CYCLES")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(if fast_mode() { 15 } else { 50 })
}

/// Base seed for the seed sequence.
pub fn base_seed() -> u64 {
    std::env::var("ST_SEED")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(1000)
}

/// Quick mode for smoke tests.
pub fn fast_mode() -> bool {
    std::env::var("ST_FAST").map(|v| v == "1").unwrap_or(false)
}

/// The output directory for machine-readable results.
pub fn experiments_dir() -> PathBuf {
    let dir = std::env::var("ST_OUT").unwrap_or_else(|_| "experiments_out".into());
    let path = PathBuf::from(dir);
    fs::create_dir_all(&path).expect("create experiments_out");
    path
}

/// Write a JSON result file for an experiment.
pub fn write_json<T: Serialize>(name: &str, value: &T) {
    let path = experiments_dir().join(format!("{name}.json"));
    let json = serde_json::to_string_pretty(value).expect("serialize result");
    fs::write(&path, json).expect("write result file");
    println!("[saved {}]", path.display());
}

/// Aggregated summary of one (scenario, system) cell.
#[derive(Debug, Clone, Serialize)]
pub struct SystemSummary {
    /// Display name of the system.
    pub system: String,
    /// Mean final reputation per node (averaged over runs), indexed by id.
    pub per_node_mean: Vec<f64>,
    /// 95% CI half-width per node.
    pub per_node_ci95: Vec<f64>,
    /// Mean reputation over the pre-trusted block.
    pub pretrusted_mean: f64,
    /// Mean reputation over the colluder block.
    pub colluder_mean: f64,
    /// Maximum mean reputation among colluders.
    pub colluder_max: f64,
    /// Mean reputation over normal nodes.
    pub normal_mean: f64,
    /// Percent of requests served by colluders: (mean, ci95).
    pub pct_requests_to_colluders: (f64, f64),
    /// Mean colluder reputation per simulation cycle (averaged over runs).
    pub colluder_mean_per_cycle: Vec<f64>,
}

/// Run `kind` on `scenario` for the configured number of runs and
/// summarize.
pub fn run_cell(scenario: &ScenarioConfig, kind: ReputationKind) -> SystemSummary {
    let summary = run_scenario_multi(scenario, kind, base_seed(), runs());
    summarize(scenario, kind, &summary)
}

/// Build a [`SystemSummary`] from an existing multi-run aggregate.
pub fn summarize(
    scenario: &ScenarioConfig,
    kind: ReputationKind,
    summary: &MultiRunSummary,
) -> SystemSummary {
    let colluders = scenario.colluder_ids();
    let normals = scenario.normal_ids();
    let pretrusted = scenario.pretrusted_ids();
    let colluder_max = colluders
        .iter()
        .map(|c| summary.mean_reputation[c.index()])
        .fold(0.0, f64::max);
    let cycles = summary.runs[0].per_cycle_colluder_mean.len();
    let colluder_mean_per_cycle: Vec<f64> = (0..cycles)
        .map(|t| {
            summary
                .runs
                .iter()
                .map(|r| r.per_cycle_colluder_mean[t])
                .sum::<f64>()
                / summary.runs.len() as f64
        })
        .collect();
    SystemSummary {
        system: kind.to_string(),
        per_node_mean: summary.mean_reputation.clone(),
        per_node_ci95: summary.ci95_reputation.clone(),
        pretrusted_mean: summary.mean_reputation_of(&pretrusted),
        colluder_mean: summary.mean_reputation_of(&colluders),
        colluder_max,
        normal_mean: summary.mean_reputation_of(&normals),
        pct_requests_to_colluders: summary.percent_requests_to_colluders(),
        colluder_mean_per_cycle,
    }
}

/// Print the reputation-distribution figure the paper plots: reputation per
/// node id, with the node-role bands called out (pre-trusted: 0-8,
/// colluders: 9-38 in the default layout), plus the role means.
pub fn print_distribution(title: &str, scenario: &ScenarioConfig, cell: &SystemSummary) {
    println!("\n--- {title} — {} ---", cell.system);
    println!(
        "roles: pretrusted = ids 0..{}, colluders = ids {}..{}, normal = rest",
        scenario.pretrusted_count - 1,
        scenario.pretrusted_count,
        scenario.pretrusted_count + scenario.colluder_count - 1
    );
    // Compact sparkline-style dump: 10 nodes per row.
    for (row_start, chunk) in cell.per_node_mean.chunks(10).enumerate() {
        let cells: Vec<String> = chunk.iter().map(|v| format!("{v:.4}")).collect();
        println!("  id {:>3}+ | {}", row_start * 10, cells.join(" "));
    }
    println!(
        "  means: pretrusted={:.5} colluders={:.5} (max {:.5}) normal={:.5}",
        cell.pretrusted_mean, cell.colluder_mean, cell.colluder_max, cell.normal_mean
    );
    println!(
        "  requests to colluders: {:.2}% ± {:.2}",
        cell.pct_requests_to_colluders.0, cell.pct_requests_to_colluders.1
    );
}

/// The standard four-panel experiment (the paper's Figures 8, 9, 11–14):
/// EigenTrust / eBay / EigenTrust+SocialTrust / eBay+SocialTrust on one
/// scenario. Prints all four panels and returns them for JSON output.
pub fn four_panel(title: &str, scenario: &ScenarioConfig) -> Vec<SystemSummary> {
    let kinds = [
        ReputationKind::EigenTrust,
        ReputationKind::EBay,
        ReputationKind::EigenTrustWithSocialTrust,
        ReputationKind::EBayWithSocialTrust,
    ];
    kinds
        .iter()
        .map(|&kind| {
            let cell = run_cell(scenario, kind);
            print_distribution(title, scenario, &cell);
            cell
        })
        .collect()
}

/// Shared verdict line: does the protected system suppress colluders
/// relative to the unprotected one? Printed so experiment logs carry the
/// paper's qualitative claim check inline.
pub fn print_verdict(unprotected: &SystemSummary, protected: &SystemSummary) {
    let suppression = if protected.colluder_mean > 0.0 {
        unprotected.colluder_mean / protected.colluder_mean
    } else {
        f64::INFINITY
    };
    println!(
        "\nverdict: colluder mean {:.5} → {:.5} ({}x suppression); requests {:.1}% → {:.1}%",
        unprotected.colluder_mean,
        protected.colluder_mean,
        if suppression.is_finite() {
            format!("{suppression:.1}")
        } else {
            "∞".into()
        },
        unprotected.pct_requests_to_colluders.0,
        protected.pct_requests_to_colluders.0,
    );
}

/// A scenario pre-configured with the harness cycle count.
pub fn scenario_base() -> ScenarioConfig {
    ScenarioConfig::paper_default().with_cycles(cycles())
}

/// Pretty-print a two-column series.
pub fn print_series(header: (&str, &str), rows: &[(f64, f64)]) {
    println!("{:>14} {:>14}", header.0, header.1);
    for (x, y) in rows {
        println!("{x:>14.4} {y:>14.4}");
    }
}

/// `NodeId` helper for summaries.
pub fn node(i: usize) -> NodeId {
    NodeId::from(i)
}

/// Run EigenTrust wrapped with a *custom* SocialTrust configuration (for
/// ablations), over the configured number of seeded runs.
pub fn run_custom_socialtrust(
    scenario: &ScenarioConfig,
    config: socialtrust_core::config::SocialTrustConfig,
) -> SystemSummary {
    use rand::SeedableRng;
    use rayon::prelude::*;
    use socialtrust_core::decorator::WithSocialTrust;
    use socialtrust_reputation::eigentrust::EigenTrust;
    use socialtrust_sim::build::SimWorld;

    let results: Vec<RunResult> = (0..runs() as u64)
        .into_par_iter()
        .map(|i| {
            let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(base_seed() + i);
            let world = SimWorld::build(scenario, &mut rng);
            let mut system = WithSocialTrust::new(
                EigenTrust::with_defaults(scenario.nodes, &scenario.pretrusted_ids()),
                world.ctx.clone(),
                config,
            );
            socialtrust_sim::engine::run(&world, scenario, &mut system, &mut rng)
        })
        .collect();
    let summary = MultiRunSummary::from_runs(results);
    summarize(
        scenario,
        ReputationKind::EigenTrustWithSocialTrust,
        &summary,
    )
}
