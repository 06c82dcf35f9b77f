//! Metrics collected from simulation runs: reputation summaries,
//! request-routing statistics, convergence, and multi-run aggregation with
//! 95% confidence intervals (the paper reports the mean of 5 runs with a
//! 95% CI).

use serde::{Deserialize, Serialize};
use socialtrust_reputation::system::ConvergenceRecord;
use socialtrust_socnet::NodeId;

/// A snapshot of the global reputation vector.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ReputationSummary {
    values: Vec<f64>,
}

impl ReputationSummary {
    /// Wrap a reputation vector.
    pub fn new(values: Vec<f64>) -> Self {
        ReputationSummary { values }
    }

    /// The full vector, indexed by node.
    pub fn values(&self) -> &[f64] {
        &self.values
    }

    /// Reputation of one node.
    pub fn get(&self, node: NodeId) -> f64 {
        self.values[node.index()]
    }

    /// Mean reputation over a node set (0 for an empty set).
    pub fn mean_reputation(&self, nodes: &[NodeId]) -> f64 {
        if nodes.is_empty() {
            return 0.0;
        }
        nodes.iter().map(|&v| self.values[v.index()]).sum::<f64>() / nodes.len() as f64
    }

    /// Maximum reputation over a node set (0 for an empty set).
    pub fn max_reputation(&self, nodes: &[NodeId]) -> f64 {
        nodes
            .iter()
            .map(|&v| self.values[v.index()])
            .fold(0.0, f64::max)
    }
}

/// The result of one seeded simulation run.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct RunResult {
    /// Name of the reputation system that produced this run.
    pub system_name: String,
    /// Final reputation vector after the last simulation cycle.
    pub final_summary: ReputationSummary,
    /// Mean colluder reputation after each simulation cycle.
    pub per_cycle_colluder_mean: Vec<f64>,
    /// Maximum colluder reputation after each simulation cycle (used for
    /// the Figure 19 convergence criterion).
    pub per_cycle_colluder_max: Vec<f64>,
    /// Mean normal-node reputation after each simulation cycle.
    pub per_cycle_normal_mean: Vec<f64>,
    /// Total organic service requests issued.
    pub requests_total: u64,
    /// Organic service requests served by colluders.
    pub requests_to_colluders: u64,
    /// Cumulative ratings adjusted by SocialTrust (0 for plain systems).
    pub ratings_adjusted: u64,
    /// Cumulative suspicions flagged by SocialTrust (0 for plain systems).
    pub suspicions_flagged: u64,
    /// How the reputation update converged after each simulation cycle
    /// (`None` entries for non-iterative engines).
    pub convergence: Vec<Option<ConvergenceRecord>>,
}

impl RunResult {
    /// Percentage (0–100) of organic requests served by colluders —
    /// the Table 1 metric.
    pub fn percent_requests_to_colluders(&self) -> f64 {
        if self.requests_total == 0 {
            return 0.0;
        }
        100.0 * self.requests_to_colluders as f64 / self.requests_total as f64
    }

    /// First simulation cycle (1-based) after which **every** colluder's
    /// reputation stays below `threshold` for the rest of the run — the
    /// Figure 19 convergence metric. `None` if never suppressed.
    pub fn cycles_until_colluders_below(&self, threshold: f64) -> Option<usize> {
        let n = self.per_cycle_colluder_max.len();
        let mut first = None;
        for (i, &max) in self.per_cycle_colluder_max.iter().enumerate() {
            if max < threshold {
                first.get_or_insert(i + 1);
            } else {
                first = None;
            }
        }
        let _ = n;
        first
    }

    /// The last cycle's convergence record — the final EigenTrust
    /// iteration count and L1 residual of the run. `None` for
    /// non-iterative engines.
    pub fn final_convergence(&self) -> Option<ConvergenceRecord> {
        self.convergence.iter().rev().find_map(|c| *c)
    }

    /// Mean reputation-update iterations per simulation cycle, over the
    /// cycles that reported a convergence record.
    pub fn mean_iterations(&self) -> Option<f64> {
        let iters: Vec<f64> = self
            .convergence
            .iter()
            .filter_map(|c| c.map(|r| r.iterations as f64))
            .collect();
        if iters.is_empty() {
            None
        } else {
            Some(iters.iter().sum::<f64>() / iters.len() as f64)
        }
    }
}

/// Two-sided 97.5% Student-t quantile for `df` degrees of freedom —
/// enough of the table for the run counts used here (the paper uses 5
/// runs ⇒ df = 4 ⇒ t = 2.776).
fn t_975(df: usize) -> f64 {
    const TABLE: [f64; 30] = [
        12.706, 4.303, 3.182, 2.776, 2.571, 2.447, 2.365, 2.306, 2.262, 2.228, 2.201, 2.179, 2.160,
        2.145, 2.131, 2.120, 2.110, 2.101, 2.093, 2.086, 2.080, 2.074, 2.069, 2.064, 2.060, 2.056,
        2.052, 2.048, 2.045, 2.042,
    ];
    if df == 0 {
        f64::INFINITY
    } else if df <= 30 {
        TABLE[df - 1]
    } else {
        1.96
    }
}

/// Mean and 95% confidence half-width of a sample.
pub fn mean_ci95(samples: &[f64]) -> (f64, f64) {
    let n = samples.len();
    if n == 0 {
        return (0.0, 0.0);
    }
    let mean = samples.iter().sum::<f64>() / n as f64;
    if n == 1 {
        return (mean, 0.0);
    }
    let var = samples.iter().map(|&x| (x - mean).powi(2)).sum::<f64>() / (n - 1) as f64;
    let half = t_975(n - 1) * (var / n as f64).sqrt();
    (mean, half)
}

/// The `p`-th percentile (0–100) of a sample, by nearest-rank.
pub fn percentile(samples: &[f64], p: f64) -> f64 {
    assert!((0.0..=100.0).contains(&p), "percentile must be 0–100");
    if samples.is_empty() {
        return 0.0;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(|a, b| a.partial_cmp(b).expect("finite samples"));
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.saturating_sub(1).min(sorted.len() - 1)]
}

/// Aggregation of several seeded runs of the same scenario/system.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct MultiRunSummary {
    /// The individual runs.
    pub runs: Vec<RunResult>,
    /// Per-node mean final reputation across runs.
    pub mean_reputation: Vec<f64>,
    /// Per-node 95% CI half-width of the final reputation.
    pub ci95_reputation: Vec<f64>,
}

impl MultiRunSummary {
    /// Aggregate a non-empty set of runs.
    ///
    /// # Panics
    /// Panics if `runs` is empty or runs disagree on node count.
    pub fn from_runs(runs: Vec<RunResult>) -> Self {
        assert!(!runs.is_empty(), "need at least one run");
        let n = runs[0].final_summary.values().len();
        assert!(
            runs.iter().all(|r| r.final_summary.values().len() == n),
            "runs disagree on node count"
        );
        let mut mean_reputation = Vec::with_capacity(n);
        let mut ci95_reputation = Vec::with_capacity(n);
        for i in 0..n {
            let samples: Vec<f64> = runs.iter().map(|r| r.final_summary.values()[i]).collect();
            let (m, ci) = mean_ci95(&samples);
            mean_reputation.push(m);
            ci95_reputation.push(ci);
        }
        MultiRunSummary {
            runs,
            mean_reputation,
            ci95_reputation,
        }
    }

    /// Mean and 95% CI of the percent-of-requests-to-colluders metric.
    pub fn percent_requests_to_colluders(&self) -> (f64, f64) {
        let samples: Vec<f64> = self
            .runs
            .iter()
            .map(|r| r.percent_requests_to_colluders())
            .collect();
        mean_ci95(&samples)
    }

    /// Mean final reputation over a node set, averaged across runs.
    pub fn mean_reputation_of(&self, nodes: &[NodeId]) -> f64 {
        if nodes.is_empty() {
            return 0.0;
        }
        nodes
            .iter()
            .map(|&v| self.mean_reputation[v.index()])
            .sum::<f64>()
            / nodes.len() as f64
    }

    /// Mean and 95% CI of the final EigenTrust iteration count and L1
    /// residual across runs: `((iter_mean, iter_ci), (residual_mean,
    /// residual_ci))`. `None` when no run reported convergence (the
    /// engine is not iterative).
    pub fn final_convergence_stats(&self) -> Option<((f64, f64), (f64, f64))> {
        let records: Vec<ConvergenceRecord> = self
            .runs
            .iter()
            .filter_map(|r| r.final_convergence())
            .collect();
        if records.is_empty() {
            return None;
        }
        let iters: Vec<f64> = records.iter().map(|r| r.iterations as f64).collect();
        let residuals: Vec<f64> = records.iter().map(|r| r.residual).collect();
        Some((mean_ci95(&iters), mean_ci95(&residuals)))
    }

    /// Convergence percentiles (1st, 50th, 99th) of the cycles-until-
    /// suppressed metric (Figure 19). Runs that never converge are treated
    /// as taking the full run length.
    pub fn convergence_percentiles(&self, threshold: f64) -> (f64, f64, f64) {
        let samples: Vec<f64> = self
            .runs
            .iter()
            .map(|r| {
                r.cycles_until_colluders_below(threshold)
                    .unwrap_or(r.per_cycle_colluder_max.len()) as f64
            })
            .collect();
        (
            percentile(&samples, 1.0),
            percentile(&samples, 50.0),
            percentile(&samples, 99.0),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run_with(final_reps: Vec<f64>, colluder_max: Vec<f64>) -> RunResult {
        RunResult {
            system_name: "test".into(),
            final_summary: ReputationSummary::new(final_reps),
            per_cycle_colluder_mean: colluder_max.clone(),
            per_cycle_colluder_max: colluder_max,
            per_cycle_normal_mean: vec![],
            requests_total: 100,
            requests_to_colluders: 10,
            ratings_adjusted: 0,
            suspicions_flagged: 0,
            convergence: vec![],
        }
    }

    #[test]
    fn convergence_helpers() {
        let mut r = run_with(vec![0.5], vec![]);
        assert_eq!(r.final_convergence(), None);
        assert_eq!(r.mean_iterations(), None);
        r.convergence = vec![
            None,
            Some(ConvergenceRecord {
                iterations: 10,
                residual: 1e-3,
                warm_started: false,
            }),
            Some(ConvergenceRecord {
                iterations: 4,
                residual: 1e-7,
                warm_started: true,
            }),
        ];
        let last = r.final_convergence().unwrap();
        assert_eq!(last.iterations, 4);
        assert!(last.warm_started);
        assert_eq!(r.mean_iterations(), Some(7.0));

        let m = MultiRunSummary::from_runs(vec![r.clone(), r]);
        let ((iter_mean, _), (res_mean, _)) = m.final_convergence_stats().unwrap();
        assert_eq!(iter_mean, 4.0);
        assert!((res_mean - 1e-7).abs() < 1e-12);
        let plain = MultiRunSummary::from_runs(vec![run_with(vec![0.5], vec![])]);
        assert!(plain.final_convergence_stats().is_none());
    }

    #[test]
    fn summary_accessors() {
        let s = ReputationSummary::new(vec![0.1, 0.2, 0.3, 0.4]);
        assert_eq!(s.get(NodeId(2)), 0.3);
        assert!((s.mean_reputation(&[NodeId(0), NodeId(3)]) - 0.25).abs() < 1e-12);
        assert_eq!(s.max_reputation(&[NodeId(1), NodeId(2)]), 0.3);
        assert_eq!(s.mean_reputation(&[]), 0.0);
    }

    #[test]
    fn percent_requests() {
        let r = run_with(vec![0.5, 0.5], vec![]);
        assert!((r.percent_requests_to_colluders() - 10.0).abs() < 1e-12);
    }

    #[test]
    fn percent_requests_idle_run() {
        let mut r = run_with(vec![0.5], vec![]);
        r.requests_total = 0;
        assert_eq!(r.percent_requests_to_colluders(), 0.0);
    }

    #[test]
    fn convergence_requires_staying_below() {
        // Dips below at cycle 2 but relapses at 3; stays below from 4 on.
        let r = run_with(vec![], vec![0.5, 0.0001, 0.5, 0.0001, 0.0001]);
        assert_eq!(r.cycles_until_colluders_below(0.001), Some(4));
        // Never below:
        let r2 = run_with(vec![], vec![0.5, 0.5]);
        assert_eq!(r2.cycles_until_colluders_below(0.001), None);
        // Below from the start:
        let r3 = run_with(vec![], vec![0.0, 0.0]);
        assert_eq!(r3.cycles_until_colluders_below(0.001), Some(1));
    }

    #[test]
    fn mean_ci95_matches_t_table() {
        // 5 samples ⇒ df=4 ⇒ t=2.776.
        let samples = [1.0, 2.0, 3.0, 4.0, 5.0];
        let (mean, ci) = mean_ci95(&samples);
        assert!((mean - 3.0).abs() < 1e-12);
        // var = 2.5, se = sqrt(2.5/5) = 0.7071
        assert!((ci - 2.776 * (2.5f64 / 5.0).sqrt()).abs() < 1e-9);
    }

    #[test]
    fn mean_ci95_degenerate_cases() {
        assert_eq!(mean_ci95(&[]), (0.0, 0.0));
        assert_eq!(mean_ci95(&[7.0]), (7.0, 0.0));
        let (_, ci) = mean_ci95(&[2.0, 2.0, 2.0]);
        assert_eq!(ci, 0.0);
    }

    #[test]
    fn percentile_nearest_rank() {
        let s = [10.0, 20.0, 30.0, 40.0];
        assert_eq!(percentile(&s, 1.0), 10.0);
        assert_eq!(percentile(&s, 50.0), 20.0);
        assert_eq!(percentile(&s, 99.0), 40.0);
        assert_eq!(percentile(&s, 100.0), 40.0);
        assert_eq!(percentile(&[], 50.0), 0.0);
    }

    #[test]
    fn multi_run_aggregation() {
        let runs = vec![
            run_with(vec![0.1, 0.3], vec![0.0]),
            run_with(vec![0.3, 0.5], vec![0.0]),
        ];
        let m = MultiRunSummary::from_runs(runs);
        assert!((m.mean_reputation[0] - 0.2).abs() < 1e-12);
        assert!((m.mean_reputation[1] - 0.4).abs() < 1e-12);
        assert!(m.ci95_reputation[0] > 0.0);
        assert!((m.mean_reputation_of(&[NodeId(0), NodeId(1)]) - 0.3).abs() < 1e-12);
        let (pct, _) = m.percent_requests_to_colluders();
        assert!((pct - 10.0).abs() < 1e-12);
    }

    #[test]
    fn convergence_percentiles_handle_nonconverged() {
        let runs = vec![
            run_with(vec![0.0], vec![0.0, 0.0, 0.0]), // converges at 1
            run_with(vec![0.0], vec![0.5, 0.5, 0.5]), // never (counts as 3)
        ];
        let m = MultiRunSummary::from_runs(runs);
        let (p1, p50, p99) = m.convergence_percentiles(0.001);
        assert_eq!(p1, 1.0);
        assert!(p50 >= 1.0);
        assert_eq!(p99, 3.0);
    }

    #[test]
    #[should_panic(expected = "at least one run")]
    fn empty_multi_run_rejected() {
        MultiRunSummary::from_runs(vec![]);
    }
}
