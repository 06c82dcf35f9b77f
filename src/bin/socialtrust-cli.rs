//! `socialtrust-cli` — run SocialTrust simulations and trace analyses from
//! the command line.
//!
//! ```text
//! socialtrust-cli simulate --model pcm --b 0.6 --system et-st --runs 5
//! socialtrust-cli trace --users 2000 --transactions 45000 --csv trace.csv
//! socialtrust-cli help
//! ```
//!
//! Argument parsing is hand-rolled (the workspace carries no CLI
//! dependency); every flag is validated with a useful error message.

use std::process::ExitCode;

use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use socialtrust::prelude::*;
use socialtrust::telemetry::{Level, Logger};
use socialtrust::trace::analysis::TraceAnalysis;
use socialtrust::trace::io::write_transactions_csv;

const HELP: &str = "\
socialtrust-cli — SocialTrust collusion-deterrence toolkit

USAGE:
  socialtrust-cli simulate [OPTIONS]   run a P2P collusion scenario
  socialtrust-cli explain  [OPTIONS]   audit rescaled ratings from a trace dump
  socialtrust-cli trace    [OPTIONS]   generate & analyze a synthetic Overstock trace
  socialtrust-cli help                 print this help

GLOBAL OPTIONS:
  --log-level <error|warn|info|debug|trace>
                                   minimum diagnostic severity on stderr
                                   (results stay on stdout)  [default: info]

SIMULATE OPTIONS:
  --model <none|pcm|mcm|mmm|neg>   collusion model            [default: pcm]
  --system <SYSTEM>                reputation system          [default: et-st]
        et | ebay | avg | fbsim | powertrust | et-st | ebay-st | et-st-dist
  --b <FLOAT>                      colluder good-behavior prob [default: 0.6]
  --nodes <INT>                    network size                [default: 200]
  --cycles <INT>                   simulation cycles           [default: 50]
  --runs <INT>                     seeded runs to aggregate    [default: 1]
  --seed <INT>                     base seed                   [default: 42]
  --compromised <INT>              compromised pretrusted      [default: 0]
  --distance <1|2|3>               colluder social distance    [default: 1]
  --falsified                      colluders falsify social info
  --oscillate <INT>                collusion burst period (cycles)
  --json <PATH>                    write the full result as JSON
  --metrics-out <PATH>             export telemetry (Prometheus text, metric
                                   snapshot, and structured events) as JSON
  --trace-out <PATH>               record decision-provenance traces and write
                                   the span-tree dump as JSON
  --trace-sample <off|full|N>      trace sampling: every cycle (full), one in
                                   N cycles, or none      [default: full]

EXPLAIN OPTIONS:
  --trace-out <PATH>               trace dump written by simulate  (required)
  --node <INT>                     only ratings where the node is rater/ratee
  --cycle <INT>                    only the given simulation cycle
  --limit <INT>                    max audit lines, 0 = unlimited  [default: 20]
  --json <PATH>                    write the audit entries as JSON
  --chrome-out <PATH>              export the span trees as Chrome trace-event
                                   JSON (chrome://tracing, Perfetto)

TRACE OPTIONS:
  --users <INT>                    platform users              [default: 2000]
  --transactions <INT>             transactions to generate    [default: 45000]
  --seed <INT>                     generator seed              [default: 42]
  --csv <PATH>                     export transactions as CSV
  --json <PATH>                    write the analysis as JSON
";

/// A parsed flag map with typed accessors and leftover validation.
#[derive(Debug)]
struct Args {
    pairs: Vec<(String, Option<String>)>,
    used: Vec<bool>,
}

/// Flags that take no value.
const SWITCHES: &[&str] = &["--falsified"];

impl Args {
    fn parse(raw: &[String]) -> Result<Args, String> {
        let mut pairs = Vec::new();
        let mut i = 0;
        while i < raw.len() {
            let flag = &raw[i];
            if !flag.starts_with("--") {
                return Err(format!(
                    "unexpected argument {flag:?} (flags start with --)"
                ));
            }
            if SWITCHES.contains(&flag.as_str()) {
                pairs.push((flag.clone(), None));
                i += 1;
            } else {
                let value = raw
                    .get(i + 1)
                    .ok_or_else(|| format!("flag {flag} expects a value"))?;
                pairs.push((flag.clone(), Some(value.clone())));
                i += 2;
            }
        }
        let used = vec![false; pairs.len()];
        Ok(Args { pairs, used })
    }

    fn take(&mut self, flag: &str) -> Option<String> {
        for (i, (f, v)) in self.pairs.iter().enumerate() {
            if f == flag && !self.used[i] {
                self.used[i] = true;
                return v.clone().or(Some(String::new()));
            }
        }
        None
    }

    fn take_parsed<T: std::str::FromStr>(&mut self, flag: &str, default: T) -> Result<T, String> {
        match self.take(flag) {
            None => Ok(default),
            Some(raw) => raw
                .parse()
                .map_err(|_| format!("flag {flag} got an unparsable value {raw:?}")),
        }
    }

    fn finish(&self) -> Result<(), String> {
        for (i, (f, _)) in self.pairs.iter().enumerate() {
            if !self.used[i] {
                return Err(format!("unknown flag {f}"));
            }
        }
        Ok(())
    }
}

fn parse_model(s: &str) -> Result<CollusionModel, String> {
    Ok(match s {
        "none" => CollusionModel::None,
        "pcm" => CollusionModel::PairWise,
        "mcm" => CollusionModel::MultiNode,
        "mmm" => CollusionModel::MultiMutual,
        "neg" => CollusionModel::NegativeCampaign,
        other => return Err(format!("unknown model {other:?} (none|pcm|mcm|mmm|neg)")),
    })
}

fn parse_system(s: &str) -> Result<ReputationKind, String> {
    Ok(match s {
        "et" => ReputationKind::EigenTrust,
        "ebay" => ReputationKind::EBay,
        "avg" => ReputationKind::SimpleAverage,
        "fbsim" => ReputationKind::FeedbackSimilarity,
        "powertrust" => ReputationKind::PowerTrust,
        "et-st" => ReputationKind::EigenTrustWithSocialTrust,
        "ebay-st" => ReputationKind::EBayWithSocialTrust,
        "et-st-dist" => ReputationKind::EigenTrustWithSocialTrustDistributed,
        other => {
            return Err(format!(
                "unknown system {other:?} (et|ebay|avg|fbsim|powertrust|et-st|ebay-st|et-st-dist)"
            ))
        }
    })
}

fn cmd_simulate(mut args: Args, log: &Logger) -> Result<(), String> {
    let model = parse_model(&args.take("--model").unwrap_or_else(|| "pcm".into()))?;
    let system = parse_system(&args.take("--system").unwrap_or_else(|| "et-st".into()))?;
    let b: f64 = args.take_parsed("--b", 0.6)?;
    let nodes: usize = args.take_parsed("--nodes", 200)?;
    let cycles: usize = args.take_parsed("--cycles", 50)?;
    let runs: usize = args.take_parsed("--runs", 1)?;
    let seed: u64 = args.take_parsed("--seed", 42)?;
    let compromised: usize = args.take_parsed("--compromised", 0)?;
    let distance: u32 = args.take_parsed("--distance", 1)?;
    let falsified = args.take("--falsified").is_some();
    let oscillate: usize = args.take_parsed("--oscillate", 0)?;
    let json = args.take("--json");
    let metrics_out = args.take("--metrics-out");
    let trace_out = args.take("--trace-out");
    let trace_sample = args.take("--trace-sample");
    args.finish()?;

    if !(0.0..=1.0).contains(&b) {
        return Err(format!("--b must be a probability, got {b}"));
    }
    let mut scenario = if nodes == 200 {
        ScenarioConfig::paper_default()
    } else {
        let mut s = ScenarioConfig::paper_default();
        s.nodes = nodes;
        s.pretrusted_count = (nodes / 22).max(1);
        s.colluder_count = (nodes * 15 / 100).max(2);
        s.boosted_count = (s.colluder_count / 4).max(1);
        // Keep the paper's T_R at 2× the uniform share.
        s.selection_reputation_threshold = 2.0 / nodes as f64;
        s
    };
    scenario = scenario
        .with_collusion(model)
        .with_colluder_behavior(b)
        .with_cycles(cycles)
        .with_compromised_pretrusted(compromised)
        .with_falsified_social_info(falsified)
        .with_colluder_distance(distance);
    if oscillate > 0 {
        scenario = scenario.with_oscillation(oscillate);
    }
    scenario.validate();

    log.debug(
        "simulate",
        "scenario configured",
        &[
            ("colluders", scenario.colluder_count.into()),
            ("pretrusted", scenario.pretrusted_count.into()),
            ("oscillate", oscillate.into()),
        ],
    );
    println!(
        "simulate: {model} · {system} · B={b} · {nodes} nodes · {cycles} cycles · {runs} run(s) · seed {seed}"
    );
    // Telemetry is only wired up when an export is requested: the
    // instrumented runner runs seeds sequentially so all runs share one
    // registry, whereas the plain path keeps its parallel speed.
    let tracer = match (&trace_out, trace_sample.as_deref()) {
        (None, None) => Tracer::disabled(),
        (None, Some(_)) => return Err("--trace-sample requires --trace-out".into()),
        (Some(_), raw) => {
            // Default to full sampling: someone asking for a trace dump
            // wants every cycle explainable.
            let sample = match raw {
                None => SampleMode::Full,
                Some(raw) => SampleMode::parse(raw)?,
            };
            Tracer::new(TracerConfig::with_sample(sample))
        }
    };
    let telemetry = (metrics_out.is_some() || trace_out.is_some()).then(|| {
        let sink = if metrics_out.is_some() {
            EventSink::in_memory()
        } else {
            EventSink::disabled()
        };
        Telemetry::with_parts(sink, tracer)
    });
    let summary = match &telemetry {
        Some(t) => run_scenario_multi_with_telemetry(&scenario, system, seed, runs, t),
        None => run_scenario_multi(&scenario, system, seed, runs),
    };
    let colluders = scenario.colluder_ids();
    let normals = scenario.normal_ids();
    let pretrusted = scenario.pretrusted_ids();
    let (pct, pct_ci) = summary.percent_requests_to_colluders();
    println!(
        "  colluder mean reputation : {:.6}",
        summary.mean_reputation_of(&colluders)
    );
    println!(
        "  normal   mean reputation : {:.6}",
        summary.mean_reputation_of(&normals)
    );
    println!(
        "  pretrusted mean reputation: {:.6}",
        summary.mean_reputation_of(&pretrusted)
    );
    println!("  requests to colluders    : {pct:.2}% ± {pct_ci:.2}");
    let (p1, median, p99) = summary.convergence_percentiles(0.001);
    println!(
        "  colluder suppression (cycles, <0.001): p1 {p1:.0} / median {median:.0} / p99 {p99:.0}"
    );
    if let Some(((it_mean, it_ci), (res_mean, res_ci))) = summary.final_convergence_stats() {
        println!(
            "  eigentrust final update  : {it_mean:.1} ± {it_ci:.1} iterations, L1 residual {res_mean:.3e} ± {res_ci:.3e}"
        );
    }
    if let (Some(path), Some(t)) = (&metrics_out, &telemetry) {
        MetricsExport::collect(t)
            .write_to(path)
            .map_err(|e| format!("writing {path}: {e}"))?;
        println!("  wrote {path}");
    }
    if let (Some(path), Some(t)) = (&trace_out, &telemetry) {
        let dump = TraceDump::collect(t.tracer());
        dump.write_to(path)
            .map_err(|e| format!("writing {path}: {e}"))?;
        println!(
            "  wrote {path} ({} trace(s), {} spans)",
            dump.traces.len(),
            dump.stats.spans_recorded
        );
    }
    if let Some(path) = json {
        let data = serde_json::to_string_pretty(&summary.runs).map_err(|e| e.to_string())?;
        std::fs::write(&path, data).map_err(|e| format!("writing {path}: {e}"))?;
        println!("  wrote {path}");
    }
    Ok(())
}

fn cmd_explain(mut args: Args, log: &Logger) -> Result<(), String> {
    let input = args
        .take("--trace-out")
        .ok_or("explain requires --trace-out <path> (a dump written by simulate)")?;
    let node: Option<u64> = args
        .take("--node")
        .map(|raw| {
            raw.parse()
                .map_err(|_| format!("flag --node got an unparsable value {raw:?}"))
        })
        .transpose()?;
    let cycle: Option<u64> = args
        .take("--cycle")
        .map(|raw| {
            raw.parse()
                .map_err(|_| format!("flag --cycle got an unparsable value {raw:?}"))
        })
        .transpose()?;
    let limit: usize = args.take_parsed("--limit", 20)?;
    let json_out = args.take("--json");
    let chrome_out = args.take("--chrome-out");
    args.finish()?;

    let dump = TraceDump::read_from(&input).map_err(|e| format!("reading {input}: {e}"))?;
    log.debug(
        "explain",
        "trace dump loaded",
        &[
            ("path", input.as_str().into()),
            ("traces", dump.traces.len().into()),
            ("spans_dropped", dump.stats.spans_dropped.into()),
        ],
    );
    println!(
        "explain: {} — {} trace(s), {} spans recorded, {} dropped",
        input,
        dump.traces.len(),
        dump.stats.spans_recorded,
        dump.stats.spans_dropped
    );

    let entries = socialtrust::explain::explain_entries(&dump, node, cycle);

    if entries.is_empty() {
        println!("  no rescaled ratings matched the filters");
    }
    let shown = if limit == 0 {
        entries.len()
    } else {
        limit.min(entries.len())
    };
    for entry in &entries[..shown] {
        println!("  {}", entry.audit);
    }
    if shown < entries.len() {
        println!(
            "  … {} more (raise --limit or filter with --node/--cycle)",
            entries.len() - shown
        );
    }
    if let Some(path) = json_out {
        let data = serde_json::to_string_pretty(&entries).map_err(|e| e.to_string())?;
        std::fs::write(&path, data).map_err(|e| format!("writing {path}: {e}"))?;
        println!("  wrote {path}");
    }
    if let Some(path) = chrome_out {
        std::fs::write(&path, chrome_trace_json(&dump))
            .map_err(|e| format!("writing {path}: {e}"))?;
        println!("  wrote {path} (load in chrome://tracing or Perfetto)");
    }
    Ok(())
}

fn cmd_trace(mut args: Args, log: &Logger) -> Result<(), String> {
    let users: usize = args.take_parsed("--users", 2000)?;
    let transactions: usize = args.take_parsed("--transactions", 45_000)?;
    let seed: u64 = args.take_parsed("--seed", 42)?;
    let csv = args.take("--csv");
    let json = args.take("--json");
    args.finish()?;

    let config = TraceConfig {
        users,
        transactions,
        ..TraceConfig::default()
    };
    println!("trace: {users} users · {transactions} transactions · seed {seed}");
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let platform = generate(&config, &mut rng);
    log.debug(
        "trace",
        "synthetic platform generated",
        &[
            ("users", users.into()),
            ("transactions", transactions.into()),
        ],
    );
    let analysis = TraceAnalysis::new(&platform);
    let business_c = analysis.business_reputation_correlation();
    let personal_c = analysis.personal_reputation_correlation();
    let top3 = analysis.top3_category_share();
    let sim30 = analysis.share_transactions_above_similarity(0.3);
    println!("  O1 business-network C   : {business_c:.3}  (paper: 0.996)");
    println!("  O2 personal-network C   : {personal_c:.3}  (paper: 0.092)");
    println!("  O5 top-3 category share : {top3:.3}  (paper: ~0.88)");
    println!("  O6 share > 0.3 similarity: {sim30:.3}  (paper: 0.6)");
    for s in analysis.rating_stats_by_distance() {
        println!(
            "  O3/O4 distance {}: avg value {:+.2}, avg frequency {:.2}",
            s.distance, s.avg_rating_value, s.avg_rating_count
        );
    }
    if let Some(path) = csv {
        let mut file = std::fs::File::create(&path).map_err(|e| format!("creating {path}: {e}"))?;
        write_transactions_csv(&platform, &mut file).map_err(|e| e.to_string())?;
        println!("  wrote {path}");
    }
    if let Some(path) = json {
        #[derive(serde::Serialize)]
        struct TraceReport {
            business_correlation: f64,
            personal_correlation: f64,
            top3_share: f64,
            share_above_30pct_similarity: f64,
        }
        let report = TraceReport {
            business_correlation: business_c,
            personal_correlation: personal_c,
            top3_share: top3,
            share_above_30pct_similarity: sim30,
        };
        let data = serde_json::to_string_pretty(&report).map_err(|e| e.to_string())?;
        std::fs::write(&path, data).map_err(|e| format!("writing {path}: {e}"))?;
        println!("  wrote {path}");
    }
    Ok(())
}

/// Strip every `--log-level VALUE` pair out of `argv` (it is a global
/// flag, valid before or after the subcommand) and return the requested
/// level, defaulting to `info`.
fn extract_log_level(argv: &mut Vec<String>) -> Result<Level, String> {
    let mut level = Level::Info;
    while let Some(pos) = argv.iter().position(|a| a == "--log-level") {
        if pos + 1 >= argv.len() {
            return Err("flag --log-level expects a value".into());
        }
        let raw = argv.remove(pos + 1);
        argv.remove(pos);
        level = raw
            .parse()
            .map_err(|_| format!("flag --log-level got an unparsable value {raw:?}"))?;
    }
    Ok(level)
}

fn run(argv: Vec<String>, log: &Logger) -> Result<(), String> {
    match argv.first().map(String::as_str) {
        Some("simulate") => cmd_simulate(Args::parse(&argv[1..])?, log),
        Some("explain") => cmd_explain(Args::parse(&argv[1..])?, log),
        Some("trace") => cmd_trace(Args::parse(&argv[1..])?, log),
        Some("help") | None => {
            print!("{HELP}");
            Ok(())
        }
        Some(other) => Err(format!(
            "unknown command {other:?}; try `socialtrust-cli help`"
        )),
    }
}

fn main() -> ExitCode {
    let mut argv: Vec<String> = std::env::args().skip(1).collect();
    let log = match extract_log_level(&mut argv) {
        Ok(level) => Logger::stderr(level, false),
        Err(message) => {
            eprintln!("error: {message}");
            return ExitCode::FAILURE;
        }
    };
    match run(argv, &log) {
        Ok(()) => ExitCode::SUCCESS,
        Err(message) => {
            log.error("cli", &message, &[]);
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn parse_flags_and_switches() {
        let mut a = Args::parse(&argv("--model pcm --falsified --seed 7")).unwrap();
        assert_eq!(a.take("--model"), Some("pcm".into()));
        assert!(a.take("--falsified").is_some());
        assert_eq!(a.take_parsed("--seed", 0u64).unwrap(), 7);
        a.finish().unwrap();
    }

    #[test]
    fn unknown_flags_are_rejected() {
        let a = Args::parse(&argv("--bogus 1")).unwrap();
        assert!(a.finish().unwrap_err().contains("--bogus"));
    }

    #[test]
    fn missing_value_is_rejected() {
        assert!(Args::parse(&argv("--seed"))
            .unwrap_err()
            .contains("expects a value"));
    }

    #[test]
    fn bad_value_is_reported_with_flag_name() {
        let mut a = Args::parse(&argv("--seed notanumber")).unwrap();
        let err = a.take_parsed("--seed", 0u64).unwrap_err();
        assert!(err.contains("--seed"));
        assert!(err.contains("notanumber"));
    }

    #[test]
    fn model_and_system_parsers() {
        assert_eq!(parse_model("mmm").unwrap(), CollusionModel::MultiMutual);
        assert_eq!(
            parse_model("neg").unwrap(),
            CollusionModel::NegativeCampaign
        );
        assert!(parse_model("xyz").is_err());
        assert_eq!(
            parse_system("et-st").unwrap(),
            ReputationKind::EigenTrustWithSocialTrust
        );
        assert!(parse_system("foo").is_err());
    }

    #[test]
    fn help_and_unknown_command() {
        let log = Logger::disabled();
        assert!(run(vec![], &log).is_ok());
        assert!(run(argv("help"), &log).is_ok());
        assert!(run(argv("frobnicate"), &log).is_err());
    }

    #[test]
    fn log_level_is_extracted_anywhere_in_argv() {
        let mut v = argv("simulate --log-level debug --nodes 40");
        assert_eq!(extract_log_level(&mut v).unwrap(), Level::Debug);
        assert_eq!(v, argv("simulate --nodes 40"));
        // Before the subcommand works too, and the default is info.
        let mut v = argv("--log-level warn trace");
        assert_eq!(extract_log_level(&mut v).unwrap(), Level::Warn);
        let mut v = argv("trace --users 10");
        assert_eq!(extract_log_level(&mut v).unwrap(), Level::Info);
        // Bad values and a missing value are reported.
        let mut v = argv("--log-level shouty");
        assert!(extract_log_level(&mut v).unwrap_err().contains("shouty"));
        let mut v = argv("simulate --log-level");
        assert!(extract_log_level(&mut v)
            .unwrap_err()
            .contains("expects a value"));
    }

    #[test]
    fn simulate_smoke() {
        // A tiny end-to-end run through the CLI path.
        let result = run(
            argv("simulate --model pcm --system ebay --nodes 40 --cycles 2 --runs 1 --seed 3"),
            &Logger::disabled(),
        );
        assert!(result.is_ok(), "{result:?}");
    }

    #[test]
    fn simulate_metrics_out_exports_parsable_telemetry() {
        let path = std::env::temp_dir().join("socialtrust-cli-metrics-test.json");
        let path_str = path.to_str().unwrap().to_string();
        let mut cmd = argv("simulate --model pcm --system et-st --nodes 40 --cycles 2 --runs 1 --seed 3 --metrics-out");
        cmd.push(path_str);
        let result = run(cmd, &Logger::disabled());
        assert!(result.is_ok(), "{result:?}");
        let data = std::fs::read_to_string(&path).unwrap();
        let value: socialtrust::telemetry::MetricsExport = serde_json::from_str(&data).unwrap();
        let prometheus = value.prometheus;
        socialtrust::telemetry::validate_exposition(&prometheus).unwrap();
        for family in [
            "detector_b1_triggers_total",
            "snapshot_rebuilds_total",
            "snapshot_patches_total",
            "eigentrust_iterations",
            "sim_cycle_seconds",
        ] {
            assert!(prometheus.contains(family), "missing {family}");
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn simulate_rejects_bad_probability() {
        let err = run(
            argv("simulate --b 1.5 --nodes 40 --cycles 1"),
            &Logger::disabled(),
        )
        .unwrap_err();
        assert!(err.contains("--b"));
    }

    #[test]
    fn trace_smoke() {
        let result = run(
            argv("trace --users 150 --transactions 1000 --seed 2"),
            &Logger::disabled(),
        );
        assert!(result.is_ok(), "{result:?}");
    }
}
