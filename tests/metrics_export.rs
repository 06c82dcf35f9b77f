//! Acceptance test for the telemetry subsystem: one instrumented
//! simulation must export every metric family the observability contract
//! (DESIGN.md) promises, with a Prometheus text exposition that passes the
//! line-format validator, and structured events for every pipeline stage.

use serde::{Deserialize, Serialize};
use socialtrust::prelude::*;
use socialtrust::telemetry::{validate_exposition, Event};

/// Every metric family the export must contain, per the observability
/// contract: B1–B4 trigger counters, the three latency histograms, the
/// CSR-snapshot refresh counters, and the EigenTrust convergence gauges.
const REQUIRED_FAMILIES: &[&str] = &[
    "detector_b1_triggers_total",
    "detector_b2_triggers_total",
    "detector_b3_triggers_total",
    "detector_b4_triggers_total",
    "detector_suspicions_total",
    "detect_seconds",
    "gaussian_weight_seconds",
    "reputation_update_seconds",
    "decorator_rescaled_ratings_total",
    "snapshot_rebuilds_total",
    "snapshot_patches_total",
    "snapshot_rebuild_seconds",
    "snapshot_patch_seconds",
    "eigentrust_iterations",
    "eigentrust_residual",
    "eigentrust_warm_start",
    "eigentrust_warm_starts_total",
    "eigentrust_cycles_total",
    "sim_cycle_seconds",
    "sim_query_phase_seconds",
    "sim_update_phase_seconds",
];

#[test]
fn instrumented_run_exports_all_contract_metric_families() {
    let scenario = ScenarioConfig::small()
        .with_collusion(CollusionModel::PairWise)
        .with_cycles(4);
    let telemetry = Telemetry::with_sink(EventSink::in_memory());
    let result = run_scenario_with_telemetry(
        &scenario,
        ReputationKind::EigenTrustWithSocialTrust,
        7,
        &telemetry,
    );

    let export = MetricsExport::collect(&telemetry);
    let names = telemetry.registry().metric_names();
    for family in REQUIRED_FAMILIES {
        assert!(
            names.iter().any(|n| n == family),
            "metric family {family} missing from the registry: {names:?}"
        );
        assert!(
            export.prometheus.contains(family),
            "metric family {family} missing from the Prometheus exposition"
        );
    }
    validate_exposition(&export.prometheus).expect("exposition must validate");

    // The snapshot carries real readings, not just registered zeros.
    let snap = &export.metrics;
    assert!(snap.counter("detector_suspicions_total") > 0);
    // Every cycle's detection + Gaussian pass reads one CSR snapshot; the
    // first acquisition builds it, later cycles refresh it (patch or
    // rebuild depending on whether the graph mutated structurally).
    assert!(snap.counter("snapshot_rebuilds_total") >= 1);
    assert_eq!(
        snap.histogram("snapshot_rebuild_seconds").unwrap().count,
        snap.counter("snapshot_rebuilds_total")
    );
    assert_eq!(
        snap.histogram("snapshot_patch_seconds").unwrap().count,
        snap.counter("snapshot_patches_total")
    );
    assert_eq!(
        snap.gauge("eigentrust_iterations"),
        result.final_convergence().map(|c| c.iterations as f64)
    );
    assert_eq!(
        snap.counter("eigentrust_cycles_total"),
        scenario.sim_cycles as u64
    );
    assert_eq!(
        snap.histogram("sim_cycle_seconds").unwrap().count,
        scenario.sim_cycles as u64
    );

    // Events: one EigenTrust convergence per cycle, and detection verdicts
    // for the colluding pairs.
    let events = telemetry.sink().events();
    let convergence_events = events
        .iter()
        .filter(|e| matches!(e, Event::EigenTrustConvergence { .. }))
        .count();
    assert_eq!(convergence_events, scenario.sim_cycles);
    assert!(
        events
            .iter()
            .any(|e| matches!(e, Event::DetectionVerdict { .. })),
        "collusion run must emit detection verdicts"
    );

    // Quantile gauges: every non-empty contract histogram exports
    // p50/p95/p99 both as `{quantile="pXX"}` exposition samples and in the
    // JSON bundle's `quantiles` map, and the estimates are ordered.
    for family in ["detect_seconds", "sim_cycle_seconds"] {
        let q = export
            .quantiles
            .get(family)
            .unwrap_or_else(|| panic!("quantiles missing for {family}"));
        assert_eq!(q.keys().collect::<Vec<_>>(), vec!["p50", "p95", "p99"]);
        assert!(q["p50"] <= q["p95"] && q["p95"] <= q["p99"]);
        for label in ["p50", "p95", "p99"] {
            assert!(
                export
                    .prometheus
                    .contains(&format!("{family}{{quantile=\"{label}\"}}")),
                "{family} {label} sample missing from exposition"
            );
        }
    }

    // The exposition is deterministically ordered: family names sorted.
    let families: Vec<&str> = export
        .prometheus
        .lines()
        .filter_map(|l| l.strip_prefix("# TYPE "))
        .filter_map(|rest| rest.split(' ').next())
        .collect();
    let mut sorted = families.clone();
    sorted.sort_unstable();
    assert_eq!(families, sorted, "exposition families must be name-sorted");

    // JSON round-trip of the full export.
    let json = export.to_json();
    let parsed: MetricsExport = serde_json::from_str(&json).expect("export round-trips");
    assert_eq!(parsed.metrics, export.metrics);
    assert_eq!(parsed.quantiles, export.quantiles);
}

/// A structural graph flush must surface as a `snapshot_rebuild` event
/// carrying the dirty-node count, alongside the rebuild counter bump.
#[test]
fn structural_flush_emits_snapshot_rebuild_event() {
    let telemetry = Telemetry::with_sink(EventSink::in_memory());
    let mut ctx = SocialContext::new(16, 8);
    ctx.attach_telemetry(&telemetry);
    let cfg = ClosenessConfig::default();

    ctx.graph_mut()
        .add_relationship(NodeId(0), NodeId(1), Relationship::friendship());
    ctx.record_interaction(NodeId(0), NodeId(1), 2.0);
    let _ = ctx.snapshot(cfg); // initial build: rebuild, but no structural flush
    assert!(telemetry.sink().events().is_empty());

    // Interaction-only dirt: patched, still no event.
    ctx.record_interaction(NodeId(1), NodeId(0), 1.0);
    let _ = ctx.snapshot(cfg);
    assert!(telemetry.sink().events().is_empty());

    // Structural churn: two edges touch three distinct nodes.
    ctx.graph_mut()
        .add_relationship(NodeId(2), NodeId(3), Relationship::friendship());
    ctx.graph_mut()
        .add_relationship(NodeId(3), NodeId(4), Relationship::friendship());
    let _ = ctx.snapshot(cfg);

    let events = telemetry.sink().events();
    assert!(
        events
            .iter()
            .any(|e| matches!(e, Event::SnapshotRebuild { dirty_nodes: 3 })),
        "expected snapshot_rebuild with 3 dirty nodes, got {events:?}"
    );
    let snap = telemetry.registry().snapshot();
    assert_eq!(snap.counter("snapshot_rebuilds_total"), 2);
    assert_eq!(snap.counter("snapshot_patches_total"), 1);

    // The event survives the JSONL round-trip like every other kind.
    let rebuild = events
        .iter()
        .find(|e| matches!(e, Event::SnapshotRebuild { .. }))
        .unwrap();
    let value = rebuild.to_value();
    assert_eq!(Event::from_value(&value).unwrap(), *rebuild);
}
