//! The simulation engine: query cycles, server selection, service,
//! rating, and collusion execution.
//!
//! Per the paper's setup (Section 5.1):
//!
//! * each simulation cycle has `query_cycles` query cycles; in each query
//!   cycle every active node issues one resource request on one of its
//!   interests;
//! * the client selects a server uniformly among the interest's providers
//!   that have free capacity and reputation above `T_R`; if no provider
//!   clears the reputation bar (e.g. at cold start, when everyone is at
//!   the initial reputation), it picks uniformly among those with
//!   capacity — *"at the initial stage, a node randomly chooses from a
//!   number of options with the same reputation value 0"*;
//! * the server serves authentically with its behavior probability; the
//!   client rates `+1` for authentic service and `−1` otherwise;
//! * every rating/transaction is also a social interaction: the paper sets
//!   `f(i,j)` equal to the rating (transaction) frequency, so both organic
//!   requests and collusion ratings feed the interaction tracker and the
//!   requester's interest profile;
//! * colluders additionally execute their
//!   [`CollusionPlan`](crate::collusion::CollusionPlan) every query cycle;
//! * the reputation system updates once per simulation cycle.

use std::time::Instant;

use rand::seq::SliceRandom;
use rand::Rng;
use socialtrust_reputation::rating::Rating;
use socialtrust_reputation::system::ReputationSystem;
use socialtrust_socnet::interest::InterestId;
use socialtrust_socnet::NodeId;
use socialtrust_telemetry::{trace::names as trace_names, Telemetry};

use crate::build::SimWorld;
use crate::metrics::{ReputationSummary, RunResult};
use crate::scenario::ScenarioConfig;

/// One pending social interaction, batched per query cycle so the shared
/// context lock is taken once per cycle rather than once per request.
struct PendingRequest {
    from: NodeId,
    to: NodeId,
    interest: InterestId,
}

/// Run one full simulation: `scenario.sim_cycles` cycles of
/// `scenario.query_cycles` query cycles each, against `system`.
///
/// The run is fully deterministic given `rng`'s state. Equivalent to
/// [`run_with_telemetry`] against a fresh, unexported [`Telemetry`]
/// bundle.
pub fn run<R: Rng + ?Sized>(
    world: &SimWorld,
    scenario: &ScenarioConfig,
    system: &mut dyn ReputationSystem,
    rng: &mut R,
) -> RunResult {
    run_with_telemetry(world, scenario, system, rng, &Telemetry::new())
}

/// [`run`], publishing the cycle wall-time breakdown to `telemetry`:
/// `sim_cycle_seconds` (whole simulation cycle), `sim_query_phase_seconds`
/// (query cycles: selection, service, ratings, collusion), and
/// `sim_update_phase_seconds` (the reputation engine's `end_cycle`), one
/// observation per simulation cycle each.
///
/// This instruments the *engine loop* only; call
/// [`ReputationSystem::attach_telemetry`] (and
/// `SocialContext::attach_telemetry` via the world's shared context)
/// beforehand to capture the detector/EigenTrust layers — plus the
/// per-cycle CSR snapshot's `snapshot_rebuilds_total` /
/// `snapshot_patches_total` / `snapshot_rebuild_seconds` /
/// `snapshot_patch_seconds` — in the same bundle —
/// [`crate::runner::run_scenario_with_telemetry`] does all of it.
///
/// Within each simulation cycle the query phase mutates the shared context
/// (requests dirty the interaction tracker and request profiles); the
/// update phase then reads it through one epoch-validated
/// `GraphSnapshot`. Because only interaction/profile rows change in the
/// steady state, that refresh is an incremental row patch, not a rebuild —
/// structural churn (relationship falsification attacks) is what shows up
/// as `snapshot_rebuilds_total` and `snapshot_rebuild` events.
pub fn run_with_telemetry<R: Rng + ?Sized>(
    world: &SimWorld,
    scenario: &ScenarioConfig,
    system: &mut dyn ReputationSystem,
    rng: &mut R,
    telemetry: &Telemetry,
) -> RunResult {
    assert_eq!(
        system.node_count(),
        world.node_count(),
        "system/world node count mismatch"
    );
    let n = world.node_count();
    let colluders = scenario.colluder_ids();
    let normals = scenario.normal_ids();

    let cycle_seconds = telemetry.registry().histogram("sim_cycle_seconds");
    let query_seconds = telemetry.registry().histogram("sim_query_phase_seconds");
    let update_seconds = telemetry.registry().histogram("sim_update_phase_seconds");

    let mut requests_total: u64 = 0;
    let mut requests_to_colluders: u64 = 0;
    let mut per_cycle_colluder_mean = Vec::with_capacity(scenario.sim_cycles);
    let mut per_cycle_colluder_max = Vec::with_capacity(scenario.sim_cycles);
    let mut per_cycle_normal_mean = Vec::with_capacity(scenario.sim_cycles);
    let mut convergence = Vec::with_capacity(scenario.sim_cycles);

    let mut capacity: Vec<u32> = vec![0; n];
    let mut candidates: Vec<NodeId> = Vec::with_capacity(64);
    let mut preferred: Vec<NodeId> = Vec::with_capacity(64);
    let mut reps_of: Vec<f64> = Vec::with_capacity(64);
    let mut pending: Vec<PendingRequest> = Vec::with_capacity(1024);
    // Reusable copy of the trust vector. A borrowed `system.reputations()`
    // slice cannot live across the `system.record(..)` calls below, so the
    // values are staged here — one buffer reused for the whole run instead
    // of a fresh `to_vec()` per query cycle (at 1M nodes that clone was 8 MB
    // of allocator traffic per cycle).
    let mut reputations: Vec<f64> = Vec::with_capacity(n);

    for cycle in 0..scenario.sim_cycles {
        let cycle_start = Instant::now();
        // One provenance trace per simulation cycle: detection verdicts,
        // Gaussian weights, rescales, and the EigenTrust update all hang
        // off this root (see telemetry's `trace::names`). The guard's
        // drop at the bottom of the loop commits the tree.
        let mut cycle_root = telemetry.tracer().begin_root(trace_names::CYCLE);
        if cycle_root.is_recording() {
            cycle_root.set_attr("cycle", cycle);
            cycle_root.set_attr("system", system.name());
        }
        let collusion_active = scenario.collusion_active_in_cycle(cycle);
        for _qc in 0..scenario.query_cycles {
            capacity.fill(scenario.capacity_per_query_cycle);
            pending.clear();
            reputations.clear();
            reputations.extend_from_slice(system.reputations());

            // --- Organic queries -------------------------------------
            for i in 0..n {
                let client = NodeId::from(i);
                if rng.gen::<f64>() >= world.active_prob[i] {
                    continue; // inactive this query cycle
                }
                let Some(interest) = world.request_dist[i].sample(rng) else {
                    continue;
                };
                candidates.clear();
                preferred.clear();
                for &p in &world.neighbors[i][interest.0 as usize] {
                    if capacity[p.index()] > 0 {
                        candidates.push(p);
                        if reputations[p.index()] > scenario.selection_reputation_threshold {
                            preferred.push(p);
                        }
                    }
                }
                // Selection per the paper: random among interest neighbors
                // above T_R — plus the upper half of the candidate set by
                // reputation, so that mid-pack nodes keep earning while
                // low-reputed nodes are shunned ("no nodes choose
                // low-reputed nodes for services"; "at the initial stage, a
                // node randomly chooses from a number of options with the
                // same reputation value 0").
                if !candidates.is_empty() {
                    reps_of.clear();
                    reps_of.extend(candidates.iter().map(|p| reputations[p.index()]));
                    reps_of.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
                    let median = reps_of[reps_of.len() / 2];
                    // Tolerant comparison: damped rating spam can leave a
                    // node an ε below an otherwise-identical peer; a strict
                    // cut would starve it forever on that knife edge.
                    let tol = median.abs() * 1e-6 + 1e-12;
                    for &p in &candidates {
                        let rep = reputations[p.index()];
                        if rep >= median - tol && rep <= scenario.selection_reputation_threshold {
                            // Above the candidate median but not already in
                            // the >T_R preferred set.
                            preferred.push(p);
                        }
                    }
                }
                let Some(&server) = preferred.choose(rng) else {
                    continue; // nobody can serve this interest right now
                };
                capacity[server.index()] -= 1;
                requests_total += 1;
                if scenario.is_colluder(server) {
                    requests_to_colluders += 1;
                }
                let authentic = rng.gen::<f64>() < world.behavior[server.index()];
                let value = if authentic { 1.0 } else { -1.0 };
                system.record(Rating::with_interest(client, server, value, interest));
                pending.push(PendingRequest {
                    from: client,
                    to: server,
                    interest,
                });
            }

            // --- Collusion ratings ------------------------------------
            let active_edges: &[crate::collusion::BoostEdge] = if collusion_active {
                &world.plan.edges
            } else {
                &[]
            };
            for edge in active_edges {
                let ratee_interests = world.interests[edge.ratee.index()].as_slice();
                for _ in 0..edge.rate {
                    // "a boosting node rates a boosted node … on an interest
                    // randomly selected from the interests of the boosted
                    // node".
                    let interest = ratee_interests
                        .choose(rng)
                        .copied()
                        .unwrap_or(InterestId(0));
                    system.record(
                        Rating::with_interest(edge.rater, edge.ratee, edge.value, interest)
                            .non_transactional(),
                    );
                    pending.push(PendingRequest {
                        from: edge.rater,
                        to: edge.ratee,
                        interest,
                    });
                }
            }

            // --- Fold this query cycle's interactions into the context ---
            if !pending.is_empty() {
                let mut ctx = world.ctx.write();
                for req in pending.drain(..) {
                    ctx.record_request(req.from, req.to, req.interest);
                }
            }
        }
        query_seconds.observe(cycle_start.elapsed().as_secs_f64());

        // Global reputation update, once per simulation cycle.
        let update_start = Instant::now();
        system.end_cycle();
        update_seconds.observe(update_start.elapsed().as_secs_f64());
        convergence.push(system.convergence());
        reputations.clear();
        reputations.extend_from_slice(system.reputations());
        per_cycle_colluder_mean.push(mean_over(&reputations, &colluders));
        per_cycle_colluder_max.push(max_over(&reputations, &colluders));
        per_cycle_normal_mean.push(mean_over(&reputations, &normals));

        // Population churn: a fraction of normal nodes departs; fresh
        // identities take their slots and the engine forgets them.
        if scenario.churn_rate > 0.0 {
            use rand::seq::SliceRandom as _;
            let count = ((normals.len() as f64) * scenario.churn_rate).round() as usize;
            let churned: Vec<NodeId> = normals
                .choose_multiple(rng, count.min(normals.len()))
                .copied()
                .collect();
            for v in churned {
                system.reset_node(v);
            }
        }

        // Whitewashing: colluders whose reputation collapsed below the
        // selection bar shed their identity and start over.
        if scenario.whitewash {
            let threshold = scenario.selection_reputation_threshold;
            let resets: Vec<NodeId> = colluders
                .iter()
                .copied()
                .filter(|c| reputations[c.index()] < threshold)
                .collect();
            for c in resets {
                system.reset_node(c);
            }
        }
        cycle_seconds.observe(cycle_start.elapsed().as_secs_f64());
    }

    RunResult {
        system_name: system.name(),
        final_summary: ReputationSummary::new(system.reputations().to_vec()),
        per_cycle_colluder_mean,
        per_cycle_colluder_max,
        per_cycle_normal_mean,
        requests_total,
        requests_to_colluders,
        ratings_adjusted: system.total_adjusted_ratings(),
        suspicions_flagged: system.total_suspicions(),
        convergence,
    }
}

fn mean_over(values: &[f64], nodes: &[NodeId]) -> f64 {
    if nodes.is_empty() {
        return 0.0;
    }
    nodes.iter().map(|&v| values[v.index()]).sum::<f64>() / nodes.len() as f64
}

fn max_over(values: &[f64], nodes: &[NodeId]) -> f64 {
    nodes.iter().map(|&v| values[v.index()]).fold(0.0, f64::max)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::build::SimWorld;
    use crate::collusion::CollusionModel;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;
    use socialtrust_reputation::prelude::{EBayModel, EigenTrust};

    fn rng(seed: u64) -> ChaCha8Rng {
        ChaCha8Rng::seed_from_u64(seed)
    }

    fn small_run(model: CollusionModel, seed: u64) -> (ScenarioConfig, RunResult) {
        let scenario = ScenarioConfig::small().with_collusion(model);
        let mut r = rng(seed);
        let world = SimWorld::build(&scenario, &mut r);
        let mut system = EigenTrust::with_defaults(scenario.nodes, &scenario.pretrusted_ids());
        let result = run(&world, &scenario, &mut system, &mut r);
        (scenario, result)
    }

    #[test]
    fn run_produces_complete_metrics() {
        let (scenario, result) = small_run(CollusionModel::None, 1);
        assert_eq!(result.per_cycle_colluder_mean.len(), scenario.sim_cycles);
        assert_eq!(result.per_cycle_colluder_max.len(), scenario.sim_cycles);
        assert_eq!(result.per_cycle_normal_mean.len(), scenario.sim_cycles);
        assert_eq!(result.final_summary.values().len(), scenario.nodes);
        assert!(result.requests_total > 0, "organic traffic must flow");
        assert!(result.requests_to_colluders <= result.requests_total);
        assert_eq!(result.system_name, "EigenTrust");
    }

    #[test]
    fn reputations_remain_a_distribution() {
        let (_, result) = small_run(CollusionModel::PairWise, 2);
        let sum: f64 = result.final_summary.values().iter().sum();
        assert!((sum - 1.0).abs() < 1e-6, "sum = {sum}");
        assert!(result.final_summary.values().iter().all(|&v| v >= 0.0));
    }

    #[test]
    fn runs_are_deterministic_under_seed() {
        let (_, r1) = small_run(CollusionModel::MultiMutual, 3);
        let (_, r2) = small_run(CollusionModel::MultiMutual, 3);
        assert_eq!(r1.final_summary, r2.final_summary);
        assert_eq!(r1.requests_total, r2.requests_total);
        assert_eq!(r1.requests_to_colluders, r2.requests_to_colluders);
    }

    #[test]
    fn different_seeds_differ() {
        let (_, r1) = small_run(CollusionModel::None, 4);
        let (_, r2) = small_run(CollusionModel::None, 5);
        assert_ne!(r1.final_summary, r2.final_summary);
    }

    #[test]
    fn collusion_boosts_colluders_in_ebay() {
        // eBay with B=0.6: mutual high-frequency positive ratings must push
        // colluder reputations above the honest mean (Figure 8(b)).
        let scenario = ScenarioConfig::small()
            .with_collusion(CollusionModel::PairWise)
            .with_colluder_behavior(0.6);
        let mut r = rng(6);
        let world = SimWorld::build(&scenario, &mut r);
        let mut system = EBayModel::new(scenario.nodes);
        let result = run(&world, &scenario, &mut system, &mut r);
        let colluder_mean = result
            .final_summary
            .mean_reputation(&scenario.colluder_ids());
        let normal_mean = result.final_summary.mean_reputation(&scenario.normal_ids());
        assert!(
            colluder_mean > normal_mean,
            "colluders {colluder_mean} should outrank normals {normal_mean} in unprotected eBay"
        );
    }

    #[test]
    fn no_collusion_keeps_low_behavior_nodes_down_in_eigentrust() {
        // Without collusion, B=0.2 nodes must end below the normal mean
        // (Figure 7(a)).
        let scenario = ScenarioConfig::small().with_colluder_behavior(0.2);
        let mut r = rng(7);
        let world = SimWorld::build(&scenario, &mut r);
        let mut system = EigenTrust::with_defaults(scenario.nodes, &scenario.pretrusted_ids());
        let result = run(&world, &scenario, &mut system, &mut r);
        let malicious_mean = result
            .final_summary
            .mean_reputation(&scenario.colluder_ids());
        let normal_mean = result.final_summary.mean_reputation(&scenario.normal_ids());
        assert!(
            malicious_mean < normal_mean,
            "malicious {malicious_mean} vs normal {normal_mean}"
        );
    }

    #[test]
    fn interactions_accumulate_in_context() {
        let scenario = ScenarioConfig::small().with_collusion(CollusionModel::PairWise);
        let mut r = rng(8);
        let world = SimWorld::build(&scenario, &mut r);
        let mut system = EBayModel::new(scenario.nodes);
        let _ = run(&world, &scenario, &mut system, &mut r);
        let ctx = world.ctx.read();
        // Colluding pairs interacted heavily.
        let (a, b) = world.plan.social_pairs[0];
        assert!(
            ctx.interactions().frequency(a, b) > 100.0,
            "collusion interactions must be tracked: f = {}",
            ctx.interactions().frequency(a, b)
        );
        // Interest profiles recorded requests.
        assert!(ctx.profile(a).total_requests() > 0);
    }

    #[test]
    fn oscillating_collusion_halves_the_spam() {
        let steady = ScenarioConfig::small().with_collusion(CollusionModel::PairWise);
        let bursty = ScenarioConfig::small()
            .with_collusion(CollusionModel::PairWise)
            .with_oscillation(2); // collude every other cycle
        let run_spam = |scenario: &ScenarioConfig| {
            let mut r = rng(21);
            let world = SimWorld::build(scenario, &mut r);
            let mut system = EBayModel::new(scenario.nodes);
            let _ = run(&world, scenario, &mut system, &mut r);
            let ctx = world.ctx.read();
            let (a, b) = world.plan.social_pairs[0];
            ctx.interactions().frequency(a, b)
        };
        let full = run_spam(&steady);
        let half = run_spam(&bursty);
        assert!(
            half < full * 0.7,
            "bursty collusion must emit far fewer interactions: {half} vs {full}"
        );
        assert!(half > 0.0, "bursts still fire in active cycles");
    }

    #[test]
    fn whitewash_resets_colluder_records() {
        // Under eBay with B=0.2 in MCM, the *boosting* colluders receive no
        // spam themselves and accumulate negative service records;
        // whitewashing wipes them, so no washed colluder can end deeply
        // negative.
        let scenario = ScenarioConfig::small()
            .with_collusion(CollusionModel::MultiNode)
            .with_colluder_behavior(0.2)
            .with_whitewash(true);
        let mut r = rng(22);
        let world = SimWorld::build(&scenario, &mut r);
        let mut system = EBayModel::new(scenario.nodes);
        let _ = run(&world, &scenario, &mut system, &mut r);
        for c in scenario.colluder_ids() {
            assert!(
                system.raw_score(c) >= -2.0,
                "whitewashed colluder {c} should not carry a deep negative record: {}",
                system.raw_score(c)
            );
        }
    }

    #[test]
    fn whitewash_changes_outcomes_deterministically() {
        let base = ScenarioConfig::small()
            .with_collusion(CollusionModel::MultiNode)
            .with_colluder_behavior(0.2);
        let run_with = |whitewash: bool| {
            let scenario = base.clone().with_whitewash(whitewash);
            let mut r = rng(23);
            let world = SimWorld::build(&scenario, &mut r);
            let mut system = EBayModel::new(scenario.nodes);
            run(&world, &scenario, &mut system, &mut r).final_summary
        };
        // Same seed, one flag flipped: the reset hook must actually bite.
        assert_ne!(run_with(true), run_with(false));
        // And stay reproducible.
        assert_eq!(run_with(true), run_with(true));
    }

    #[test]
    fn churn_resets_normal_nodes_but_spares_colluders() {
        let scenario = ScenarioConfig::small()
            .with_collusion(CollusionModel::PairWise)
            .with_churn(0.3)
            .with_cycles(6);
        let mut r = rng(31);
        let world = SimWorld::build(&scenario, &mut r);
        let mut system = EBayModel::new(scenario.nodes);
        let result = run(&world, &scenario, &mut system, &mut r);
        // Churned normals lose their accumulated standing, so the average
        // normal raw score must be well below the no-churn run's.
        let churned_mean: f64 = scenario
            .normal_ids()
            .iter()
            .map(|&v| system.raw_score(v))
            .sum::<f64>()
            / scenario.normal_ids().len() as f64;
        let baseline = {
            let s2 = ScenarioConfig::small()
                .with_collusion(CollusionModel::PairWise)
                .with_cycles(6);
            let mut r2 = rng(31);
            let world2 = SimWorld::build(&s2, &mut r2);
            let mut sys2 = EBayModel::new(s2.nodes);
            let _ = run(&world2, &s2, &mut sys2, &mut r2);
            s2.normal_ids()
                .iter()
                .map(|&v| sys2.raw_score(v))
                .sum::<f64>()
                / s2.normal_ids().len() as f64
        };
        assert!(
            churned_mean < baseline,
            "churn must erode accumulated normal standing: {churned_mean} vs {baseline}"
        );
        // Determinism with churn on.
        assert_eq!(result.final_summary, {
            let mut r3 = rng(31);
            let world3 = SimWorld::build(&scenario, &mut r3);
            let mut sys3 = EBayModel::new(scenario.nodes);
            run(&world3, &scenario, &mut sys3, &mut r3).final_summary
        });
    }

    #[test]
    fn capacity_is_respected_per_query_cycle() {
        // With capacity 1, each node issues at most one request per query
        // cycle, so the total is bounded by nodes × query cycles × cycles.
        let mut scenario = ScenarioConfig::small();
        scenario.capacity_per_query_cycle = 1;
        scenario.sim_cycles = 2;
        let mut r = rng(9);
        let world = SimWorld::build(&scenario, &mut r);
        let mut system = EBayModel::new(scenario.nodes);
        let result = run(&world, &scenario, &mut system, &mut r);
        let max_possible = (scenario.nodes * scenario.query_cycles * scenario.sim_cycles) as u64;
        assert!(result.requests_total <= max_possible);
        assert!(result.requests_total > 0);
    }
}
