//! The in-process reputation pipeline behind the daemon: event
//! application, tick-based recompute, and published score boards.
//!
//! [`ReputationService`] owns the live substrate (a [`SharedSocialContext`]
//! wrapping `SocialGraph` + `InteractionTracker` + interest profiles) and
//! the decorated engine (`WithSocialTrust<EigenTrust>` — warm-started
//! blocked power iteration behind the B1–B4 detector and Gaussian
//! rescaling). Events mutate the live substrate through `DirtyLog`; the
//! per-cycle snapshot refresh inside `end_cycle` turns that dirt into
//! incremental CSR shard patches.
//!
//! Consistency contract: queries never see a half-applied state. A tick
//! (`ReputationService::tick`) runs one full `end_cycle` and publishes an
//! immutable [`ScoreBoard`]; HTTP readers hold one `Arc<ScoreBoard>` for a
//! whole request. The **tick journal** records the cumulative event count
//! at every completed tick, which makes the daemon's output exactly
//! reproducible offline: [`replay_offline`] applies the same events with
//! the same tick boundaries and yields bit-for-bit identical scores (the
//! integration tests enforce this over HTTP).

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};
use std::time::{Duration, Instant};

use socialtrust::prelude::*;
use socialtrust::telemetry::trace::names as trace_names;
use socialtrust::telemetry::TraceDump;

use crate::event::ServerEvent;

/// Fixed-capacity pipeline parameters. The engine's node count is set at
/// construction (EigenTrust's trust vector and pretrust distribution are
/// sized once), so the daemon rejects events that reference ids at or
/// beyond `nodes` instead of growing.
#[derive(Debug, Clone, Copy)]
pub struct ServiceConfig {
    /// Node capacity. Events referencing ids `>= nodes` are rejected.
    pub nodes: usize,
    /// Interest-category universe for Ωs bitsets.
    pub interests: u16,
    /// The first `pretrusted` node ids form the EigenTrust pretrust set.
    pub pretrusted: usize,
    /// SocialTrust thresholds and measurement modes.
    pub social: SocialTrustConfig,
}

impl Default for ServiceConfig {
    fn default() -> Self {
        ServiceConfig {
            nodes: 1024,
            interests: 64,
            pretrusted: 16,
            social: SocialTrustConfig::default(),
        }
    }
}

/// How many ranked nodes the per-tick score index keeps. `/scores`
/// requests with `top` at or below this are an O(top) slice of the
/// shared prefix; larger requests fall back to a per-request partial
/// sort (`select_nth_unstable_by`), still avoiding a full-vector sort.
const RANK_PREFIX: usize = 1024;

/// One published, immutable view of the pipeline after a completed tick.
#[derive(Debug)]
pub struct ScoreBoard {
    /// Completed-tick count (0 for the boot board).
    pub tick: u64,
    /// Trace-cycle id of the most recent tick (`tick - 1`), used to join
    /// `/explain` queries against `trace`.
    pub cycle: u64,
    /// Cumulative events applied when this board was published.
    pub events_applied: u64,
    /// The full trust vector as of this tick.
    pub scores: Vec<f64>,
    /// The tick journal as of this board (cumulative applied-event count
    /// per tick), which `/journal` serves.
    pub journal: Vec<u64>,
    /// Decision-provenance spans of the most recent tick (drained from
    /// the tracer, so each board carries exactly its own cycle).
    pub trace: TraceDump,
    /// Lazily-built score-descending index prefix (see [`RANK_PREFIX`]);
    /// the writer thread warms it once per publish, off the request path.
    ranking: OnceLock<Arc<[u32]>>,
    /// Lazily-rendered body for the default `/scores` request.
    pub cached_scores_body: OnceLock<Arc<str>>,
    /// Lazily-rendered `/journal` body.
    pub cached_journal_body: OnceLock<Arc<str>>,
}

impl ScoreBoard {
    /// Deterministic ranking order: score descending, node id ascending
    /// on ties (matching the pre-cache `/scores` sort exactly).
    fn rank_cmp(scores: &[f64]) -> impl Fn(&u32, &u32) -> std::cmp::Ordering + '_ {
        |&a, &b| {
            scores[b as usize]
                .partial_cmp(&scores[a as usize])
                .unwrap_or(std::cmp::Ordering::Equal)
                .then(a.cmp(&b))
        }
    }

    /// The `k` best-ranked node ids, in order. `select_nth_unstable_by`
    /// partitions the top `k` in O(n), then only the prefix is sorted —
    /// no full-vector O(n log n) sort for any `k < n`.
    fn rank_top(scores: &[f64], k: usize) -> Vec<u32> {
        let mut order: Vec<u32> = (0..scores.len() as u32).collect();
        let k = k.min(order.len());
        if k < order.len() {
            order.select_nth_unstable_by(k, Self::rank_cmp(scores));
            order.truncate(k);
        }
        order.sort_unstable_by(Self::rank_cmp(scores));
        order
    }

    /// The shared score-descending index prefix, built at most once per
    /// board. The daemon warms it on its writer thread right before
    /// publishing, so requests normally never pay for it.
    pub fn ranking(&self) -> &Arc<[u32]> {
        self.ranking
            .get_or_init(|| Self::rank_top(&self.scores, RANK_PREFIX).into())
    }

    /// The `top` best-ranked node ids: an O(top) slice of the shared
    /// prefix when it covers the request, else a per-request partial
    /// sort.
    pub fn top_nodes(&self, top: usize) -> Vec<u32> {
        let ranking = self.ranking();
        if top <= ranking.len() || ranking.len() == self.scores.len() {
            ranking[..top.min(ranking.len())].to_vec()
        } else {
            Self::rank_top(&self.scores, top)
        }
    }
}

/// The live pipeline plus its tick journal.
pub struct ReputationService {
    ctx: SharedSocialContext,
    engine: WithSocialTrust<EigenTrust>,
    telemetry: Telemetry,
    config: ServiceConfig,
    events_applied: u64,
    events_rejected: u64,
    /// Cumulative `events_applied` at each completed tick.
    journal: Vec<u64>,
}

impl ReputationService {
    /// Build an empty pipeline at `config` capacity, instrumented into
    /// `telemetry` (whose tracer should sample every cycle if `/explain`
    /// is to serve non-empty answers).
    pub fn new(config: ServiceConfig, telemetry: &Telemetry) -> ReputationService {
        assert!(config.nodes >= 2, "server needs at least two nodes");
        let mut ctx_inner = SocialContext::new(config.nodes, config.interests);
        ctx_inner.attach_telemetry(telemetry);
        let ctx = SharedSocialContext::new(ctx_inner);
        let pretrusted: Vec<NodeId> = (0..config.pretrusted.clamp(1, config.nodes))
            .map(NodeId::from)
            .collect();
        let mut engine = WithSocialTrust::new(
            EigenTrust::with_defaults(config.nodes, &pretrusted),
            ctx.clone(),
            config.social,
        );
        engine.attach_telemetry(telemetry);
        ReputationService {
            ctx,
            engine,
            telemetry: telemetry.clone(),
            config,
            events_applied: 0,
            events_rejected: 0,
            journal: Vec::new(),
        }
    }

    /// The pipeline's fixed configuration.
    pub fn config(&self) -> &ServiceConfig {
        &self.config
    }

    /// Cumulative applied-event count.
    pub fn events_applied(&self) -> u64 {
        self.events_applied
    }

    /// Events rejected for referencing out-of-capacity nodes.
    pub fn events_rejected(&self) -> u64 {
        self.events_rejected
    }

    /// Events applied since the last completed tick.
    pub fn pending_events(&self) -> u64 {
        self.events_applied - self.journal.last().copied().unwrap_or(0)
    }

    /// The tick journal: cumulative `events_applied` at each tick.
    pub fn journal(&self) -> &[u64] {
        &self.journal
    }

    fn in_range(&self, id: u32) -> bool {
        (id as usize) < self.config.nodes
    }

    /// Apply one event to the live substrate. Returns `Err` (and counts a
    /// rejection) when the event references a node outside the fixed
    /// capacity; never panics on any [`ServerEvent`].
    pub fn apply(&mut self, event: &ServerEvent) -> Result<(), String> {
        let reject = |this: &mut Self, what: String| {
            this.events_rejected += 1;
            Err(what)
        };
        match *event {
            ServerEvent::Rating {
                rater,
                ratee,
                value,
                interest,
            } => {
                if !self.in_range(rater) || !self.in_range(ratee) {
                    return reject(self, format!("rating {rater}->{ratee} out of capacity"));
                }
                if interest.is_some_and(|i| i >= self.config.interests) {
                    return reject(
                        self,
                        format!("rating {rater}->{ratee} interest out of capacity"),
                    );
                }
                let (rater, ratee) = (NodeId(rater), NodeId(ratee));
                let rating = match interest {
                    Some(i) => Rating::with_interest(rater, ratee, value, InterestId(i)),
                    None => Rating::new(rater, ratee, value),
                };
                self.engine.record(rating);
                let mut ctx = self.ctx.write();
                match interest {
                    Some(i) => ctx.record_request(rater, ratee, InterestId(i)),
                    None => ctx.record_interaction(rater, ratee, 1.0),
                }
            }
            ServerEvent::EdgeAdd { a, b, rel } => {
                if !self.in_range(a) || !self.in_range(b) {
                    return reject(self, format!("edge_add {a}-{b} out of capacity"));
                }
                self.ctx.write().graph_mut().add_relationship(
                    NodeId(a),
                    NodeId(b),
                    rel.relationship(),
                );
            }
            ServerEvent::EdgeRemove { a, b } => {
                if !self.in_range(a) || !self.in_range(b) {
                    return reject(self, format!("edge_remove {a}-{b} out of capacity"));
                }
                self.ctx
                    .write()
                    .graph_mut()
                    .remove_edge(NodeId(a), NodeId(b));
            }
            ServerEvent::Profile {
                node,
                ref declare,
                ref requests,
            } => {
                if !self.in_range(node) {
                    return reject(self, format!("profile {node} out of capacity"));
                }
                if declare
                    .iter()
                    .chain(requests.iter().map(|(id, _)| id))
                    .any(|&id| id >= self.config.interests)
                {
                    return reject(self, format!("profile {node} interest out of capacity"));
                }
                let mut ctx = self.ctx.write();
                let profile = ctx.profile_mut(NodeId(node));
                for &id in declare {
                    profile.declared_mut().insert(InterestId(id));
                }
                for &(id, count) in requests {
                    profile.record_requests(InterestId(id), count);
                }
            }
        }
        self.events_applied += 1;
        Ok(())
    }

    /// Run one reputation cycle (detector pass, Gaussian rescaling,
    /// warm-started blocked EigenTrust) under a provenance trace root,
    /// append the tick to the journal, and return the published board.
    pub fn tick(&mut self) -> Arc<ScoreBoard> {
        let cycle = self.journal.len() as u64;
        {
            let mut root = self.telemetry.tracer().begin_root(trace_names::CYCLE);
            if root.is_recording() {
                root.set_attr("cycle", cycle);
                root.set_attr("system", self.engine.name());
            }
            self.engine.end_cycle();
        }
        self.journal.push(self.events_applied);
        Arc::new(ScoreBoard {
            tick: self.journal.len() as u64,
            cycle,
            events_applied: self.events_applied,
            scores: self.engine.reputations().to_vec(),
            journal: self.journal.clone(),
            // Drain the ring so each board carries exactly this tick's
            // spans and tracer memory stays bounded across long runs.
            trace: TraceDump {
                traces: self.telemetry.tracer().take_traces(),
                stats: self.telemetry.tracer().stats(),
            },
            ranking: OnceLock::new(),
            cached_scores_body: OnceLock::new(),
            cached_journal_body: OnceLock::new(),
        })
    }

    /// The pre-first-tick board: initial (pretrust-distribution) scores,
    /// no provenance.
    pub fn boot_board(&self) -> Arc<ScoreBoard> {
        Arc::new(ScoreBoard {
            tick: self.journal.len() as u64,
            cycle: (self.journal.len() as u64).saturating_sub(1),
            events_applied: self.events_applied,
            scores: self.engine.reputations().to_vec(),
            journal: self.journal.clone(),
            trace: TraceDump {
                traces: Vec::new(),
                stats: self.telemetry.tracer().stats(),
            },
            ranking: OnceLock::new(),
            cached_scores_body: OnceLock::new(),
            cached_journal_body: OnceLock::new(),
        })
    }
}

/// Replay `events` through a fresh pipeline with the exact tick
/// boundaries of `journal` (cumulative applied-event counts, as served by
/// the daemon's `/journal` endpoint) and return the final board. Because
/// the daemon and this function share every code path below the thread
/// layer, the result is bit-for-bit identical to what the live server
/// published — the integration contract for `/score`.
///
/// Events that the live server rejected (out-of-capacity ids) must be
/// filtered out by the caller; `journal` counts applied events only.
pub fn replay_offline(
    config: ServiceConfig,
    events: &[ServerEvent],
    journal: &[u64],
) -> Arc<ScoreBoard> {
    let telemetry = Telemetry::with_parts(
        EventSink::disabled(),
        Tracer::new(TracerConfig::with_sample(SampleMode::Full)),
    );
    let mut service = ReputationService::new(config, &telemetry);
    let mut next = 0usize;
    let mut board = service.boot_board();
    for &boundary in journal {
        let boundary = boundary as usize;
        assert!(
            boundary <= events.len(),
            "journal boundary {boundary} beyond {} events",
            events.len()
        );
        for event in &events[next..boundary] {
            service
                .apply(event)
                .expect("replayed events were applied by the live server");
        }
        next = boundary;
        board = service.tick();
    }
    board
}

/// Operational health of the daemon, derived by the watchdog (and on
/// demand by `/healthz`) from the writer thread's heartbeat age, the live
/// ingest lag, and the worker-panic count.
///
/// The states are ordered by severity, and the derivation is monotone in
/// its inputs:
///
/// * **Ok** — the writer thread beat recently and ingest is keeping up.
/// * **Degraded** — still ticking, but the oldest pending (unticked)
///   event has waited longer than `degraded_after`, or an HTTP worker
///   has panicked since boot. Queries are served but answers lag.
/// * **Stalled** — the writer thread has not beaten its heartbeat within
///   `stall_after`. `/healthz` reports 503 so load balancers stop
///   routing to this instance.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum HealthState {
    /// Ticking on schedule, ingest keeping up.
    Ok,
    /// Ticking, but ingest lag exceeds the threshold or a worker panicked.
    Degraded,
    /// Writer-thread heartbeat is older than the stall threshold.
    Stalled,
}

impl HealthState {
    /// Lowercase wire name used in `/healthz` JSON and transition logs.
    pub fn as_str(self) -> &'static str {
        match self {
            HealthState::Ok => "ok",
            HealthState::Degraded => "degraded",
            HealthState::Stalled => "stalled",
        }
    }

    /// Value published on the `server_health_state` gauge (0/1/2).
    pub fn gauge_value(self) -> f64 {
        match self {
            HealthState::Ok => 0.0,
            HealthState::Degraded => 1.0,
            HealthState::Stalled => 2.0,
        }
    }

    /// HTTP status `/healthz` answers with in this state: 503 only when
    /// stalled, so degraded instances keep serving (their answers are
    /// correct, just lagging).
    pub fn http_status(self) -> u16 {
        match self {
            HealthState::Stalled => 503,
            _ => 200,
        }
    }
}

/// Heartbeat-driven health derivation, shared by the writer thread (which
/// beats it), the watchdog (which samples it on the recorder interval),
/// and `/healthz` (which assesses it per request).
///
/// The heartbeat is stored as milliseconds since a construction-time
/// anchor in an `AtomicU64`, so beating is a single relaxed store and the
/// machine needs no lock.
#[derive(Debug)]
pub struct HealthMachine {
    started: Instant,
    /// Milliseconds since `started` of the most recent beat.
    heartbeat_ms: AtomicU64,
    stall_after: Duration,
    degraded_after: Duration,
}

impl HealthMachine {
    /// A machine whose heartbeat starts "fresh" (age zero at boot, so a
    /// daemon is Ok until it has actually missed `stall_after`).
    pub fn new(stall_after: Duration, degraded_after: Duration) -> Self {
        HealthMachine {
            started: Instant::now(),
            heartbeat_ms: AtomicU64::new(0),
            stall_after,
            degraded_after,
        }
    }

    /// Records a writer-thread heartbeat (called every scheduler slice, not
    /// just on completed ticks, so slow ticks don't read as stalls).
    pub fn beat(&self) {
        let ms = self.started.elapsed().as_millis() as u64;
        self.heartbeat_ms.store(ms, Ordering::Relaxed);
    }

    /// Time since the most recent beat.
    pub fn heartbeat_age(&self) -> Duration {
        let beat = Duration::from_millis(self.heartbeat_ms.load(Ordering::Relaxed));
        self.started.elapsed().saturating_sub(beat)
    }

    /// Stall threshold this machine was built with.
    pub fn stall_after(&self) -> Duration {
        self.stall_after
    }

    /// Derives the current state from the heartbeat age, the live lag of
    /// the oldest pending (unticked) event, and the worker-panic count.
    pub fn assess(&self, ingest_lag: Option<Duration>, worker_panics: u64) -> HealthState {
        if self.heartbeat_age() >= self.stall_after {
            return HealthState::Stalled;
        }
        let lagging = ingest_lag.is_some_and(|lag| lag >= self.degraded_after);
        if lagging || worker_panics > 0 {
            return HealthState::Degraded;
        }
        HealthState::Ok
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::RelKind;

    fn small_config() -> ServiceConfig {
        ServiceConfig {
            nodes: 16,
            interests: 8,
            pretrusted: 2,
            ..ServiceConfig::default()
        }
    }

    fn telemetry() -> Telemetry {
        Telemetry::with_parts(
            EventSink::disabled(),
            Tracer::new(TracerConfig::with_sample(SampleMode::Full)),
        )
    }

    #[test]
    fn applies_events_and_ticks() {
        let t = telemetry();
        let mut svc = ReputationService::new(small_config(), &t);
        svc.apply(&ServerEvent::EdgeAdd {
            a: 1,
            b: 2,
            rel: RelKind::Friend,
        })
        .unwrap();
        svc.apply(&ServerEvent::Rating {
            rater: 1,
            ratee: 2,
            value: 1.0,
            interest: Some(3),
        })
        .unwrap();
        assert_eq!(svc.pending_events(), 2);
        let board = svc.tick();
        assert_eq!(board.tick, 1);
        assert_eq!(board.events_applied, 2);
        assert_eq!(board.scores.len(), 16);
        assert_eq!(svc.journal(), &[2]);
        assert_eq!(svc.pending_events(), 0);
        let total: f64 = board.scores.iter().sum();
        assert!((total - 1.0).abs() < 1e-9, "trust vector sums to 1");
    }

    #[test]
    fn rejects_out_of_capacity_events() {
        let t = telemetry();
        let mut svc = ReputationService::new(small_config(), &t);
        assert!(svc
            .apply(&ServerEvent::Rating {
                rater: 1,
                ratee: 99,
                value: 1.0,
                interest: None,
            })
            .is_err());
        assert!(svc
            .apply(&ServerEvent::EdgeAdd {
                a: 99,
                b: 1,
                rel: RelKind::Kin,
            })
            .is_err());
        assert!(svc
            .apply(&ServerEvent::Profile {
                node: 1,
                declare: vec![200],
                requests: vec![],
            })
            .is_err());
        assert_eq!(svc.events_rejected(), 3);
        assert_eq!(svc.events_applied(), 0);
    }

    #[test]
    fn ranking_prefix_matches_full_sort() {
        // Synthetic scores with duplicates so the node-id tie-break is
        // exercised; compare against the pre-cache full-sort ordering.
        let scores: Vec<f64> = (0..4000u32)
            .map(|k| (k.wrapping_mul(2654435761).rotate_right(7) % 97) as f64 / 97.0)
            .collect();
        let mut full: Vec<u32> = (0..scores.len() as u32).collect();
        full.sort_by(|&a, &b| {
            scores[b as usize]
                .partial_cmp(&scores[a as usize])
                .unwrap_or(std::cmp::Ordering::Equal)
                .then(a.cmp(&b))
        });
        for k in [0usize, 1, 10, 96, 1023, 1024, 1025, 3999, 4000, 5000] {
            assert_eq!(
                ScoreBoard::rank_top(&scores, k),
                full[..k.min(full.len())],
                "rank_top({k}) diverged from the full sort"
            );
        }
    }

    #[test]
    fn board_top_nodes_covers_prefix_and_fallback() {
        let t = telemetry();
        let mut svc = ReputationService::new(small_config(), &t);
        svc.apply(&ServerEvent::Rating {
            rater: 1,
            ratee: 2,
            value: 1.0,
            interest: None,
        })
        .unwrap();
        let board = svc.tick();
        assert_eq!(board.journal, vec![1], "journal published on the board");
        // 16 nodes < RANK_PREFIX: the prefix is the full ranking, and
        // any top (including past the end) slices it consistently.
        assert_eq!(board.ranking().len(), 16);
        assert_eq!(board.top_nodes(5), board.ranking()[..5].to_vec());
        assert_eq!(board.top_nodes(100), board.ranking().to_vec());
        let scores = &board.scores;
        for pair in board.top_nodes(16).windows(2) {
            let (a, b) = (pair[0] as usize, pair[1] as usize);
            assert!(
                scores[a] > scores[b] || (scores[a] == scores[b] && a < b),
                "ranking out of order at {a}/{b}"
            );
        }
    }

    #[test]
    fn replay_matches_live_sequence_bit_for_bit() {
        let events: Vec<ServerEvent> = (0..40)
            .map(|k| match k % 4 {
                0 => ServerEvent::EdgeAdd {
                    a: k % 8,
                    b: (k + 1) % 8,
                    rel: RelKind::Friend,
                },
                1 => ServerEvent::Rating {
                    rater: k % 8,
                    ratee: (k + 3) % 8,
                    value: if k % 8 == 0 { -1.0 } else { 1.0 },
                    interest: Some((k % 5) as u16),
                },
                2 => ServerEvent::Profile {
                    node: k % 8,
                    declare: vec![(k % 7) as u16],
                    requests: vec![((k % 7) as u16, 2)],
                },
                _ => ServerEvent::Rating {
                    rater: (k + 2) % 8,
                    ratee: k % 8,
                    value: 0.5,
                    interest: None,
                },
            })
            .collect();
        // "Live" pass: irregular tick boundaries.
        let t = telemetry();
        let mut live = ReputationService::new(small_config(), &t);
        let mut board = live.boot_board();
        for (idx, event) in events.iter().enumerate() {
            live.apply(event).unwrap();
            if idx % 7 == 6 {
                board = live.tick();
            }
        }
        board = if live.pending_events() > 0 {
            live.tick()
        } else {
            board
        };
        // Offline replay with the recorded journal.
        let replayed = replay_offline(small_config(), &events, live.journal());
        assert_eq!(board.tick, replayed.tick);
        assert_eq!(board.events_applied, replayed.events_applied);
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<u64>>();
        assert_eq!(bits(&board.scores), bits(&replayed.scores));
    }

    #[test]
    fn health_machine_derives_states_monotonically() {
        let hm = HealthMachine::new(Duration::from_millis(80), Duration::from_millis(40));
        // Fresh machine: heartbeat age ~0 → Ok.
        assert_eq!(hm.assess(None, 0), HealthState::Ok);
        // Ingest lag below the degraded threshold is still Ok.
        assert_eq!(
            hm.assess(Some(Duration::from_millis(10)), 0),
            HealthState::Ok
        );
        // Lag at/over the threshold, or any worker panic, degrades.
        assert_eq!(
            hm.assess(Some(Duration::from_millis(40)), 0),
            HealthState::Degraded
        );
        assert_eq!(hm.assess(None, 1), HealthState::Degraded);
        // A missed heartbeat dominates everything else.
        std::thread::sleep(Duration::from_millis(100));
        assert_eq!(hm.assess(None, 0), HealthState::Stalled);
        assert_eq!(hm.assess(Some(Duration::ZERO), 0), HealthState::Stalled);
        // Beating recovers the machine.
        hm.beat();
        assert_eq!(hm.assess(None, 0), HealthState::Ok);
        assert!(hm.heartbeat_age() < Duration::from_millis(50));
        // Severity ordering and wire constants.
        assert!(HealthState::Ok < HealthState::Degraded);
        assert!(HealthState::Degraded < HealthState::Stalled);
        assert_eq!(HealthState::Stalled.as_str(), "stalled");
        assert_eq!(HealthState::Stalled.http_status(), 503);
        assert_eq!(HealthState::Degraded.http_status(), 200);
        assert_eq!(HealthState::Degraded.gauge_value(), 1.0);
    }
}
