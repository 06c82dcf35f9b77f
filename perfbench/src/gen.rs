//! Seeded workload generator: the event log the daemon tails and the
//! request schedule the load generator replays.
//!
//! Everything is a pure function of the workload spec, the seed and the run
//! length, so the same arguments give a byte-identical log and schedule.
//! The generator also keeps what the daemon must never see: which ids
//! collude and which lines are malformed or out of capacity.

use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use socialtrust::sim::collusion::{BoostEdge, CollusionModel, CollusionPlan};
use socialtrust::sim::scenario::ScenarioConfig;
use socialtrust_server::event::{render_event, RelKind, ServerEvent};

/// Interest-category universe passed to the daemon (`--interests`).
pub const INTERESTS: u16 = 64;
/// Pretrust set size passed to the daemon (`--pretrusted`).
pub const PRETRUSTED: u32 = 16;
/// Honest profiles draw from `0..HONEST_INTERESTS`; PCM colluders draw from
/// the categories above it, split so the two halves of a pair share none.
const HONEST_INTERESTS: u16 = 56;
/// Share of fixed-rate events that are colluder boost traffic: at 20k
/// events/s this puts each boost edge well past the detector's frequency
/// gate within one update interval.
const COLLUSION_SHARE: f64 = 0.14;
/// Colluders per collusion model.
const GROUP: u32 = 20;
/// Organic ratings each colluder has given in the initial state.
const ORGANIC_HISTORY: usize = 20;
/// The paper's three collusion models plus the negative campaign, one group
/// each, so B1 (PCM, socially unrelated), B2 (MCM/MMM, socially adjacent to
/// low-reputed boosted nodes), B3 (PCM, disjoint interests) and B4 (NEG,
/// identical interests to the victim) all have traffic that matches them.
const MODELS: [CollusionModel; 4] = [
    CollusionModel::PairWise,
    CollusionModel::MultiNode,
    CollusionModel::MultiMutual,
    CollusionModel::NegativeCampaign,
];
/// Malformed lines, rotated through (parse errors the daemon must count).
const MALFORMED: [&str; 5] = [
    "not json at all",
    r#"{"type":"rating","rater":5,"ratee":5,"value":1}"#,
    r#"{"type":"rating","rater":1,"ratee":2,"value":7}"#,
    r#"{"type":"warp","a":1}"#,
    r#"{"type":"edge_add","a":3"#,
];

/// What the daemon should do with a line.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Fate {
    Applied,
    Malformed,
    Rejected,
}

/// Log lines in one contiguous buffer, so a batch of due lines is one slice.
#[derive(Debug, Default, Clone, PartialEq)]
pub struct Lines {
    pub bytes: Vec<u8>,
    /// End offset (exclusive, after the `\n`) of each line.
    pub ends: Vec<usize>,
    pub fates: Vec<Fate>,
}

impl Lines {
    fn push(&mut self, text: &str, fate: Fate) {
        self.bytes.extend_from_slice(text.as_bytes());
        self.bytes.push(b'\n');
        self.ends.push(self.bytes.len());
        self.fates.push(fate);
    }

    pub fn len(&self) -> usize {
        self.ends.len()
    }

    fn start(&self, i: usize) -> usize {
        if i == 0 {
            0
        } else {
            self.ends[i - 1]
        }
    }

    /// Bytes of lines `from..to`, newlines included.
    pub fn span(&self, from: usize, to: usize) -> &[u8] {
        &self.bytes[self.start(from)..self.start(to)]
    }

    /// Line `i` without its newline.
    pub fn line(&self, i: usize) -> &str {
        std::str::from_utf8(&self.bytes[self.start(i)..self.ends[i] - 1])
            .expect("generated lines are UTF-8")
    }

    pub fn count(&self, fate: Fate) -> u64 {
        self.fates.iter().filter(|&&f| f == fate).count() as u64
    }
}

/// Endpoint class of a scheduled query.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    Score,
    Scores,
    Explain,
    Healthz,
    Metrics,
}

impl Kind {
    /// Whether the response body carries `events_applied`.
    pub fn shows_applied(self) -> bool {
        matches!(self, Kind::Score | Kind::Scores | Kind::Healthz)
    }
}

/// One scheduled request: due `due_ns` after the phase starts.
#[derive(Debug, Clone, PartialEq)]
pub struct Query {
    pub due_ns: u64,
    pub kind: Kind,
    pub target: String,
}

/// Which query mix a workload runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mix {
    /// Mostly `/score`, the three `/scores` depths, `/explain`, `/healthz`,
    /// and one `/metrics` scrape per second.
    Serve,
    /// A light `/score`-heavy watch stream for freshness.
    Watch,
}

/// Shape of one workload.
#[derive(Debug, Clone, Copy)]
pub struct Spec {
    pub name: &'static str,
    pub nodes: u32,
    /// Random social edges per honest node, on top of a ring.
    pub extra_edges: f64,
    /// Honest ratings in the initial state.
    pub history: usize,
    /// Events per second in the fixed-rate phase.
    pub event_rate: f64,
    /// Queries per second in the fixed-rate phase.
    pub query_rate: f64,
    pub mix: Mix,
    /// Daemon `--tick-ms`.
    pub tick_ms: u64,
    /// Restart with `--replay` over the initial state (else bootstrap it
    /// through the live tail).
    pub replay_boot: bool,
    /// `colluder_trust_share` replays the initial state plus this many of
    /// the later events (fixed-rate, then burst), ticking once after the
    /// initial state and then every `share_every` events.
    pub share_prefix: usize,
    pub share_every: usize,
}

pub const SERVE: Spec = Spec {
    name: "serve",
    nodes: 10_000,
    extra_edges: 1.0,
    history: 8_000,
    event_rate: 200.0,
    query_rate: 8_000.0,
    mix: Mix::Serve,
    tick_ms: 1_000,
    replay_boot: true,
    share_prefix: 152_000,
    share_every: 10_000,
};

pub const STREAM: Spec = Spec {
    name: "stream",
    nodes: 100_000,
    extra_edges: 0.5,
    history: 30_000,
    event_rate: 20_000.0,
    query_rate: 2_000.0,
    mix: Mix::Watch,
    tick_ms: 2_000,
    replay_boot: false,
    share_prefix: 100_000,
    share_every: 20_000,
};

pub fn spec(name: &str) -> Option<Spec> {
    [SERVE, STREAM].into_iter().find(|s| s.name == name)
}

/// Rating events appended at once to measure `ingest_eps`: enough for
/// several seconds of ingest, so the burst spans several ticks.
const BURST: usize = 600_000;

/// Extra time the query schedule runs past the fixed-rate phase, so the
/// last appended events can still be seen (and their freshness sampled).
pub const QUERY_GRACE_S: f64 = 5.0;

/// One generated workload.
#[derive(Debug, Clone)]
pub struct Workload {
    pub spec: Spec,
    pub seconds: f64,
    /// The initial state (backlog for `--replay`, else the live bootstrap).
    pub boot: Lines,
    /// Fixed-rate phase: line `i` is due `i / event_rate` seconds in.
    pub stream: Lines,
    pub burst: Lines,
    pub queries: Vec<Query>,
    /// Every colluder id, sorted.
    pub colluders: Vec<u32>,
}

impl Workload {
    /// Due time of fixed-rate line `i`, in ns after the phase starts.
    pub fn event_due_ns(&self, i: usize) -> u64 {
        (i as f64 * 1e9 / self.spec.event_rate) as u64
    }

    /// Queries due within the fixed-rate phase proper (the rest is grace).
    pub fn phase_queries(&self) -> usize {
        let end = (self.seconds * 1e9) as u64;
        self.queries.partition_point(|q| q.due_ns < end)
    }
}

struct Gen {
    rng: ChaCha8Rng,
    nodes: u32,
    first_honest: u32,
    profiles: Vec<Vec<u16>>,
    edges: Vec<(u32, u32)>,
    /// Boost edges, each repeated `rate` times and shuffled: colluder
    /// traffic walks this wheel so each edge gets its plan's share.
    wheel: Vec<BoostEdge>,
    spin: usize,
    malformed: usize,
}

impl Gen {
    fn honest(&mut self) -> u32 {
        self.rng.gen_range(self.first_honest..self.nodes)
    }

    /// A popular honest node: a tenth of the honest nodes (the busy
    /// sellers) give and receive most of the traffic.
    fn popular(&mut self) -> u32 {
        let popular = (self.nodes - self.first_honest) / 10;
        self.first_honest + self.rng.gen_range(0..popular)
    }

    /// A rating target. Colluders also serve honest requests (the paper's
    /// colluders are service providers too) and get a fixed share of them.
    fn ratee(&mut self, rater: u32) -> u32 {
        loop {
            let u: f64 = self.rng.gen();
            let pick = if u < 0.05 {
                self.rng.gen_range(PRETRUSTED..self.first_honest)
            } else if u < 0.70 {
                self.popular()
            } else {
                self.rng.gen_range(0..self.nodes)
            };
            if pick != rater {
                return pick;
            }
        }
    }

    /// An organic rating of a service received: good with the provider's
    /// behaviour probability (the paper's 0.6 for colluders). Colluders
    /// also request services and rate them organically, so their trust
    /// rows are not made of boost edges alone.
    fn honest_rating(&mut self) -> ServerEvent {
        let u: f64 = self.rng.gen();
        let rater = if u < 0.02 {
            self.rng.gen_range(PRETRUSTED..self.first_honest)
        } else if u < 0.07 {
            self.rng.gen_range(0..PRETRUSTED)
        } else if u < 0.30 {
            self.popular()
        } else {
            self.honest()
        };
        self.rating_by(rater)
    }

    fn rating_by(&mut self, rater: u32) -> ServerEvent {
        let ratee = self.ratee(rater);
        let good = if (PRETRUSTED..self.first_honest).contains(&ratee) {
            0.6
        } else {
            0.9
        };
        let profile = &self.profiles[ratee as usize];
        let interest = profile[self.rng.gen_range(0..profile.len())];
        ServerEvent::Rating {
            rater,
            ratee,
            value: if self.rng.gen_bool(good) { 1.0 } else { -1.0 },
            interest: Some(interest),
        }
    }

    fn boost(&mut self) -> ServerEvent {
        let edge = self.wheel[self.spin % self.wheel.len()];
        self.spin += 1;
        let ratee = edge.ratee.index() as u32;
        let profile = &self.profiles[ratee as usize];
        ServerEvent::Rating {
            rater: edge.rater.index() as u32,
            ratee,
            value: edge.value,
            interest: Some(profile[self.spin % profile.len()]),
        }
    }

    fn random_profile(&mut self) -> Vec<u16> {
        let mut interests: Vec<u16> = (0..self.rng.gen_range(2..5))
            .map(|_| self.rng.gen_range(0..HONEST_INTERESTS))
            .collect();
        interests.sort_unstable();
        interests.dedup();
        interests
    }

    fn edge_add(&mut self, a: u32, b: u32) -> ServerEvent {
        self.edges.push((a, b));
        let rel = match self.rng.gen_range(0..3) {
            0 => RelKind::Friend,
            1 => RelKind::Colleague,
            _ => RelKind::Kin,
        };
        ServerEvent::EdgeAdd { a, b, rel }
    }

    /// Churn among honest nodes: remove a known edge or add a new one.
    fn churn(&mut self) -> ServerEvent {
        if self.rng.gen_bool(0.5) && !self.edges.is_empty() {
            let k = self.rng.gen_range(0..self.edges.len());
            let (a, b) = self.edges.swap_remove(k);
            ServerEvent::EdgeRemove { a, b }
        } else {
            self.churn_add()
        }
    }

    fn churn_add(&mut self) -> ServerEvent {
        let a = self.honest();
        let mut b = self.honest();
        while b == a {
            b = self.honest();
        }
        self.edge_add(a, b)
    }

    fn profile_update(&mut self) -> ServerEvent {
        let node = self.honest();
        let interest = self.rng.gen_range(0..HONEST_INTERESTS);
        let profile = &mut self.profiles[node as usize];
        if !profile.contains(&interest) {
            profile.push(interest);
        }
        ServerEvent::Profile {
            node,
            declare: vec![interest],
            requests: vec![(interest, self.rng.gen_range(1..4))],
        }
    }

    /// One fixed-rate or burst line.
    fn stream_line(&mut self, out: &mut Lines) {
        let u: f64 = self.rng.gen();
        if u < 0.005 {
            out.push(MALFORMED[self.malformed % MALFORMED.len()], Fate::Malformed);
            self.malformed += 1;
            return;
        }
        if u < 0.007 {
            let rater = self.nodes + self.rng.gen_range(0..1000);
            let ratee = self.honest();
            let event = ServerEvent::Rating {
                rater,
                ratee,
                value: 1.0,
                interest: None,
            };
            out.push(&render_event(&event), Fate::Rejected);
            return;
        }
        let event = if u < 0.017 {
            self.churn()
        } else if u < 0.037 {
            self.profile_update()
        } else if u < 0.037 + COLLUSION_SHARE {
            self.boost()
        } else {
            self.honest_rating()
        };
        out.push(&render_event(&event), Fate::Applied);
    }
}

/// Generate `spec`'s workload for a `seconds`-long fixed-rate phase.
pub fn generate(spec: Spec, seed: u64, seconds: f64) -> Workload {
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let first_honest = PRETRUSTED + GROUP * MODELS.len() as u32;
    let mut plans = Vec::new();
    for (g, &model) in MODELS.iter().enumerate() {
        // Each model's colluders occupy their own id block: the scenario's
        // "pretrusted" prefix is set to the block's offset.
        let scenario = ScenarioConfig {
            nodes: spec.nodes as usize,
            pretrusted_count: (PRETRUSTED + GROUP * g as u32) as usize,
            colluder_count: GROUP as usize,
            boosted_count: 3,
            ..ScenarioConfig::paper_default().with_collusion(model)
        };
        plans.push((model, CollusionPlan::build(&scenario, &mut rng)));
    }
    let mut gen = Gen {
        rng,
        nodes: spec.nodes,
        first_honest,
        profiles: vec![Vec::new(); spec.nodes as usize],
        edges: Vec::new(),
        wheel: Vec::new(),
        spin: 0,
        malformed: 0,
    };
    // Every node gets a profile; colluders' are then shaped per model.
    for node in 0..spec.nodes {
        gen.profiles[node as usize] = gen.random_profile();
    }
    let mut boot = Lines::default();
    let emit =
        |lines: &mut Lines, event: ServerEvent| lines.push(&render_event(&event), Fate::Applied);

    // Colluder profiles and social ties, per model.
    for (model, plan) in &plans {
        for edge in &plan.edges {
            for _ in 0..edge.rate {
                gen.wheel.push(*edge);
            }
        }
        match model {
            CollusionModel::PairWise => {
                for (k, &(a, b)) in plan.social_pairs.iter().enumerate() {
                    let spread = (INTERESTS - HONEST_INTERESTS) / 2;
                    let base = HONEST_INTERESTS + (k as u16 % spread);
                    gen.profiles[a.index()] = vec![base];
                    gen.profiles[b.index()] = vec![base + spread];
                }
            }
            CollusionModel::NegativeCampaign => {
                for edge in &plan.edges {
                    let victim = gen.profiles[edge.ratee.index()].clone();
                    gen.profiles[edge.rater.index()] = victim;
                }
            }
            _ => {
                for &(a, b) in &plan.social_pairs {
                    let shared = gen.random_profile();
                    gen.profiles[a.index()] = shared.clone();
                    gen.profiles[b.index()] = shared;
                    emit(
                        &mut boot,
                        ServerEvent::EdgeAdd {
                            a: a.index() as u32,
                            b: b.index() as u32,
                            rel: RelKind::Friend,
                        },
                    );
                }
            }
        }
    }
    gen.wheel.shuffle(&mut gen.rng);
    let colluders: Vec<u32> = (PRETRUSTED..first_honest).collect();

    // Honest social graph: a ring plus random chords.
    let honest: Vec<u32> = (0..PRETRUSTED).chain(first_honest..spec.nodes).collect();
    for w in 0..honest.len() {
        let event = gen.edge_add(honest[w], honest[(w + 1) % honest.len()]);
        emit(&mut boot, event);
    }
    for _ in 0..(honest.len() as f64 * spec.extra_edges) as usize {
        let event = gen.churn_add();
        emit(&mut boot, event);
    }
    for node in 0..spec.nodes {
        let declare = gen.profiles[node as usize].clone();
        if declare.is_empty() {
            continue;
        }
        let requests = vec![(declare[0], 1)];
        emit(
            &mut boot,
            ServerEvent::Profile {
                node,
                declare,
                requests,
            },
        );
    }
    // Rating history: honest ratings, then one full round of every boost
    // edge (so a single replay tick sees colluder frequencies).
    for _ in 0..spec.history {
        let event = gen.honest_rating();
        emit(&mut boot, event);
    }
    // Colluders are peers too: each has rated services organically, so no
    // colluder's trust row is made of boost edges alone.
    for colluder in PRETRUSTED..first_honest {
        for _ in 0..ORGANIC_HISTORY {
            let event = gen.rating_by(colluder);
            emit(&mut boot, event);
        }
    }
    for _ in 0..gen.wheel.len() {
        let event = gen.boost();
        emit(&mut boot, event);
    }

    let mut stream = Lines::default();
    for _ in 0..(spec.event_rate * seconds).round() as usize {
        gen.stream_line(&mut stream);
    }
    let mut burst = Lines::default();
    for _ in 0..BURST {
        let event = gen.honest_rating();
        emit(&mut burst, event);
    }
    let queries = schedule(&mut gen, spec, seconds + QUERY_GRACE_S, &colluders);
    Workload {
        spec,
        seconds,
        boot,
        stream,
        burst,
        queries,
        colluders,
    }
}

fn schedule(gen: &mut Gen, spec: Spec, seconds: f64, colluders: &[u32]) -> Vec<Query> {
    let count = (spec.query_rate * seconds).round() as usize;
    let mut queries = Vec::with_capacity(count + seconds as usize + 1);
    let mut next_scrape = 0u64;
    for j in 0..count {
        let due_ns = (j as f64 * 1e9 / spec.query_rate) as u64;
        if spec.mix == Mix::Serve && due_ns >= next_scrape {
            queries.push(Query {
                due_ns,
                kind: Kind::Metrics,
                target: "/metrics".into(),
            });
            next_scrape += 1_000_000_000;
        }
        let u: f64 = gen.rng.gen();
        let node = gen.rng.gen_range(0..gen.nodes);
        let (kind, target) = match spec.mix {
            Mix::Serve if u < 0.80 => (Kind::Score, format!("/score/{node}")),
            Mix::Serve if u < 0.86 => (Kind::Scores, "/scores?top=10".to_string()),
            Mix::Serve if u < 0.89 => (Kind::Scores, "/scores?top=100".to_string()),
            Mix::Serve if u < 0.90 => (Kind::Scores, "/scores?top=5000".to_string()),
            Mix::Serve if u < 0.95 => {
                let who = colluders[gen.rng.gen_range(0..colluders.len())];
                (Kind::Explain, format!("/explain/{who}"))
            }
            Mix::Serve => (Kind::Healthz, "/healthz".to_string()),
            Mix::Watch if u < 0.90 => (Kind::Score, format!("/score/{node}")),
            Mix::Watch if u < 0.95 => (Kind::Scores, "/scores?top=10".to_string()),
            Mix::Watch => (Kind::Healthz, "/healthz".to_string()),
        };
        queries.push(Query {
            due_ns,
            kind,
            target,
        });
    }
    queries
}

#[cfg(test)]
mod tests {
    use super::*;
    use socialtrust_server::event::parse_event;

    fn small(mut spec: Spec) -> Spec {
        spec.nodes = 2_000;
        spec.history = 500;
        spec.event_rate = 2_000.0;
        spec
    }

    #[test]
    fn same_seed_gives_identical_log_and_schedule() {
        for spec in [SERVE, STREAM] {
            let a = generate(small(spec), 7, 1.0);
            let b = generate(small(spec), 7, 1.0);
            assert_eq!(a.boot, b.boot);
            assert_eq!(a.stream, b.stream);
            assert_eq!(a.burst, b.burst);
            assert_eq!(a.queries, b.queries);
            assert_eq!(a.colluders, b.colluders);
            let c = generate(small(spec), 8, 1.0);
            assert_ne!(a.stream, c.stream, "another seed gives another log");
        }
    }

    #[test]
    fn fates_match_what_the_daemon_parser_does() {
        let w = generate(small(STREAM), 3, 2.0);
        for lines in [&w.boot, &w.stream, &w.burst] {
            for i in 0..lines.len() {
                let parsed = parse_event(lines.line(i));
                match lines.fates[i] {
                    Fate::Malformed => assert!(parsed.is_err(), "{}", lines.line(i)),
                    _ => assert!(parsed.is_ok(), "{}", lines.line(i)),
                }
            }
        }
        assert!(w.stream.count(Fate::Malformed) > 0);
        assert!(w.stream.count(Fate::Rejected) > 0);
        assert_eq!(w.colluders.len(), (GROUP * 4) as usize);
        assert!(w.colluders.iter().all(|c| (PRETRUSTED..96).contains(c)));
    }

    #[test]
    fn schedule_is_ordered_and_serve_scrapes_metrics_each_second() {
        let w = generate(small(SERVE), 1, 2.0);
        assert!(w.queries.windows(2).all(|p| p[0].due_ns <= p[1].due_ns));
        let scrapes = w.queries.iter().filter(|q| q.kind == Kind::Metrics).count();
        assert_eq!(scrapes, 2 + QUERY_GRACE_S as usize);
        assert!(w.phase_queries() < w.queries.len());
    }
}
