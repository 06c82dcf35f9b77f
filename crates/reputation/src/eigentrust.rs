//! EigenTrust (Kamvar, Schlosser & Garcia-Molina, WWW'03) — the
//! power-iteration reputation system the paper uses as its primary baseline.
//!
//! Each node `i` accumulates local satisfaction `s_ij` about each node `j`
//! (sum of rating values, `+1` authentic / `-1` inauthentic in the paper's
//! experiments). Local trust is normalized,
//!
//! ```text
//! c_ij = max(s_ij, 0) / Σ_j max(s_ij, 0)
//! ```
//!
//! with rows that have no positive trust defaulting to the pre-trusted
//! distribution `p`. The global trust vector is the fixed point of the
//! damped iteration
//!
//! ```text
//! t⁽ᵏ⁺¹⁾ = (1 − a)·Cᵀ t⁽ᵏ⁾ + a·p
//! ```
//!
//! The paper sets the pre-trusted weight `a = 0.5` in its experiments
//! ("*We set the weight of reputations from pretrusted nodes in EigenTrust
//! to 0.5*").
//!
//! Because ratings from high-reputation raters carry more weight (they are
//! mixed in proportionally to `t_rater`), EigenTrust is exactly the system
//! the paper shows to be vulnerable to mutual-boosting collusion (PCM /
//! MMM) — reproducing that vulnerability requires a faithful
//! implementation, which this is.
//!
//! The local-trust matrix is kept as sparse CSR-style satisfaction rows
//! (sorted id/value slices, no per-node maps) with positive-sum
//! normalizers `row_pos_i` (the dense `C` is never materialized). A
//! cycle's ratings fold in by a stable sort of the buffer on
//! `(rater, ratee)` and one merge per touched row, after which the
//! touched normalizers are recomputed. Then, once per cycle, a counting
//! sort over the rows rebuilds a flat **view** of `C` in gather form: for
//! each ratee `j`, its raters `i` in ascending order with the
//! pre-normalized weight `c_ij = s_ij / row_pos_i`, stored as `0.0` where
//! `s_ij ≤ 0`. Each output element `t'_j` is then a private, branch-free
//! accumulation over the contiguous arrays of column `j`, so the power
//! iteration runs blocked over contiguous `j` ranges, rayon-parallel, with
//! the L1 residual tree-reduced from per-block partials.
//!
//! The view reproduces, bit for bit, the iteration that skipped the zero
//! terms and divided `s_ij / row_pos_i` on every step. Column `j` still
//! sums from `a·p_j` over ascending `i` and ends with `w_default·p_j`, and
//! `c_ij` is the same IEEE quotient. Every trust value is `≥ +0.0` (it is
//! built from `a·p_j ≥ +0.0` plus non-negative products), so a term once
//! skipped — `t_i = 0`, a row without positive trust, or `s_ij ≤ 0` — now
//! adds `+0.0` to an accumulator that is never `−0.0`, which leaves it
//! unchanged. Because the sum for column `j` never crosses a block, the
//! blocked iteration is identical to the serial one for any block size
//! (only the residual's summation tree depends on the block count, which
//! can at most shift the stopping decision when the residual lands within
//! one ulp of `epsilon`). Between cycles the rows only lose entries (in
//! [`reset_node`](crate::system::ReputationSystem::reset_node)), so the
//! last view's column of a node is a superset of its live raters, which
//! makes the reset O(degree) instead of an O(n) scan over all rows.
//!
//! The power iteration warm-starts from the previous cycle's trust
//! vector — sound because the damped map is a contraction with a unique
//! fixed point, and visible as a drop in
//! [`last_iterations`](EigenTrust::last_iterations) when the rating stream
//! is sparse between cycles.

use serde::{Deserialize, Serialize};
use socialtrust_socnet::NodeId;
use socialtrust_telemetry::{
    trace::names as trace_names, Counter, Event, EventSink, Gauge, Telemetry, Tracer,
};

use crate::normalize::l1_distance;
use crate::rating::Rating;
use crate::system::{ConvergenceRecord, ReputationSystem};

/// Tunables for the EigenTrust engine.
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct EigenTrustConfig {
    /// The damping weight `a` toward the pre-trusted distribution.
    ///
    /// The original EigenTrust paper uses `a ≈ 0.1`; the SocialTrust paper
    /// says it "set the weight of reputations from pretrusted nodes to
    /// 0.5", but its own Figure 8(a) magnitudes (pre-trusted nodes at
    /// ~0.01, *below* the colluders) are only reachable with a small
    /// damping — `a = 0.5` would structurally pin ≥ 0.5 of the total trust
    /// mass on the 9 pre-trusted nodes. We therefore default to the
    /// standard `0.1` and expose the knob.
    pub pretrust_weight: f64,
    /// L1 convergence threshold for the power iteration.
    pub epsilon: f64,
    /// Safety cap on power-iteration steps.
    pub max_iterations: usize,
    /// Warm-start each power iteration from the previous cycle's trust
    /// vector instead of restarting from `p`.
    ///
    /// The damped iteration is an L1 contraction with factor `1 − a`, so
    /// it has a unique fixed point regardless of the start vector — warm
    /// and cold starts converge to the same reputations (within the
    /// `epsilon` stopping tolerance; the property tests assert this), but
    /// in the steady-state regime where few local trust values moved
    /// between cycles the previous vector is already near the fixed point
    /// and the iteration count collapses. Falls back to `p` on the first
    /// cycle and after [`reset_node`](crate::system::ReputationSystem::reset_node).
    pub warm_start: bool,
    /// Output rows per power-iteration block. Each block gathers its
    /// contiguous `j` range of `t'_j` independently; blocks are the unit
    /// of rayon fan-out and of the tree-reduced residual. Per-element
    /// results are bit-for-bit independent of this knob (see module docs).
    pub block_size: usize,
    /// Fan the blocks out over rayon. `false` runs the identical blocked
    /// computation on the calling thread — same arithmetic, same results,
    /// bit for bit (the property tests assert it).
    pub parallel: bool,
}

impl Default for EigenTrustConfig {
    fn default() -> Self {
        EigenTrustConfig {
            pretrust_weight: 0.1,
            epsilon: 1e-10,
            max_iterations: 1000,
            warm_start: true,
            block_size: 4096,
            parallel: true,
        }
    }
}

/// A sparse row as parallel sorted slices: ascending ratee ids with their
/// satisfaction sums — two `Vec`s per rater instead of a `BTreeMap` (one
/// heap block and cache-linear scans instead of a pointer-chased tree node
/// per entry).
#[derive(Debug, Clone, Default)]
struct SparseVec {
    ids: Vec<u32>,
    vals: Vec<f64>,
}

impl SparseVec {
    #[inline]
    fn get(&self, id: u32) -> Option<f64> {
        self.ids.binary_search(&id).ok().map(|p| self.vals[p])
    }

    /// Remove the entry for `id`; `true` if it existed.
    fn remove(&mut self, id: u32) -> bool {
        match self.ids.binary_search(&id) {
            Ok(p) => {
                self.ids.remove(p);
                self.vals.remove(p);
                true
            }
            Err(_) => false,
        }
    }

    /// Fold one rater's ratings into this row: `run` is sorted by ratee
    /// and holds each ratee's ratings in arrival order. One merge of the
    /// two sorted sequences into `merged`, copied back. An existing pair
    /// continues its left-to-right sum; a new pair starts from its first
    /// rating, not `0.0 + value` (which would turn a `−0.0` rating into
    /// `+0.0`).
    fn merge(&mut self, run: &[Rating], merged: &mut SparseVec) {
        merged.ids.clear();
        merged.vals.clear();
        let mut p = 0;
        let mut k = 0;
        while k < run.len() {
            let j = run[k].ratee.0;
            while p < self.ids.len() && self.ids[p] < j {
                merged.ids.push(self.ids[p]);
                merged.vals.push(self.vals[p]);
                p += 1;
            }
            let mut s = if self.ids.get(p) == Some(&j) {
                p += 1;
                self.vals[p - 1] + run[k].value
            } else {
                run[k].value
            };
            k += 1;
            while k < run.len() && run[k].ratee.0 == j {
                s += run[k].value;
                k += 1;
            }
            merged.ids.push(j);
            merged.vals.push(s);
        }
        merged.ids.extend_from_slice(&self.ids[p..]);
        merged.vals.extend_from_slice(&self.vals[p..]);
        self.ids.clone_from(&merged.ids);
        self.vals.clone_from(&merged.vals);
    }

    fn bytes(&self) -> usize {
        self.ids.capacity() * std::mem::size_of::<u32>()
            + self.vals.capacity() * std::mem::size_of::<f64>()
    }
}

/// The local-trust matrix `C` in gather form, rebuilt from the rows at
/// every `end_cycle` and read by the power iteration. Its vectors are
/// reused across cycles.
#[derive(Debug, Clone, Default)]
struct TrustView {
    /// Column `j` spans `raters[offsets[j]..offsets[j + 1]]`.
    offsets: Vec<u32>,
    /// The raters `i` of each column, ascending.
    raters: Vec<u32>,
    /// `c_ij = s_ij / row_pos_i`, parallel to `raters`; `0.0` where
    /// `s_ij ≤ 0` (which covers every entry of a row with `row_pos_i ≤ 0`,
    /// since `s_ij > 0` implies `row_pos_i ≥ s_ij`).
    weights: Vec<f64>,
    /// The rows with `row_pos_i ≤ 0`, ascending: their trust defaults to
    /// `p`.
    default_rows: Vec<u32>,
}

impl TrustView {
    /// An empty view of `n` columns.
    fn empty(n: usize) -> Self {
        TrustView {
            offsets: vec![0; n + 1],
            ..TrustView::default()
        }
    }

    /// Rebuild from `sat` by a counting sort: count each column, turn the
    /// counts into starts, scatter the rows in ascending order (so each
    /// column's raters come out ascending) while advancing the starts to
    /// ends, then shift the ends back into starts.
    fn rebuild(&mut self, sat: &[SparseVec], row_pos: &[f64]) {
        let n = sat.len();
        let nnz: usize = sat.iter().map(|row| row.ids.len()).sum();
        assert!(
            u32::try_from(nnz).is_ok(),
            "local-trust matrix has {nnz} entries, more than u32 offsets hold"
        );
        self.offsets.clear();
        self.offsets.resize(n + 1, 0);
        for row in sat {
            for &j in &row.ids {
                self.offsets[j as usize + 1] += 1;
            }
        }
        for j in 1..=n {
            self.offsets[j] += self.offsets[j - 1];
        }
        // Sized exactly (grown only when the matrix grows), so the view
        // carries no amortized-doubling slack.
        self.raters.clear();
        self.raters.reserve_exact(nnz);
        self.raters.resize(nnz, 0);
        self.weights.clear();
        self.weights.reserve_exact(nnz);
        self.weights.resize(nnz, 0.0);
        self.default_rows.clear();
        for (i, (row, &pos)) in sat.iter().zip(row_pos).enumerate() {
            if pos <= 0.0 {
                self.default_rows.push(i as u32);
            }
            for (&j, &s) in row.ids.iter().zip(&row.vals) {
                let slot = &mut self.offsets[j as usize];
                self.raters[*slot as usize] = i as u32;
                self.weights[*slot as usize] = if s > 0.0 { s / pos } else { 0.0 };
                *slot += 1;
            }
        }
        for j in (1..=n).rev() {
            self.offsets[j] = self.offsets[j - 1];
        }
        self.offsets[0] = 0;
    }

    /// The raters of column `j` (a superset of its live raters after
    /// resets, until the next rebuild).
    fn column(&self, j: usize) -> std::ops::Range<usize> {
        self.offsets[j] as usize..self.offsets[j + 1] as usize
    }

    fn bytes(&self) -> usize {
        (self.offsets.capacity() + self.raters.capacity() + self.default_rows.capacity())
            * std::mem::size_of::<u32>()
            + self.weights.capacity() * std::mem::size_of::<f64>()
    }
}

/// Registry handles and event sink for one EigenTrust instance, created by
/// [`ReputationSystem::attach_telemetry`]. Cloned handles share cells, so
/// cloning an attached engine keeps reporting to the same registry.
#[derive(Debug, Clone)]
struct EigenTrustTelemetry {
    /// `eigentrust_iterations`: iterations of the most recent update.
    iterations: Gauge,
    /// `eigentrust_residual`: final L1 residual of the most recent update.
    residual: Gauge,
    /// `eigentrust_warm_start`: 1 when the most recent update warm-started.
    warm_start: Gauge,
    /// `eigentrust_warm_starts_total`: updates that resumed from the
    /// previous cycle's vector.
    warm_starts_total: Counter,
    /// `eigentrust_cycles_total`: completed reputation updates.
    cycles_total: Counter,
    /// `eigentrust_bytes_per_node`: heap bytes of the sparse matrix (rows
    /// + view + vectors) per node, refreshed after every update.
    bytes_per_node: Gauge,
    sink: EventSink,
    /// Decision-provenance tracer: when a cycle trace is live, each update
    /// records an `eigentrust_update` span (nested under the decorator's
    /// `reputation_update` when wrapped).
    tracer: Tracer,
}

impl EigenTrustTelemetry {
    fn new(telemetry: &Telemetry) -> Self {
        let registry = telemetry.registry();
        EigenTrustTelemetry {
            iterations: registry.gauge("eigentrust_iterations"),
            residual: registry.gauge("eigentrust_residual"),
            warm_start: registry.gauge("eigentrust_warm_start"),
            warm_starts_total: registry.counter("eigentrust_warm_starts_total"),
            cycles_total: registry.counter("eigentrust_cycles_total"),
            bytes_per_node: registry.gauge("eigentrust_bytes_per_node"),
            sink: telemetry.sink().clone(),
            tracer: telemetry.tracer().clone(),
        }
    }
}

/// The EigenTrust reputation engine.
#[derive(Debug, Clone)]
pub struct EigenTrust {
    config: EigenTrustConfig,
    /// `p`: the pre-trusted distribution (uniform over pre-trusted nodes).
    pretrust: Vec<f64>,
    /// Accumulated local satisfaction sums `s_ij`: CSR-style sparse rows
    /// (sorted ratee ids + values) per rater.
    sat: Vec<SparseVec>,
    /// `row_pos[i] = Σ_j max(s_ij, 0)` — the local-trust normalizer of row
    /// `i`, recomputed for the rows a cycle's ratings touch.
    row_pos: Vec<f64>,
    /// `C` in gather form as of the last `end_cycle`: what the blocked
    /// power iteration reads, and the O(degree) index behind `reset_node`.
    view: TrustView,
    /// Ratings buffered since the last `end_cycle`.
    buffer: Vec<Rating>,
    /// Global trust vector from the last `end_cycle`.
    reputations: Vec<f64>,
    /// Whether `reputations` holds a converged vector from a previous
    /// cycle that warm starts may resume from. `false` until the first
    /// `end_cycle` and after `reset_node` (the reset invalidates the old
    /// fixed point, so the next iteration restarts from `p`).
    warm: bool,
    /// Iterations the last power iteration took (diagnostics).
    last_iterations: usize,
    /// Final L1 residual of the last power iteration (diagnostics).
    last_residual: f64,
    /// Whether the last power iteration resumed from the previous cycle's
    /// vector.
    last_warm_started: bool,
    /// Completed `end_cycle` calls, used as the cycle index of emitted
    /// convergence events.
    cycles: u64,
    /// Registry handles; `None` until `attach_telemetry`.
    telemetry: Option<EigenTrustTelemetry>,
}

impl EigenTrust {
    /// Create an engine over `n` nodes with the given pre-trusted set.
    ///
    /// If `pretrusted` is empty, `p` falls back to the uniform
    /// distribution (as in the original EigenTrust when no pre-trusted
    /// peers exist).
    ///
    /// # Panics
    /// Panics if any pre-trusted id is out of range or `pretrust_weight`
    /// is outside `[0, 1]`.
    pub fn new(n: usize, pretrusted: &[NodeId], config: EigenTrustConfig) -> Self {
        assert!(
            (0.0..=1.0).contains(&config.pretrust_weight),
            "pretrust weight must be in [0,1]"
        );
        let mut pretrust = vec![0.0; n];
        if pretrusted.is_empty() {
            for v in &mut pretrust {
                *v = 1.0 / n as f64;
            }
        } else {
            for &pnode in pretrusted {
                assert!(pnode.index() < n, "pretrusted node {pnode} out of range");
                pretrust[pnode.index()] = 1.0 / pretrusted.len() as f64;
            }
        }
        // The paper: "The initial reputation of each node in the network is
        // 0" — everyone starts level, so cold-start server selection is
        // uniform. The pretrust prior only enters through the first
        // `end_cycle`'s power iteration.
        let reputations = vec![0.0; n];
        EigenTrust {
            config,
            pretrust,
            sat: vec![SparseVec::default(); n],
            row_pos: vec![0.0; n],
            view: TrustView::empty(n),
            buffer: Vec::new(),
            reputations,
            warm: false,
            last_iterations: 0,
            last_residual: f64::INFINITY,
            last_warm_started: false,
            cycles: 0,
            telemetry: None,
        }
    }

    /// With the default configuration (`a = 0.1`, the standard EigenTrust
    /// damping — see [`EigenTrustConfig::pretrust_weight`]).
    pub fn with_defaults(n: usize, pretrusted: &[NodeId]) -> Self {
        EigenTrust::new(n, pretrusted, EigenTrustConfig::default())
    }

    /// The pre-trusted distribution `p`.
    pub fn pretrust(&self) -> &[f64] {
        &self.pretrust
    }

    /// How many iterations the last reputation update took to converge.
    pub fn last_iterations(&self) -> usize {
        self.last_iterations
    }

    /// The final L1 residual `‖t⁽ᵏ⁾ − t⁽ᵏ⁻¹⁾‖₁` when the last reputation
    /// update stopped iterating — below `epsilon` on convergence, above it
    /// only when `max_iterations` was hit. `f64::INFINITY` before the
    /// first update.
    pub fn last_residual(&self) -> f64 {
        self.last_residual
    }

    /// Accumulated local satisfaction `s_ij` (0 if never rated).
    pub fn local_satisfaction(&self, rater: NodeId, ratee: NodeId) -> f64 {
        self.sat[rater.index()].get(ratee.0).unwrap_or(0.0)
    }

    /// Heap bytes held by the sparse matrix (rows + view), the dense
    /// vectors, and the rating buffer — the figure the
    /// `eigentrust_bytes_per_node` gauge divides by `n`.
    pub fn bytes(&self) -> usize {
        self.sat.iter().map(SparseVec::bytes).sum::<usize>()
            + self.view.bytes()
            + (self.pretrust.capacity() + self.reputations.capacity() + self.row_pos.capacity())
                * std::mem::size_of::<f64>()
            + self.buffer.capacity() * std::mem::size_of::<Rating>()
    }

    /// Recompute `row_pos[i]` exactly from the sparse row. Called for the
    /// rows a cycle's ratings touched, so the normalizer never drifts from
    /// the value a from-scratch scan would produce, at O(touched nnz) cost.
    /// The ascending-id summation order matches what the historical
    /// `BTreeMap::values()` scan produced, bit for bit.
    fn refresh_row_pos(&mut self, i: usize) {
        self.row_pos[i] = self.sat[i].vals.iter().map(|&s| s.max(0.0)).sum();
    }

    /// Fold the buffered ratings into the rows: a stable sort on
    /// `(rater, ratee)` keeps each pair's ratings in arrival order, so
    /// every `s_ij` is the same left-to-right sum a per-rating insert
    /// produced; then one merge per touched row, and its normalizer is
    /// recomputed.
    fn fold_buffer(&mut self) {
        // Swap the buffer out (and back) so its allocation survives the
        // cycle instead of being reallocated every time.
        let mut buffer = std::mem::take(&mut self.buffer);
        buffer.retain(|r| r.rater != r.ratee); // self-ratings are ignored, as in EigenTrust
        buffer.sort_by_key(|r| (r.rater, r.ratee));
        let mut merged = SparseVec::default();
        for run in buffer.chunk_by(|x, y| x.rater == y.rater) {
            let i = run[0].rater.index();
            self.sat[i].merge(run, &mut merged);
            self.refresh_row_pos(i);
        }
        buffer.clear();
        self.buffer = buffer;
    }

    /// Run the damped power iteration to the global trust vector as a
    /// blocked, branch-free **gather** over the view — the matrix `C` is
    /// never materialized. Each block owns a contiguous `j` range and
    /// computes
    ///
    /// ```text
    /// next_j = a·p_j + Σ_{i asc} ((1-a)·t_i)·c_ij + (1-a)·m·p_j
    /// ```
    ///
    /// where `m` (the trust mass of raters whose row defaults to `p`) is
    /// summed once per iteration over the view's ascending default rows.
    /// Column `j`'s sum runs over ascending `i`, so every element is the
    /// same for any block size (see the module docs for why the terms that
    /// are `+0.0` leave it unchanged). The L1 residual is tree-reduced:
    /// per-block partial sums (each the same left-to-right chain
    /// `l1_distance` uses) folded in ascending block order.
    fn power_iterate(&mut self) {
        let n = self.pretrust.len();
        if n == 0 {
            return;
        }
        let a = self.config.pretrust_weight;
        let warm_started = self.config.warm_start && self.warm;
        let mut t = if warm_started {
            self.reputations.clone()
        } else {
            self.pretrust.clone()
        };
        let block = self.config.block_size.max(1);
        let (view, p) = (&self.view, &self.pretrust);
        let mut next = vec![0.0; n];
        let mut iters = 0;
        let residual;
        loop {
            let default_mass = view
                .default_rows
                .iter()
                .fold(0.0, |m, &i| m + t[i as usize]);
            let w_default = (1.0 - a) * default_mass;
            let t_ref: &[f64] = &t;
            let gather = |(b, out): (usize, &mut [f64])| -> f64 {
                let start = b * block;
                for (k, x) in out.iter_mut().enumerate() {
                    let j = start + k;
                    let col = view.column(j);
                    let mut acc = p[j] * a;
                    for (&i, &c) in view.raters[col.clone()].iter().zip(&view.weights[col]) {
                        acc += ((1.0 - a) * t_ref[i as usize]) * c;
                    }
                    *x = acc + w_default * p[j];
                }
                l1_distance(out, &t_ref[start..start + out.len()])
            };
            let blocks: Vec<(usize, &mut [f64])> = next.chunks_mut(block).enumerate().collect();
            let partials: Vec<f64> = if self.config.parallel && blocks.len() > 1 {
                use rayon::prelude::*;
                blocks.into_par_iter().map(gather).collect()
            } else {
                blocks.into_iter().map(gather).collect()
            };
            let delta: f64 = partials.iter().sum();
            iters += 1;
            std::mem::swap(&mut t, &mut next);
            if delta < self.config.epsilon || iters >= self.config.max_iterations {
                residual = delta;
                break;
            }
        }
        self.last_iterations = iters;
        self.last_residual = residual;
        self.last_warm_started = warm_started;
        self.reputations = t;
        self.warm = true;
    }

    /// Publish the last update's convergence reading to the attached
    /// registry and event sink (no-op when unattached).
    fn publish_convergence(&self) {
        let Some(t) = &self.telemetry else {
            return;
        };
        t.iterations.set(self.last_iterations as f64);
        t.residual.set(self.last_residual);
        t.warm_start
            .set(if self.last_warm_started { 1.0 } else { 0.0 });
        if self.last_warm_started {
            t.warm_starts_total.inc();
        }
        t.cycles_total.inc();
        let n = self.pretrust.len();
        if n > 0 {
            t.bytes_per_node.set(self.bytes() as f64 / n as f64);
        }
        if t.sink.is_enabled() {
            t.sink.emit(Event::EigenTrustConvergence {
                cycle: self.cycles,
                iterations: self.last_iterations as u64,
                residual: self.last_residual,
                warm_start: self.last_warm_started,
            });
        }
    }
}

impl ReputationSystem for EigenTrust {
    fn node_count(&self) -> usize {
        self.pretrust.len()
    }

    fn record(&mut self, rating: Rating) {
        self.buffer.push(rating);
    }

    fn end_cycle(&mut self) {
        self.fold_buffer();
        self.view.rebuild(&self.sat, &self.row_pos);
        // `None` when unattached, the tracer is disabled, or this cycle is
        // unsampled — the iteration then runs exactly as before.
        let span = self
            .telemetry
            .as_ref()
            .and_then(|t| t.tracer.child(trace_names::EIGENTRUST));
        self.power_iterate();
        if let Some(mut span) = span {
            span.set_attr("iterations", self.last_iterations);
            span.set_attr("residual", self.last_residual);
            span.set_attr("warm_start", self.last_warm_started);
            span.set_attr("epsilon", self.config.epsilon);
        }
        self.publish_convergence();
        self.cycles += 1;
    }

    fn reputations(&self) -> &[f64] {
        &self.reputations
    }

    fn name(&self) -> String {
        "EigenTrust".into()
    }

    fn reset_node(&mut self, node: NodeId) {
        let ni = node.index();
        // Column `ni` of the last view lists every rater whose row still
        // holds an entry for `node` (rows only lose entries between
        // cycles), so the wipe is O(in-degree + out-degree) — no scan over
        // all n rows. The next `end_cycle` rebuilds the view.
        for k in self.view.column(ni) {
            let i = self.view.raters[k] as usize;
            if self.sat[i].remove(node.0) {
                self.refresh_row_pos(i);
            }
        }
        self.sat[ni] = SparseVec::default();
        self.row_pos[ni] = 0.0;
        self.buffer.retain(|r| r.rater != node && r.ratee != node);
        // The old fixed point no longer reflects the matrix; restart the
        // next power iteration from the pretrust prior.
        self.warm = false;
    }

    fn convergence(&self) -> Option<ConvergenceRecord> {
        if self.cycles == 0 {
            return None;
        }
        Some(ConvergenceRecord {
            iterations: self.last_iterations as u64,
            residual: self.last_residual,
            warm_started: self.last_warm_started,
        })
    }

    fn attach_telemetry(&mut self, telemetry: &Telemetry) {
        self.telemetry = Some(EigenTrustTelemetry::new(telemetry));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rate(sys: &mut EigenTrust, rater: u32, ratee: u32, value: f64) {
        sys.record(Rating::new(NodeId(rater), NodeId(ratee), value));
    }

    #[test]
    fn no_ratings_yields_pretrust_distribution() {
        let mut sys = EigenTrust::with_defaults(4, &[NodeId(0), NodeId(1)]);
        sys.end_cycle();
        assert_eq!(sys.reputations(), &[0.5, 0.5, 0.0, 0.0]);
    }

    #[test]
    fn empty_pretrusted_set_falls_back_to_uniform() {
        let mut sys = EigenTrust::with_defaults(4, &[]);
        sys.end_cycle();
        for &v in sys.reputations() {
            assert!((v - 0.25).abs() < 1e-9);
        }
    }

    #[test]
    fn two_node_fixed_point_matches_hand_solution() {
        // Node 0 pretrusted, rates node 1 positively. Row 1 defaults to p.
        // With a = 0.5 the fixed point of t = 0.5·Cᵀt + 0.5·p, p = (1,0):
        //   t0 = 0.5·t1 + 0.5 ; t1 = 0.5·t0  ⇒ t = (2/3, 1/3).
        let cfg = EigenTrustConfig {
            pretrust_weight: 0.5,
            ..EigenTrustConfig::default()
        };
        let mut sys = EigenTrust::new(2, &[NodeId(0)], cfg);
        rate(&mut sys, 0, 1, 1.0);
        sys.end_cycle();
        let t = sys.reputations();
        assert!((t[0] - 2.0 / 3.0).abs() < 1e-8, "t0 = {}", t[0]);
        assert!((t[1] - 1.0 / 3.0).abs() < 1e-8, "t1 = {}", t[1]);
    }

    #[test]
    fn reputations_form_a_distribution() {
        let mut sys = EigenTrust::with_defaults(5, &[NodeId(0)]);
        rate(&mut sys, 0, 1, 1.0);
        rate(&mut sys, 1, 2, 1.0);
        rate(&mut sys, 2, 3, -1.0);
        rate(&mut sys, 3, 4, 1.0);
        sys.end_cycle();
        let sum: f64 = sys.reputations().iter().sum();
        assert!((sum - 1.0).abs() < 1e-6, "sum = {sum}");
        assert!(sys.reputations().iter().all(|&v| v >= 0.0));
    }

    #[test]
    fn negative_satisfaction_is_floored_at_zero() {
        let mut sys = EigenTrust::with_defaults(3, &[NodeId(0)]);
        rate(&mut sys, 0, 1, -1.0);
        rate(&mut sys, 0, 1, -1.0);
        rate(&mut sys, 0, 2, 1.0);
        sys.end_cycle();
        // s_01 = -2 → c_01 = 0; all of node 0's trust goes to node 2.
        assert!(sys.reputation(NodeId(2)) > sys.reputation(NodeId(1)));
        assert_eq!(sys.local_satisfaction(NodeId(0), NodeId(1)), -2.0);
    }

    #[test]
    fn satisfaction_accumulates_across_cycles() {
        let mut sys = EigenTrust::with_defaults(3, &[NodeId(0)]);
        rate(&mut sys, 0, 1, 1.0);
        sys.end_cycle();
        rate(&mut sys, 0, 1, 1.0);
        sys.end_cycle();
        assert_eq!(sys.local_satisfaction(NodeId(0), NodeId(1)), 2.0);
    }

    #[test]
    fn self_ratings_are_ignored() {
        let mut sys = EigenTrust::with_defaults(2, &[NodeId(0)]);
        rate(&mut sys, 1, 1, 1.0);
        sys.end_cycle();
        assert_eq!(sys.local_satisfaction(NodeId(1), NodeId(1)), 0.0);
    }

    #[test]
    fn rated_node_outranks_unrated_node() {
        let mut sys = EigenTrust::with_defaults(4, &[NodeId(0)]);
        rate(&mut sys, 0, 1, 1.0);
        sys.end_cycle();
        assert!(sys.reputation(NodeId(1)) > sys.reputation(NodeId(2)));
        assert_eq!(sys.reputation(NodeId(2)), sys.reputation(NodeId(3)));
    }

    #[test]
    fn ratings_from_high_trust_raters_count_more() {
        // Pretrusted 0 rates 1; nobody rates 2's booster (node 3).
        // Node 1 (endorsed by the pretrusted node) must outrank node 2
        // (endorsed only by the untrusted node 3).
        let mut sys = EigenTrust::with_defaults(4, &[NodeId(0)]);
        rate(&mut sys, 0, 1, 1.0);
        rate(&mut sys, 3, 2, 1.0);
        sys.end_cycle();
        assert!(sys.reputation(NodeId(1)) > sys.reputation(NodeId(2)));
    }

    #[test]
    fn mutual_boosting_raises_colluders() {
        // The vulnerability SocialTrust exists to fix: two colluders (3, 4)
        // rating each other at high frequency come to dominate an honest
        // node (1) that received a single genuine rating.
        let mut sys = EigenTrust::with_defaults(5, &[NodeId(0)]);
        rate(&mut sys, 0, 1, 1.0);
        for _ in 0..20 {
            rate(&mut sys, 3, 4, 1.0);
            rate(&mut sys, 4, 3, 1.0);
        }
        // Colluders also get a couple of organic positive ratings so their
        // trust row is reachable from the pretrusted component.
        rate(&mut sys, 0, 3, 1.0);
        sys.end_cycle();
        // Node 4 received *zero* organic ratings, yet mutual boosting pulls
        // its reputation above the never-rated normal node 2 — and the
        // colluding pair jointly outranks the honest node that earned a
        // genuine pretrusted endorsement.
        assert!(
            sys.reputation(NodeId(4)) > sys.reputation(NodeId(2)),
            "boosted colluder {} vs unrated normal {}",
            sys.reputation(NodeId(4)),
            sys.reputation(NodeId(2))
        );
        let pair = sys.reputation(NodeId(3)) + sys.reputation(NodeId(4));
        assert!(
            pair > sys.reputation(NodeId(1)),
            "colluding pair {} vs honest {}",
            pair,
            sys.reputation(NodeId(1))
        );
    }

    #[test]
    fn convergence_is_reported() {
        let mut sys = EigenTrust::with_defaults(3, &[NodeId(0)]);
        assert!(sys.convergence().is_none(), "no update yet");
        rate(&mut sys, 0, 1, 1.0);
        sys.end_cycle();
        assert!(sys.last_iterations() >= 1);
        assert!(sys.last_iterations() < 1000);
        // Converged (not capped), so the final residual is below ε.
        assert!(sys.last_residual() < EigenTrustConfig::default().epsilon);
        let record = sys.convergence().expect("one update done");
        assert_eq!(record.iterations, sys.last_iterations() as u64);
        assert_eq!(record.residual, sys.last_residual());
        assert!(!record.warm_started, "first cycle is a cold start");
        sys.end_cycle();
        assert!(sys.convergence().unwrap().warm_started);
    }

    #[test]
    fn attached_telemetry_reports_convergence() {
        use socialtrust_telemetry::EventSink;

        let telemetry = Telemetry::with_sink(EventSink::in_memory());
        let mut sys = EigenTrust::with_defaults(3, &[NodeId(0)]);
        ReputationSystem::attach_telemetry(&mut sys, &telemetry);
        rate(&mut sys, 0, 1, 1.0);
        sys.end_cycle();
        sys.end_cycle();

        let snap = telemetry.registry().snapshot();
        assert_eq!(snap.counter("eigentrust_cycles_total"), 2);
        assert_eq!(snap.counter("eigentrust_warm_starts_total"), 1);
        assert_eq!(snap.gauge("eigentrust_warm_start"), Some(1.0));
        assert_eq!(
            snap.gauge("eigentrust_iterations"),
            Some(sys.last_iterations() as f64)
        );
        assert_eq!(snap.gauge("eigentrust_residual"), Some(sys.last_residual()));

        let events = telemetry.sink().events();
        assert_eq!(events.len(), 2);
        assert!(matches!(
            &events[0],
            Event::EigenTrustConvergence {
                cycle: 0,
                warm_start: false,
                ..
            }
        ));
        assert!(matches!(
            &events[1],
            Event::EigenTrustConvergence {
                cycle: 1,
                warm_start: true,
                ..
            }
        ));
    }

    #[test]
    fn reset_node_forgets_both_directions() {
        let mut sys = EigenTrust::with_defaults(3, &[NodeId(0)]);
        rate(&mut sys, 0, 1, 1.0);
        rate(&mut sys, 1, 2, 1.0);
        rate(&mut sys, 2, 1, -1.0);
        sys.end_cycle();
        sys.reset_node(NodeId(1));
        assert_eq!(sys.local_satisfaction(NodeId(0), NodeId(1)), 0.0);
        assert_eq!(sys.local_satisfaction(NodeId(1), NodeId(2)), 0.0);
        assert_eq!(sys.local_satisfaction(NodeId(2), NodeId(1)), 0.0);
        // After the next cycle, node 1 is back to the unknown-node level.
        sys.end_cycle();
        assert!(sys.reputation(NodeId(1)) <= sys.reputation(NodeId(0)));
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_pretrusted_rejected() {
        EigenTrust::with_defaults(2, &[NodeId(7)]);
    }

    fn cold_config() -> EigenTrustConfig {
        EigenTrustConfig {
            warm_start: false,
            ..EigenTrustConfig::default()
        }
    }

    #[test]
    fn warm_start_matches_cold_start_within_epsilon() {
        let pre = [NodeId(0)];
        let mut warm = EigenTrust::with_defaults(6, &pre);
        let mut cold = EigenTrust::new(6, &pre, cold_config());
        let stream: &[(u32, u32, f64)] = &[
            (0, 1, 1.0),
            (1, 2, 1.0),
            (2, 3, -1.0),
            (0, 4, 1.0),
            (4, 5, 1.0),
            (5, 1, 1.0),
        ];
        for chunk in stream.chunks(2) {
            for &(i, j, v) in chunk {
                rate(&mut warm, i, j, v);
                rate(&mut cold, i, j, v);
            }
            warm.end_cycle();
            cold.end_cycle();
            let diff: f64 = warm
                .reputations()
                .iter()
                .zip(cold.reputations())
                .map(|(a, b)| (a - b).abs())
                .sum();
            assert!(diff < 1e-6, "warm/cold diverged by {diff}");
        }
    }

    #[test]
    fn warm_start_reduces_iterations_in_steady_state() {
        let pre = [NodeId(0)];
        let mut warm = EigenTrust::with_defaults(20, &pre);
        let mut cold = EigenTrust::new(20, &pre, cold_config());
        for sys in [&mut warm, &mut cold] {
            for i in 0..19u32 {
                rate(sys, i, i + 1, 1.0);
                rate(sys, 0, i + 1, 1.0);
            }
            sys.end_cycle();
        }
        // Steady state: one lone rating per cycle barely moves the matrix.
        for _ in 0..3 {
            rate(&mut warm, 3, 4, 1.0);
            rate(&mut cold, 3, 4, 1.0);
            warm.end_cycle();
            cold.end_cycle();
            assert!(
                warm.last_iterations() < cold.last_iterations(),
                "warm {} vs cold {}",
                warm.last_iterations(),
                cold.last_iterations()
            );
        }
    }

    /// A deterministic pseudo-random rating stream (xorshift — no RNG dep).
    fn synth_stream(n: u32, count: usize) -> Vec<(u32, u32, f64)> {
        let mut state = 0x9e3779b97f4a7c15u64;
        let mut step = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        (0..count)
            .map(|_| {
                let rater = (step() % n as u64) as u32;
                let ratee = (step() % n as u64) as u32;
                let value = if step() % 4 == 0 { -1.0 } else { 1.0 };
                (rater, ratee, value)
            })
            .collect()
    }

    #[test]
    fn blocked_iteration_is_bit_for_bit_equal_across_block_sizes() {
        // Per-element gather chains never cross block boundaries, so any
        // block size must reproduce the single-block vector exactly (the
        // residual tree can only shift the stop decision when it lands
        // within one ulp of epsilon, which this fixture stays clear of).
        let stream = synth_stream(64, 400);
        let run = |block_size: usize, parallel: bool| {
            let cfg = EigenTrustConfig {
                block_size,
                parallel,
                ..EigenTrustConfig::default()
            };
            let mut sys = EigenTrust::new(64, &[NodeId(0), NodeId(1)], cfg);
            for &(i, j, v) in &stream {
                rate(&mut sys, i, j, v);
            }
            sys.end_cycle();
            (sys.reputations().to_vec(), sys.last_iterations())
        };
        let (base, base_iters) = run(usize::MAX, false);
        for block_size in [1, 7, 16, 63] {
            for parallel in [false, true] {
                let (reps, iters) = run(block_size, parallel);
                assert_eq!(
                    iters, base_iters,
                    "iteration count diverged at block_size={block_size}"
                );
                for (j, (x, y)) in reps.iter().zip(&base).enumerate() {
                    assert_eq!(
                        x.to_bits(),
                        y.to_bits(),
                        "t[{j}] diverged at block_size={block_size} parallel={parallel}"
                    );
                }
            }
        }
    }

    /// The view after a rebuild is exactly the transpose of `sat`: each
    /// column lists its raters ascending with `c_ij` as the rows give it,
    /// and the default rows are those without positive trust.
    fn assert_view_is_transpose(sys: &EigenTrust) {
        let n = sys.sat.len();
        let mut default_rows = Vec::new();
        let mut cols: Vec<Vec<(u32, u64)>> = vec![Vec::new(); n];
        for (i, row) in sys.sat.iter().enumerate() {
            let pos = sys.row_pos[i];
            let fresh: f64 = row.vals.iter().map(|&s| s.max(0.0)).sum();
            assert_eq!(pos > 0.0, fresh > 0.0, "row_pos[{i}] is stale");
            if pos > 0.0 {
                assert_eq!(pos.to_bits(), fresh.to_bits(), "row_pos[{i}] is stale");
            } else {
                default_rows.push(i as u32);
            }
            for (&j, &s) in row.ids.iter().zip(&row.vals) {
                let c = if s > 0.0 { s / pos } else { 0.0 };
                cols[j as usize].push((i as u32, c.to_bits()));
            }
        }
        assert_eq!(sys.view.offsets.len(), n + 1);
        assert_eq!(sys.view.default_rows, default_rows);
        for (j, expected) in cols.iter().enumerate() {
            let range = sys.view.column(j);
            let got: Vec<(u32, u64)> = sys.view.raters[range.clone()]
                .iter()
                .zip(&sys.view.weights[range])
                .map(|(&i, c)| (i, c.to_bits()))
                .collect();
            assert_eq!(&got, expected, "column {j}");
        }
    }

    #[test]
    fn transpose_stays_consistent_through_reset() {
        let mut sys = EigenTrust::with_defaults(16, &[NodeId(0)]);
        for &(i, j, v) in &synth_stream(16, 120) {
            rate(&mut sys, i, j, v);
        }
        sys.end_cycle();
        assert_view_is_transpose(&sys);
        // Reset node 5, then, in the same interval, one of its raters: the
        // first reset removed that rater's entry for 5, and the second
        // reads its column from the view the first left stale.
        let rater = (0..16u32)
            .find(|&i| i != 5 && sys.sat[i as usize].get(5).is_some())
            .expect("the stream rates node 5");
        sys.reset_node(NodeId(5));
        sys.reset_node(NodeId(rater));
        for i in 0..16u32 {
            for gone in [5, rater] {
                assert_eq!(sys.local_satisfaction(NodeId(i), NodeId(gone)), 0.0);
                assert_eq!(sys.local_satisfaction(NodeId(gone), NodeId(i)), 0.0);
                assert_eq!(sys.sat[i as usize].get(gone), None);
            }
        }
        assert!(sys.sat[5].ids.is_empty() && sys.sat[rater as usize].ids.is_empty());
        rate(&mut sys, 5, 1, 1.0);
        rate(&mut sys, 2, rater, 1.0);
        sys.end_cycle();
        assert_view_is_transpose(&sys);
    }

    #[test]
    fn bytes_accounts_for_matrix_growth() {
        let mut sys = EigenTrust::with_defaults(8, &[NodeId(0)]);
        let empty = sys.bytes();
        for &(i, j, v) in &synth_stream(8, 40) {
            rate(&mut sys, i, j, v);
        }
        sys.end_cycle();
        assert!(sys.bytes() > empty, "{} !> {empty}", sys.bytes());
    }

    #[test]
    fn reset_node_falls_back_to_pretrust_start() {
        let mut sys = EigenTrust::with_defaults(4, &[NodeId(0)]);
        rate(&mut sys, 0, 1, 1.0);
        rate(&mut sys, 1, 2, 1.0);
        sys.end_cycle();
        sys.reset_node(NodeId(1));
        // The next cycle must still produce a valid distribution (the
        // iteration restarted from p rather than the stale fixed point).
        sys.end_cycle();
        let sum: f64 = sys.reputations().iter().sum();
        assert!((sum - 1.0).abs() < 1e-6, "sum = {sum}");
        assert!(sys.reputations().iter().all(|&v| v >= 0.0));
        assert_eq!(sys.local_satisfaction(NodeId(0), NodeId(1)), 0.0);
    }
}
