//! The borrowed, reusable scheduling context.
//!
//! Placement decisions arrive in bursts: many jobs ranked against the same
//! telemetry snapshot and cluster state. [`SchedulingContext`] is the
//! amortization point for such a burst. Built once from a borrowed snapshot +
//! cluster, it:
//!
//! * resolves the name-keyed snapshot into a dense [`NodeId`]-indexed view
//!   (telemetry lookups become array indexing; the RTT mesh is scanned once,
//!   not once per candidate per decision),
//! * finds the feasible set through a resource-sorted
//!   [`cluster::FeasibilityIndex`] carried in the scratch — generation-keyed,
//!   so it is rebuilt only when the cluster actually changed, even across
//!   bursts — instead of filtering every node, and caches the answer across
//!   consecutive jobs with the same driver sizing (the common case in a
//!   burst),
//! * optionally **prunes** the candidate set to a configurable top-K
//!   ([`SchedulingContext::set_top_k`]) before the expensive model rank —
//!   the two-stage decision path that keeps 10k-node decisions under a
//!   millisecond. Stage one is selected by [`PruningPolicy`]: a cheap
//!   model-blind prefilter score kept top-K through a bounded heap in the
//!   context scratch ([`SchedulingContext::pruned_candidates`]), or — the
//!   default for the supervised rank — a pooled per-burst coarse scoreboard
//!   of the model's own scores, keyed by the job's cell in the model's
//!   split-threshold partition ([`SchedulingContext::rank_feasible_batch`]),
//!   whose top-K provably preserves the unpruned top-1 decision (equal cells
//!   take identical tree paths), and
//! * owns the candidate / prediction / feature scratch buffers every policy
//!   reuses, so steady-state decisions allocate only their output ranking.
//!
//! All [`crate::schedulers::JobScheduler`] policies take `&mut
//! SchedulingContext` in [`crate::schedulers::JobScheduler::select`] and
//! `select_batch`. With pruning disabled (`top_k = None`, the default) every
//! ranking is byte-identical to the historical full-scan path; with
//! `top_k = K ≥ |feasible|` it still is, by construction.

use crate::decision::{DecisionModule, NodeRanking};
use crate::predictor::CompletionTimePredictor;
use crate::request::JobRequest;
use cluster::{ClusterState, FeasibilityIndex, NodeId};
use mlcore::FeatureMatrix;
use serde::{Deserialize, Serialize};
use telemetry::{ClusterSnapshot, IndexedTelemetry, NodeTelemetry};

/// Which stage-1 scorer the two-stage decision path prunes with when a
/// [`top-K budget`](SchedulingContext::set_top_k) is set.
///
/// The model-blind scorers trade accuracy for independence from the trained
/// model; the `scenario_scale` sweep publishes the measured Top-1 agreement
/// and winner-survival rate of each so the trade is a number, not a guess.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub enum PruningPolicy {
    /// Supervised ranks prune by a coarse scoreboard of the decision model's
    /// *own* per-node scores (exact: the pruned top-1 equals the unpruned
    /// top-1 at every `K ≥ 1`); non-supervised paths fall back to the linear
    /// blend. The default.
    #[default]
    ModelAligned,
    /// A linear blend over the same telemetry columns the feature schema
    /// reads: current CPU load + mean peer RTT − a free-memory credit.
    /// Model-blind, so supervised ranks pay a measurable accuracy cost.
    LinearBlend,
    /// A kube-style least-allocated score: the mean of the node's free CPU
    /// and free memory fractions (most headroom survives). Telemetry-blind
    /// as well as model-blind.
    LeastAllocated,
}

/// One cached stage-1 scoreboard: the predictor's score for every node at a
/// fixed job-feature signature (one workload class × input size).
#[derive(Debug, Clone)]
struct CoarseBoard {
    /// Stable identity folded into the model-pruned cache key; unlike the
    /// board's position in the pool it survives FIFO eviction.
    id: u64,
    /// The burst the scores were computed in. Telemetry changes between
    /// bursts, so a board from an older epoch is stale; its buffers are
    /// recycled in place instead of reallocated.
    epoch: u64,
    /// `(address, signature-row prediction)` fingerprint of the predictor the
    /// scores were computed with.
    predictor: (usize, f64),
    /// The job-feature signature row the scores belong to.
    sig: Vec<f64>,
    /// One coarse score per node (index = `NodeId::index`).
    scores: Vec<f64>,
}

/// The reusable buffers behind a [`SchedulingContext`], detached from any
/// particular snapshot borrow so a long-lived owner (the scheduler service)
/// can carry them across bursts: indexed telemetry, the generation-keyed
/// feasibility index, candidate/pruning/prediction scratch, the batch
/// feature matrix and the coarse scoreboard pool. Steady-state bursts over a
/// fixed cluster size re-enter with warm buffers and touch no heap.
///
/// The scratch must be reused against the same logical cluster: staleness of
/// the feasibility index is detected through
/// [`ClusterState::generation`](cluster::ClusterState::generation), which is
/// monotone per cluster instance, not globally unique.
#[derive(Debug, Clone, Default)]
pub struct ContextScratch {
    telemetry: IndexedTelemetry,
    /// Resource-sorted feasibility index, synced lazily against the cluster
    /// generation on first use each burst.
    index: FeasibilityIndex,
    /// The current full feasible candidate set (pre-pruning).
    candidates: Vec<NodeId>,
    /// Driver sizing the cached candidate set was computed for.
    candidate_key: Option<(u64, u64)>,
    /// The pruned candidate set the rankers actually run over (equal to
    /// `candidates` when pruning is off or `K ≥ |feasible|`).
    pruned: Vec<NodeId>,
    /// `(driver sizing, top_k, policy)` the cached pruned set was computed
    /// for.
    pruned_key: Option<(u64, u64, Option<usize>, PruningPolicy)>,
    /// `(score, id)` bounded max-heap scratch for top-K selection: the worst
    /// survivor sits at the root and is evicted when a better candidate
    /// arrives, so selection is `O(n log K)` with no allocation past warmup.
    heap: Vec<(f64, NodeId)>,
    /// Pool of coarse stage-1 scoreboards, one per (predictor, job-feature
    /// signature) seen this burst, FIFO-bounded — so bursts that interleave
    /// workload classes still amortize the full-cluster inference each board
    /// costs (see [`SchedulingContext::rank_feasible_batch`]).
    coarse_boards: Vec<CoarseBoard>,
    /// Monotone id source for scoreboards (stable across pool eviction, used
    /// in the model-pruned cache key).
    coarse_next_id: u64,
    /// The current burst number; boards from earlier bursts are stale (their
    /// scores read retired telemetry) and get recycled in place.
    board_epoch: u64,
    /// The current decision's job half of a feature row
    /// ([`crate::features::FeatureSchema::job_row_into`]): filled once per
    /// decision, copied into every candidate row.
    job_row: Vec<f64>,
    /// Scratch for building the signature row without allocating.
    sig_scratch: Vec<f64>,
    /// The model-pruned candidate set (supervised stage-1 output).
    model_pruned: Vec<NodeId>,
    /// `(driver sizing, k, scoreboard id)` the cached model-pruned set was
    /// computed for.
    model_pruned_key: Option<(u64, u64, usize, u64)>,
    /// One prediction per candidate.
    predictions: Vec<f64>,
    /// The candidate × feature matrix one decision's batch inference runs
    /// over (one contiguous buffer, reused across decisions).
    features: FeatureMatrix,
}

impl ContextScratch {
    /// How many times the carried feasibility index was actually rebuilt
    /// (generation changes observed), as opposed to answered from cache.
    pub fn feasibility_rebuilds(&self) -> u64 {
        self.index.rebuilds()
    }
}

/// Offer `entry` to a bounded max-heap of the `k` smallest `(score, id)`
/// pairs under `(total_cmp, id)` order: while under budget the entry is
/// pushed and sifted up; at budget it replaces the root (the worst survivor)
/// only when strictly better, then sifts down. The total order makes
/// membership deterministic for equal scores.
fn bounded_heap_offer(heap: &mut Vec<(f64, NodeId)>, k: usize, entry: (f64, NodeId)) {
    fn worse(a: &(f64, NodeId), b: &(f64, NodeId)) -> bool {
        a.0.total_cmp(&b.0).then_with(|| a.1.cmp(&b.1)).is_gt()
    }
    if heap.len() < k {
        heap.push(entry);
        let mut at = heap.len() - 1;
        while at > 0 {
            let parent = (at - 1) / 2;
            if worse(&heap[at], &heap[parent]) {
                heap.swap(at, parent);
                at = parent;
            } else {
                break;
            }
        }
    } else if worse(&heap[0], &entry) {
        heap[0] = entry;
        let mut at = 0;
        loop {
            let left = 2 * at + 1;
            let right = 2 * at + 2;
            let mut worst = at;
            if left < heap.len() && worse(&heap[left], &heap[worst]) {
                worst = left;
            }
            if right < heap.len() && worse(&heap[right], &heap[worst]) {
                worst = right;
            }
            if worst == at {
                break;
            }
            heap.swap(at, worst);
            at = worst;
        }
    }
}

/// Per-burst scheduling state: borrowed world view plus reusable scratch.
#[derive(Debug)]
pub struct SchedulingContext<'a> {
    snapshot: &'a ClusterSnapshot,
    cluster: &'a ClusterState,
    scratch: ContextScratch,
    /// Candidate-pruning budget: rank at most this many prefiltered
    /// candidates. `None` disables pruning.
    top_k: Option<usize>,
    /// Which stage-1 scorer a budget prunes with.
    policy: PruningPolicy,
}

impl<'a> SchedulingContext<'a> {
    /// Build a context for one burst of decisions against a frozen snapshot
    /// and cluster state. Costs one pass over the snapshot (nodes + RTT
    /// mesh); everything after that is per-decision work.
    pub fn new(snapshot: &'a ClusterSnapshot, cluster: &'a ClusterState) -> Self {
        Self::with_scratch(snapshot, cluster, ContextScratch::default())
    }

    /// Build a context reusing buffers carried over from a previous burst.
    /// The cached feasibility / pruning keys and the scoreboard pool are
    /// invalidated (snapshot and cluster state may have changed between
    /// bursts); the buffer allocations — and the feasibility index, which
    /// re-validates itself against the cluster generation — are kept.
    pub fn with_scratch(
        snapshot: &'a ClusterSnapshot,
        cluster: &'a ClusterState,
        mut scratch: ContextScratch,
    ) -> Self {
        snapshot.index_into(cluster, &mut scratch.telemetry);
        scratch.candidate_key = None;
        scratch.pruned_key = None;
        scratch.model_pruned_key = None;
        scratch.board_epoch += 1;
        SchedulingContext {
            snapshot,
            cluster,
            scratch,
            top_k: None,
            policy: PruningPolicy::default(),
        }
    }

    /// Release the context's buffers for reuse by a later burst.
    pub fn into_scratch(self) -> ContextScratch {
        self.scratch
    }

    /// Set the candidate-pruning budget: rankers score at most `k`
    /// prefiltered candidates per decision. `None` (the default) ranks the
    /// full feasible set; any `k ≥ |feasible|` is equivalent to `None`.
    pub fn set_top_k(&mut self, k: Option<usize>) {
        self.top_k = k;
    }

    /// The current candidate-pruning budget.
    pub fn top_k(&self) -> Option<usize> {
        self.top_k
    }

    /// Select the stage-1 scorer a top-K budget prunes with.
    pub fn set_pruning_policy(&mut self, policy: PruningPolicy) {
        self.policy = policy;
    }

    /// The current stage-1 pruning policy.
    pub fn pruning_policy(&self) -> PruningPolicy {
        self.policy
    }

    /// The telemetry snapshot this burst decides against.
    pub fn snapshot(&self) -> &'a ClusterSnapshot {
        self.snapshot
    }

    /// The cluster state this burst decides against.
    pub fn cluster(&self) -> &'a ClusterState {
        self.cluster
    }

    /// The dense node-indexed telemetry view.
    pub fn telemetry(&self) -> &IndexedTelemetry {
        &self.scratch.telemetry
    }

    /// Host telemetry for one node (`None` when it was not scraped).
    pub fn node_telemetry(&self, id: NodeId) -> Option<&NodeTelemetry> {
        self.scratch.telemetry.node(id)
    }

    /// Precomputed (mean, max, std-dev) RTT statistics from one node.
    pub fn rtt_stats(&self, id: NodeId) -> (f64, f64, f64) {
        self.scratch.telemetry.rtt_stats(id)
    }

    /// Ids of the nodes on which the job's driver pod passes the default
    /// scheduler's filtering phase (resource fit, affinity, taints). All
    /// policies rank within this same candidate set so comparisons are
    /// apples-to-apples.
    ///
    /// The set is answered by the scratch-carried resource-sorted
    /// [`FeasibilityIndex`] — two `partition_point` binary searches plus a
    /// walk of the shorter matching suffix, instead of a scan of every node
    /// — and is byte-identical (membership and ascending-id order) to
    /// filtering every node with [`cluster::DefaultScheduler::filter`], which
    /// driver pods reduce to exactly (they carry no selector, affinity or
    /// tolerations).
    ///
    /// The result is cached across consecutive calls with identical driver
    /// sizing — an unpinned driver pod's feasibility depends only on its
    /// resource requests — which amortizes filtering across a burst of
    /// same-shaped jobs.
    pub fn feasible_candidates(&mut self, request: &JobRequest) -> &[NodeId] {
        let key = (request.driver_cpu_millis, request.driver_memory_bytes);
        if self.scratch.candidate_key != Some(key) {
            self.scratch.index.sync(self.cluster);
            self.scratch
                .index
                .query_into(&request.driver_resources(), &mut self.scratch.candidates);
            self.scratch.candidate_key = Some(key);
        }
        &self.scratch.candidates
    }

    /// The cheap stage-1 prefilter score for one node under the current
    /// [`PruningPolicy`]. Lower is better.
    ///
    /// [`PruningPolicy::LinearBlend`] (and the non-supervised fallback of
    /// [`PruningPolicy::ModelAligned`]) blends the same telemetry columns the
    /// feature schema reads — current CPU load, mean peer RTT (the
    /// network-awareness term) and a free-memory credit; unscraped nodes
    /// score as if idle and unprobed, mirroring the defaults the model rank
    /// uses for them. [`PruningPolicy::LeastAllocated`] is the kube-style
    /// negated mean of the node's free CPU/memory fractions.
    pub fn prefilter_score(&self, id: NodeId) -> f64 {
        const GIB: f64 = 1024.0 * 1024.0 * 1024.0;
        match self.policy {
            PruningPolicy::ModelAligned | PruningPolicy::LinearBlend => {
                let node = self.scratch.telemetry.node(id).copied().unwrap_or_default();
                let (rtt_mean, _, _) = self.scratch.telemetry.rtt_stats(id);
                node.cpu_load + 1000.0 * rtt_mean - node.memory_available_bytes / (64.0 * GIB)
            }
            PruningPolicy::LeastAllocated => {
                let node = &self.cluster.nodes()[id.index()];
                let free = node.available();
                let cpu_frac = free.cpu_millis as f64 / node.allocatable.cpu_millis.max(1) as f64;
                let mem_frac =
                    free.memory_bytes as f64 / node.allocatable.memory_bytes.max(1) as f64;
                -(cpu_frac + mem_frac) / 2.0
            }
        }
    }

    /// The candidate set the score-closure rankers and non-supervised
    /// policies run over: the full feasible set when pruning is off (or
    /// `K ≥ |feasible|`), otherwise the top-K nodes by
    /// [`SchedulingContext::prefilter_score`] (ties broken by ascending id),
    /// selected through the bounded heap in the context scratch. Always in
    /// ascending [`NodeId`] order, so downstream ranking and RNG-consuming
    /// policies behave identically to the unpruned path at `K = ∞`. Cached
    /// per `(driver sizing, top_k, policy)` like the feasible set.
    pub fn pruned_candidates(&mut self, request: &JobRequest) -> &[NodeId] {
        let key = (
            request.driver_cpu_millis,
            request.driver_memory_bytes,
            self.top_k,
            self.policy,
        );
        if self.scratch.pruned_key != Some(key) {
            self.feasible_candidates(request);
            match self.top_k {
                Some(k) if k < self.scratch.candidates.len() => {
                    let mut heap = std::mem::take(&mut self.scratch.heap);
                    heap.clear();
                    if k > 0 {
                        let count = self.scratch.candidates.len();
                        for i in 0..count {
                            let id = self.scratch.candidates[i];
                            let score = self.prefilter_score(id);
                            bounded_heap_offer(&mut heap, k, (score, id));
                        }
                    }
                    self.scratch.pruned.clear();
                    self.scratch.pruned.extend(heap.iter().map(|&(_, id)| id));
                    self.scratch.pruned.sort_unstable();
                    self.scratch.heap = heap;
                }
                _ => {
                    self.scratch.pruned.clear();
                    self.scratch
                        .pruned
                        .extend_from_slice(&self.scratch.candidates);
                }
            }
            self.scratch.pruned_key = Some(key);
        }
        &self.scratch.pruned
    }

    /// Rank the (pruned) feasible candidates for `request` by a per-node
    /// score (lower is better, ties break by [`NodeId`]). This is the shared
    /// scoring scaffold for score-based policies: it owns the
    /// candidates/predictions alignment invariant that
    /// [`DecisionModule::rank`] asserts on, so policies only supply the
    /// score itself.
    pub fn rank_feasible(
        &mut self,
        request: &JobRequest,
        mut score: impl FnMut(&mut Self, NodeId) -> f64,
    ) -> NodeRanking {
        let count = self.pruned_candidates(request).len();
        self.scratch.predictions.clear();
        for i in 0..count {
            let id = self.scratch.pruned[i];
            let value = score(self, id);
            self.scratch.predictions.push(value);
        }
        DecisionModule.rank(&self.scratch.pruned, &self.scratch.predictions)
    }

    /// Rank the (pruned) feasible candidates by supervised completion-time
    /// predictions via **one batch inference call** (see
    /// [`SchedulingContext::rank_feasible_batch_into`]).
    pub fn rank_feasible_batch(
        &mut self,
        request: &JobRequest,
        predictor: &CompletionTimePredictor,
    ) -> NodeRanking {
        let mut out = NodeRanking::default();
        self.rank_feasible_batch_into(request, predictor, &mut out);
        out
    }

    /// Rank the (pruned) feasible candidates by supervised completion-time
    /// predictions via **one batch inference call**: the job half of the
    /// feature row is built once ([`crate::features::FeatureSchema::job_row_into`]),
    /// the candidate × feature matrix is filled row by row from it into the
    /// context's contiguous scratch (only telemetry columns are written per
    /// candidate), then the whole batch walks the model's trees at once, instead
    /// of re-walking every tree per candidate. The ranking is built into `out`, reusing its buffer, and
    /// every intermediate lives in the context's scratch — a steady-state
    /// decision touches no heap.
    ///
    /// With pruning enabled (`top_k = Some(K) < |feasible|`) this is a true
    /// two-stage path. Under [`PruningPolicy::ModelAligned`] (the default)
    /// stage one is — unlike the policy-agnostic
    /// [`SchedulingContext::pruned_candidates`] heuristic — **model-aligned**:
    /// a per-node *coarse scoreboard* of the predictor's own scores, computed
    /// once per (predictor, job-signature **cell**) and reused for every
    /// decision in the burst. The cell is the job's feature row collapsed
    /// onto the model's own split-threshold partition
    /// ([`CompletionTimePredictor::signature_cells`]): jobs in the same cell
    /// take identical paths through every tree, so they share *identical*
    /// per-node scores (linear models shift every node by the same constant),
    /// and the scoreboard's node-ordering is exactly the full rank's
    /// ordering. Taking the board's top-K therefore keeps exactly the first
    /// K nodes of the unpruned ranking — the top-1 decision is byte-identical
    /// to the full scan at every `K ≥ 1`, and the board key space is bounded
    /// by the model's split granularity, not the stream's diversity. A
    /// forest rank over 10k nodes costs milliseconds — paid once per burst
    /// per cell here, instead of once per decision — while the per-decision
    /// cost drops to an `O(n)` top-K selection plus a K-row exact re-rank.
    ///
    /// Under the model-blind policies stage one is the same prefilter +
    /// bounded heap the other rankers use, and the survivors get the exact
    /// model re-rank — cheaper stage one, measurable accuracy cost (the
    /// `scenario_scale` sweep publishes both).
    pub fn rank_feasible_batch_into(
        &mut self,
        request: &JobRequest,
        predictor: &CompletionTimePredictor,
        out: &mut NodeRanking,
    ) {
        let schema = predictor.schema();
        schema.job_row_into(&mut self.scratch.job_row, request);
        let feasible_len = self.feasible_candidates(request).len();
        let mut use_model = false;
        let count = match self.top_k {
            Some(k) if k < feasible_len && self.policy == PruningPolicy::ModelAligned => {
                use_model = true;
                let board = self.sync_coarse_scores(predictor);
                self.model_pruned_for(request, k, board);
                self.scratch.model_pruned.len()
            }
            _ => self.pruned_candidates(request).len(),
        };
        self.scratch.features.reset(schema.len());
        for i in 0..count {
            let id = if use_model {
                self.scratch.model_pruned[i]
            } else {
                self.scratch.pruned[i]
            };
            let node = self.scratch.telemetry.node(id).copied().unwrap_or_default();
            let rtt_stats = self.scratch.telemetry.rtt_stats(id);
            schema.candidate_row_into(
                &mut self.scratch.features,
                &self.scratch.job_row,
                &node,
                rtt_stats,
            );
        }
        predictor.predict_batch_into(&self.scratch.features, &mut self.scratch.predictions);
        let ranked: &[NodeId] = if use_model {
            &self.scratch.model_pruned
        } else {
            &self.scratch.pruned
        };
        DecisionModule.rank_into(ranked, &self.scratch.predictions, out);
    }

    /// How many coarse scoreboards the pool keeps before evicting the
    /// oldest. Bursts interleaving up to this many (predictor, job signature
    /// cell) pairs pay the full-cluster inference once per pair, not once
    /// per decision; at 10k nodes a board is ~80 KB, so even a full pool
    /// stays a few MB of scratch.
    const MAX_COARSE_BOARDS: usize = 64;

    /// Ensure a coarse scoreboard covering every node exists for this
    /// (predictor, job-signature cell) pair, and return its index in the
    /// pool. The signature is the decision's job row (already in scratch;
    /// its telemetry columns read 0, as for a default node), collapsed to
    /// the model's own partition cells
    /// ([`CompletionTimePredictor::signature_cells`]): every job whose
    /// columns land in the same inter-threshold cells shares one board, and
    /// — because equal cells mean identical tree paths — shares the *exact*
    /// scores, so the key space is bounded by the model's split granularity
    /// rather than the stream's diversity. A build is one batch inference
    /// over the *whole* cluster; the cell row doubles as a predictor
    /// fingerprint so a different model (even one reusing the same
    /// allocation) can't serve stale scores. Boards are pooled FIFO so
    /// request streams that alternate workload classes don't thrash a single
    /// cache slot, and stale boards from earlier bursts (retired telemetry)
    /// are recycled in place, buffers and all.
    fn sync_coarse_scores(&mut self, predictor: &CompletionTimePredictor) -> usize {
        let schema = predictor.schema();
        let mut sig = std::mem::take(&mut self.scratch.sig_scratch);
        sig.clear();
        sig.extend_from_slice(&self.scratch.job_row);
        predictor.signature_cells(&mut sig);
        let ident = (
            std::ptr::from_ref(predictor) as usize,
            predictor.predict_from_features(&sig),
        );
        let epoch = self.scratch.board_epoch;
        let hit = self
            .scratch
            .coarse_boards
            .iter()
            .position(|b| b.epoch == epoch && b.predictor == ident && b.sig == sig);
        let board = match hit {
            Some(at) => at,
            None => {
                // Recycle a stale board's buffers in place when one exists;
                // otherwise evict the oldest once full, or grow the pool.
                let at = match self
                    .scratch
                    .coarse_boards
                    .iter()
                    .position(|b| b.epoch != epoch)
                {
                    Some(stale) => stale,
                    None => {
                        if self.scratch.coarse_boards.len() >= Self::MAX_COARSE_BOARDS {
                            let recycled = self.scratch.coarse_boards.remove(0);
                            self.scratch.coarse_boards.push(recycled);
                        } else {
                            self.scratch.coarse_boards.push(CoarseBoard {
                                id: 0,
                                epoch,
                                predictor: (0, 0.0),
                                sig: Vec::new(),
                                scores: Vec::new(),
                            });
                        }
                        self.scratch.coarse_boards.len() - 1
                    }
                };
                self.scratch.coarse_boards[at].id = self.scratch.coarse_next_id;
                self.scratch.coarse_next_id += 1;
                self.scratch.coarse_boards[at].epoch = epoch;
                self.scratch.coarse_boards[at].predictor = ident;
                std::mem::swap(&mut self.scratch.coarse_boards[at].sig, &mut sig);
                self.scratch.features.reset(schema.len());
                for idx in 0..self.cluster.node_count() {
                    let id = NodeId(idx as u32);
                    let node = self.scratch.telemetry.node(id).copied().unwrap_or_default();
                    let rtt_stats = self.scratch.telemetry.rtt_stats(id);
                    schema.candidate_row_into(
                        &mut self.scratch.features,
                        &self.scratch.job_row,
                        &node,
                        rtt_stats,
                    );
                }
                predictor.predict_batch_into(
                    &self.scratch.features,
                    &mut self.scratch.coarse_boards[at].scores,
                );
                at
            }
        };
        sig.clear();
        self.scratch.sig_scratch = sig;
        board
    }

    /// Select the K best feasible candidates by the given scoreboard's score
    /// (ties by ascending id — the same total order the exact rank uses), in
    /// ascending [`NodeId`] order, through the scratch's bounded heap.
    /// Cached per `(driver sizing, K, board)`.
    fn model_pruned_for(&mut self, request: &JobRequest, k: usize, board: usize) {
        let board_id = self.scratch.coarse_boards[board].id;
        let key = (
            request.driver_cpu_millis,
            request.driver_memory_bytes,
            k,
            board_id,
        );
        if self.scratch.model_pruned_key != Some(key) {
            self.feasible_candidates(request);
            let mut heap = std::mem::take(&mut self.scratch.heap);
            heap.clear();
            if k > 0 {
                let count = self.scratch.candidates.len();
                for i in 0..count {
                    let id = self.scratch.candidates[i];
                    let score = self.scratch.coarse_boards[board].scores[id.index()];
                    bounded_heap_offer(&mut heap, k, (score, id));
                }
            }
            self.scratch.model_pruned.clear();
            self.scratch
                .model_pruned
                .extend(heap.iter().map(|&(_, id)| id));
            self.scratch.model_pruned.sort_unstable();
            self.scratch.heap = heap;
            self.scratch.model_pruned_key = Some(key);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cluster::{Node, PodSpec, Resources};
    use simcore::SimTime;
    use sparksim::WorkloadKind;
    use telemetry::NodeTelemetry;

    fn cluster(n: usize) -> ClusterState {
        let mut c = ClusterState::new();
        for i in 0..n {
            c.add_node(Node::new(
                format!("node-{}", i + 1),
                simnet::NodeId(i),
                Resources::from_cores_and_gib(6, 8),
                "SITE",
            ));
        }
        c
    }

    fn snapshot(n: usize) -> ClusterSnapshot {
        let mut snap = ClusterSnapshot::at(SimTime::from_secs(10));
        for i in 0..n {
            let name = format!("node-{}", i + 1);
            snap.insert_node(
                &name,
                NodeTelemetry {
                    cpu_load: i as f64,
                    memory_available_bytes: 6e9,
                    tx_rate: 0.0,
                    rx_rate: 0.0,
                },
            );
            for j in 0..n {
                if i != j {
                    snap.insert_rtt(&name, &format!("node-{}", j + 1), 0.01 * (i + 1) as f64);
                }
            }
        }
        snap
    }

    fn request(name: &str) -> JobRequest {
        JobRequest::named(name, WorkloadKind::Sort, 100_000, 2)
    }

    #[test]
    fn context_exposes_indexed_telemetry() {
        let c = cluster(3);
        let snap = snapshot(3);
        let ctx = SchedulingContext::new(&snap, &c);
        assert_eq!(ctx.cluster().node_count(), 3);
        assert_eq!(ctx.snapshot().time, SimTime::from_secs(10));
        assert_eq!(ctx.telemetry().len(), 3);
        let id = c.node_id("node-2").unwrap();
        assert_eq!(ctx.node_telemetry(id).unwrap().cpu_load, 1.0);
        let (mean, _, _) = ctx.rtt_stats(id);
        assert!((mean - 0.02).abs() < 1e-12);
    }

    #[test]
    fn feasibility_is_cached_per_driver_sizing_and_refreshed_on_change() {
        let mut c = cluster(3);
        // Fill node-2 completely.
        let id = c.create_pod(
            PodSpec::new("hog", Resources::from_cores_and_gib(6, 8)),
            SimTime::ZERO,
        );
        c.bind_pod(id, "node-2", SimTime::ZERO).unwrap();
        let snap = snapshot(3);
        let mut ctx = SchedulingContext::new(&snap, &c);

        let small_a = ctx.feasible_candidates(&request("a")).to_vec();
        assert_eq!(
            small_a,
            vec![c.node_id("node-1").unwrap(), c.node_id("node-3").unwrap()]
        );
        // Same sizing, different job: served from cache (same result).
        let small_b = ctx.feasible_candidates(&request("b")).to_vec();
        assert_eq!(small_a, small_b);

        // An oversized driver fits nowhere; the cache must not serve the
        // small-driver result.
        let huge = request("huge").with_driver_resources(64_000, 64 * 1024 * 1024 * 1024);
        assert!(ctx.feasible_candidates(&huge).is_empty());
        // And switching back recomputes the small set.
        assert_eq!(ctx.feasible_candidates(&request("c")).to_vec(), small_a);
    }

    #[test]
    fn pruning_off_or_oversized_k_returns_the_full_feasible_set() {
        let c = cluster(5);
        let snap = snapshot(5);
        let mut ctx = SchedulingContext::new(&snap, &c);
        let full = ctx.feasible_candidates(&request("a")).to_vec();
        assert_eq!(full.len(), 5);

        // Default (no pruning).
        assert_eq!(ctx.pruned_candidates(&request("a")), full.as_slice());
        // K equal to and beyond the feasible count, under every policy.
        for policy in [
            PruningPolicy::ModelAligned,
            PruningPolicy::LinearBlend,
            PruningPolicy::LeastAllocated,
        ] {
            ctx.set_pruning_policy(policy);
            for k in [5, 6, 1000] {
                ctx.set_top_k(Some(k));
                assert_eq!(
                    ctx.pruned_candidates(&request("a")),
                    full.as_slice(),
                    "{policy:?} K = {k}"
                );
            }
        }
        // K = 0 is a degenerate but well-defined budget: nothing to rank.
        ctx.set_top_k(Some(0));
        assert!(ctx.pruned_candidates(&request("a")).is_empty());
    }

    #[test]
    fn pruning_keeps_the_best_prefilter_scores_in_ascending_id_order() {
        let c = cluster(6);
        // The snapshot fixture gives node i cpu_load = i and rtt mean
        // 0.01 * (i + 1): the prefilter score strictly increases with the
        // node index, so top-K must keep the K lowest-indexed nodes.
        let snap = snapshot(6);
        let mut ctx = SchedulingContext::new(&snap, &c);
        let full = ctx.feasible_candidates(&request("a")).to_vec();
        let mut scored: Vec<(f64, NodeId)> = full
            .iter()
            .map(|&id| (ctx.prefilter_score(id), id))
            .collect();
        scored.sort_by(|a, b| a.0.total_cmp(&b.0).then_with(|| a.1.cmp(&b.1)));

        for k in 1..=6usize {
            ctx.set_top_k(Some(k));
            let pruned = ctx.pruned_candidates(&request("a")).to_vec();
            let mut expected: Vec<NodeId> = scored[..k].iter().map(|&(_, id)| id).collect();
            expected.sort_unstable();
            assert_eq!(pruned, expected, "K = {k}");
            // Ascending id order is part of the contract.
            assert!(pruned.windows(2).all(|w| w[0] < w[1]));
        }
    }

    #[test]
    fn least_allocated_policy_prunes_by_headroom() {
        let mut c = cluster(4);
        // Load node-1 and node-2 (most to least), leaving 3 and 4 idle:
        // least-allocated must keep the idle nodes first.
        for (name, cores) in [("node-1", 5), ("node-2", 3)] {
            let id = c.create_pod(
                PodSpec::new(
                    format!("hog-{name}"),
                    Resources::from_cores_and_gib(cores, 1),
                ),
                SimTime::ZERO,
            );
            c.bind_pod(id, name, SimTime::ZERO).unwrap();
        }
        let snap = snapshot(4);
        let mut ctx = SchedulingContext::new(&snap, &c);
        ctx.set_pruning_policy(PruningPolicy::LeastAllocated);
        ctx.set_top_k(Some(2));
        let pruned = ctx.pruned_candidates(&request("a")).to_vec();
        assert_eq!(
            pruned,
            vec![c.node_id("node-3").unwrap(), c.node_id("node-4").unwrap()]
        );
        // The telemetry blend would have kept node-1 (lowest cpu_load in the
        // snapshot fixture) — the policy dimension really changes the set.
        ctx.set_pruning_policy(PruningPolicy::LinearBlend);
        let blended = ctx.pruned_candidates(&request("a")).to_vec();
        assert_eq!(
            blended,
            vec![c.node_id("node-1").unwrap(), c.node_id("node-2").unwrap()]
        );
    }

    #[test]
    fn pruned_cache_tracks_driver_sizing_budget_and_policy() {
        let mut c = cluster(4);
        let id = c.create_pod(
            PodSpec::new("hog", Resources::from_cores_and_gib(6, 8)),
            SimTime::ZERO,
        );
        c.bind_pod(id, "node-4", SimTime::ZERO).unwrap();
        let snap = snapshot(4);
        let mut ctx = SchedulingContext::new(&snap, &c);

        ctx.set_top_k(Some(2));
        let pruned = ctx.pruned_candidates(&request("a")).to_vec();
        assert_eq!(pruned.len(), 2);
        // Budget change must invalidate the cached pruned set…
        ctx.set_top_k(Some(1));
        assert_eq!(ctx.pruned_candidates(&request("a")).len(), 1);
        // …and so must a sizing change (the oversized driver fits nowhere).
        let huge = request("huge").with_driver_resources(64_000, 64 * 1024 * 1024 * 1024);
        assert!(ctx.pruned_candidates(&huge).is_empty());
        ctx.set_top_k(Some(2));
        assert_eq!(ctx.pruned_candidates(&request("b")).to_vec(), pruned);
    }

    #[test]
    fn budgeted_batch_rank_preserves_the_unpruned_decision_prefix() {
        use crate::features::FeatureSchema;
        use mlcore::{Dataset, ModelConfig, ModelKind, TrainedModel};
        use simcore::rng::Rng;

        // Trained to prefer *high*-load nodes — the opposite of the linear
        // prefilter's ordering — so this test fails if the supervised path
        // ever prunes by the heuristic instead of the model-aligned coarse
        // scoreboard.
        let schema = FeatureSchema::standard();
        let mut data = Dataset::new(schema.names().to_vec());
        let job = request("train");
        for load in 0..30 {
            let mut snap = snapshot(1);
            snap.node_mut("node-1").unwrap().cpu_load = load as f64 / 5.0;
            let features = schema.construct(&snap, "node-1", &job);
            data.push(features, 40.0 - 4.0 * load as f64 / 5.0).unwrap();
        }
        let mut rng = Rng::seed_from_u64(5);
        let model =
            TrainedModel::train(ModelKind::Linear, &ModelConfig::default(), &data, &mut rng);
        let predictor = CompletionTimePredictor::new(schema, model).unwrap();

        let c = cluster(8);
        let snap = snapshot(8);
        let mut ctx = SchedulingContext::new(&snap, &c);
        let full = ctx.rank_feasible_batch(&request("a"), &predictor);
        assert_eq!(full.len(), 8);
        // The model's winner is the highest-load node — the *worst* by
        // prefilter score.
        assert_eq!(full.best().unwrap().node, c.node_id("node-8").unwrap());

        // At every budget the pruned ranking is exactly the first K entries
        // of the unpruned one (scores included): stage one kept the K best
        // nodes by the model's own ordering.
        for k in 1..=8usize {
            ctx.set_top_k(Some(k));
            let pruned = ctx.rank_feasible_batch(&request("a"), &predictor);
            assert_eq!(pruned.ranked.as_slice(), &full.ranked[..k], "K = {k}");
        }
        ctx.set_top_k(Some(1_000));
        let oversized = ctx.rank_feasible_batch(&request("a"), &predictor);
        assert_eq!(oversized, full);

        // A different workload class re-keys the scoreboard and stays exact.
        let other = JobRequest::named("b", WorkloadKind::Join, 50_000, 3);
        ctx.set_top_k(None);
        let full_other = ctx.rank_feasible_batch(&other, &predictor);
        ctx.set_top_k(Some(2));
        let pruned_other = ctx.rank_feasible_batch(&other, &predictor);
        assert_eq!(pruned_other.ranked.as_slice(), &full_other.ranked[..2]);

        // The model-blind policies keep the heuristic stage even for the
        // supervised rank: at K = 1 the survivor is the *lowest*-scoring
        // node by the linear prefilter (node-1), which the model then ranks
        // — a measurably different decision from the model-aligned one.
        ctx.set_pruning_policy(PruningPolicy::LinearBlend);
        ctx.set_top_k(Some(1));
        let blend = ctx.rank_feasible_batch(&request("a"), &predictor);
        assert_eq!(blend.best().unwrap().node, c.node_id("node-1").unwrap());
        assert_eq!(
            ctx.pruned_candidates(&request("a")),
            &[c.node_id("node-1").unwrap()]
        );
    }

    #[test]
    fn scratch_reuse_keeps_the_feasibility_index_warm() {
        let mut c = cluster(4);
        let snap = snapshot(4);
        let ctx = SchedulingContext::new(&snap, &c);
        let mut scratch = ctx.into_scratch();
        assert_eq!(scratch.feasibility_rebuilds(), 0, "no query yet");

        // First burst syncs the index once; a second burst over the
        // unchanged cluster reuses it (generation-keyed).
        for _ in 0..2 {
            let mut ctx = SchedulingContext::with_scratch(&snap, &c, scratch);
            assert_eq!(ctx.feasible_candidates(&request("a")).len(), 4);
            scratch = ctx.into_scratch();
        }
        assert_eq!(scratch.feasibility_rebuilds(), 1);

        // A cluster mutation between bursts forces exactly one rebuild.
        c.node_mut("node-4").unwrap().schedulable = false;
        let mut ctx = SchedulingContext::with_scratch(&snap, &c, scratch);
        assert_eq!(ctx.feasible_candidates(&request("a")).len(), 3);
        scratch = ctx.into_scratch();
        assert_eq!(scratch.feasibility_rebuilds(), 2);
    }
}
