//! The traced run: each decision is replayed through the same public stages
//! `SchedulerService` calls, in the service's order (adopt the published
//! epoch → `SchedulingContext::with_scratch` → `feasible_candidates` →
//! `rank_feasible_batch_into` → `JobBuilder::build_into`), with one carried
//! `ContextScratch`, and every stage gets a span.
//!
//! After the root span closes, the replay also times the feature and
//! inference layers on their own (`probe`), which no service call exposes.

use std::sync::Arc;
use std::time::Instant;

use cluster::{ClusterState, NodeId};
use mlcore::FeatureMatrix;
use netsched_core::builder::BuiltJob;
use netsched_core::{
    CompletionTimePredictor, ContextScratch, JobBuilder, JobRequest, NodeRanking, PruningPolicy,
    SchedulingContext, TelemetryFetcher,
};
use telemetry::{ClusterSnapshot, PublishedEpoch, SnapshotSource};

use crate::harness::{Tracer, ROOT};

/// Per-layer samples the replay collects next to its spans.
#[derive(Debug, Default)]
pub struct LayerSamples {
    /// Feature construction ns per row over the ranked set.
    pub row_ns: Vec<f64>,
    /// Inference ns per row over the ranked set.
    pub predict_row_ns: Vec<f64>,
    /// Features + inference over the whole feasible set (ms): what one
    /// full-cluster scoreboard build costs.
    pub full_score_ms: Vec<f64>,
    /// Feasible-set size per decision.
    pub feasible: Vec<f64>,
    /// Ranked-set size per decision.
    pub ranked: Vec<f64>,
    /// Decisions whose adopted epoch had already moved past the one the
    /// service decided on (the replay then ranks the service's snapshot).
    pub epoch_races: u64,
}

/// Replay state carried across decisions, like the service's own.
pub struct Replay {
    fetcher: TelemetryFetcher,
    held: Option<PublishedEpoch>,
    scratch: ContextScratch,
    top_k: Option<usize>,
    policy: PruningPolicy,
    job: BuiltJob,
    matrix: FeatureMatrix,
    predictions: Vec<f64>,
    ids: Vec<NodeId>,
    rankings: Vec<NodeRanking>,
    /// Time the full-set score probe on every `full_score_every`-th decision.
    full_score_every: u64,
    pub layers: LayerSamples,
}

impl Replay {
    pub fn new(top_k: Option<usize>, full_score_every: u64) -> Self {
        Replay {
            fetcher: TelemetryFetcher::default(),
            held: None,
            scratch: ContextScratch::default(),
            top_k,
            policy: PruningPolicy::default(),
            job: BuiltJob::empty(),
            matrix: FeatureMatrix::new(0),
            predictions: Vec::new(),
            ids: Vec::new(),
            rankings: Vec::new(),
            full_score_every: full_score_every.max(1),
            layers: LayerSamples::default(),
        }
    }

    /// Adopt the latest published epoch the way the service does: one
    /// freshness load, and `fetch_published` only when the epoch moved.
    /// Returns the snapshot to rank: the service's own when a publish
    /// landed between the service call and this replay.
    fn adopt<S: SnapshotSource + ?Sized>(
        &mut self,
        tracer: &mut Tracer,
        id: u64,
        root: u32,
        source: &S,
        service_snapshot: &Arc<ClusterSnapshot>,
    ) -> Arc<ClusterSnapshot> {
        let epoch = self.fetcher.published_epoch(source);
        if self.held.as_ref().map(|h| h.epoch) != epoch {
            let span = tracer.open("fetcher.adopt", id, Some(root));
            self.held = self.fetcher.fetch_published(source);
            tracer.close(span);
        }
        match &self.held {
            Some(held) if Arc::ptr_eq(&held.snapshot, service_snapshot) => {
                Arc::clone(&held.snapshot)
            }
            _ => {
                self.layers.epoch_races += 1;
                Arc::clone(service_snapshot)
            }
        }
    }

    /// Replay one burst (a single decision is a burst of one). `id` is the
    /// shared identifier of the burst's spans. Returns each decision's top-1.
    #[allow(clippy::too_many_arguments)]
    pub fn burst<S: SnapshotSource + ?Sized>(
        &mut self,
        tracer: &mut Tracer,
        id: u64,
        source: &S,
        service_snapshot: &Arc<ClusterSnapshot>,
        requests: &[JobRequest],
        cluster: &ClusterState,
        predictor: &CompletionTimePredictor,
        top1: &mut Vec<Option<NodeId>>,
    ) {
        top1.clear();
        let mut rankings = std::mem::take(&mut self.rankings);
        rankings.resize_with(requests.len(), NodeRanking::default);
        let root = tracer.open(ROOT, id, None);
        let snapshot = self.adopt(tracer, id, root, source, service_snapshot);
        let span = tracer.open("telemetry.index", id, Some(root));
        let mut ctx =
            SchedulingContext::with_scratch(&snapshot, cluster, std::mem::take(&mut self.scratch));
        ctx.set_top_k(self.top_k);
        ctx.set_pruning_policy(self.policy);
        tracer.close(span);
        for (request, ranking) in requests.iter().zip(rankings.iter_mut()) {
            let span = tracer.open("cluster.feasibility", id, Some(root));
            let feasible = ctx.feasible_candidates(request).len();
            tracer.close(span);
            let span = tracer.open("context.rank", id, Some(root));
            ctx.rank_feasible_batch_into(request, predictor, ranking);
            tracer.close(span);
            let span = tracer.open("builder.manifest", id, Some(root));
            JobBuilder.build_into(request, ranking.best_name(cluster), &mut self.job);
            tracer.close(span);
            self.layers.feasible.push(feasible as f64);
            self.layers.ranked.push(ranking.len() as f64);
            top1.push(ranking.best().map(|r| r.node));
        }
        tracer.close(root);
        for (request, ranking) in requests.iter().zip(&rankings) {
            self.probe(&mut ctx, id, request, ranking, predictor);
        }
        self.scratch = ctx.into_scratch();
        self.rankings = rankings;
    }

    /// Time feature construction and inference per row over the ranked set
    /// and, every `full_score_every`-th decision, over the whole feasible
    /// set.
    fn probe(
        &mut self,
        ctx: &mut SchedulingContext<'_>,
        id: u64,
        request: &JobRequest,
        ranking: &NodeRanking,
        predictor: &CompletionTimePredictor,
    ) {
        if !ranking.is_empty() {
            self.ids.clear();
            self.ids.extend(ranking.ranked.iter().map(|r| r.node));
            let (build, predict) = self.score_ids(ctx, request, predictor);
            let rows = self.ids.len() as f64;
            self.layers.row_ns.push(build * 1e9 / rows);
            self.layers.predict_row_ns.push(predict * 1e9 / rows);
        }
        if id.is_multiple_of(self.full_score_every) {
            self.ids.clear();
            self.ids.extend_from_slice(ctx.feasible_candidates(request));
            if !self.ids.is_empty() {
                let (build, predict) = self.score_ids(ctx, request, predictor);
                self.layers.full_score_ms.push((build + predict) * 1e3);
            }
        }
    }

    /// Build the feature rows of `self.ids` and predict them; returns the
    /// two wall times in seconds.
    fn score_ids(
        &mut self,
        ctx: &SchedulingContext<'_>,
        request: &JobRequest,
        predictor: &CompletionTimePredictor,
    ) -> (f64, f64) {
        let schema = predictor.schema();
        let start = Instant::now();
        self.matrix.reset(schema.len());
        for &node in &self.ids {
            let telemetry = ctx.node_telemetry(node).copied().unwrap_or_default();
            schema.construct_into_matrix(
                &mut self.matrix,
                &telemetry,
                ctx.rtt_stats(node),
                request,
            );
        }
        let build = start.elapsed().as_secs_f64();
        let start = Instant::now();
        predictor.predict_batch_into(&self.matrix, &mut self.predictions);
        let predict = start.elapsed().as_secs_f64();
        std::hint::black_box(&self.predictions);
        (build, predict)
    }
}
