//! `fabric6_paper`: the paper's 6-node, three-site FABRIC testbed. The
//! service learns from recorded training scenarios, then each held-out
//! scenario's snapshot is published as a new epoch and scheduled against the
//! testbed's empty cluster; the pick is scored against the recorded
//! completion times, with `KubeDefaultScheduler` as the baseline.
//!
//! The scenarios are dealt into four folds by the seed. Fold 0 is the
//! held-out quarter of the 75/25 split the timed decisions replay; decision
//! quality is scored on every fold, each by a service trained on the other
//! three, so the quality metrics rest on all 600 scenarios instead of 150.

use std::sync::Arc;
use std::time::Instant;

use cluster::{ClusterState, NodeId};
use experiments::workflow::{ExperimentConfig, ExperimentDataset, ScenarioRecord, Workflow};
use mlcore::FeatureMatrix;
use netsched_core::service::SchedulingDecision;
use netsched_core::{
    DecisionModule, JobRequest, JobScheduler, KubeDefaultScheduler, SchedulerConfig,
    SchedulerService, SchedulingContext,
};
use simcore::rng::Rng;
use simcore::SimTime;
use telemetry::{ClusterSnapshot, PublishedSnapshot, SnapshotPublisher};

use crate::harness::{
    check_decision, latency_metrics, median, median_or_zero, metric, peak_rss_mb, timed, Checks,
    Outcome, Quality, Tracer,
};
use crate::replay::Replay;
use crate::{Args, SETUP_REPS};

/// Folds the scenarios are dealt into; each is a 25 % held-out split.
pub const FOLDS: usize = 4;
/// Load threads: the single caller.
pub const LOAD_THREADS: usize = 1;

/// The FABRIC dataset at `seed`: 60 configurations × 10 repeats, every
/// configuration run on every node.
pub fn dataset(seed: u64) -> ExperimentDataset {
    Workflow::new(ExperimentConfig {
        seed,
        ..ExperimentConfig::default()
    })
    .run()
}

/// Deal scenario indices `0..n` into [`FOLDS`] folds, shuffled by `seed`.
pub fn folds(n: usize, seed: u64) -> Vec<Vec<usize>> {
    let mut order: Vec<usize> = (0..n).collect();
    Rng::seed_from_u64(seed ^ 0xF01D).shuffle(&mut order);
    (0..FOLDS)
        .map(|f| order.iter().copied().skip(f).step_by(FOLDS).collect())
        .collect()
}

/// A service trained, through `record_outcome` and `retrain`, on every
/// scenario outside fold `held_out`; returns it with the fit time.
fn train(
    dataset: &ExperimentDataset,
    folds: &[Vec<usize>],
    held_out: usize,
    seed: u64,
) -> (SchedulerService, f64) {
    let mut service = SchedulerService::new(SchedulerConfig::default(), seed);
    for (f, fold) in folds.iter().enumerate() {
        if f == held_out {
            continue;
        }
        for &i in fold {
            let scenario = &dataset.scenarios[i];
            let request = scenario.request();
            for outcome in &scenario.outcomes {
                service.record_outcome(
                    &scenario.snapshot,
                    &request,
                    &outcome.node,
                    outcome.completion_seconds,
                );
            }
        }
    }
    let mut rng = Rng::seed_from_u64(seed ^ held_out as u64);
    let (trained, fit_s) = timed(|| service.retrain(&mut rng));
    assert!(trained, "three folds exceed min_training_samples");
    (service, fit_s)
}

/// Everything one set-up builds: the dataset, its folds, the testbed's
/// empty cluster and the service trained for fold 0.
pub struct Setup {
    pub dataset: ExperimentDataset,
    pub folds: Vec<Vec<usize>>,
    pub cluster: ClusterState,
    pub service: SchedulerService,
    pub fit_s: f64,
}

/// Build the dataset, train the fold-0 service and make the first warm call.
pub fn setup(seed: u64) -> Setup {
    let dataset = dataset(seed);
    let folds = folds(dataset.scenario_count(), seed);
    let (service, fit_s) = train(&dataset, &folds, 0, seed);
    let mut setup = Setup {
        cluster: dataset.testbed.build().cluster,
        dataset,
        folds,
        service,
        fit_s,
    };
    let mut caller = Caller::new(&setup.cluster);
    let scenario = &setup.dataset.scenarios[setup.folds[0][0]];
    let (decision, ..) = caller.decide(&mut setup.service, scenario, &setup.cluster);
    assert!(
        decision.used_model,
        "the warm call must run the supervised path"
    );
    setup
}

/// The caller: publishes each scenario's snapshot as a new epoch, schedules
/// against it, and checks the decision.
struct Caller {
    publisher: SnapshotPublisher,
    handle: PublishedSnapshot,
    /// The testbed's node names in cluster order: the node table every
    /// published epoch keeps, so publishing rewrites values in place.
    names: Vec<String>,
    matrix: FeatureMatrix,
    predictions: Vec<f64>,
}

impl Caller {
    fn new(cluster: &ClusterState) -> Self {
        let publisher = SnapshotPublisher::new();
        Caller {
            handle: publisher.handle(),
            publisher,
            names: cluster.node_names(),
            matrix: FeatureMatrix::new(0),
            predictions: Vec::new(),
        }
    }

    /// Publish, then schedule; returns the decision with the publish and
    /// decision wall times in seconds.
    fn decide(
        &mut self,
        service: &mut SchedulerService,
        scenario: &ScenarioRecord,
        cluster: &ClusterState,
    ) -> (SchedulingDecision, f64, f64) {
        let request = scenario.request();
        let source = &scenario.snapshot;
        let names = &self.names;
        let t = Instant::now();
        self.publisher.publish_with(|snap| {
            snap.reset_for(source.time, names);
            for (name, telemetry) in source.iter_nodes() {
                snap.insert_node(name, *telemetry);
            }
            for (src, dst, rtt) in source.rtt().iter() {
                snap.insert_rtt(source.node_name(src), source.node_name(dst), rtt);
            }
        });
        let publish = t.elapsed().as_secs_f64();
        let t = Instant::now();
        let decision = service.schedule(&request, &self.handle, cluster, SimTime::ZERO);
        (decision, publish, t.elapsed().as_secs_f64())
    }

    /// The common checks against the naive context reference, plus the
    /// evaluation path (`predict_batch` + `DecisionModule::rank` over the
    /// scenario's own candidates).
    fn check(
        &mut self,
        service: &SchedulerService,
        decision: &SchedulingDecision,
        scenario: &ScenarioRecord,
        request: &JobRequest,
        cluster: &ClusterState,
    ) -> Vec<&'static str> {
        let predictor = service.predictor().expect("model trained");
        let reference = SchedulingContext::new(&decision.snapshot, cluster)
            .rank_feasible_batch(request, predictor);
        let mut failed = check_decision(
            &decision.ranking,
            decision.used_model,
            request,
            cluster,
            &reference,
        );
        let candidates = scenario.candidate_nodes();
        predictor.predict_batch(
            &scenario.snapshot,
            &candidates,
            request,
            &mut self.matrix,
            &mut self.predictions,
        );
        let mut ids = Vec::with_capacity(candidates.len());
        let mut aligned = Vec::with_capacity(candidates.len());
        for (name, &p) in candidates.iter().zip(&self.predictions) {
            if let Some(id) = cluster.node_id(name) {
                ids.push(id);
                aligned.push(p);
            }
        }
        let evaluated = DecisionModule.rank(&ids, &aligned);
        if evaluated.best().map(|r| r.node) != decision.ranking.best().map(|r| r.node) {
            failed.push("top1_differs_from_evaluation_path");
        }
        failed
    }
}

/// Score one decision against the scenario's recorded completion times.
fn score(
    quality: &mut Quality,
    kube: &mut KubeDefaultScheduler,
    scenario: &ScenarioRecord,
    request: &JobRequest,
    cluster: &ClusterState,
    decision: &SchedulingDecision,
) {
    let mut ctx = SchedulingContext::new(&scenario.snapshot, cluster);
    let default_pick = kube.select(request, &mut ctx).best().map(|r| r.node);
    let order: Vec<NodeId> = decision.ranking.ranked.iter().map(|r| r.node).collect();
    let time_of = |n: NodeId| {
        let name = cluster.node_name(n);
        scenario
            .outcomes
            .iter()
            .find(|o| o.node == name)
            .map(|o| o.completion_seconds)
    };
    let best = scenario
        .outcomes
        .iter()
        .map(|o| o.completion_seconds)
        .fold(f64::INFINITY, f64::min);
    quality.score(&order, default_pick, best, time_of);
}

/// Decision quality over every fold: fold 0 by the set-up's service, the
/// others by services trained for them. Every decision is checked.
pub fn quality(setup: &mut Setup, seed: u64, checks: &mut Checks) -> Quality {
    let mut kube = KubeDefaultScheduler::new(seed ^ 0xAB);
    let mut quality = Quality::default();
    let mut caller = Caller::new(&setup.cluster);
    for f in 0..FOLDS {
        let mut trained = (f > 0).then(|| train(&setup.dataset, &setup.folds, f, seed).0);
        let service = trained.as_mut().unwrap_or(&mut setup.service);
        for &idx in &setup.folds[f] {
            let scenario = &setup.dataset.scenarios[idx];
            let request = scenario.request();
            let (decision, ..) = caller.decide(service, scenario, &setup.cluster);
            checks.record(&caller.check(service, &decision, scenario, &request, &setup.cluster));
            score(
                &mut quality,
                &mut kube,
                scenario,
                &request,
                &setup.cluster,
                &decision,
            );
        }
    }
    quality
}

pub fn run(args: &Args) -> (Outcome, Option<Tracer>) {
    let mut out = Outcome::default();
    let mut setup_s = Vec::new();
    let mut state = None;
    for _ in 0..SETUP_REPS {
        drop(state.take());
        let (s, t) = timed(|| setup(args.seed));
        setup_s.push(t);
        state = Some(s);
    }
    let mut setup = state.expect("at least one set-up");
    let mut checks = Checks::default();
    let quality = quality(&mut setup, args.seed, &mut checks);

    let mut caller = Caller::new(&setup.cluster);
    let mut tracer = args.trace.then(Tracer::default);
    let mut replay = Replay::new(None, 1);
    let mut top1 = Vec::new();
    let mut latency_ms = Vec::new();
    let mut publish_ms = Vec::new();
    let mut bind_us = Vec::new();
    let mut busy_s = 0.0;
    let mut new_epochs = 0u64;
    let mut samples_per_round = 0.0;
    let mut last_snapshot: Option<Arc<ClusterSnapshot>> = None;
    let rebuilds0 = setup.service.feasibility_rebuilds();
    let epoch0 = caller.handle.epoch();
    let mut probe_cluster = setup.cluster.clone();

    let start = Instant::now();
    let mut i = 0u64;
    'timed: loop {
        for &idx in &setup.folds[0] {
            if start.elapsed().as_secs_f64() >= args.seconds {
                break 'timed;
            }
            let scenario = &setup.dataset.scenarios[idx];
            let request = scenario.request();
            let (decision, publish, decide) =
                caller.decide(&mut setup.service, scenario, &setup.cluster);
            latency_ms.push(decide * 1e3);
            publish_ms.push(publish * 1e3);
            busy_s += publish + decide;
            samples_per_round =
                (4 * scenario.snapshot.iter_nodes().count() + scenario.snapshot.rtt().len()) as f64;
            if !last_snapshot
                .as_ref()
                .is_some_and(|s| Arc::ptr_eq(s, &decision.snapshot))
            {
                new_epochs += 1;
            }
            last_snapshot = Some(Arc::clone(&decision.snapshot));

            let mut failed = Vec::new();
            if let Some(tracer) = tracer.as_mut() {
                let predictor = setup.service.predictor().expect("model trained");
                replay.burst(
                    tracer,
                    i,
                    &caller.handle,
                    &decision.snapshot,
                    std::slice::from_ref(&request),
                    &setup.cluster,
                    predictor,
                    &mut top1,
                );
                if top1.first().copied().flatten() != decision.ranking.best().map(|r| r.node) {
                    failed.push("traced_top1_differs");
                }
                // Bind cost on a private copy, so the workload's cluster
                // stays the empty testbed every decision sees.
                if let Some(target) = decision.job.target_node.as_deref() {
                    let t = Instant::now();
                    let pod =
                        probe_cluster.create_pod(decision.job.driver_pod.clone(), SimTime::ZERO);
                    let ok = probe_cluster.bind_pod(pod, target, SimTime::ZERO).is_ok()
                        && probe_cluster.delete_pod(pod, SimTime::ZERO).is_ok();
                    bind_us.push(t.elapsed().as_secs_f64() * 1e6);
                    if !ok {
                        failed.push("bind_failed");
                    }
                }
            }
            failed.extend(caller.check(
                &setup.service,
                &decision,
                scenario,
                &request,
                &setup.cluster,
            ));
            checks.record(&failed);
            i += 1;
        }
    }

    let decisions = latency_ms.len() as f64;
    let median_publish_ms = median(&mut publish_ms);
    out.checks = checks;
    out.end_to_end.extend(latency_metrics(&mut latency_ms));
    out.end_to_end.extend([
        metric("decisions_per_s", decisions / busy_s, "1/s"),
        metric(
            "ingest_samples_per_s",
            samples_per_round / (median_publish_ms / 1e3),
            "1/s",
        ),
    ]);
    out.end_to_end.extend(quality.metrics());
    out.end_to_end.extend([
        metric("setup_s", median(&mut setup_s), "s"),
        metric("peak_rss_mb", peak_rss_mb(), "MiB"),
    ]);

    out.per_layer.extend([
        metric("telemetry.publish_ms", median_publish_ms, "ms"),
        metric("telemetry.ingest_round_ms", median_publish_ms, "ms"),
        metric("telemetry.samples_per_round", samples_per_round, "count"),
        metric(
            "telemetry.epochs_published",
            (caller.handle.epoch() - epoch0) as f64,
            "count",
        ),
        metric(
            "fetcher.new_epoch_share",
            new_epochs as f64 / decisions,
            "share",
        ),
        metric(
            "cluster.rebuild_share",
            (setup.service.feasibility_rebuilds() - rebuilds0) as f64 / decisions,
            "share",
        ),
        metric("cluster.bind_us", median_or_zero(&mut bind_us), "us"),
        metric("mlcore.fit_ms", setup.fit_s * 1e3, "ms"),
    ]);
    if let Some(tracer) = tracer.as_ref() {
        crate::layer_metrics(&mut out, tracer, &mut replay);
    }
    out.note("cores", crate::cores());
    out.note("load_threads", LOAD_THREADS);
    out.note(
        "world",
        format!(
            "FABRIC testbed, {} nodes; {} scenarios ({} samples), {} folds, {} timed scenarios",
            setup.cluster.node_count(),
            setup.dataset.scenario_count(),
            setup.dataset.sample_count(),
            FOLDS,
            setup.folds[0].len()
        ),
    );
    out.note(
        "model",
        "RandomForest (SchedulerService::retrain, default config)",
    );
    out.note("rf_workers", simcore::parallel::default_workers());
    out.note("decisions", decisions);
    out.note("quality_scenarios", quality.evaluated);
    (out, tracer)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn one_seed_gives_an_identical_dataset_and_folds() {
        let config = ExperimentConfig::quick(2, 2, 3);
        let a = Workflow::new(config.clone()).run();
        let b = Workflow::new(config).run();
        assert_eq!(a.to_json(), b.to_json());
        let f = folds(600, 3);
        assert_eq!(f, folds(600, 3));
        assert_ne!(f, folds(600, 4), "the seed must matter");
        let mut all: Vec<usize> = f.iter().flatten().copied().collect();
        all.sort_unstable();
        assert_eq!(all, (0..600).collect::<Vec<_>>());
        assert!(f.iter().all(|fold| fold.len() == 150));
    }

    #[test]
    fn quality_reproduces_exactly_at_a_fixed_seed() {
        let seed = crate::PRIMARY_SEED;
        let mut first = setup(seed);
        let mut second = setup(seed);
        assert_eq!(first.dataset.to_json(), second.dataset.to_json());
        let mut checks = Checks::default();
        let qa = quality(&mut first, seed, &mut checks);
        let qb = quality(&mut second, seed, &mut checks);
        assert_eq!(qa.evaluated, 600);
        assert_eq!(checks.failed, 0, "{:?}", checks.reasons);
        assert_eq!(qa, qb);
        for (a, b) in qa.metrics().iter().zip(qb.metrics().iter()) {
            assert_eq!(a.value.to_bits(), b.value.to_bits(), "{}", a.name);
        }
    }
}
