//! `clos10k_single`: one caller scheduling single requests on a 10 000-node
//! tiered-Clos world while a second thread publishes a drifting epoch every
//! 200 ms, and every decision is bound (so the cluster generation moves on
//! every call).

use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use cluster::{ClusterState, NodeId, PodId};
use experiments::scale::{train_scale_predictor, ScaleWorld, ScaleWorldSpec};
use netsched_core::{
    JobRequest, JobScheduler, KubeDefaultScheduler, SchedulerConfig, SchedulerService,
    SchedulingContext,
};
use simcore::rng::Rng;
use simcore::SimTime;
use telemetry::{ClusterSnapshot, NodeTelemetry, PublishedSnapshot, SnapshotPublisher};

use crate::harness::{
    check_decision, latency_metrics, median, median_or_zero, metric, peak_rss_mb, score_predicted,
    timed, Checks, Outcome, Quality, Tracer,
};
use crate::replay::Replay;
use crate::{Args, SETUP_REPS};

pub const NODES: usize = 10_000;
pub const TOP_K: usize = 8;
/// Live driver pods the caller keeps bound; the oldest is deleted beyond.
pub const LIVE_PODS: usize = 200;
/// Distinct requests in the caller's (cycled) stream.
pub const REQUESTS: usize = 512;
pub const EPOCH_EVERY: Duration = Duration::from_millis(200);
/// Load threads: the caller and the epoch publisher.
pub const LOAD_THREADS: usize = 2;

/// Successive scrapes of a live cluster: every node's load, tx and rx take a
/// bounded random-walk step per epoch and every RTT probe jitters around its
/// base value.
pub struct Drift {
    rng: Rng,
    /// Scraped values of the world's snapshot, by snapshot node id.
    base: Vec<(NodeId, NodeTelemetry)>,
    current: Vec<NodeTelemetry>,
    /// `(source, target, base rtt, current rtt)` per probe.
    probes: Vec<(NodeId, NodeId, f64, f64)>,
    template: ClusterSnapshot,
    epoch: u64,
}

impl Drift {
    pub fn new(snapshot: &ClusterSnapshot, seed: u64) -> Self {
        let base: Vec<(NodeId, NodeTelemetry)> = snapshot
            .iter_nodes()
            .map(|(name, t)| (snapshot.node_id(name).expect("interned"), *t))
            .collect();
        Drift {
            rng: Rng::seed_from_u64(seed ^ 0xD81F7),
            current: base.iter().map(|(_, t)| *t).collect(),
            base,
            probes: snapshot
                .rtt()
                .iter()
                .map(|(s, d, r)| (s, d, r, r))
                .collect(),
            template: snapshot.clone(),
            epoch: 0,
        }
    }

    /// Values one epoch rewrites: four per node plus one per probe.
    pub fn samples_per_epoch(&self) -> usize {
        4 * self.base.len() + self.probes.len()
    }

    /// Advance every series by one scrape.
    pub fn step(&mut self) {
        self.epoch += 1;
        for ((_, base), cur) in self.base.iter().zip(self.current.iter_mut()) {
            cur.cpu_load = (cur.cpu_load + self.rng.uniform(-0.1, 0.1))
                .clamp((base.cpu_load - 0.75).max(0.0), base.cpu_load + 0.75);
            cur.tx_rate = (cur.tx_rate + self.rng.uniform(-1e6, 1e6)).clamp(0.0, 2.5e7);
            cur.rx_rate = (cur.rx_rate + self.rng.uniform(-1e6, 1e6)).clamp(0.0, 2.5e7);
        }
        for probe in &mut self.probes {
            probe.3 = probe.2 * (1.0 + self.rng.uniform(0.0, 0.15));
        }
    }

    /// Write the current epoch into a publish buffer (in place once the
    /// buffer holds the world's node table).
    pub fn fill(&self, snap: &mut ClusterSnapshot) {
        if snap.is_empty() {
            snap.clone_from(&self.template);
        }
        snap.time = SimTime::from_secs(60) + simcore::SimDuration::from_millis(200 * self.epoch);
        for ((id, _), t) in self.base.iter().zip(&self.current) {
            snap.set_node_by_id(*id, *t);
        }
        for &(src, dst, _, rtt) in &self.probes {
            snap.insert_rtt_by_id(src, dst, rtt);
        }
    }

    /// The current state as a fresh snapshot.
    #[cfg(test)]
    pub fn snapshot(&self) -> ClusterSnapshot {
        let mut snap = ClusterSnapshot::default();
        self.fill(&mut snap);
        snap
    }
}

/// The caller's varied request stream.
pub fn requests(world: &ScaleWorld) -> Vec<JobRequest> {
    world.requests(REQUESTS)
}

/// Everything one set-up builds.
struct Setup {
    cluster: ClusterState,
    service: SchedulerService,
    publisher: SnapshotPublisher,
    handle: PublishedSnapshot,
    drift: Drift,
    requests: Vec<JobRequest>,
    fit_s: f64,
}

fn setup(seed: u64) -> Setup {
    let world = ScaleWorld::build(ScaleWorldSpec::with_nodes(NODES, seed));
    let (predictor, fit_s) = timed(|| train_scale_predictor(seed));
    let drift = Drift::new(&world.snapshot, seed);
    let mut publisher = SnapshotPublisher::new();
    publisher.publish_with(|snap| drift.fill(snap));
    let handle = publisher.handle();
    let config = SchedulerConfig {
        prune_top_k: Some(TOP_K),
        ..SchedulerConfig::default()
    };
    let mut service = SchedulerService::with_predictor(config, predictor, seed);
    let requests = requests(&world);
    let warm = service.schedule(
        &requests[0],
        &handle,
        &world.cluster,
        SimTime::from_secs(60),
    );
    assert!(
        warm.used_model,
        "the warm call must run the supervised path"
    );
    Setup {
        cluster: world.cluster,
        service,
        publisher,
        handle,
        drift,
        requests,
        fit_s,
    }
}

/// What the epoch publisher thread measured.
#[derive(Default)]
struct PublishStats {
    publish_ms: Vec<f64>,
    round_ms: Vec<f64>,
}

fn publish_loop(
    publisher: &mut SnapshotPublisher,
    drift: &mut Drift,
    stop: &AtomicBool,
) -> PublishStats {
    let mut stats = PublishStats::default();
    let mut next = Instant::now() + EPOCH_EVERY;
    loop {
        while Instant::now() < next {
            if stop.load(Ordering::Relaxed) {
                return stats;
            }
            std::thread::sleep((next - Instant::now()).min(Duration::from_millis(5)));
        }
        next += EPOCH_EVERY;
        let round = Instant::now();
        drift.step();
        let publish = Instant::now();
        publisher.publish_with(|snap| drift.fill(snap));
        stats.publish_ms.push(publish.elapsed().as_secs_f64() * 1e3);
        stats.round_ms.push(round.elapsed().as_secs_f64() * 1e3);
    }
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
    let Setup {
        mut cluster,
        mut service,
        mut publisher,
        handle,
        mut drift,
        requests,
        fit_s,
    } = state.expect("at least one set-up");
    let samples_per_epoch = drift.samples_per_epoch();
    let epoch0 = handle.epoch();
    let rebuilds0 = service.feasibility_rebuilds();

    let mut kube = KubeDefaultScheduler::new(args.seed ^ 0xAB);
    let mut checks = Checks::default();
    let mut quality = Quality::default();
    let mut tracer = args.trace.then(Tracer::default);
    let mut replay = Replay::new(Some(TOP_K), 8);
    let mut top1 = Vec::new();
    let mut latency_ms = Vec::new();
    let mut bind_us = Vec::new();
    let mut busy_s = 0.0;
    let mut unpruned_ms = Vec::new();
    let mut new_epochs = 0u64;
    let mut last_snapshot: Option<Arc<ClusterSnapshot>> = None;
    let mut live: VecDeque<PodId> = VecDeque::new();
    let stop = AtomicBool::new(false);

    let publish = std::thread::scope(|scope| {
        let publisher_thread = scope.spawn(|| publish_loop(&mut publisher, &mut drift, &stop));
        let start = Instant::now();
        let mut i = 0u64;
        while start.elapsed().as_secs_f64() < args.seconds {
            let request = &requests[i as usize % requests.len()];
            let now = SimTime::from_secs(120) + simcore::SimDuration::from_millis(i);
            let t0 = Instant::now();
            let decision = service.schedule(request, &handle, &cluster, now);
            let decide = t0.elapsed().as_secs_f64();
            let predictor = service.predictor().expect("model loaded");

            if !last_snapshot
                .as_ref()
                .is_some_and(|s| Arc::ptr_eq(s, &decision.snapshot))
            {
                new_epochs += 1;
            }
            last_snapshot = Some(Arc::clone(&decision.snapshot));

            let mut failed = Vec::new();
            if let Some(tracer) = tracer.as_mut() {
                replay.burst(
                    tracer,
                    i,
                    &handle,
                    &decision.snapshot,
                    std::slice::from_ref(request),
                    &cluster,
                    predictor,
                    &mut top1,
                );
                if top1.first().copied().flatten() != decision.ranking.best().map(|r| r.node) {
                    failed.push("traced_top1_differs");
                }
            }

            // Checks and quality, outside every timed span.
            // The reference is also the unpruned cost of the same decision:
            // a fresh index plus a rank of the whole feasible set.
            let t = Instant::now();
            let mut ctx = SchedulingContext::new(&decision.snapshot, &cluster);
            let reference = ctx.rank_feasible_batch(request, predictor);
            unpruned_ms.push(t.elapsed().as_secs_f64() * 1e3);
            let default_pick = kube.select(request, &mut ctx).best().map(|r| r.node);
            drop(ctx);
            failed.extend(check_decision(
                &decision.ranking,
                decision.used_model,
                request,
                &cluster,
                &reference,
            ));
            score_predicted(&mut quality, &decision.ranking, default_pick, &reference);

            // The caller binds the driver pod on the chosen node.
            let t1 = Instant::now();
            if let Some(target) = decision.job.target_node.as_deref() {
                let pod = cluster.create_pod(decision.job.driver_pod.clone(), now);
                if cluster.bind_pod(pod, target, now).is_err() {
                    failed.push("bind_failed");
                }
                live.push_back(pod);
                if live.len() > LIVE_PODS {
                    let oldest = live.pop_front().expect("non-empty");
                    if cluster.delete_pod(oldest, now).is_err() {
                        failed.push("delete_failed");
                    }
                }
            }
            let bind = t1.elapsed().as_secs_f64();
            bind_us.push(bind * 1e6);
            busy_s += decide + bind;
            latency_ms.push(decide * 1e3);
            checks.record(&failed);
            i += 1;
        }
        stop.store(true, Ordering::Relaxed);
        publisher_thread.join().expect("publisher thread")
    });

    let decisions = latency_ms.len() as f64;
    let epochs = (handle.epoch() - epoch0) as f64;
    let mut publish_ms = publish.publish_ms;
    let mut round_ms = publish.round_ms;
    let median_round_ms = median_or_zero(&mut round_ms);
    out.checks = checks;
    out.end_to_end.extend(latency_metrics(&mut latency_ms));
    out.end_to_end.extend([
        metric("decisions_per_s", decisions / busy_s, "1/s"),
        metric(
            "ingest_samples_per_s",
            samples_per_epoch as f64 / (median_round_ms / 1e3),
            "1/s",
        ),
    ]);
    out.end_to_end.extend(quality.metrics());
    out.end_to_end.extend([
        metric("setup_s", median(&mut setup_s), "s"),
        metric("peak_rss_mb", peak_rss_mb(), "MiB"),
    ]);

    out.per_layer.extend([
        metric(
            "telemetry.publish_ms",
            median_or_zero(&mut publish_ms),
            "ms",
        ),
        metric("telemetry.ingest_round_ms", median_round_ms, "ms"),
        metric(
            "telemetry.samples_per_round",
            samples_per_epoch as f64,
            "count",
        ),
        metric("telemetry.epochs_published", epochs, "count"),
        metric(
            "fetcher.new_epoch_share",
            new_epochs as f64 / decisions,
            "share",
        ),
        metric(
            "cluster.rebuild_share",
            (service.feasibility_rebuilds() - rebuilds0) as f64 / decisions,
            "share",
        ),
        metric("cluster.bind_us", median(&mut bind_us), "us"),
        metric("mlcore.fit_ms", fit_s * 1e3, "ms"),
    ]);
    if let Some(tracer) = tracer.as_ref() {
        crate::layer_metrics(&mut out, tracer, &mut replay);
    }
    out.note("cores", crate::cores());
    out.note("load_threads", LOAD_THREADS);
    out.note(
        "world",
        format!("ScaleWorld tiered Clos, {} nodes", cluster.node_count()),
    );
    out.note("rtt_probes", drift.probes.len());
    out.note(
        "model",
        "RandomForest (train_scale_predictor: 40 trees, 1 worker)",
    );
    out.note("prune_top_k", TOP_K);
    out.note("decisions", decisions);
    out.note("epoch_period_ms", EPOCH_EVERY.as_millis());
    out.note("unpruned_reference_p50_ms", median(&mut unpruned_ms));
    out.note("traced_epoch_races", replay.layers.epoch_races);
    (out, tracer)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The bind sequence of `n` decisions against epochs published every
    /// `per_epoch` decisions, with no thread timing involved.
    fn bind_sequence(seed: u64, nodes: usize, n: usize, per_epoch: usize) -> Vec<String> {
        let world = ScaleWorld::build(ScaleWorldSpec::with_nodes(nodes, seed));
        let predictor =
            bench::bench_predictor(&bench::bench_dataset(seed), mlcore::ModelKind::Linear, seed);
        let mut drift = Drift::new(&world.snapshot, seed);
        let mut publisher = SnapshotPublisher::new();
        publisher.publish_with(|snap| drift.fill(snap));
        let handle = publisher.handle();
        let config = SchedulerConfig {
            prune_top_k: Some(TOP_K),
            model_kind: mlcore::ModelKind::Linear,
            ..SchedulerConfig::default()
        };
        let mut service = SchedulerService::with_predictor(config, predictor, seed);
        let requests = world.requests(n);
        let mut cluster = world.cluster;
        let mut binds = Vec::new();
        for (i, request) in requests.iter().enumerate() {
            if i % per_epoch == per_epoch - 1 {
                drift.step();
                publisher.publish_with(|snap| drift.fill(snap));
            }
            let now = SimTime::from_secs(120);
            let decision = service.schedule(request, &handle, &cluster, now);
            let target = decision.job.target_node.clone().expect("a feasible node");
            let pod = cluster.create_pod(decision.job.driver_pod.clone(), now);
            cluster.bind_pod(pod, &target, now).expect("bind");
            binds.push(target);
        }
        binds
    }

    #[test]
    fn one_seed_gives_identical_requests_drift_and_binds() {
        let world = ScaleWorld::build(ScaleWorldSpec::with_nodes(400, 5));
        let twin = ScaleWorld::build(ScaleWorldSpec::with_nodes(400, 5));
        let (a, b) = (requests(&world), requests(&twin));
        assert_eq!(a.len(), REQUESTS);
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(format!("{x:?}"), format!("{y:?}"));
        }

        let mut da = Drift::new(&world.snapshot, 5);
        let mut db = Drift::new(&twin.snapshot, 5);
        for _ in 0..3 {
            da.step();
            db.step();
        }
        let (sa, sb) = (da.snapshot(), db.snapshot());
        assert_eq!(sa, sb);
        assert_ne!(sa, world.snapshot, "epochs must drift");

        assert_eq!(bind_sequence(5, 400, 40, 4), bind_sequence(5, 400, 40, 4));
    }
}
