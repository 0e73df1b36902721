//! `mesh64_ingest`: a writer thread ingests full-ping-mesh scrape rounds of a
//! 64-node, two-site world back to back (every commit publishes an epoch)
//! while a reader thread schedules bursts of 24 bursty-arrival jobs against
//! the published handle with a linear model. Nothing is bound.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Instant;

use cluster::{ClusterState, Node, Resources};
use mlcore::ModelKind;
use netsched_core::{
    JobRequest, JobScheduler, KubeDefaultScheduler, SchedulerConfig, SchedulerService,
    SchedulingContext,
};
use simcore::{SimDuration, SimTime};
use simnet::{gbps, mbps, Network, TopologyBuilder};
use sparksim::{MixKind, WorkloadMixSpec};
use telemetry::{
    ClusterSnapshot, ConcurrentScrapeManager, IngestConfig, ScrapeConfig, SnapshotPublisher,
};

use crate::harness::{
    check_decision, latency_metrics, median, median_or_zero, metric, peak_rss_mb, score_predicted,
    timed, Checks, Outcome, Quality, Tracer,
};
use crate::replay::Replay;
use crate::{Args, SETUP_REPS};

pub const NODES: usize = 64;
pub const BURST: usize = 24;
/// Distinct bursts in the reader's (cycled) stream.
pub const BURSTS: usize = 32;
/// Scrape rounds per `ingest` call of the writer.
pub const ROUNDS_PER_CALL: u64 = 64;
/// Rounds of history ingested during set-up (one hour at 5 s).
pub const WARM_ROUNDS: u64 = 720;
const INTERVAL_S: u64 = 5;
/// Load threads: the writer and the reader.
pub const LOAD_THREADS: usize = 2;

/// Two sites, `NODES` exporters, the full ping mesh.
pub fn world() -> (ClusterState, Network) {
    let mut b = TopologyBuilder::new();
    let s0 = b.add_site("A", SimDuration::from_micros(200), gbps(10.0));
    let s1 = b.add_site("B", SimDuration::from_micros(200), gbps(10.0));
    for i in 0..NODES {
        b.add_node(
            format!("node-{}", i + 1),
            if i % 2 == 0 { s0 } else { s1 },
            gbps(1.0),
            gbps(1.0),
        );
    }
    b.connect_sites(s0, s1, SimDuration::from_millis(20), mbps(500.0));
    let network = Network::new(b.build().expect("two connected sites"));
    let mut cluster = ClusterState::new();
    for i in 0..NODES {
        cluster.add_node(Node::new(
            format!("node-{}", i + 1),
            simnet::NodeId(i),
            Resources::from_cores_and_gib(6, 8),
            if i % 2 == 0 { "A" } else { "B" },
        ));
    }
    (cluster, network)
}

/// Series one scrape round evaluates: four node-exporter series per node
/// plus one per ordered ping pair.
pub fn series_per_round() -> u64 {
    (4 * NODES + NODES * (NODES - 1)) as u64
}

/// `BURSTS` bursts of `BURST` bursty-arrival jobs at `seed`.
pub fn bursts(seed: u64) -> Vec<Vec<JobRequest>> {
    let jobs = WorkloadMixSpec::new(MixKind::BurstyArrivals, BURST * BURSTS).generate(seed);
    jobs.chunks(BURST)
        .map(|chunk| {
            chunk
                .iter()
                .map(|job| JobRequest::new(job.name(), job.request()))
                .collect()
        })
        .collect()
}

/// The scrape times of `rounds` rounds starting at round `first`.
pub fn rounds(first: u64, rounds: u64) -> Vec<SimTime> {
    (first..first + rounds)
        .map(|r| SimTime::from_secs(r * INTERVAL_S))
        .collect()
}

struct Setup {
    cluster: ClusterState,
    network: Network,
    manager: ConcurrentScrapeManager,
    service: SchedulerService,
    bursts: Vec<Vec<JobRequest>>,
    fit_s: f64,
}

fn setup(seed: u64) -> Setup {
    let (cluster, network) = world();
    let mut manager = ConcurrentScrapeManager::new(ScrapeConfig::default());
    manager.ingest(&cluster, &network, &rounds(0, WARM_ROUNDS));
    let dataset = bench::bench_dataset(seed);
    let (predictor, fit_s) = timed(|| bench::bench_predictor(&dataset, ModelKind::Linear, seed));
    let config = SchedulerConfig {
        model_kind: ModelKind::Linear,
        ..SchedulerConfig::default()
    };
    let mut service = SchedulerService::with_predictor(config, predictor, seed);
    let bursts = bursts(seed);
    let handle = manager.published_handle();
    let mut out = Vec::new();
    let at = SimTime::from_secs(WARM_ROUNDS * INTERVAL_S);
    service.schedule_batch_into(&bursts[0], &handle, &cluster, at, &mut out);
    assert!(
        out.iter().all(|d| d.used_model),
        "the warm call must run the model"
    );
    Setup {
        cluster,
        network,
        manager,
        service,
        bursts,
        fit_s,
    }
}

#[derive(Default)]
struct WriterStats {
    call_s: Vec<f64>,
    rounds: u64,
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
        cluster,
        network,
        mut manager,
        mut service,
        bursts,
        fit_s,
    } = state.expect("at least one set-up");
    let handle = manager.published_handle();
    let epoch0 = handle.epoch();
    let rebuilds0 = service.feasibility_rebuilds();
    let ingest_config: IngestConfig = *manager.ingest_config();

    let mut kube = KubeDefaultScheduler::new(args.seed ^ 0xAB);
    let mut checks = Checks::default();
    let mut quality = Quality::default();
    let mut tracer = args.trace.then(Tracer::default);
    let mut replay = Replay::new(None, 1);
    let mut top1 = Vec::new();
    let mut latency_ms = Vec::new();
    let mut busy_s = 0.0;
    let mut decisions = 0u64;
    let mut new_epochs = 0u64;
    let mut last_snapshot: Option<Arc<ClusterSnapshot>> = None;
    let mut side_publisher = SnapshotPublisher::new();
    let mut publish_ms = Vec::new();
    let mut bind_us = Vec::new();
    let mut probe_cluster = cluster.clone();
    let mut decided = Vec::new();
    let at = SimTime::from_secs(WARM_ROUNDS * INTERVAL_S);
    let stop = AtomicBool::new(false);

    let writer = std::thread::scope(|scope| {
        let manager = &mut manager;
        let (cluster_ref, network_ref, stop_ref) = (&cluster, &network, &stop);
        let writer = scope.spawn(move || {
            let mut stats = WriterStats::default();
            let mut next = WARM_ROUNDS;
            while !stop_ref.load(Ordering::Relaxed) {
                let times = rounds(next, ROUNDS_PER_CALL);
                let t = Instant::now();
                manager.ingest(cluster_ref, network_ref, &times);
                stats.call_s.push(t.elapsed().as_secs_f64());
                stats.rounds += ROUNDS_PER_CALL;
                next += ROUNDS_PER_CALL;
            }
            stats
        });

        let start = Instant::now();
        let mut b = 0u64;
        while start.elapsed().as_secs_f64() < args.seconds {
            let burst = &bursts[b as usize % bursts.len()];
            let t0 = Instant::now();
            service.schedule_batch_into(burst, &handle, &cluster, at, &mut decided);
            let elapsed = t0.elapsed().as_secs_f64();
            busy_s += elapsed;
            decisions += burst.len() as u64;
            // Every decision of a burst gets the burst's latency.
            latency_ms.extend(std::iter::repeat_n(elapsed * 1e3, burst.len()));
            let predictor = service.predictor().expect("model loaded");
            let snapshot = Arc::clone(&decided[0].snapshot);
            if !last_snapshot
                .as_ref()
                .is_some_and(|s| Arc::ptr_eq(s, &snapshot))
            {
                new_epochs += burst.len() as u64;
            }
            last_snapshot = Some(Arc::clone(&snapshot));

            let mut traced_differs = vec![false; burst.len()];
            let mut bind_failed = false;
            if let Some(tracer) = tracer.as_mut() {
                replay.burst(
                    tracer, b, &handle, &snapshot, burst, &cluster, predictor, &mut top1,
                );
                for (j, decision) in decided.iter().enumerate() {
                    traced_differs[j] = top1[j] != decision.ranking.best().map(|r| r.node);
                }
                if b.is_multiple_of(16) {
                    let t = Instant::now();
                    side_publisher.publish_with(|snap| snap.clone_from(&snapshot));
                    publish_ms.push(t.elapsed().as_secs_f64() * 1e3);
                }
                // Bind cost on a private copy: the workload binds nothing.
                if let Some(target) = decided[0].job.target_node.as_deref() {
                    let t = Instant::now();
                    let pod = probe_cluster.create_pod(decided[0].job.driver_pod.clone(), at);
                    let ok = probe_cluster.bind_pod(pod, target, at).is_ok()
                        && probe_cluster.delete_pod(pod, at).is_ok();
                    bind_us.push(t.elapsed().as_secs_f64() * 1e6);
                    bind_failed = !ok;
                }
            }

            // Checks and quality, outside every timed span: one fresh
            // reference context per burst, like the service's own.
            let mut ctx = SchedulingContext::new(&snapshot, &cluster);
            for ((request, decision), differs) in burst.iter().zip(&decided).zip(traced_differs) {
                let reference = ctx.rank_feasible_batch(request, predictor);
                let default_pick = kube.select(request, &mut ctx).best().map(|r| r.node);
                let mut failed = check_decision(
                    &decision.ranking,
                    decision.used_model,
                    request,
                    &cluster,
                    &reference,
                );
                if differs {
                    failed.push("traced_top1_differs");
                }
                if std::mem::take(&mut bind_failed) {
                    failed.push("bind_failed");
                }
                if !Arc::ptr_eq(&decision.snapshot, &snapshot) {
                    failed.push("burst_snapshot_split");
                }
                score_predicted(&mut quality, &decision.ranking, default_pick, &reference);
                checks.record(&failed);
            }
            b += 1;
        }
        stop.store(true, Ordering::Relaxed);
        writer.join().expect("writer thread")
    });

    let bursts_done = latency_ms.len() as f64 / BURST as f64;
    let mut call_s = writer.call_s;
    let median_call_s = median_or_zero(&mut call_s);
    out.checks = checks;
    out.end_to_end.extend(latency_metrics(&mut latency_ms));
    out.end_to_end.extend([
        metric("decisions_per_s", decisions as f64 / busy_s, "1/s"),
        metric(
            "ingest_samples_per_s",
            (ROUNDS_PER_CALL * series_per_round()) as f64 / median_call_s,
            "1/s",
        ),
    ]);
    out.end_to_end.extend(quality.metrics());
    out.end_to_end.extend([
        metric("setup_s", median(&mut setup_s), "s"),
        metric("peak_rss_mb", peak_rss_mb(), "MiB"),
    ]);

    let epochs = (handle.epoch() - epoch0) as f64;
    out.per_layer.extend([
        metric(
            "telemetry.publish_ms",
            median_or_zero(&mut publish_ms),
            "ms",
        ),
        metric(
            "telemetry.ingest_round_ms",
            median_call_s * 1e3 / ROUNDS_PER_CALL as f64,
            "ms",
        ),
        metric(
            "telemetry.samples_per_round",
            series_per_round() as f64,
            "count",
        ),
        metric("telemetry.epochs_published", epochs, "count"),
        metric(
            "fetcher.new_epoch_share",
            new_epochs as f64 / decisions as f64,
            "share",
        ),
        metric(
            "cluster.rebuild_share",
            (service.feasibility_rebuilds() - rebuilds0) as f64 / decisions as f64,
            "share",
        ),
        metric("cluster.bind_us", median_or_zero(&mut bind_us), "us"),
        metric("mlcore.fit_ms", fit_s * 1e3, "ms"),
    ]);
    if let Some(tracer) = tracer.as_ref() {
        crate::layer_metrics(&mut out, tracer, &mut replay);
    }
    out.note("cores", crate::cores());
    out.note("load_threads", LOAD_THREADS);
    out.note(
        "world",
        format!(
            "{NODES} nodes, two sites, full ping mesh ({} series/round)",
            series_per_round()
        ),
    );
    out.note("model", "Linear (bench::bench_predictor)");
    out.note(
        "ingest_workers",
        format!(
            "{} evaluation lane(s), {} writer worker(s), {} shards, {} rounds/commit",
            ingest_config.eval_workers,
            ingest_config.writer_workers,
            ingest_config.shard_count,
            ingest_config.chunk_rounds
        ),
    );
    out.note("bursts", bursts_done);
    out.note("decisions", decisions);
    out.note("rounds_ingested", writer.rounds);
    (out, tracer)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn one_seed_gives_identical_bursts() {
        let (a, b) = (bursts(9), bursts(9));
        assert_eq!(a.len(), BURSTS);
        assert!(a.iter().all(|burst| burst.len() == BURST));
        assert_eq!(a, b);
        assert_ne!(a, bursts(10), "the seed must matter");
    }
}
