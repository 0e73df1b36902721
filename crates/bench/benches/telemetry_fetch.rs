//! Bench: telemetry snapshot-fetch cost on a long-history store.
//!
//! The paper's scheduler queries the metrics server **per decision**, so
//! fetch cost is on the decision path and must not degrade with uptime. This
//! bench drives a paper-shaped world (6 nodes, full ping mesh) through one
//! hour of 5-second scrapes under retention, then measures:
//!
//! * `naive_linear_1h` — the pre-interning query path, reimplemented as a
//!   reference: name-keyed `BTreeMap` store, `instant_by_name` scanning the
//!   whole keyspace, `rate()` filtering every retained point into a fresh
//!   `Vec`, and a `(String, String)`-keyed RTT mesh rebuilt per fetch.
//! * `interned_1h` / `interned_into_1h` — the rewritten path: pre-interned
//!   `SeriesId` layout, `partition_point` window slicing, dense id-indexed
//!   snapshot (the `_into` variant reuses the snapshot scratch buffer).
//! * `interned_into_10min` — the same fetch over a much shorter retained
//!   history; with windowed queries the cost is history-independent.
//! * `decision_e2e_1h` — a full `SchedulerService::schedule` call (fetch +
//!   features + predict + rank + manifest) against the 1-hour store.
//! * `decision_e2e_published_1h` — the same decision against an
//!   epoch-published handle (`telemetry::publish`): the fetch collapses to
//!   one atomic freshness check reusing the held `Arc`, so this leg isolates
//!   what snapshot assembly still costs on the decision path.
//!
//! Medians are printed criterion-style and written to
//! `results/BENCH_telemetry.json`. Run `-- --smoke` for a 1-round smoke
//! (used by CI to keep the bench from bitrotting; no JSON is written).

use bench::measure;
use netsched_core::request::JobRequest;
use netsched_core::service::{SchedulerConfig, SchedulerService};
use std::collections::BTreeMap;
use std::hint::black_box;
use telemetry::{
    ClusterSnapshot, ConcurrentScrapeManager, MetricKind, NodeTelemetry, Sample, ScrapeConfig,
    SeriesKey, METRIC_NODE_LOAD1, METRIC_NODE_MEM_AVAILABLE, METRIC_NODE_RX_BYTES,
    METRIC_NODE_TX_BYTES, METRIC_PING_RTT,
};

use simcore::{SimDuration, SimTime};

/// The pre-refactor telemetry read path, preserved as a reference cost model:
/// every query walks the full retained history and allocates.
mod naive {
    use super::*;

    #[derive(Default)]
    pub struct NaiveStore {
        pub series: BTreeMap<SeriesKey, (MetricKind, Vec<(SimTime, f64)>)>,
    }

    /// The old name-keyed snapshot shape.
    pub struct NaiveSnapshot {
        pub nodes: BTreeMap<String, NodeTelemetry>,
        pub rtt: BTreeMap<(String, String), f64>,
    }

    impl NaiveStore {
        pub fn append(&mut self, sample: Sample) {
            let entry = self
                .series
                .entry(sample.key)
                .or_insert_with(|| (sample.kind, Vec::new()));
            entry.1.push((sample.timestamp, sample.value));
        }

        fn instant(&self, key: &SeriesKey, at: SimTime) -> Option<f64> {
            let (_, points) = self.series.get(key)?;
            let idx = points.partition_point(|&(t, _)| t <= at);
            if idx == 0 {
                None
            } else {
                Some(points[idx - 1].1)
            }
        }

        /// The old `rate()`: filters *every* retained point into a fresh Vec.
        fn rate(&self, key: &SeriesKey, at: SimTime, window: SimDuration) -> Option<f64> {
            let (kind, points) = self.series.get(key)?;
            if *kind != MetricKind::Counter {
                return None;
            }
            let from = SimTime::from_nanos(at.as_nanos().saturating_sub(window.as_nanos()));
            let pts: Vec<(SimTime, f64)> = points
                .iter()
                .copied()
                .filter(|&(t, _)| t >= from && t <= at)
                .collect();
            if pts.len() < 2 {
                return None;
            }
            let (t0, v0) = pts[0];
            let (t1, v1) = pts[pts.len() - 1];
            let dt = (t1 - t0).as_secs_f64();
            if dt <= 0.0 {
                return None;
            }
            Some(((v1 - v0).max(0.0)) / dt)
        }

        /// The old `instant_by_name`: scans the whole keyspace per metric.
        fn instant_by_name(&self, name: &str, at: SimTime) -> Vec<(SeriesKey, f64)> {
            self.series
                .keys()
                .filter(|k| k.name == name)
                .filter_map(|k| self.instant(k, at).map(|v| (k.clone(), v)))
                .collect()
        }

        /// The old `ClusterSnapshot::from_store`: rebuilds the name-keyed
        /// maps on every fetch.
        pub fn snapshot(&self, at: SimTime, rate_window: SimDuration) -> NaiveSnapshot {
            let mut nodes: BTreeMap<String, NodeTelemetry> = BTreeMap::new();
            for (key, value) in self.instant_by_name(METRIC_NODE_LOAD1, at) {
                if let Some(instance) = key.label("instance") {
                    nodes.entry(instance.to_string()).or_default().cpu_load = value;
                }
            }
            for (key, value) in self.instant_by_name(METRIC_NODE_MEM_AVAILABLE, at) {
                if let Some(instance) = key.label("instance") {
                    nodes
                        .entry(instance.to_string())
                        .or_default()
                        .memory_available_bytes = value;
                }
            }
            let node_names: Vec<String> = nodes.keys().cloned().collect();
            for name in &node_names {
                let tx_key = SeriesKey::per_node(METRIC_NODE_TX_BYTES, name);
                let rx_key = SeriesKey::per_node(METRIC_NODE_RX_BYTES, name);
                let entry = nodes.get_mut(name).expect("inserted above");
                entry.tx_rate = self.rate(&tx_key, at, rate_window).unwrap_or(0.0);
                entry.rx_rate = self.rate(&rx_key, at, rate_window).unwrap_or(0.0);
            }
            let mut rtt: BTreeMap<(String, String), f64> = BTreeMap::new();
            for (key, value) in self.instant_by_name(METRIC_PING_RTT, at) {
                if let (Some(src), Some(dst)) = (key.label("source"), key.label("target")) {
                    rtt.insert((src.to_string(), dst.to_string()), value);
                }
            }
            NaiveSnapshot { nodes, rtt }
        }
    }
}

/// The scrape manager and naive store over one history, plus its cluster.
type History = (
    ConcurrentScrapeManager,
    naive::NaiveStore,
    cluster::ClusterState,
);

/// A 1-hour (or shorter) scrape history over the paper's 6-node world, in
/// both the interned store and the naive reference store.
fn scrape_history(seconds: u64) -> History {
    let testbed = experiments::FabricTestbed::paper();
    let (cluster, network) = (testbed.cluster, testbed.network);
    let mut mgr = ConcurrentScrapeManager::new(ScrapeConfig {
        interval: SimDuration::from_secs(5),
        rate_window: SimDuration::from_secs(30),
        retention: Some(SimDuration::from_secs(3600)),
    });
    let mut naive_store = naive::NaiveStore::default();
    let mut t = 0u64;
    while t <= seconds {
        let now = SimTime::from_secs(t);
        mgr.scrape_if_due(&cluster, &network, now);
        naive_store.append_scrape(&cluster, &network, now);
        t += 5;
    }
    (mgr, naive_store, cluster)
}

impl naive::NaiveStore {
    /// Mirror one scrape into the naive store via the sample-building path.
    fn append_scrape(
        &mut self,
        cluster: &cluster::ClusterState,
        network: &simnet::Network,
        now: SimTime,
    ) {
        for sample in telemetry::node_exporter_samples(cluster, network, now) {
            self.append(sample);
        }
        for sample in telemetry::ping_mesh_samples(cluster, network, now) {
            self.append(sample);
        }
    }
}

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");
    let (rounds, history_secs, short_secs) = if smoke { (1, 60, 30) } else { (10, 3600, 600) };

    let (mut mgr, naive_store, cluster) = scrape_history(history_secs);
    let (short_mgr, _, _) = scrape_history(short_secs);
    let at = SimTime::from_secs(history_secs);
    let short_at = SimTime::from_secs(short_secs);
    let window = SimDuration::from_secs(30);
    let fetcher = netsched_core::fetcher::TelemetryFetcher::new(window);

    println!(
        "store: {} series, {} points retained over {history_secs} s of 5 s scrapes",
        mgr.series_count(),
        mgr.point_count()
    );

    let naive_ns = measure("telemetry_fetch/naive_linear_1h", rounds, || {
        let snap = naive_store.snapshot(at, window);
        black_box((snap.nodes.len(), snap.rtt.len()))
    });

    let interned_ns = measure("telemetry_fetch/interned_1h", rounds, || {
        let snap = fetcher.fetch(&mgr, at);
        black_box(snap.rtt().len())
    });

    let mut scratch = ClusterSnapshot::default();
    let interned_into_ns = measure("telemetry_fetch/interned_into_1h", rounds, || {
        fetcher.fetch_into(&mgr, at, &mut scratch);
        black_box(scratch.rtt().len())
    });

    let mut short_scratch = ClusterSnapshot::default();
    let short_ns = measure("telemetry_fetch/interned_into_10min", rounds, || {
        fetcher.fetch_into(&short_mgr, short_at, &mut short_scratch);
        black_box(short_scratch.rtt().len())
    });

    // End-to-end decision against the 1-hour store: train a small linear
    // predictor offline, then schedule through the cached service path.
    let logger = bench::synthetic_logger(200, 11);
    let data = logger.to_dataset();
    let mut rng = simcore::rng::Rng::seed_from_u64(3);
    let model = mlcore::TrainedModel::train(
        mlcore::ModelKind::Linear,
        &bench::bench_model_config(),
        &data,
        &mut rng,
    );
    let predictor =
        netsched_core::predictor::CompletionTimePredictor::new(logger.schema().clone(), model)
            .expect("logger schema matches its own training data");
    let mut service = SchedulerService::with_predictor(SchedulerConfig::default(), predictor, 7);
    let request = JobRequest::named("bench-sort", sparksim::WorkloadKind::Sort, 250_000, 2);
    let decision_ns = measure("telemetry_fetch/decision_e2e_1h", rounds, || {
        let decision = service.schedule(&request, &mgr, &cluster, at);
        black_box(decision.ranking.len())
    });

    // Activate epoch publishing only now, so the store-backed leg above
    // measured the assembly path: once a handle exists the service adopts
    // the published epoch and the per-decision fetch is a freshness check.
    let published = mgr.published_handle();
    let decision_published_ns =
        measure("telemetry_fetch/decision_e2e_published_1h", rounds, || {
            let decision = service.schedule(&request, &published, &cluster, at);
            black_box(decision.ranking.len())
        });

    let speedup = naive_ns / interned_into_ns.max(1.0);
    let history_ratio = interned_into_ns / short_ns.max(1.0);
    println!("fetch speedup over naive linear path: {speedup:.1}x");
    println!("1h-history vs 10min-history fetch cost ratio: {history_ratio:.2}x (→ 1.0 = history-independent)");
    println!(
        "decision vs published-source decision: {:.2}x (the gap is the snapshot \
         assembly a published epoch skips)",
        decision_ns / decision_published_ns.max(1.0)
    );

    if smoke {
        println!("smoke mode: skipping results/BENCH_telemetry.json");
        return;
    }

    let json = format!(
        "{{\n  \"snapshot_fetch_naive_1h_ns\": {naive_ns:.0},\n  \"snapshot_fetch_interned_1h_ns\": {interned_ns:.0},\n  \"snapshot_fetch_interned_into_1h_ns\": {interned_into_ns:.0},\n  \"snapshot_fetch_interned_into_10min_ns\": {short_ns:.0},\n  \"decision_e2e_1h_ns\": {decision_ns:.0},\n  \"decision_e2e_published_1h_ns\": {decision_published_ns:.0},\n  \"fetch_speedup_over_naive\": {speedup:.2},\n  \"history_1h_vs_10min_ratio\": {history_ratio:.3}\n}}\n"
    );
    let path = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/../../results/BENCH_telemetry.json"
    );
    if let Some(parent) = std::path::Path::new(path).parent() {
        let _ = std::fs::create_dir_all(parent);
    }
    std::fs::write(path, json).expect("write BENCH_telemetry.json");
    println!("(medians written to results/BENCH_telemetry.json)");
}
