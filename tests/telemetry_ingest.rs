//! Differential and stress tests for the scrape manager.
//!
//! * **Equivalence.** Whatever path a scrape takes — a single
//!   [`ConcurrentScrapeManager::scrape`] round, a cadence-driven
//!   `scrape_if_due`, or a whole [`ConcurrentScrapeManager::ingest`]
//!   schedule (inline below the work threshold, or through parallel exporter
//!   evaluation, per-shard writer workers and in-order epoch commits) — the
//!   manager must produce **byte-identical snapshots** to the naive
//!   reference: the sample-building exporters appended to one
//!   [`TimeSeriesStore`] and assembled by [`ClusterSnapshot::from_store`].
//!   Sharding and parallelism change wall-clock, never results.
//! * **Cadence.** Periodic scrapes stay on the schedule grid; explicit
//!   scrapes and ingests re-anchor it.
//! * **Whole-round visibility.** Readers snapshotting *while* ingest runs on
//!   another thread must only ever observe fully-committed scrape rounds:
//!   every observed snapshot equals the state after some prefix of the
//!   schedule, and successive observations advance monotonically.
//! * **Whole-epoch publishing.** [`PublishedSnapshot`] readers polling while
//!   ingest runs must only ever observe whole committed epochs: per-handle
//!   epoch numbers are monotone, and every published snapshot is
//!   byte-identical to the reference snapshot for the same round.
//!
//! [`PublishedSnapshot`]: netsched::telemetry::PublishedSnapshot

use netsched::cluster::{ClusterState, Node, Resources};
use netsched::simcore::{SimDuration, SimTime};
use netsched::simnet::{gbps, mbps, Network, TopologyBuilder};
use netsched::telemetry::{
    node_exporter_samples, ping_mesh_samples, ClusterSnapshot, ConcurrentScrapeManager,
    IngestConfig, ScrapeConfig, SnapshotSource, TimeSeriesStore,
};
use netsched::SimNodeId;
use proptest::prelude::*;

/// A two-site world with `nodes` node exporters (plus the full ping mesh).
fn setup(nodes: usize) -> (ClusterState, Network) {
    let mut b = TopologyBuilder::new();
    let s0 = b.add_site("A", SimDuration::from_micros(200), gbps(10.0));
    let s1 = b.add_site("B", SimDuration::from_micros(200), gbps(10.0));
    for i in 0..nodes {
        b.add_node(
            format!("node-{}", i + 1),
            if i % 2 == 0 { s0 } else { s1 },
            gbps(1.0),
            gbps(1.0),
        );
    }
    b.connect_sites(s0, s1, SimDuration::from_millis(10), mbps(500.0));
    let network = Network::new(b.build().unwrap());
    let mut cluster = ClusterState::new();
    for i in 0..nodes {
        cluster.add_node(Node::new(
            format!("node-{}", i + 1),
            SimNodeId(i),
            Resources::from_cores_and_gib(6, 8),
            if i % 2 == 0 { "A" } else { "B" },
        ));
    }
    (cluster, network)
}

/// The naive reference: exporter-built samples appended to one store, with
/// the scrape cadence modelled from its documented rules.
struct Reference {
    store: TimeSeriesStore,
    interval: SimDuration,
    scrapes: u64,
    next_due: Option<SimTime>,
}

impl Reference {
    fn new(config: &ScrapeConfig) -> Self {
        Reference {
            store: match config.retention {
                Some(r) => TimeSeriesStore::with_retention(r),
                None => TimeSeriesStore::new(),
            },
            interval: config.interval,
            scrapes: 0,
            next_due: None,
        }
    }

    /// Append one round of reference samples at `t`.
    fn round(&mut self, cluster: &ClusterState, network: &Network, t: SimTime) {
        self.store
            .append_all(node_exporter_samples(cluster, network, t));
        self.store
            .append_all(ping_mesh_samples(cluster, network, t));
        self.scrapes += 1;
    }

    /// An explicit scrape: re-anchors the grid at `t`.
    fn scrape(&mut self, cluster: &ClusterState, network: &Network, t: SimTime) {
        self.round(cluster, network, t);
        self.next_due = Some(t + self.interval);
    }

    /// A periodic tick: scrapes when due and advances the grid past `t`.
    fn scrape_if_due(&mut self, cluster: &ClusterState, network: &Network, t: SimTime) -> bool {
        let due = self.next_due.unwrap_or(SimTime::ZERO);
        if t < due {
            return false;
        }
        self.round(cluster, network, t);
        let interval = self.interval.as_nanos();
        let steps = (t.as_nanos() - due.as_nanos()) / interval + 1;
        self.next_due = Some(SimTime::from_nanos(due.as_nanos() + steps * interval));
        true
    }

    /// A whole schedule: one round per time, re-anchored at the last one.
    fn ingest(&mut self, cluster: &ClusterState, network: &Network, times: &[SimTime]) {
        for &t in times {
            self.round(cluster, network, t);
        }
        self.next_due = Some(*times.last().unwrap() + self.interval);
    }

    fn next_scrape_due(&self) -> SimTime {
        self.next_due.unwrap_or(SimTime::ZERO)
    }

    /// The reference snapshot's bytes at `at`. Once the manager has scraped,
    /// its snapshot lists every node of the cluster — a node without a
    /// sample at `at` as `null` — while `from_store` lists only nodes that
    /// have one. Equality ignores that difference; bytes do not, so the
    /// reference is laid onto the cluster's node table after a first scrape.
    fn snapshot_bytes(&self, cluster: &ClusterState, at: SimTime, window: SimDuration) -> String {
        let naive = ClusterSnapshot::from_store(&self.store, at, window);
        if self.scrapes == 0 {
            return serde_json::to_string(&naive).unwrap();
        }
        let mut laid = ClusterSnapshot::default();
        laid.reset_for(at, &cluster.node_names());
        for (name, telemetry) in naive.iter_nodes() {
            laid.insert_node(name, *telemetry);
        }
        for (src, dst, rtt) in naive.rtt().iter() {
            laid.insert_rtt(naive.node_name(src), naive.node_name(dst), rtt);
        }
        serde_json::to_string(&laid).unwrap()
    }
}

/// The manager's snapshot bytes at `at`.
fn manager_bytes(manager: &ConcurrentScrapeManager, at: SimTime, window: SimDuration) -> String {
    serde_json::to_string(&SnapshotSource::snapshot(manager, at, window)).unwrap()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Random worlds, retention settings and ingest tunings, driven through
    /// a random mix of `scrape`, `scrape_if_due` and `ingest` along one
    /// ascending schedule: the manager matches the naive reference in
    /// snapshot bytes at every probe time and in every counter.
    #[test]
    fn manager_matches_the_naive_reference(
        world in (1usize..9, 0u64..240, 1u64..15, 5u64..60),
        ops in prop::collection::vec((0u8..3, 0u64..12, 1usize..6), 1..14),
        tuning in (1usize..9, 1usize..4, 1usize..4, 1usize..4, 1usize..6),
        pipelined in 0u8..2,
    ) {
        let (nodes, retention_secs, interval_secs, window_secs) = world;
        let (cluster, network) = setup(nodes);
        let config = ScrapeConfig {
            interval: SimDuration::from_secs(interval_secs),
            rate_window: SimDuration::from_secs(window_secs),
            retention: (retention_secs >= 40).then(|| SimDuration::from_secs(retention_secs)),
        };
        let window = config.rate_window;
        let (shard_count, eval_workers, writer_workers, queue_depth, chunk_rounds) = tuning;
        // At most 3 evaluation + 3 writer threads per case.
        let ingest = IngestConfig {
            shard_count,
            eval_workers,
            writer_workers,
            queue_depth,
            chunk_rounds,
            sync_work_threshold: if pipelined == 1 {
                0
            } else {
                IngestConfig::default().sync_work_threshold
            },
        };
        let mut manager = ConcurrentScrapeManager::with_ingest(config.clone(), ingest);
        let mut reference = Reference::new(&config);

        // Before the first scrape: an empty snapshot stamped with the probe.
        let early = SimTime::from_secs(3);
        prop_assert_eq!(
            manager_bytes(&manager, early, window),
            reference.snapshot_bytes(&cluster, early, window)
        );

        let mut t = SimTime::from_secs(1);
        let mut first: Option<SimTime> = None;
        for &(kind, gap, len) in &ops {
            t += SimDuration::from_secs(gap);
            match kind {
                0 => {
                    manager.scrape(&cluster, &network, t);
                    reference.scrape(&cluster, &network, t);
                    first.get_or_insert(t);
                }
                1 => {
                    let scraped = manager.scrape_if_due(&cluster, &network, t);
                    prop_assert_eq!(scraped, reference.scrape_if_due(&cluster, &network, t));
                    if scraped {
                        first.get_or_insert(t);
                    }
                }
                _ => {
                    let times: Vec<SimTime> = (0..len as u64)
                        .map(|i| t + SimDuration::from_secs(i * (1 + gap % 4)))
                        .collect();
                    t = *times.last().unwrap();
                    manager.ingest(&cluster, &network, &times);
                    reference.ingest(&cluster, &network, &times);
                    first.get_or_insert(times[0]);
                }
            }
            prop_assert_eq!(manager.scrape_count(), reference.scrapes);
            prop_assert_eq!(manager.next_scrape_due(), reference.next_scrape_due());
        }
        prop_assert_eq!(manager.point_count(), reference.store.point_count());
        prop_assert_eq!(manager.series_count(), reference.store.series_count());

        // Probes: fresh state, mid-history, just before the first scrape,
        // and behind the retention cutoff (every point pruned).
        let first = first.expect("the first op always scrapes");
        let mut probes = vec![
            t,
            SimTime::from_nanos(t.as_nanos() / 2),
            SimTime::from_nanos(first.as_nanos().saturating_sub(1)),
        ];
        if let Some(retention) = config.retention {
            let cutoff = t.as_nanos().saturating_sub(retention.as_nanos());
            probes.push(SimTime::from_nanos(cutoff.saturating_sub(1)));
        }
        for at in probes {
            prop_assert_eq!(
                manager_bytes(&manager, at, window),
                reference.snapshot_bytes(&cluster, at, window)
            );
        }
    }
}

#[test]
fn concurrent_ingest_is_byte_identical_to_sequential_scrapes() {
    let (cluster, network) = setup(6);
    let times: Vec<SimTime> = (0..120u64).map(|i| SimTime::from_secs(i * 5)).collect();
    let config = ScrapeConfig {
        interval: SimDuration::from_secs(5),
        rate_window: SimDuration::from_secs(30),
        retention: Some(SimDuration::from_secs(300)),
    };

    let mut sequential = Reference::new(&config);
    sequential.ingest(&cluster, &network, &times);

    // Several ingest tunings, including degenerate ones, all converge to the
    // same bytes: parallelism must never change results.
    for ingest_config in [
        IngestConfig::default(),
        IngestConfig {
            shard_count: 1,
            eval_workers: 1,
            writer_workers: 1,
            queue_depth: 1,
            chunk_rounds: 1,
            sync_work_threshold: 0,
        },
        IngestConfig {
            shard_count: 5,
            eval_workers: 6,
            writer_workers: 3,
            queue_depth: 2,
            chunk_rounds: 3,
            sync_work_threshold: 0,
        },
    ] {
        let mut concurrent = ConcurrentScrapeManager::with_ingest(config.clone(), ingest_config);
        concurrent.ingest(&cluster, &network, &times);
        assert_eq!(concurrent.scrape_count(), times.len() as u64);
        assert_eq!(concurrent.point_count(), sequential.store.point_count());
        assert_eq!(concurrent.series_count(), sequential.store.series_count());

        let window = SimDuration::from_secs(30);
        // Fetch times probe fresh state, mid-history and pre-retention.
        for &at_secs in &[595u64, 400, 123, 10, 0] {
            let at = SimTime::from_secs(at_secs);
            assert_eq!(
                manager_bytes(&concurrent, at, window),
                sequential.snapshot_bytes(&cluster, at, window),
                "snapshot at t = {at_secs}s must be byte-identical ({ingest_config:?})"
            );
        }
    }
}

#[test]
fn shard_counts_beyond_u16_match_the_naive_reference() {
    // 100 000 shards route `node_network_receive_bytes_total` to a shard
    // index above u16::MAX; the interned id must keep it whole. Single
    // scrape rounds run inline, so no thread starts.
    let (cluster, network) = setup(2);
    let config = ScrapeConfig::default();
    let mut manager = ConcurrentScrapeManager::with_ingest(
        config.clone(),
        IngestConfig {
            shard_count: 100_000,
            ..IngestConfig::default()
        },
    );
    let mut reference = Reference::new(&config);
    for t in [5u64, 10, 15] {
        let t = SimTime::from_secs(t);
        manager.scrape(&cluster, &network, t);
        reference.scrape(&cluster, &network, t);
    }
    assert_eq!(manager.point_count(), reference.store.point_count());
    assert_eq!(manager.series_count(), reference.store.series_count());
    let at = SimTime::from_secs(16);
    assert_eq!(
        manager_bytes(&manager, at, config.rate_window),
        reference.snapshot_bytes(&cluster, at, config.rate_window)
    );
}

#[test]
fn scrapes_populate_every_exporter_series() {
    let (cluster, network) = setup(2);
    let mut manager = ConcurrentScrapeManager::new(ScrapeConfig::default());
    assert_eq!((manager.scrape_count(), manager.series_count()), (0, 0));
    for i in 0..5u64 {
        manager.scrape(&cluster, &network, SimTime::from_secs(i * 5));
    }
    // 2 nodes x 4 node metrics + 2 ping pairs = 10 series, 5 rounds.
    assert_eq!(manager.scrape_count(), 5);
    assert_eq!(manager.series_count(), 10);
    assert_eq!(manager.point_count(), 10 * 5);
    assert_eq!(manager.config().rate_window, SimDuration::from_secs(30));
    let snap =
        SnapshotSource::snapshot(&manager, SimTime::from_secs(20), SimDuration::from_secs(30));
    assert_eq!(snap.node_names(), vec!["node-1", "node-2"]);
    assert_eq!(snap.iter_nodes().count(), 2);
    assert_eq!(snap.rtt().len(), 2);
}

#[test]
fn scrape_if_due_respects_interval() {
    let (cluster, network) = setup(2);
    let mut manager = ConcurrentScrapeManager::new(ScrapeConfig {
        interval: SimDuration::from_secs(15),
        ..Default::default()
    });
    assert_eq!(manager.next_scrape_due(), SimTime::ZERO);
    assert!(manager.scrape_if_due(&cluster, &network, SimTime::from_secs(0)));
    assert!(!manager.scrape_if_due(&cluster, &network, SimTime::from_secs(10)));
    assert_eq!(manager.next_scrape_due(), SimTime::from_secs(15));
    assert!(manager.scrape_if_due(&cluster, &network, SimTime::from_secs(15)));
    assert_eq!(manager.scrape_count(), 2);
}

#[test]
fn delayed_tick_does_not_drift_the_grid() {
    let (cluster, network) = setup(2);
    let mut manager = ConcurrentScrapeManager::new(ScrapeConfig {
        interval: SimDuration::from_secs(15),
        ..Default::default()
    });
    assert!(manager.scrape_if_due(&cluster, &network, SimTime::from_secs(0)));
    // The t=15 tick arrives 3 s late: it scrapes, but the next due time
    // stays on the grid (30 s), not 18 + 15.
    assert!(manager.scrape_if_due(&cluster, &network, SimTime::from_secs(18)));
    assert_eq!(manager.next_scrape_due(), SimTime::from_secs(30));
    assert!(!manager.scrape_if_due(&cluster, &network, SimTime::from_secs(29)));
    assert!(manager.scrape_if_due(&cluster, &network, SimTime::from_secs(30)));
    assert_eq!(manager.next_scrape_due(), SimTime::from_secs(45));
    // A very late tick skips the missed grid points entirely (no burst of
    // catch-up scrapes) and lands on the next future grid point.
    assert!(manager.scrape_if_due(&cluster, &network, SimTime::from_secs(100)));
    assert_eq!(manager.next_scrape_due(), SimTime::from_secs(105));
    assert_eq!(manager.scrape_count(), 4);
}

#[test]
fn explicit_scrape_and_ingest_reanchor_the_grid() {
    let (cluster, network) = setup(2);
    let mut manager = ConcurrentScrapeManager::new(ScrapeConfig {
        interval: SimDuration::from_secs(15),
        ..Default::default()
    });
    assert!(manager.scrape_if_due(&cluster, &network, SimTime::from_secs(0)));
    // An operator-style scrape at t=7 restarts the cadence from there.
    manager.scrape(&cluster, &network, SimTime::from_secs(7));
    assert_eq!(manager.next_scrape_due(), SimTime::from_secs(22));
    // So does a whole schedule, from its last round.
    let times = [SimTime::from_secs(9), SimTime::from_secs(12)];
    manager.ingest(&cluster, &network, &times);
    assert_eq!(manager.next_scrape_due(), SimTime::from_secs(27));
    assert_eq!(manager.scrape_count(), 4);
}

#[test]
fn no_retention_keeps_all_history() {
    let (cluster, network) = setup(2);
    let mut manager = ConcurrentScrapeManager::new(ScrapeConfig {
        retention: None,
        ..Default::default()
    });
    // Far beyond the default one-hour retention, the first round survives.
    manager.scrape(&cluster, &network, SimTime::from_secs(1));
    manager.scrape(&cluster, &network, SimTime::from_secs(100_000));
    assert_eq!(manager.point_count(), 2 * 10);
    let old = SnapshotSource::snapshot(&manager, SimTime::from_secs(2), SimDuration::from_secs(30));
    assert_eq!(old.iter_nodes().count(), 2);
}

#[test]
fn readers_only_observe_whole_scrape_rounds_during_ingest() {
    let (cluster, network) = setup(3);
    let times: Vec<SimTime> = (0..80u64).map(|i| SimTime::from_secs(i * 5)).collect();
    let at = *times.last().unwrap();
    let window = SimDuration::from_secs(30);
    let config = ScrapeConfig::default();

    // Expected states: the pre-scrape empty snapshot, then the state after
    // every prefix of committed rounds (computed sequentially up front).
    let mut expected: Vec<ClusterSnapshot> = vec![ClusterSnapshot::at(at)];
    let mut reference = Reference::new(&config);
    for &t in &times {
        reference.scrape(&cluster, &network, t);
        expected.push(ClusterSnapshot::from_store(&reference.store, at, window));
    }

    let mut manager = ConcurrentScrapeManager::with_ingest(
        config,
        IngestConfig {
            shard_count: 4,
            eval_workers: 3,
            writer_workers: 2,
            queue_depth: 2,
            chunk_rounds: 1,
            sync_work_threshold: 0,
        },
    );
    let reader = manager.reader();

    let observed_indices = std::thread::scope(|scope| {
        let ingest = scope.spawn(|| {
            manager.ingest(&cluster, &network, &times);
            manager
        });
        let mut scratch = ClusterSnapshot::default();
        let mut observed = Vec::new();
        loop {
            let finished = ingest.is_finished();
            reader.snapshot_into(at, window, &mut scratch);
            let index = expected
                .iter()
                .position(|e| e == &scratch)
                .unwrap_or_else(|| panic!("reader observed a torn (non-round) snapshot"));
            observed.push(index);
            if finished {
                break;
            }
        }
        ingest.join().expect("ingest thread");
        observed
    });

    // Rounds commit in schedule order, so observations advance monotonically
    // and the final observation is the fully-ingested state.
    assert!(
        observed_indices.windows(2).all(|w| w[0] <= w[1]),
        "observed round indices must be monotone: {observed_indices:?}"
    );
    assert_eq!(*observed_indices.last().unwrap(), times.len());
}

#[test]
fn published_readers_only_observe_whole_committed_epochs() {
    let (cluster, network) = setup(3);
    let times: Vec<SimTime> = (0..80u64).map(|i| SimTime::from_secs(i * 5)).collect();
    let config = ScrapeConfig::default();
    let window = config.rate_window;

    // Every epoch the pipeline publishes is the state after some committed
    // prefix of rounds, snapshotted at that round's own timestamp. Compute
    // the reference for each prefix: published epoch bytes must match
    // exactly.
    let mut expected: Vec<String> = Vec::with_capacity(times.len());
    let mut reference = Reference::new(&config);
    for &t in &times {
        reference.scrape(&cluster, &network, t);
        expected.push(reference.snapshot_bytes(&cluster, t, window));
    }

    let mut manager = ConcurrentScrapeManager::with_ingest(
        config,
        IngestConfig {
            shard_count: 4,
            eval_workers: 3,
            writer_workers: 2,
            queue_depth: 2,
            chunk_rounds: 1,
            sync_work_threshold: 0,
        },
    );
    // Taken before any scrape: nothing published yet, so early polls see
    // `None` rather than a torn or empty epoch.
    let published = manager.published_handle();
    assert!(published.latest().is_none());

    let done = std::sync::atomic::AtomicBool::new(false);
    let (cluster_ref, network_ref, times_ref, done_ref) = (&cluster, &network, &times, &done);
    let final_epoch = std::thread::scope(|scope| {
        let ingest = scope.spawn(move || {
            manager.ingest(cluster_ref, network_ref, times_ref);
            done_ref.store(true, std::sync::atomic::Ordering::Release);
            manager
        });
        let readers: Vec<_> = (0..2)
            .map(|_| {
                let published = published.clone();
                let times = &times;
                let expected = &expected;
                scope.spawn(move || {
                    let mut last_epoch = 0u64;
                    let mut distinct = 0usize;
                    loop {
                        let finished = done_ref.load(std::sync::atomic::Ordering::Acquire);
                        if let Some(observed) = published.latest() {
                            assert!(
                                observed.epoch >= last_epoch,
                                "epochs seen by one handle must be monotone \
                                 ({} after {last_epoch})",
                                observed.epoch
                            );
                            if observed.epoch > last_epoch {
                                last_epoch = observed.epoch;
                                distinct += 1;
                                let round = times
                                    .iter()
                                    .position(|&t| t == observed.snapshot.time)
                                    .expect("published snapshot stamped with a round time");
                                let bytes = serde_json::to_string(&*observed.snapshot).unwrap();
                                assert_eq!(
                                    bytes, expected[round],
                                    "epoch {} (round {round}) must be byte-identical \
                                     to the reference snapshot of that round",
                                    observed.epoch
                                );
                            }
                        }
                        if finished {
                            break;
                        }
                    }
                    assert!(distinct >= 1, "reader never observed a committed epoch");
                    last_epoch
                })
            })
            .collect();
        let epochs: Vec<u64> = readers.into_iter().map(|r| r.join().unwrap()).collect();
        ingest.join().expect("ingest thread");
        epochs.into_iter().max().unwrap()
    });

    // The pipeline publishes the final round once the last chunk commits, so
    // every reader converges on it; this handle observes it too.
    let last = published.latest().expect("final epoch published");
    assert!(last.epoch >= final_epoch);
    assert_eq!(last.snapshot.time, SimTime::from_secs(79 * 5));
    assert_eq!(
        serde_json::to_string(&*last.snapshot).unwrap(),
        *expected.last().unwrap()
    );
}
