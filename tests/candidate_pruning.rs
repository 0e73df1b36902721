//! Differential tests for the two-stage decision path: the indexed
//! feasibility filter, top-K candidate pruning and their interaction with
//! live concurrent telemetry ingest.
//!
//! * **Feasibility differential.** On randomized worlds (mixed capacities,
//!   cordons, taints, partial and full loads) the resource-sorted
//!   [`FeasibilityIndex`] and the [`SchedulingContext`] — fresh or reusing a
//!   previous burst's scratch — must agree *exactly* with the naive full
//!   scan through [`DefaultScheduler::filter`].
//! * **K = ∞ byte-identity.** With an unbounded (or merely oversized) budget,
//!   every one of the five policies must produce rankings byte-identical to
//!   the unpruned path under every pruning policy, RNG streams included.
//! * **Monotonicity.** The pruned candidate set is exactly the K best
//!   prefilter scores under the active policy, budgets nest (`S_K ⊆ S_K'`),
//!   and the supervised top-1 under K can only move toward the full-rank
//!   top-1 as K grows.
//! * **Stress.** Pruned decision bursts against a `published_handle()` reader
//!   while ingest commits epochs on another thread: every decision uses a
//!   whole committed epoch, even while cluster mutations force feasibility
//!   index rebuilds between bursts.

use netsched::cluster::{
    ClusterState, DefaultScheduler, FeasibilityIndex, FilterResult, Node, PodId, PodSpec,
    Resources, Taint, TaintEffect,
};
use netsched::core::context::SchedulingContext;
use netsched::core::features::FeatureSchema;
use netsched::core::predictor::CompletionTimePredictor;
use netsched::core::request::JobRequest;
use netsched::core::schedulers::{
    JobScheduler, KubeDefaultScheduler, LeastLoadedScheduler, LowestRttScheduler, RandomScheduler,
    SupervisedScheduler,
};
use netsched::core::service::{SchedulerConfig, SchedulerService};
use netsched::core::PruningPolicy;
use netsched::mlcore::{Dataset, ModelConfig, ModelKind, TrainedModel};
use netsched::simcore::rng::Rng;
use netsched::simcore::SimTime;
use netsched::telemetry::{ClusterSnapshot, NodeTelemetry};
use netsched::{ClusterNodeId, SimNodeId};
use proptest::prelude::*;

/// Every stage-one pruning policy.
const POLICIES: [PruningPolicy; 3] = [
    PruningPolicy::ModelAligned,
    PruningPolicy::LinearBlend,
    PruningPolicy::LeastAllocated,
];

/// A randomized world: nodes with mixed capacities, a slice cordoned or
/// tainted, loads ranging from idle to completely full, and telemetry for
/// most (not all) nodes plus a sparse RTT ring.
fn varied_world(nodes: usize, seed: u64) -> (ClusterState, ClusterSnapshot) {
    let mut rng = Rng::seed_from_u64(seed);
    let mut cluster = ClusterState::new();
    for i in 0..nodes {
        let cores = 2 + rng.gen_range_usize(0, 7) as u64;
        let gib = 2 + rng.gen_range_usize(0, 15) as u64;
        let mut node = Node::new(
            format!("node-{}", i + 1),
            SimNodeId(i),
            Resources::from_cores_and_gib(cores, gib),
            if i % 2 == 0 { "EAST" } else { "WEST" },
        );
        match rng.gen_range_usize(0, 10) {
            0 => node.schedulable = false,
            1 => node.taints.push(Taint {
                key: "dedicated".into(),
                value: "infra".into(),
                effect: TaintEffect::NoSchedule,
            }),
            2 => node.taints.push(Taint {
                key: "flaky".into(),
                value: "true".into(),
                effect: TaintEffect::PreferNoSchedule,
            }),
            _ => {}
        }
        cluster.add_node(node);
    }
    for i in 0..nodes {
        let load = rng.gen_range_usize(0, 4);
        if load == 0 {
            continue;
        }
        let node = cluster
            .node_by_id_mut(ClusterNodeId::from_index(i))
            .expect("node exists");
        let free = node.available();
        let req = if load == 1 {
            free // fill completely
        } else {
            Resources {
                cpu_millis: free.cpu_millis / load as u64,
                memory_bytes: free.memory_bytes / load as u64,
            }
        };
        node.bind(PodId(i as u64), req);
    }

    let mut snapshot = ClusterSnapshot::at(SimTime::from_secs(30));
    for i in 0..nodes {
        // A slice of nodes was never scraped: prefilter and heuristics must
        // cope with missing telemetry.
        if rng.gen_range_usize(0, 8) == 0 {
            continue;
        }
        let node = &cluster.nodes()[i];
        snapshot.insert_node(
            &node.name,
            NodeTelemetry {
                cpu_load: node.cpu_load() + rng.uniform(0.0, 1.0),
                memory_available_bytes: node.memory_available(),
                tx_rate: rng.uniform(0.0, 1e7),
                rx_rate: rng.uniform(0.0, 1e7),
            },
        );
        for hop in [1usize, 3] {
            let peer = (i + hop) % nodes;
            if peer != i {
                snapshot.insert_rtt(
                    &format!("node-{}", i + 1),
                    &format!("node-{}", peer + 1),
                    rng.uniform(0.0002, 0.08),
                );
            }
        }
    }
    (cluster, snapshot)
}

fn driver_request(i: usize, cpu_millis: u64, mem_gib: u64) -> JobRequest {
    let kinds = netsched::sparksim::WorkloadKind::ALL;
    JobRequest::named(
        format!("prune-{i}"),
        kinds[i % kinds.len()],
        80_000 + 10_000 * i as u64,
        2,
    )
    .with_driver_resources(cpu_millis, mem_gib * 1024 * 1024 * 1024)
}

/// A deterministic Linear predictor (trained once, shared by every case).
fn predictor() -> CompletionTimePredictor {
    static CACHE: std::sync::OnceLock<CompletionTimePredictor> = std::sync::OnceLock::new();
    CACHE
        .get_or_init(|| {
            let schema = FeatureSchema::standard();
            let mut data = Dataset::new(schema.names().to_vec());
            let mut rng = Rng::seed_from_u64(5);
            let job = driver_request(0, 500, 1);
            for load in 0..40 {
                let mut snap = ClusterSnapshot::at(SimTime::from_secs(10));
                snap.insert_node(
                    "node-1",
                    NodeTelemetry {
                        cpu_load: load as f64 / 5.0,
                        memory_available_bytes: 6e9,
                        tx_rate: 0.0,
                        rx_rate: 0.0,
                    },
                );
                let features = schema.construct(&snap, "node-1", &job);
                data.push(features, 10.0 + 4.0 * load as f64 / 5.0).unwrap();
            }
            let model =
                TrainedModel::train(ModelKind::Linear, &ModelConfig::default(), &data, &mut rng);
            CompletionTimePredictor::new(schema, model).expect("schema matches training data")
        })
        .clone()
}

/// The reference filter: scan every node with the real scheduler filter.
fn naive_feasible(cluster: &ClusterState, request: &JobRequest) -> Vec<ClusterNodeId> {
    let driver = request.to_job_spec().driver_pod(None);
    cluster
        .nodes()
        .iter()
        .enumerate()
        .filter(|(_, node)| DefaultScheduler::filter(&driver, node) == FilterResult::Feasible)
        .map(|(index, _)| ClusterNodeId::from_index(index))
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The indexed feasibility set equals the naive full-scan filter exactly
    /// — same nodes, same (ascending-id) order — through the raw index, a
    /// fresh context and a context reusing the previous burst's scratch
    /// (whose warm index must re-validate, not drift).
    #[test]
    fn indexed_feasibility_equals_naive_full_scan(
        seed in 0u64..1_000_000,
        nodes in 1usize..48,
        cpu_choice in 0usize..7,
        mem_gib in 0u64..12,
    ) {
        let cpu_millis = [0u64, 250, 500, 1_000, 2_500, 4_000, 9_000][cpu_choice];
        let (mut cluster, snapshot) = varied_world(nodes, seed);
        let request = driver_request(0, cpu_millis, mem_gib);
        let expected = naive_feasible(&cluster, &request);

        let mut index = FeasibilityIndex::new();
        index.sync(&cluster);
        let driver = request.to_job_spec().driver_pod(None);
        prop_assert_eq!(index.query(&driver.requests), expected.clone());

        let mut standalone = SchedulingContext::new(&snapshot, &cluster);
        prop_assert_eq!(standalone.feasible_candidates(&request), &expected[..]);

        // Next burst reusing the scratch: same answer from the warm index.
        let scratch = standalone.into_scratch();
        let scratch = {
            let mut reused = SchedulingContext::with_scratch(&snapshot, &cluster, scratch);
            prop_assert_eq!(reused.feasible_candidates(&request), &expected[..]);
            reused.into_scratch()
        };

        // Post-bind update: mutate the cluster, re-derive the oracle, and the
        // reused context must track it through the generation bump.
        if let Some(&target) = expected.first() {
            let node = cluster.node_by_id_mut(target).expect("feasible node exists");
            let free = node.available();
            node.bind(PodId(90_000 + seed), free);
            let mut after = SchedulingContext::with_scratch(&snapshot, &cluster, scratch);
            let expected_after = naive_feasible(&cluster, &request);
            prop_assert_eq!(after.feasible_candidates(&request), &expected_after[..]);
        }
    }

    /// With the budget off or merely oversized, every policy's rankings are
    /// byte-identical to the unpruned path under every pruning policy —
    /// including the stateful (seeded) schedulers, whose RNG streams must
    /// advance the same way through the pruned code path.
    #[test]
    fn unbounded_budget_is_byte_identical_for_every_policy(
        seed in 0u64..1_000_000,
        nodes in 2usize..24,
        oversized_choice in 0usize..3,
    ) {
        let oversized = [64usize, 1_000, usize::MAX][oversized_choice];
        let (cluster, snapshot) = varied_world(nodes, seed);
        let requests: Vec<JobRequest> = (0..4)
            .map(|i| driver_request(i, 250 + 250 * i as u64, 1 + i as u64 % 3))
            .collect();

        type PolicyFactory = Box<dyn Fn() -> Box<dyn JobScheduler>>;
        let schedulers: Vec<(&str, PolicyFactory)> = vec![
            (
                "supervised",
                Box::new(|| Box::new(SupervisedScheduler::new(predictor())) as Box<dyn JobScheduler>),
            ),
            (
                "kube-default",
                Box::new(move || Box::new(KubeDefaultScheduler::new(seed)) as Box<dyn JobScheduler>),
            ),
            (
                "random",
                Box::new(move || Box::new(RandomScheduler::new(seed)) as Box<dyn JobScheduler>),
            ),
            (
                "least-loaded",
                Box::new(|| Box::new(LeastLoadedScheduler) as Box<dyn JobScheduler>),
            ),
            (
                "lowest-rtt",
                Box::new(|| Box::new(LowestRttScheduler) as Box<dyn JobScheduler>),
            ),
        ];
        for (name, make) in &schedulers {
            let mut unpruned_ctx = SchedulingContext::new(&snapshot, &cluster);
            let unpruned = make().select_batch(&requests, &mut unpruned_ctx);
            for policy in POLICIES {
                let mut pruned_ctx = SchedulingContext::new(&snapshot, &cluster);
                pruned_ctx.set_top_k(Some(oversized));
                pruned_ctx.set_pruning_policy(policy);
                let pruned = make().select_batch(&requests, &mut pruned_ctx);
                prop_assert!(
                    unpruned == pruned,
                    "{} diverged at K={} under {:?}",
                    name,
                    oversized,
                    policy
                );
            }
        }
    }

    /// The pruned candidate set is exactly the K best prefilter scores under
    /// the active policy, budgets nest, and the supervised top-1 under K
    /// climbs monotonically toward (and at K ≥ n reaches) the full-rank
    /// top-1.
    #[test]
    fn pruning_is_exact_nested_and_monotone(
        seed in 0u64..1_000_000,
        nodes in 2usize..40,
    ) {
        let (cluster, snapshot) = varied_world(nodes, seed);
        let predictor = predictor();
        let request = driver_request(1, 500, 1);

        for policy in POLICIES {
            let mut ctx = SchedulingContext::new(&snapshot, &cluster);
            ctx.set_pruning_policy(policy);
            ctx.set_top_k(None);
            let feasible: Vec<ClusterNodeId> = ctx.feasible_candidates(&request).to_vec();
            let full = ctx.rank_feasible_batch(&request, &predictor);
            prop_assert_eq!(full.len(), feasible.len());
            let position_of = |id: ClusterNodeId| -> usize {
                full.ranked
                    .iter()
                    .position(|r| r.node == id)
                    .expect("pruned winner always comes from the feasible set")
            };

            // Independently recompute what the top-K prefilter must keep: the
            // K smallest (score, id) pairs, reported in ascending-id order.
            let mut scored: Vec<(f64, ClusterNodeId)> = feasible
                .iter()
                .map(|&id| (ctx.prefilter_score(id), id))
                .collect();
            scored.sort_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));

            let mut budgets = vec![1usize, 2, 3, 5, 8, 13, nodes, nodes + 7];
            budgets.sort_unstable();
            budgets.dedup();
            let mut previous: Option<(Vec<ClusterNodeId>, usize)> = None;
            for &k in &budgets {
                ctx.set_top_k(Some(k));
                let pruned: Vec<ClusterNodeId> = ctx.pruned_candidates(&request).to_vec();
                prop_assert_eq!(pruned.len(), k.min(feasible.len()));
                let mut expected: Vec<ClusterNodeId> =
                    scored.iter().take(k).map(|&(_, id)| id).collect();
                expected.sort_unstable();
                prop_assert_eq!(&pruned, &expected);

                let ranking = ctx.rank_feasible_batch(&request, &predictor);
                prop_assert_eq!(ranking.len(), pruned.len());
                let top1_position = ranking.ranked.first().map(|r| position_of(r.node));
                if let Some((smaller, smaller_position)) = &previous {
                    // S_K ⊆ S_K' ...
                    prop_assert!(
                        smaller.iter().all(|id| pruned.contains(id)),
                        "budgets must nest: K={} lost a smaller budget's candidate",
                        k
                    );
                    // ... so the winner over the larger set can only rank
                    // better.
                    if let Some(position) = top1_position {
                        prop_assert!(
                            position <= *smaller_position,
                            "top-1 moved away from the full-rank top-1 as K grew to {}",
                            k
                        );
                    }
                }
                if k >= feasible.len() && !feasible.is_empty() {
                    prop_assert_eq!(&ranking, &full);
                    prop_assert_eq!(top1_position, Some(0));
                }
                previous = top1_position.map(|p| (pruned, p));
            }
        }
    }
}

/// Pruned decision bursts against a published-epoch reader while ingest runs
/// on another thread, with cluster mutations between bursts forcing
/// feasibility index rebuilds mid-stream. Every decision must use a whole
/// committed epoch, epochs must advance monotonically, and the index must
/// rebuild exactly once per cluster mutation — never because an epoch
/// changed.
#[test]
fn pruned_bursts_under_live_ingest_use_whole_committed_epochs() {
    use netsched::simcore::SimDuration;
    use netsched::simnet::{gbps, mbps, Network, TopologyBuilder};
    use netsched::telemetry::{
        node_exporter_samples, ping_mesh_samples, ConcurrentScrapeManager, IngestConfig,
        ScrapeConfig, TimeSeriesStore,
    };

    let nodes = 8usize;
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

    let config = ScrapeConfig::default();
    let times: Vec<SimTime> = (0..150u64).map(|i| SimTime::from_secs(1 + i * 5)).collect();

    // Reference: the sample-built store's snapshot after every round, at that
    // round's own timestamp — the only states a whole-epoch reader may see.
    let mut expected: Vec<String> = Vec::with_capacity(times.len());
    let mut reference = TimeSeriesStore::with_retention(config.retention.unwrap());
    for &t in &times {
        reference.append_all(node_exporter_samples(&cluster, &network, t));
        reference.append_all(ping_mesh_samples(&cluster, &network, t));
        let snap = ClusterSnapshot::from_store(&reference, t, config.rate_window);
        expected.push(serde_json::to_string(&snap).unwrap());
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
    // Commit the first round up front so every burst below is epoch-backed.
    manager.scrape(&cluster, &network, times[0]);
    let published = manager.published_handle();

    // The scheduler works on its own view of the cluster so bursts can bind
    // pods (forcing index rebuilds) while ingest holds the scraped one.
    let mut sched_cluster = cluster.clone();
    let mut service = SchedulerService::new(
        SchedulerConfig {
            prune_top_k: Some(3),
            ..Default::default()
        },
        7,
    );

    let ingest_times = &times[1..];
    let (cluster_ref, network_ref) = (&cluster, &network);
    let observed_times = std::thread::scope(|scope| {
        let ingest = scope.spawn(move || {
            manager.ingest(cluster_ref, network_ref, ingest_times);
            manager
        });
        let mut observed: Vec<SimTime> = Vec::new();
        let mut mutations = 0u64;
        let mut burst = 0usize;
        loop {
            let finished = ingest.is_finished();
            let requests: Vec<JobRequest> = (0..3)
                .map(|i| driver_request(burst * 3 + i, 500, 1))
                .collect();
            let decisions =
                service.schedule_batch(&requests, &published, &sched_cluster, SimTime::ZERO);
            for decision in &decisions {
                // Whole-epoch consistency: the adopted snapshot is
                // byte-identical to the sequential state after some committed
                // round — never a torn mix of rounds.
                let round = times
                    .iter()
                    .position(|&t| t == decision.snapshot.time)
                    .expect("decision snapshot stamped with a round time");
                assert_eq!(
                    serde_json::to_string(&*decision.snapshot).unwrap(),
                    expected[round],
                    "burst {burst} used a torn (non-epoch) snapshot"
                );
                if observed.last() != Some(&decision.snapshot.time) {
                    observed.push(decision.snapshot.time);
                }
                // The budget binds: 3 of 8 feasible nodes get ranked.
                assert_eq!(decision.ranking.len(), 3);
            }
            // The burst that saw ingest finished is the last: stop before a
            // mutation that no later burst would rebuild for.
            if finished {
                break;
            }
            burst += 1;
            // Every few bursts, bind a pod: the generation bump must force
            // exactly one index rebuild on the next burst, mid-ingest.
            if burst.is_multiple_of(8) {
                let pod = sched_cluster.create_pod(
                    PodSpec::new(
                        format!("stress-{burst}"),
                        Resources::from_cores_and_gib(0, 0),
                    ),
                    SimTime::ZERO,
                );
                sched_cluster
                    .bind_pod(
                        pod,
                        &format!("node-{}", 1 + (burst / 8) % nodes),
                        SimTime::ZERO,
                    )
                    .expect("zero-request stress pod always fits");
                mutations += 1;
            }
        }
        ingest.join().expect("ingest thread");
        // One initial build plus exactly one rebuild per cluster mutation —
        // epoch adoption alone must never rebuild the feasibility index.
        assert_eq!(service.feasibility_rebuilds(), 1 + mutations);
        observed
    });

    // Epochs advance monotonically and the post-ingest burst saw the final
    // committed round.
    assert!(
        observed_times.windows(2).all(|w| w[0] <= w[1]),
        "observed epoch times must be monotone: {observed_times:?}"
    );
    assert_eq!(*observed_times.last().unwrap(), *times.last().unwrap());
    assert!(!observed_times.is_empty());
}
