//! Runtime counterpart of the `hot-path-alloc` lint: a counting global
//! allocator proves that steady-state `schedule_batch` bursts perform **zero
//! heap allocations**.
//!
//! The static lint (`cargo run -p analysis -- check`) bans allocating tokens
//! inside the hot-path function manifest; this harness pins the same claim
//! dynamically, end to end: against an epoch-published snapshot with a
//! trained model, a warm `schedule_batch_into` burst must not allocate,
//! deallocate or reallocate at all — not in telemetry indexing, feasibility
//! filtering, feature construction, batch inference, ranking, or job/manifest
//! building.
//!
//! Counting is armed per thread: libtest runs this file's tests on parallel
//! threads, and a process-global flag would count the sibling tests'
//! allocations too. The decision path under test runs entirely on the
//! calling thread, so a thread-local flag sees every allocation it makes.

use netsched::cluster::{ClusterState, Node, Resources};
use netsched::core::request::JobRequest;
use netsched::core::service::{SchedulerConfig, SchedulerService, SchedulingDecision};
use netsched::core::PruningPolicy;
use netsched::mlcore::ModelKind;
use netsched::simcore::rng::Rng;
use netsched::simcore::{SimDuration, SimTime};
use netsched::simnet::{gbps, mbps, Network, NodeId, TopologyBuilder};
use netsched::sparksim::WorkloadKind;
use netsched::telemetry::{ConcurrentScrapeManager, ScrapeConfig};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

/// Pass-through allocator that counts every heap operation the armed thread
/// makes.
struct CountingAllocator;

/// Per-thread heap-operation tallies: `(allocs, deallocs, reallocs)`.
#[derive(Clone, Copy)]
struct Tally {
    armed: bool,
    counts: (u64, u64, u64),
}

thread_local! {
    // `const`-initialized and drop-free, so the allocator can touch it at
    // any point of a thread's life without allocating or recursing.
    static TALLY: Cell<Tally> = const {
        Cell::new(Tally {
            armed: false,
            counts: (0, 0, 0),
        })
    };
}

/// Count one heap operation on the current thread if it is armed.
fn count(op: fn(&mut (u64, u64, u64))) {
    // `try_with`: a thread that is tearing down its locals is never armed.
    let _ = TALLY.try_with(|tally| {
        let mut t = tally.get();
        if t.armed {
            op(&mut t.counts);
            tally.set(t);
        }
    });
}

unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(|c| c.0 += 1);
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count(|c| c.0 += 1);
        System.alloc_zeroed(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        count(|c| c.1 += 1);
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(|c| c.2 += 1);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: CountingAllocator = CountingAllocator;

/// Start counting this thread's heap operations from zero.
fn arm() {
    TALLY.set(Tally {
        armed: true,
        counts: (0, 0, 0),
    });
}

/// Stop counting and return this thread's `(allocs, deallocs, reallocs)`.
fn disarm() -> (u64, u64, u64) {
    let tally = TALLY.get();
    TALLY.set(Tally {
        armed: false,
        ..tally
    });
    tally.counts
}

/// An `n`-node world split across two sites, with a scraped telemetry round
/// (host metrics and the full ping mesh).
fn world(n: usize) -> (ClusterState, Network, ConcurrentScrapeManager) {
    let mut b = TopologyBuilder::new();
    let s0 = b.add_site("UCSD", SimDuration::from_micros(200), gbps(10.0));
    let s1 = b.add_site("FIU", SimDuration::from_micros(200), gbps(10.0));
    for i in 0..n {
        let site = if i < n / 2 { s0 } else { s1 };
        b.add_node(format!("node-{}", i + 1), site, gbps(1.0), gbps(1.0));
    }
    b.connect_sites(s0, s1, SimDuration::from_millis(30), mbps(500.0));
    let network = Network::new(b.build().unwrap());
    let mut cluster = ClusterState::new();
    for i in 0..n {
        cluster.add_node(Node::new(
            format!("node-{}", i + 1),
            NodeId(i),
            Resources::from_cores_and_gib(6, 8),
            if i < n / 2 { "UCSD" } else { "FIU" },
        ));
    }
    let mut scrape = ConcurrentScrapeManager::new(ScrapeConfig::default());
    scrape.scrape(&cluster, &network, SimTime::from_secs(1));
    (cluster, network, scrape)
}

fn request(i: usize) -> JobRequest {
    JobRequest::named(format!("sort-{i}"), WorkloadKind::Sort, 100_000, 2)
}

/// Train a service through its own bootstrap path (fallback decisions →
/// logged outcomes → retrain), so the steady-state burst runs the supervised
/// scheduler, not the fallback.
fn trained_service_with(
    cluster: &ClusterState,
    scrape: &ConcurrentScrapeManager,
    config: SchedulerConfig,
) -> SchedulerService {
    let mut service = SchedulerService::new(
        SchedulerConfig {
            min_training_samples: 20,
            ..config
        },
        7,
    );
    let mut rng = Rng::seed_from_u64(11);
    for i in 0..30 {
        let d = service.schedule(&request(i), scrape, cluster, SimTime::from_secs(2));
        let node = d.job.target_node.clone().unwrap();
        let load = d.snapshot.node(&node).map(|t| t.cpu_load).unwrap_or(0.0);
        service.record_outcome(&d.snapshot, &request(i), &node, 20.0 + 5.0 * load);
    }
    assert!(service.retrain(&mut rng));
    assert!(service.is_model_active());
    service
}

/// A service trained with the given model family and default settings.
fn trained_service(
    cluster: &ClusterState,
    scrape: &ConcurrentScrapeManager,
    model_kind: ModelKind,
) -> SchedulerService {
    trained_service_with(
        cluster,
        scrape,
        SchedulerConfig {
            model_kind,
            ..Default::default()
        },
    )
}

#[test]
fn steady_state_schedule_batch_burst_is_allocation_free() {
    assert_supervised_bursts_are_allocation_free(ModelKind::Linear);
}

#[test]
fn steady_state_random_forest_burst_is_allocation_free() {
    // The forest ranks each candidate batch through the grouped tree walk
    // (stack-held cursors and row slices); it must stay heap-free too.
    assert_supervised_bursts_are_allocation_free(ModelKind::RandomForest);
}

/// Warm a supervised service of `model_kind`, then require ten whole
/// `schedule_batch_into` bursts to make zero heap operations.
fn assert_supervised_bursts_are_allocation_free(model_kind: ModelKind) {
    let (cluster, _network, mut scrape) = world(4);
    let published = scrape.published_handle();
    let mut service = trained_service(&cluster, &scrape, model_kind);
    assert_eq!(
        service.predictor().map(|p| p.model_kind()),
        Some(model_kind)
    );

    let requests: Vec<JobRequest> = (0..8).map(request).collect();
    let now = SimTime::from_secs(3);
    let mut decisions: Vec<SchedulingDecision> = Vec::new();

    // Warm-up bursts: adopt the published epoch, size every reused buffer
    // (context scratch, rankings, pod specs, manifest strings) to its
    // steady-state capacity.
    for _ in 0..3 {
        service.schedule_batch_into(&requests, &published, &cluster, now, &mut decisions);
    }
    let warm: Vec<Option<String>> = decisions
        .iter()
        .map(|d| d.job.target_node.clone())
        .collect();

    // Steady state: with no new epoch published and stable request shapes,
    // whole bursts must not touch the heap at all.
    arm();
    for _ in 0..10 {
        service.schedule_batch_into(&requests, &published, &cluster, now, &mut decisions);
    }
    let (allocs, deallocs, reallocs) = disarm();
    assert_eq!(
        (allocs, deallocs, reallocs),
        (0, 0, 0),
        "steady-state {model_kind} schedule_batch bursts must be allocation-free \
         (allocs={allocs} deallocs={deallocs} reallocs={reallocs})"
    );

    // The allocation-free path still produces real decisions.
    assert_eq!(decisions.len(), requests.len());
    for decision in &decisions {
        assert!(decision.used_model);
        assert_eq!(decision.ranking.len(), 4);
        assert!(decision.job.target_node.is_some());
        assert!(decision.job.manifest_yaml.contains("SparkApplication"));
    }
    let after: Vec<Option<String>> = decisions
        .iter()
        .map(|d| d.job.target_node.clone())
        .collect();
    assert_eq!(warm, after, "steady-state bursts are deterministic");
}

#[test]
fn steady_state_mesh64_linear_bursts_are_allocation_free() {
    // The shape of a 64-node ping-mesh world under 24-job bursts with a
    // linear model and no budget: every decision fills its job row once and
    // 64 candidate rows from it. Varied jobs change the job row every
    // decision; the row lives in the context scratch and must not allocate.
    let (cluster, _network, mut scrape) = world(64);
    let published = scrape.published_handle();
    let mut service = trained_service(&cluster, &scrape, ModelKind::Linear);

    let requests: Vec<JobRequest> = (0..24)
        .map(|i| {
            let kind = WorkloadKind::ALL[i % WorkloadKind::ALL.len()];
            JobRequest::named(
                format!("{kind}-{i}"),
                kind,
                50_000 + 10_000 * i as u64,
                1 + i as u32 % 4,
            )
        })
        .collect();
    let now = SimTime::from_secs(3);
    let mut decisions: Vec<SchedulingDecision> = Vec::new();
    for _ in 0..3 {
        service.schedule_batch_into(&requests, &published, &cluster, now, &mut decisions);
    }

    arm();
    for _ in 0..10 {
        service.schedule_batch_into(&requests, &published, &cluster, now, &mut decisions);
    }
    let (allocs, deallocs, reallocs) = disarm();
    assert_eq!(
        (allocs, deallocs, reallocs),
        (0, 0, 0),
        "steady-state 64-node linear bursts must be allocation-free \
         (allocs={allocs} deallocs={deallocs} reallocs={reallocs})"
    );
    assert_eq!(decisions.len(), 24);
    for decision in &decisions {
        assert!(decision.used_model);
        assert_eq!(decision.ranking.len(), 64, "unpruned: every node is ranked");
    }
}

#[test]
fn steady_state_pruned_bursts_are_allocation_free() {
    // Two-stage decision path with a candidate budget: the supervised burst
    // prunes through the model-aligned coarse scoreboard (board pool, bounded
    // heap, signature cells — all scratch-carried and epoch-recycled), the
    // fallback burst through the model-blind prefilter. Both must run
    // heap-free once warm.
    let (cluster, _network, mut scrape) = world(4);
    let published = scrape.published_handle();
    let mut service = trained_service_with(
        &cluster,
        &scrape,
        SchedulerConfig {
            model_kind: ModelKind::Linear,
            prune_top_k: Some(2),
            ..Default::default()
        },
    );

    let requests: Vec<JobRequest> = (0..8).map(request).collect();
    let now = SimTime::from_secs(3);
    let mut decisions: Vec<SchedulingDecision> = Vec::new();
    for _ in 0..3 {
        service.schedule_batch_into(&requests, &published, &cluster, now, &mut decisions);
    }

    arm();
    for _ in 0..10 {
        service.schedule_batch_into(&requests, &published, &cluster, now, &mut decisions);
    }
    let (allocs, deallocs, reallocs) = disarm();
    assert_eq!(
        (allocs, deallocs, reallocs),
        (0, 0, 0),
        "steady-state pruned supervised bursts must be allocation-free \
         (allocs={allocs} deallocs={deallocs} reallocs={reallocs})"
    );
    for decision in &decisions {
        assert!(decision.used_model);
        assert_eq!(
            decision.ranking.len(),
            2,
            "the budget binds: 2 of 4 feasible nodes get ranked"
        );
        assert!(decision.job.target_node.is_some());
    }

    // The model-blind prefilter policies share the same scratch machinery
    // through the fallback path.
    let mut fallback = SchedulerService::new(
        SchedulerConfig {
            prune_top_k: Some(2),
            pruning_policy: PruningPolicy::LeastAllocated,
            ..Default::default()
        },
        7,
    );
    for _ in 0..3 {
        fallback.schedule_batch_into(&requests, &published, &cluster, now, &mut decisions);
    }
    arm();
    for _ in 0..10 {
        fallback.schedule_batch_into(&requests, &published, &cluster, now, &mut decisions);
    }
    let (allocs, deallocs, reallocs) = disarm();
    assert_eq!(
        (allocs, deallocs, reallocs),
        (0, 0, 0),
        "steady-state pruned fallback bursts must be allocation-free \
         (allocs={allocs} deallocs={deallocs} reallocs={reallocs})"
    );
    assert!(decisions
        .iter()
        .all(|d| !d.used_model && d.ranking.len() == 2));
}

#[test]
fn steady_state_fallback_burst_is_allocation_free() {
    // The pre-training fallback path (uniform-random feasible placement)
    // shares the same in-place machinery and must also run heap-free once
    // warm.
    let (cluster, _network, mut scrape) = world(4);
    let published = scrape.published_handle();
    let mut service = SchedulerService::new(SchedulerConfig::default(), 7);

    let requests: Vec<JobRequest> = (0..8).map(request).collect();
    let now = SimTime::from_secs(3);
    let mut decisions: Vec<SchedulingDecision> = Vec::new();
    for _ in 0..3 {
        service.schedule_batch_into(&requests, &published, &cluster, now, &mut decisions);
    }

    arm();
    for _ in 0..10 {
        service.schedule_batch_into(&requests, &published, &cluster, now, &mut decisions);
    }
    let (allocs, deallocs, reallocs) = disarm();
    assert_eq!(
        (allocs, deallocs, reallocs),
        (0, 0, 0),
        "steady-state fallback bursts must be allocation-free \
         (allocs={allocs} deallocs={deallocs} reallocs={reallocs})"
    );
    assert!(decisions.iter().all(|d| !d.used_model));
}
