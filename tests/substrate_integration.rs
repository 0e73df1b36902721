//! Cross-crate substrate integration: cluster ↔ network ↔ telemetry ↔ workload
//! interactions that no single crate's unit tests can exercise alone.

use netsched::cluster::{PodSpec, Resources};
use netsched::core::features::{FeatureGroup, FeatureSchema};
use netsched::core::request::JobRequest;
use netsched::experiments::{FabricTestbed, SimWorld};
use netsched::simcore::SimDuration;
use netsched::simnet::BackgroundLoadConfig;
use netsched::sparksim::WorkloadKind;

#[test]
fn background_contention_is_visible_through_the_whole_telemetry_path() {
    let mut world = SimWorld::new(FabricTestbed::paper(), 101);
    // Heavy contention on exactly one host.
    world.place_background_load(
        1,
        &BackgroundLoadConfig {
            mean_gap: SimDuration::from_millis(80),
            cpu_load: 2.0,
            ..Default::default()
        },
    );
    world.advance_by(SimDuration::from_secs(45));
    let host = world.background_hosts()[0].clone();
    let snapshot = world.snapshot();

    // 1. The loaded host shows more CPU pressure than every other node.
    let host_load = snapshot.node(&host).unwrap().cpu_load;
    for (name, telemetry) in snapshot.iter_nodes() {
        if name != host {
            assert!(
                host_load > telemetry.cpu_load,
                "{host} ({host_load}) should be busier than {name} ({})",
                telemetry.cpu_load
            );
        }
    }
    // 2. The download target receives traffic: every node exports its
    //    counters, and the snapshot's rx rates show the downloads.
    assert_eq!(snapshot.iter_nodes().count(), 6);
    let total_rx_rate: f64 = snapshot.iter_nodes().map(|(_, t)| t.rx_rate).sum();
    assert!(
        total_rx_rate > 1e6,
        "background downloads moved data: {total_rx_rate} B/s"
    );
    assert!(snapshot.iter_nodes().any(|(_, t)| t.rx_rate > 1e5));
    // 3. The ping mesh is fully populated (6 x 5 ordered pairs).
    assert_eq!(snapshot.rtt().len(), 30);
}

#[test]
fn cluster_allocations_feed_back_into_execution_speed() {
    // Pre-loading a node with pods (CPU allocation) slows a job whose
    // executors land there — the cluster state and the execution model agree.
    let request = JobRequest::named("sort-alloc", WorkloadKind::Sort, 300_000, 2);

    let run_with_hog = |hog: bool| -> f64 {
        let mut world = SimWorld::new(FabricTestbed::paper(), 2024);
        world.advance_by(SimDuration::from_secs(5));
        if hog {
            // Occupy most of node-1 and node-4 (the UCSD site) with busy pods.
            for (i, node) in ["node-1", "node-4"].iter().enumerate() {
                let pod = world.cluster.create_pod(
                    PodSpec::new(format!("hog-{i}"), Resources::from_cores_and_gib(5, 6)),
                    world.now(),
                );
                world.cluster.bind_pod(pod, node, world.now()).unwrap();
            }
        }
        world
            .run_job(&request, "node-1")
            .expect("driver fits in the remaining capacity")
            .result
            .completion_seconds()
    };

    let quiet = run_with_hog(false);
    let contended = run_with_hog(true);
    assert!(
        contended > quiet,
        "co-located allocations must slow the job: contended {contended} vs quiet {quiet}"
    );
}

#[test]
fn feature_vectors_differ_between_congested_and_idle_nodes() {
    let mut world = SimWorld::new(FabricTestbed::paper(), 55);
    world.place_background_load(
        1,
        &BackgroundLoadConfig {
            mean_gap: SimDuration::from_millis(100),
            ..Default::default()
        },
    );
    world.advance_by(SimDuration::from_secs(40));
    let host = world.background_hosts()[0].clone();
    let idle = world
        .cluster
        .node_names()
        .into_iter()
        .find(|n| *n != host)
        .unwrap();
    let snapshot = world.snapshot();
    let schema = FeatureSchema::standard();
    let request = JobRequest::named("probe", WorkloadKind::PageRank, 100_000, 2);
    let busy_features = schema.construct(&snapshot, &host, &request);
    let idle_features = schema.construct(&snapshot, &idle, &request);
    assert_ne!(busy_features, idle_features);
    let cpu = schema.index_of("cpu_load").unwrap();
    assert!(busy_features[cpu] > idle_features[cpu]);
    // Job features are identical across candidates (same request).
    let job_columns: Vec<usize> = schema
        .groups()
        .iter()
        .enumerate()
        .filter(|(_, g)| **g == FeatureGroup::Job)
        .map(|(i, _)| i)
        .collect();
    for &col in &job_columns {
        assert_eq!(busy_features[col], idle_features[col]);
    }
}

#[test]
fn workload_families_have_distinct_runtime_signatures() {
    // Same input size, same placement, idle cluster: the three paper workloads
    // must produce clearly different completion times and shuffle volumes.
    let mut completions = Vec::new();
    for kind in WorkloadKind::PAPER_SET {
        let mut world = SimWorld::new(FabricTestbed::paper(), 9);
        world.advance_by(SimDuration::from_secs(5));
        let request = JobRequest::named(format!("{kind}-sig"), kind, 400_000, 2);
        let outcome = world.run_job(&request, "node-2").unwrap();
        completions.push((
            kind,
            outcome.result.completion_seconds(),
            outcome.result.shuffle_bytes,
        ));
    }
    // All distinct (no two workloads collapse onto the same number).
    for i in 0..completions.len() {
        for j in (i + 1)..completions.len() {
            assert!(
                (completions[i].1 - completions[j].1).abs() > 0.05,
                "{:?} vs {:?}",
                completions[i],
                completions[j]
            );
        }
    }
    // Sort (full-input shuffle) and PageRank (iterative exchange) both move
    // more data over the network than Join, matching the Table 2 story.
    let shuffle_of =
        |kind: WorkloadKind| completions.iter().find(|(k, _, _)| *k == kind).unwrap().2;
    assert!(shuffle_of(WorkloadKind::Sort) > shuffle_of(WorkloadKind::Join));
    assert!(shuffle_of(WorkloadKind::PageRank) > shuffle_of(WorkloadKind::Join));
}

#[test]
fn manifests_round_trip_through_the_default_scheduler_filter() {
    // A manifest pinned to node-3 must be placeable on node-3 and nowhere else
    // according to the same filtering logic the default scheduler uses.
    use netsched::cluster::scheduler::FilterResult;
    use netsched::cluster::DefaultScheduler;
    let request = JobRequest::named("pin-check", WorkloadKind::Join, 100_000, 2);
    let built = netsched::core::builder::JobBuilder.build(&request, Some("node-3"));
    let cluster = FabricTestbed::paper().cluster;
    for node in cluster.nodes() {
        let verdict = DefaultScheduler::filter(&built.driver_pod, node);
        if node.name == "node-3" {
            assert_eq!(verdict, FilterResult::Feasible);
        } else {
            assert_eq!(verdict, FilterResult::AffinityMismatch, "{}", node.name);
        }
    }
    assert!(built.manifest_yaml.contains("- node-3"));
}
