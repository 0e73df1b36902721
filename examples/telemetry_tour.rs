//! A tour of the telemetry substrate: exporters, the scrape manager, the
//! snapshots it assembles (rates derived from byte counters, the RTT mesh)
//! and the feature vectors the scheduler consumes — the plumbing between "a
//! pod is busy downloading" and "the model sees a congested node".
//!
//! ```text
//! cargo run --release --example telemetry_tour
//! ```

use netsched::core::features::FeatureSchema;
use netsched::core::request::JobRequest;
use netsched::experiments::{FabricTestbed, SimWorld};
use netsched::simcore::{SimDuration, SimTime};
use netsched::simnet::BackgroundLoadConfig;
use netsched::sparksim::WorkloadKind;
use netsched::telemetry::{SnapshotSource, METRIC_NODE_TX_BYTES, METRIC_PING_RTT};

fn main() {
    let mut world = SimWorld::new(FabricTestbed::paper(), 7);

    // Put a heavy download loop on two nodes and let telemetry accumulate.
    world.place_background_load(
        2,
        &BackgroundLoadConfig {
            mean_gap: SimDuration::from_millis(100),
            ..Default::default()
        },
    );
    world.advance_by(SimDuration::from_secs(60));

    // --- What the metrics server holds, and the snapshot it assembles. ---
    println!(
        "stored series: {}, points: {} ({} scrapes)",
        world.metrics.series_count(),
        world.metrics.point_count(),
        world.metrics.scrape_count()
    );
    let snapshot = world.snapshot();
    let now = world.now();
    for (node, telemetry) in snapshot.iter_nodes() {
        println!(
            "  rate({METRIC_NODE_TX_BYTES}{{instance=\"{node}\"}}[30s]) = {:.2} MB/s",
            telemetry.tx_rate / 1e6
        );
    }
    println!(
        "{METRIC_PING_RTT} at t={now}: {} pairs",
        snapshot.rtt().len()
    );

    // --- Table-1 feature vectors. ---
    let schema = FeatureSchema::standard();
    let request = JobRequest::named("join-tour", WorkloadKind::Join, 250_000, 2);
    println!(
        "\nfeature vectors for {} ({} features):",
        request.name,
        schema.len()
    );
    for node in world.cluster.node_names() {
        let features = schema.construct(&snapshot, &node, &request);
        let cpu = features[schema.index_of("cpu_load").unwrap()];
        let rtt = features[schema.index_of("rtt_mean_s").unwrap()];
        let rx = features[schema.index_of("rx_rate_bps").unwrap()];
        println!(
            "  {node}: cpu_load={cpu:.2}, rtt_mean={:.1} ms, rx_rate={:.2} MB/s, full vector = {:?}",
            rtt * 1000.0,
            rx / 1e6,
            features.iter().map(|v| (v * 100.0).round() / 100.0).collect::<Vec<_>>()
        );
    }

    // --- Telemetry staleness: what an old snapshot would have looked like. ---
    let stale = world
        .metrics
        .snapshot(SimTime::from_secs(10), SimDuration::from_secs(30));
    println!(
        "\nsnapshot at t=10s saw {} nodes with receive traffic; at t={} it is {}",
        stale.iter_nodes().filter(|(_, t)| t.rx_rate > 0.0).count(),
        snapshot.time,
        snapshot
            .iter_nodes()
            .filter(|(_, t)| t.rx_rate > 0.0)
            .count()
    );
}
