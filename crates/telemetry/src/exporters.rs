//! The two exporters the paper deploys.
//!
//! * **Node exporter** — per-node host metrics: 1-minute load average,
//!   available memory, cumulative transmit/receive byte counters.
//! * **Ping-mesh exporter** — a DaemonSet probing every other node and
//!   exporting the observed RTT (the paper uses `ping_exporter`).
//!
//! Two forms are provided:
//!
//! * [`node_exporter_samples`] / [`ping_mesh_samples`] are pure functions
//!   returning owned [`Sample`]s — the reference implementation, handy in
//!   tests and one-off probes.
//! * `ExporterLayout` is the interned fast path the scrape manager uses: it
//!   interns every series key into the shards **once** and caches the ids,
//!   so each subsequent scrape appends raw values without constructing a
//!   single `SeriesKey` or `String` — and the snapshot is assembled back out
//!   of the shards through the same ids.

use crate::metrics::{MetricKind, Sample, SeriesKey};
use crate::shards::ShardedSeriesId;
use crate::snapshot::{ClusterSnapshot, NodeTelemetry};
use crate::store::TimeSeriesStore;
use crate::{
    METRIC_NODE_LOAD1, METRIC_NODE_MEM_AVAILABLE, METRIC_NODE_RX_BYTES, METRIC_NODE_TX_BYTES,
    METRIC_PING_RTT,
};
use cluster::ClusterState;
use simcore::{SimDuration, SimTime};
use simnet::Network;
use std::ops::Deref;
use std::sync::atomic::{AtomicU64, Ordering};

/// Process-wide generation source for [`ExporterLayout`] stamps. Starts at 1
/// so 0 can mean "no layout" on the snapshot side.
static LAYOUT_GENERATION: AtomicU64 = AtomicU64::new(1);

/// Collect node-exporter samples for every node in the cluster.
///
/// Counters (tx/rx bytes) come from the network's interface counters; gauges
/// (load, available memory) come from the cluster's host-load model.
pub fn node_exporter_samples(
    cluster: &ClusterState,
    network: &Network,
    now: SimTime,
) -> Vec<Sample> {
    let mut samples = Vec::with_capacity(cluster.nodes().len() * 4);
    for node in cluster.nodes() {
        let instance = node.name.as_str();
        let counters = network.counters(node.net_id);
        samples.push(Sample::gauge(
            SeriesKey::per_node(METRIC_NODE_LOAD1, instance),
            node.cpu_load(),
            now,
        ));
        samples.push(Sample::gauge(
            SeriesKey::per_node(METRIC_NODE_MEM_AVAILABLE, instance),
            node.memory_available(),
            now,
        ));
        samples.push(Sample::counter(
            SeriesKey::per_node(METRIC_NODE_TX_BYTES, instance),
            counters.tx_bytes,
            now,
        ));
        samples.push(Sample::counter(
            SeriesKey::per_node(METRIC_NODE_RX_BYTES, instance),
            counters.rx_bytes,
            now,
        ));
    }
    samples
}

/// Collect full-mesh ping samples: one `ping_rtt_seconds{source, target}`
/// gauge per ordered node pair (excluding self-pairs).
///
/// The jitter seed mixes the pair identity and the scrape time so repeated
/// scrapes see realistic variation while remaining reproducible.
pub fn ping_mesh_samples(cluster: &ClusterState, network: &Network, now: SimTime) -> Vec<Sample> {
    let nodes = cluster.nodes();
    let mut samples = Vec::with_capacity(nodes.len() * nodes.len());
    for a in nodes {
        for b in nodes {
            if a.name == b.name {
                continue;
            }
            let seed = pair_seed(a.net_id.0 as u64, b.net_id.0 as u64, now);
            let rtt = network.current_rtt(a.net_id, b.net_id, seed);
            samples.push(Sample::gauge(
                SeriesKey::new(
                    METRIC_PING_RTT,
                    &[("source", a.name.as_str()), ("target", b.name.as_str())],
                ),
                rtt.as_secs_f64(),
                now,
            ));
        }
    }
    samples
}

/// Deterministic jitter seed for a (source, target, time) triple.
pub(crate) fn pair_seed(a: u64, b: u64, now: SimTime) -> u64 {
    let mut h = a.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ b.wrapping_mul(0xC2B2_AE3D_27D4_EB4F);
    h ^= now.as_nanos().wrapping_mul(0x1656_67B1_9E37_79F9);
    h
}

/// The interned exporter set for one cluster: every series the node and
/// ping-mesh exporters emit, pre-interned into the scrape manager's shards.
///
/// Built once (and rebuilt only if the cluster's node table changes); after
/// that, scraping and snapshot assembly ([`ExporterLayout::assemble`]) are
/// pure id-indexed work: no `SeriesKey` construction, no label lookups, no
/// `String` round-trips. Every build stamps a process-unique **generation**
/// so downstream consumers (snapshot scratch reuse) can detect "same layout
/// as last time" with one integer compare instead of a name-table
/// comparison.
#[derive(Debug, Clone)]
pub(crate) struct ExporterLayout {
    /// Process-unique build stamp (never 0).
    pub(crate) generation: u64,
    /// Node names in cluster [`cluster::NodeId`] order.
    pub(crate) node_names: Vec<String>,
    /// Network interface of each node, aligned with `node_names`.
    pub(crate) net_ids: Vec<simnet::NodeId>,
    /// `node_load1` series per node.
    pub(crate) load1: Vec<ShardedSeriesId>,
    /// `node_memory_MemAvailable_bytes` series per node.
    pub(crate) mem: Vec<ShardedSeriesId>,
    /// `node_network_transmit_bytes_total` series per node.
    pub(crate) tx: Vec<ShardedSeriesId>,
    /// `node_network_receive_bytes_total` series per node.
    pub(crate) rx: Vec<ShardedSeriesId>,
    /// `(source index, target index, series)` per ordered ping pair.
    pub(crate) pings: Vec<(u32, u32, ShardedSeriesId)>,
}

impl ExporterLayout {
    /// Intern every exporter series for `cluster` through `intern` and
    /// capture the resulting ids. Intern order matches the sample order of
    /// [`node_exporter_samples`] and [`ping_mesh_samples`] (per node: load,
    /// memory, tx, rx; then the ordered ping pairs) so the store's per-name
    /// buckets stay in cluster order.
    pub(crate) fn build(
        cluster: &ClusterState,
        mut intern: impl FnMut(&SeriesKey, MetricKind) -> ShardedSeriesId,
    ) -> Self {
        let nodes = cluster.nodes();
        let mut layout = ExporterLayout {
            // ordering: Relaxed — the generation is only a uniqueness tag for
            // cache invalidation; no memory is published through it.
            generation: LAYOUT_GENERATION.fetch_add(1, Ordering::Relaxed),
            node_names: Vec::with_capacity(nodes.len()),
            net_ids: Vec::with_capacity(nodes.len()),
            load1: Vec::with_capacity(nodes.len()),
            mem: Vec::with_capacity(nodes.len()),
            tx: Vec::with_capacity(nodes.len()),
            rx: Vec::with_capacity(nodes.len()),
            pings: Vec::with_capacity(nodes.len() * nodes.len().saturating_sub(1)),
        };
        for node in nodes {
            let instance = node.name.as_str();
            layout.node_names.push(node.name.clone());
            layout.net_ids.push(node.net_id);
            layout.load1.push(intern(
                &SeriesKey::per_node(METRIC_NODE_LOAD1, instance),
                MetricKind::Gauge,
            ));
            layout.mem.push(intern(
                &SeriesKey::per_node(METRIC_NODE_MEM_AVAILABLE, instance),
                MetricKind::Gauge,
            ));
            layout.tx.push(intern(
                &SeriesKey::per_node(METRIC_NODE_TX_BYTES, instance),
                MetricKind::Counter,
            ));
            layout.rx.push(intern(
                &SeriesKey::per_node(METRIC_NODE_RX_BYTES, instance),
                MetricKind::Counter,
            ));
        }
        for (a, node_a) in nodes.iter().enumerate() {
            for (b, node_b) in nodes.iter().enumerate() {
                if a == b {
                    continue;
                }
                let id = intern(
                    &SeriesKey::new(
                        METRIC_PING_RTT,
                        &[
                            ("source", node_a.name.as_str()),
                            ("target", node_b.name.as_str()),
                        ],
                    ),
                    MetricKind::Gauge,
                );
                layout.pings.push((a as u32, b as u32, id));
            }
        }
        layout
    }

    /// True when this layout still describes `cluster`'s node table — same
    /// names in the same order *and* the same network interfaces (a rebuilt
    /// cluster can keep node names while permuting `net_id`s; reusing the
    /// cached ids would then scrape the wrong interface's counters).
    pub(crate) fn matches(&self, cluster: &ClusterState) -> bool {
        cluster.names_match(&self.node_names)
            && cluster
                .nodes()
                .iter()
                .zip(&self.net_ids)
                .all(|(node, &net_id)| node.net_id == net_id)
    }

    /// Assemble the scheduler-facing snapshot at `at` straight through the
    /// interned ids over the (locked) shards, reusing `snap`'s storage.
    /// Produces what [`ClusterSnapshot::from_store`] would over one store
    /// holding the same points, minus every name lookup, with the node table
    /// fixed to this layout's nodes. A scratch snapshot last reset by this
    /// same layout build skips the name-table comparison entirely
    /// (generation fast path).
    pub(crate) fn assemble<S: Deref<Target = TimeSeriesStore>>(
        &self,
        shards: &[S],
        at: SimTime,
        rate_window: SimDuration,
        snap: &mut ClusterSnapshot,
    ) {
        let instant = |id: ShardedSeriesId| shards[id.shard as usize].instant_id(id.series, at);
        let rate = |id: ShardedSeriesId| {
            shards[id.shard as usize]
                .rate_id(id.series, at, rate_window)
                .unwrap_or(0.0)
        };
        snap.reset_for_generation(at, self.generation, &self.node_names);
        for i in 0..self.node_names.len() {
            let load = instant(self.load1[i]);
            let mem = instant(self.mem[i]);
            if load.is_none() && mem.is_none() {
                continue;
            }
            snap.set_node_by_id(
                cluster::NodeId(i as u32),
                NodeTelemetry {
                    cpu_load: load.unwrap_or(0.0),
                    memory_available_bytes: mem.unwrap_or(0.0),
                    tx_rate: rate(self.tx[i]),
                    rx_rate: rate(self.rx[i]),
                },
            );
        }
        for &(a, b, id) in &self.pings {
            if let Some(rtt) = instant(id) {
                snap.insert_rtt_by_id(cluster::NodeId(a), cluster::NodeId(b), rtt);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cluster::{Node, Resources};
    use simcore::SimDuration;
    use simnet::{gbps, mbps, FlowId, NodeId, TopologyBuilder};

    fn setup() -> (ClusterState, Network) {
        let mut b = TopologyBuilder::new();
        let s0 = b.add_site("UCSD", SimDuration::from_micros(200), gbps(10.0));
        let s1 = b.add_site("FIU", SimDuration::from_micros(200), gbps(10.0));
        b.add_node("node-1", s0, gbps(1.0), gbps(1.0));
        b.add_node("node-2", s0, gbps(1.0), gbps(1.0));
        b.add_node("node-3", s1, gbps(1.0), gbps(1.0));
        b.connect_sites(s0, s1, SimDuration::from_millis(33), mbps(500.0));
        let network = Network::new(b.build().unwrap());
        let mut cluster = ClusterState::new();
        for (i, name) in ["node-1", "node-2", "node-3"].iter().enumerate() {
            cluster.add_node(Node::new(
                *name,
                NodeId(i),
                Resources::from_cores_and_gib(6, 8),
                if i < 2 { "UCSD" } else { "FIU" },
            ));
        }
        (cluster, network)
    }

    #[test]
    fn node_exporter_emits_four_metrics_per_node() {
        let (cluster, network) = setup();
        let samples = node_exporter_samples(&cluster, &network, SimTime::from_secs(5));
        assert_eq!(samples.len(), 3 * 4);
        let load_samples: Vec<&Sample> = samples
            .iter()
            .filter(|s| s.key.name == METRIC_NODE_LOAD1)
            .collect();
        assert_eq!(load_samples.len(), 3);
        assert!(load_samples.iter().all(|s| s.value > 0.0));
        let mem: Vec<&Sample> = samples
            .iter()
            .filter(|s| s.key.name == METRIC_NODE_MEM_AVAILABLE)
            .collect();
        assert!(mem.iter().all(|s| s.value > 6.0 * 1024.0 * 1024.0 * 1024.0));
        // Idle network: counters are zero.
        assert!(samples
            .iter()
            .filter(|s| s.key.name == METRIC_NODE_TX_BYTES)
            .all(|s| s.value == 0.0));
    }

    #[test]
    fn tx_counters_grow_after_traffic() {
        let (cluster, mut network) = setup();
        let _: FlowId = network.start_flow(
            NodeId(0),
            NodeId(2),
            10_000_000.0,
            simnet::flow::FlowKind::Background,
        );
        network.advance_to(SimTime::from_secs(5));
        let samples = node_exporter_samples(&cluster, &network, SimTime::from_secs(5));
        let tx_node1 = samples
            .iter()
            .find(|s| {
                s.key.name == METRIC_NODE_TX_BYTES && s.key.label("instance") == Some("node-1")
            })
            .unwrap();
        assert!(tx_node1.value > 0.0);
        let rx_node3 = samples
            .iter()
            .find(|s| {
                s.key.name == METRIC_NODE_RX_BYTES && s.key.label("instance") == Some("node-3")
            })
            .unwrap();
        assert!((rx_node3.value - tx_node1.value).abs() < 1.0);
    }

    #[test]
    fn ping_mesh_covers_all_ordered_pairs() {
        let (cluster, network) = setup();
        let samples = ping_mesh_samples(&cluster, &network, SimTime::from_secs(1));
        assert_eq!(samples.len(), 3 * 2);
        // Inter-site pairs see the WAN RTT (~66 ms), intra-site pairs are sub-millisecond.
        let inter = samples
            .iter()
            .find(|s| {
                s.key.label("source") == Some("node-1") && s.key.label("target") == Some("node-3")
            })
            .unwrap();
        assert!(inter.value > 0.05, "inter-site RTT {}", inter.value);
        let intra = samples
            .iter()
            .find(|s| {
                s.key.label("source") == Some("node-1") && s.key.label("target") == Some("node-2")
            })
            .unwrap();
        assert!(intra.value < 0.005, "intra-site RTT {}", intra.value);
        // No self-pings.
        assert!(!samples
            .iter()
            .any(|s| s.key.label("source") == s.key.label("target")));
    }

    #[test]
    fn ping_mesh_is_deterministic_for_same_time() {
        let (cluster, network) = setup();
        let a = ping_mesh_samples(&cluster, &network, SimTime::from_secs(7));
        let b = ping_mesh_samples(&cluster, &network, SimTime::from_secs(7));
        assert_eq!(a, b);
        let c = ping_mesh_samples(&cluster, &network, SimTime::from_secs(8));
        // Jitter varies with the scrape time (values differ even if close).
        assert_ne!(a, c);
    }

    /// A one-shard layout interned into `store`.
    fn build_into(cluster: &ClusterState, store: &mut TimeSeriesStore) -> ExporterLayout {
        ExporterLayout::build(cluster, |key, kind| ShardedSeriesId {
            shard: 0,
            series: store.intern(key, kind),
        })
    }

    #[test]
    fn layout_assembly_matches_generic_store_assembly() {
        let (cluster, network) = setup();
        let mut store = TimeSeriesStore::new();
        let layout = build_into(&cluster, &mut store);
        assert!(layout.matches(&cluster));
        assert_eq!(layout.node_names, cluster.node_names());
        assert_eq!(store.series_count(), 3 * 4 + 3 * 2);
        // Sample-built scrapes land on exactly the ids the layout interned.
        for t in [1u64, 6] {
            let t = SimTime::from_secs(t);
            store.append_all(node_exporter_samples(&cluster, &network, t));
            store.append_all(ping_mesh_samples(&cluster, &network, t));
        }
        assert_eq!(store.series_count(), 3 * 4 + 3 * 2);

        let at = SimTime::from_secs(8);
        let window = SimDuration::from_secs(30);
        let generic = ClusterSnapshot::from_store(&store, at, window);
        let mut fast = ClusterSnapshot::default();
        layout.assemble(&[&store], at, window, &mut fast);
        assert_eq!(fast, generic);
        assert_eq!(
            serde_json::to_string(&fast).unwrap(),
            serde_json::to_string(&generic).unwrap()
        );
        // Scratch reuse (the generation fast path) converges to the same value.
        layout.assemble(&[&store], at, window, &mut fast);
        assert_eq!(fast, generic);
    }

    #[test]
    fn layout_generations_are_unique_and_gate_the_snapshot_fast_path() {
        let (cluster, network) = setup();
        let mut store = TimeSeriesStore::new();
        let layout = build_into(&cluster, &mut store);
        let rebuilt = build_into(&cluster, &mut store);
        // Every build gets a fresh stamp, even over an identical cluster; a
        // clone shares its origin's stamp (same ids, same table).
        assert_ne!(layout.generation, rebuilt.generation);
        assert_ne!(layout.generation, 0);
        assert_eq!(layout.clone().generation, layout.generation);

        let at = SimTime::from_secs(6);
        let window = SimDuration::from_secs(30);
        store.append_all(node_exporter_samples(
            &cluster,
            &network,
            SimTime::from_secs(5),
        ));
        let mut snap = ClusterSnapshot::default();
        layout.assemble(&[&store], at, window, &mut snap);
        assert_eq!(snap.node_names().len(), 3);

        // A mutated layout (smaller cluster) forces the slow path: the
        // scratch's node table must shrink to the new layout's names.
        let mut small = ClusterState::new();
        small.add_node(cluster.nodes()[0].clone());
        let mut small_store = TimeSeriesStore::new();
        let small_layout = build_into(&small, &mut small_store);
        small_store.append_all(node_exporter_samples(
            &small,
            &network,
            SimTime::from_secs(5),
        ));
        small_layout.assemble(&[&small_store], at, window, &mut snap);
        assert_eq!(snap.node_names(), vec!["node-1"]);
        assert!(snap.node("node-2").is_none());
    }

    #[test]
    fn layout_detects_cluster_changes() {
        let (cluster, _network) = setup();
        let layout = build_into(&cluster, &mut TimeSeriesStore::new());
        let mut grown = cluster.clone();
        grown.add_node(Node::new(
            "node-4",
            NodeId(3),
            Resources::from_cores_and_gib(6, 8),
            "FIU",
        ));
        assert!(!layout.matches(&grown));
    }
}
