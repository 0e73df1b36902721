//! # telemetry — a Prometheus-like metrics substrate
//!
//! The paper's metrics server is *"a Prometheus instance configured to scrape
//! telemetry from multiple sources, including node-exporter for host-level
//! statistics and custom ping mesh exporters for inter-node network latency"*.
//! This crate rebuilds that pipeline for the simulated cluster:
//!
//! * [`metrics`] — metric samples: a name, a sorted label set, a value and a
//!   timestamp, plus the counter/gauge distinction.
//! * [`store`] — an append-only time-series store with interned
//!   [`store::SeriesId`]s, instant queries, windowed (allocation-free) range
//!   queries, `rate()` over counters and retention-based pruning.
//! * [`exporters`] — the two exporters the paper deploys: a node exporter
//!   (CPU load average, available memory, cumulative tx/rx bytes) and a
//!   full-mesh ping exporter (pairwise RTT), both reading the simulated
//!   cluster and network state. The sample-building functions are the
//!   reference; the scrape manager appends through a pre-interned layout.
//! * [`scrape`] — the scrape configuration and its grid-aligned cadence.
//! * [`ingest`] — the scrape manager, [`ConcurrentScrapeManager`]: drives
//!   all exporters like a Prometheus server's scrape loop and appends into
//!   one store per metric-name shard. Single rounds run inline; whole
//!   schedules run through evaluation workers and per-shard writer workers
//!   behind bounded queues (inline below a work threshold), with an epoch
//!   counter so readers ([`ingest::TelemetryReader`]) only ever observe
//!   fully-committed scrape rounds.
//! * [`publish`] — epoch-published immutable snapshots: the scrape manager
//!   materializes one copy-on-write [`snapshot::ClusterSnapshot`] per
//!   committed round and publish it behind an atomic epoch counter, so any
//!   number of [`publish::PublishedSnapshot`] readers fetch consistent
//!   cluster state without touching the store or its locks.
//! * [`snapshot`] — the query surface the scheduler consumes: a
//!   [`snapshot::ClusterSnapshot`] with per-node CPU/memory/tx/rx (densely
//!   indexed by `cluster::NodeId`) and the `(NodeId, NodeId)`-keyed RTT
//!   mesh, assembled from the store at decision time via any
//!   [`snapshot::SnapshotSource`].

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod exporters;
pub mod ingest;
pub mod metrics;
pub mod publish;
pub mod scrape;
mod shards;
pub mod snapshot;
pub mod store;

pub use exporters::{node_exporter_samples, ping_mesh_samples};
pub use ingest::{ConcurrentScrapeManager, IngestConfig, TelemetryReader};
pub use metrics::{Labels, MetricKind, Sample, SeriesKey};
pub use publish::{PublishedEpoch, PublishedSnapshot, SnapshotPublisher};
pub use scrape::ScrapeConfig;
pub use snapshot::{ClusterSnapshot, IndexedTelemetry, NodeTelemetry, RttMesh, SnapshotSource};
pub use store::{SeriesId, TimeSeriesStore};

/// Metric name for the 1-minute load average (node exporter).
pub const METRIC_NODE_LOAD1: &str = "node_load1";
/// Metric name for available memory in bytes (node exporter).
pub const METRIC_NODE_MEM_AVAILABLE: &str = "node_memory_MemAvailable_bytes";
/// Metric name for cumulative transmitted bytes (node exporter).
pub const METRIC_NODE_TX_BYTES: &str = "node_network_transmit_bytes_total";
/// Metric name for cumulative received bytes (node exporter).
pub const METRIC_NODE_RX_BYTES: &str = "node_network_receive_bytes_total";
/// Metric name for ping-mesh round-trip time in seconds.
pub const METRIC_PING_RTT: &str = "ping_rtt_seconds";
