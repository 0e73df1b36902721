//! The Telemetry Fetcher.
//!
//! *"This component queries the Prometheus metrics server at scheduling time
//! to retrieve the most recent telemetry snapshot."* In this reproduction the
//! metrics server is any [`telemetry::SnapshotSource`] — the scrape manager
//! [`telemetry::ConcurrentScrapeManager`], a [`telemetry::TelemetryReader`]
//! handle observing a live ingest, or a [`telemetry::PublishedSnapshot`]
//! handle over its published epochs; the fetcher wraps it with the
//! scheduler-side query configuration (rate window, staleness tolerance).

use serde::{Deserialize, Serialize};
use simcore::{SimDuration, SimTime};
use telemetry::{ClusterSnapshot, PublishedEpoch, SnapshotSource};

/// Scheduler-side telemetry query configuration.
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct TelemetryFetcher {
    /// Lookback window used to derive throughput rates from byte counters.
    pub rate_window: SimDuration,
}

impl Default for TelemetryFetcher {
    fn default() -> Self {
        TelemetryFetcher {
            rate_window: SimDuration::from_secs(30),
        }
    }
}

impl TelemetryFetcher {
    /// Create a fetcher with an explicit rate window.
    pub fn new(rate_window: SimDuration) -> Self {
        TelemetryFetcher { rate_window }
    }

    /// Fetch the most recent snapshot from the metrics server (any
    /// [`SnapshotSource`]: the scrape manager, a reader handle over a live
    /// ingest, or a published-epoch handle).
    pub fn fetch<S: SnapshotSource + ?Sized>(
        &self,
        metrics_server: &S,
        now: SimTime,
    ) -> ClusterSnapshot {
        let mut snapshot = ClusterSnapshot::default();
        self.fetch_into(metrics_server, now, &mut snapshot);
        snapshot
    }

    /// Fetch into an existing snapshot, reusing its node-table and mesh
    /// storage — the hot path for services that fetch once per decision
    /// burst. Queries run over the metrics server's interned series layout,
    /// so per-fetch cost is independent of retained history and no `String`
    /// is touched.
    pub fn fetch_into<S: SnapshotSource + ?Sized>(
        &self,
        metrics_server: &S,
        now: SimTime,
        snapshot: &mut ClusterSnapshot,
    ) {
        metrics_server.snapshot_into(now, self.rate_window, snapshot);
    }

    /// The metrics server's latest published epoch number, when it publishes
    /// immutable epoch snapshots (`None` for store-backed sources or before
    /// the first publish). One atomic load — the freshness stamp services use
    /// to skip refetching between scrapes entirely.
    pub fn published_epoch<S: SnapshotSource + ?Sized>(&self, metrics_server: &S) -> Option<u64> {
        metrics_server.published_epoch()
    }

    /// Fetch the latest **epoch-published immutable snapshot**, when the
    /// metrics server publishes them ([`telemetry::PublishedSnapshot`] or a
    /// scrape manager with an active publisher): the returned `Arc` is shared,
    /// not copied — an atomic load plus a reference-count bump, regardless of
    /// cluster size, with no store locks touched. Falls back to `None` for
    /// plain store-backed sources, where callers use
    /// [`TelemetryFetcher::fetch_into`].
    pub fn fetch_published<S: SnapshotSource + ?Sized>(
        &self,
        metrics_server: &S,
    ) -> Option<PublishedEpoch> {
        metrics_server.published()
    }
}
