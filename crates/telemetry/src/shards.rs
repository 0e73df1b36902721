//! Sharding the time-series store by metric name.
//!
//! One flat [`TimeSeriesStore`](crate::TimeSeriesStore) serializes every
//! append and every retention prune on clusters beyond a few hundred nodes.
//! The store's per-metric-name `SeriesId` buckets are the natural split, so
//! the scrape manager keeps one store per shard and routes by metric name:
//!
//! * [`ShardRouter`] — the stable name → shard mapping (FNV-1a over the
//!   metric name, modulo the shard count). Every series of one metric name
//!   lands in one shard, so per-name queries still touch a single bucket.
//! * [`ShardedSeriesId`] — a [`SeriesId`] qualified with its shard: the
//!   interned identity the exporter layout hands out.
//!
//! **Retention equivalence.** A store's retention cutoff is monotone in the
//! newest timestamp it has seen, and a shard only sees its own metric names.
//! Every scrape round appends one sample per exporter series at the round's
//! time, so every occupied shard sees every round time and all shards prune
//! against the same watermark a single store would.

use crate::store::SeriesId;

/// Stable metric-name → shard routing: FNV-1a over the name bytes, modulo the
/// shard count. Deterministic across runs and processes (no `RandomState`),
/// so shard assignment — and therefore store layout — is reproducible.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct ShardRouter {
    shard_count: usize,
}

impl ShardRouter {
    /// A router over `shard_count` shards, clamped to `1..=u32::MAX` so every
    /// shard index fits [`ShardedSeriesId::shard`].
    pub(crate) fn new(shard_count: usize) -> Self {
        ShardRouter {
            shard_count: shard_count.clamp(1, u32::MAX as usize),
        }
    }

    /// Number of shards routed over.
    pub(crate) fn shard_count(&self) -> usize {
        self.shard_count
    }

    /// The shard a metric name routes to. All series of one metric name land
    /// in the same shard, preserving the per-name bucket locality of
    /// `TimeSeriesStore::ids_for_name`.
    pub(crate) fn shard_of(&self, metric_name: &str) -> usize {
        // FNV-1a, 64-bit.
        let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
        for byte in metric_name.as_bytes() {
            hash ^= u64::from(*byte);
            hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
        }
        (hash % self.shard_count as u64) as usize
    }
}

/// Interned series identity in a sharded store: which shard, plus the
/// shard-local [`SeriesId`]. Same role (and same `Copy` discipline) as
/// [`SeriesId`] in one store. The shard index is as wide as the series id,
/// so any configured shard count round-trips (the pair stays 8 bytes).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub(crate) struct ShardedSeriesId {
    /// Index of the owning shard.
    pub(crate) shard: u32,
    /// Series id within that shard's intern table.
    pub(crate) series: SeriesId,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn router_is_stable_and_in_range() {
        for count in [1usize, 2, 5, 8, 100_000] {
            let router = ShardRouter::new(count);
            assert_eq!(router.shard_count(), count);
            for name in ["node_load1", "ping_rtt_seconds", "x", ""] {
                let shard = router.shard_of(name);
                assert!(shard < count);
                assert_eq!(shard, router.shard_of(name), "routing must be stable");
            }
        }
        // Zero shards clamps to one.
        assert_eq!(ShardRouter::new(0).shard_count(), 1);
        assert_eq!(ShardRouter::new(0).shard_of("anything"), 0);
    }
}
