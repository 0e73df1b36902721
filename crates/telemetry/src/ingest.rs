//! The scrape manager: the Prometheus server's scrape loop, sharded and
//! concurrent.
//!
//! [`ConcurrentScrapeManager`] is the crate's one scrape manager. It owns one
//! [`TimeSeriesStore`] per shard and a pre-interned exporter layout, so
//! steady-state scrapes append raw values with zero key construction and
//! snapshot assembly runs entirely over interned ids. Single rounds
//! ([`ConcurrentScrapeManager::scrape`] /
//! [`ConcurrentScrapeManager::scrape_if_due`], the simulated world's loop)
//! run inline on the caller thread; whole schedules
//! ([`ConcurrentScrapeManager::ingest`]) can overlap with decision bursts:
//!
//! * **Shards.** The store is split by metric name behind per-shard locks
//!   (a stable FNV-1a router), so appends and retention pruning of different
//!   metric names never contend.
//! * **Writer pipeline.** [`ConcurrentScrapeManager::ingest`] runs a scrape
//!   schedule through a two-stage pipeline over `crossbeam` scoped threads
//!   and bounded channels: *evaluation workers* run the exporters for whole
//!   scrape rounds in parallel (the exporters are pure functions of
//!   `(cluster, network, t)`, so rounds evaluate independently), and
//!   *per-shard writer workers* drain bounded queues of evaluated batches
//!   into their shard. A dispatcher commits batches strictly in schedule
//!   order, so the stored bytes are identical to a sequential scrape no
//!   matter how the threads interleave.
//! * **Epoch counter.** Commits are bracketed by a seqlock-style generation
//!   counter (odd = round in flight). Readers ([`TelemetryReader`],
//!   obtainable while ingest runs on another thread) retry until they observe
//!   the same even epoch before and after assembly — a snapshot therefore
//!   reflects only fully-committed scrape rounds, never a torn one.
//! * **Adaptive fallback.** Schedules whose rounds evaluate fewer series than
//!   [`IngestConfig::sync_work_threshold`] run inline, round by round, with
//!   no worker pool: small worlds never pay cross-thread overhead.
//!
//! Whichever path runs, the stored points equal what the reference exporters
//! ([`crate::node_exporter_samples`], [`crate::ping_mesh_samples`]) would
//! append to one store, and snapshots equal [`ClusterSnapshot::from_store`]
//! over that store.

use crate::exporters::ExporterLayout;
use crate::publish::{PublishedEpoch, PublishedSnapshot, SnapshotPublisher};
use crate::scrape::{ScrapeCadence, ScrapeConfig};
use crate::shards::{ShardRouter, ShardedSeriesId};
use crate::snapshot::{ClusterSnapshot, SnapshotSource};
use crate::store::{SeriesId, TimeSeriesStore};
use cluster::ClusterState;
use crossbeam::channel;
use parking_lot::{Mutex, MutexGuard};
use simcore::{SimDuration, SimTime};
use simnet::Network;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;

/// One evaluated append: shard-local series, value, timestamp.
type Append = (SeriesId, f64, SimTime);

/// Tuning knobs of the concurrent ingest pipeline.
#[derive(Debug, Clone, Copy)]
pub struct IngestConfig {
    /// Number of store shards (metric names are routed across these).
    pub shard_count: usize,
    /// Number of exporter-evaluation workers used by
    /// [`ConcurrentScrapeManager::ingest`] (scoped per call: they borrow the
    /// cluster and network).
    pub eval_workers: usize,
    /// Number of long-lived writer workers draining append batches into the
    /// shards (each worker owns a fixed subset of shards).
    pub writer_workers: usize,
    /// Bounded-queue depth between pipeline stages (in chunks): the
    /// backpressure that keeps evaluation from outrunning the writers.
    pub queue_depth: usize,
    /// Scrape rounds committed per epoch flip. Batching rounds amortizes the
    /// per-commit channel and epoch traffic; readers still only ever observe
    /// whole rounds (a chunk boundary is a round boundary).
    pub chunk_rounds: usize,
    /// Adaptive fallback: when one scrape round evaluates fewer than this
    /// many series (exporter series per round — `4 × nodes + ping pairs`),
    /// [`ConcurrentScrapeManager::ingest`] routes the schedule through the
    /// synchronous inline path instead of the worker pipeline. Small worlds
    /// (the 8-node paper testbed evaluates 88 series per round) sit below
    /// the cross-thread overhead floor, so the fallback makes the concurrent
    /// manager unconditionally safe to default to. Set to 0 to force the
    /// pipeline regardless of size.
    pub sync_work_threshold: usize,
}

impl Default for IngestConfig {
    fn default() -> Self {
        let cores = simcore::parallel::default_workers();
        IngestConfig {
            shard_count: 8,
            // On a two-core box a single evaluation lane (inline on the
            // dispatcher, overlapped with the writer) beats spawning
            // evaluation threads; wider machines fan evaluation out.
            eval_workers: if cores <= 2 { 1 } else { (cores - 1).min(8) },
            writer_workers: (cores / 2).clamp(1, 8),
            queue_depth: 4,
            chunk_rounds: 32,
            // Between the 8-node paper world (88 series/round, loses to
            // sequential even on wide boxes) and the 64-node world
            // (4288 series/round, where the pipeline wins ≥2× on 2 cores).
            sync_work_threshold: 1024,
        }
    }
}

/// State shared between the ingest side and every [`TelemetryReader`].
#[derive(Debug)]
struct IngestShared {
    /// Seqlock-style commit counter: odd while a round (or chunk of rounds)
    /// is being applied to the shards, even when fully committed.
    epoch: AtomicU64,
    router: ShardRouter,
    /// One flat store per shard, each behind its own lock.
    shards: Vec<Mutex<TimeSeriesStore>>,
    /// The current exporter layout (swapped atomically on cluster changes;
    /// readers clone the `Arc` and never see a half-built layout).
    layout: Mutex<Option<Arc<ExporterLayout>>>,
}

impl IngestShared {
    fn new(config: &ScrapeConfig, ingest: &IngestConfig) -> Self {
        let router = ShardRouter::new(ingest.shard_count);
        let shards = (0..router.shard_count())
            .map(|_| match config.retention {
                Some(r) => Mutex::new(TimeSeriesStore::with_retention(r)),
                None => Mutex::new(TimeSeriesStore::new()),
            })
            .collect();
        IngestShared {
            epoch: AtomicU64::new(0),
            router,
            shards,
            layout: Mutex::new(None),
        }
    }

    /// A deep, independent copy of the committed state: copied shards and
    /// the same (immutable) layout. Only reachable through
    /// `&ConcurrentScrapeManager`, which no commit can overlap, so the copy
    /// starts at a fresh even epoch.
    fn deep_copy(&self) -> Self {
        IngestShared {
            epoch: AtomicU64::new(0),
            router: self.router,
            shards: self
                .shards
                .iter()
                .map(|shard| Mutex::new(shard.lock().clone()))
                .collect(),
            layout: Mutex::new(self.layout.lock().clone()),
        }
    }

    /// Mark a commit as in flight (epoch becomes odd).
    fn begin_commit(&self) {
        // ordering: AcqRel — the Release half orders the odd flip before any
        // shard mutation; the Acquire half pairs with `end_commit`.
        self.epoch.fetch_add(1, Ordering::AcqRel);
    }

    /// Mark the in-flight commit as complete (epoch becomes even).
    fn end_commit(&self) {
        // ordering: AcqRel — the Release half publishes every shard write of
        // this commit before the even flip readers wait for.
        self.epoch.fetch_add(1, Ordering::AcqRel);
    }

    /// Assemble a consistent snapshot: retry until the same even epoch is
    /// observed before and after reading the shards, so only fully-committed
    /// rounds are ever visible.
    fn snapshot_into(&self, at: SimTime, rate_window: SimDuration, snap: &mut ClusterSnapshot) {
        let mut waits = 0u32;
        loop {
            // ordering: Acquire pairs with the AcqRel epoch flips so an even
            // value here means the prior commit's shard writes are visible.
            let before = self.epoch.load(Ordering::Acquire);
            if before & 1 == 1 {
                // Apply phases last microseconds: spin first, fall back to
                // yielding only when the wait drags on (e.g. an oversubscribed
                // box where the writers lost the CPU mid-apply).
                waits += 1;
                if waits > 512 {
                    std::thread::yield_now();
                } else {
                    std::hint::spin_loop();
                }
                continue;
            }
            let layout = self.layout.lock().clone();
            match layout {
                None => {
                    // No scrape yet: an empty snapshot stamped with `at`,
                    // exactly what an empty store assembles.
                    snap.clear();
                    snap.time = at;
                }
                Some(layout) => {
                    // Lock every shard in index order (writers only ever hold
                    // one shard lock at a time, so this cannot deadlock) and
                    // assemble through the interned ids.
                    let guards: Vec<MutexGuard<'_, TimeSeriesStore>> =
                        self.shards.iter().map(Mutex::lock).collect();
                    layout.assemble(&guards, at, rate_window, snap);
                }
            }
            // ordering: Acquire — an unchanged even epoch proves no commit
            // overlapped the reads above, so the assembled snapshot is
            // consistent.
            let after = self.epoch.load(Ordering::Acquire);
            if before == after {
                return;
            }
        }
    }
}

/// Evaluate one scrape round (every exporter series at `now`) into per-shard
/// append batches, appending onto `batches`. Pure with respect to the shards:
/// exporters only read `(cluster, network, now)`, which is what lets rounds
/// evaluate concurrently.
fn evaluate_round_into(
    layout: &ExporterLayout,
    cluster: &ClusterState,
    network: &Network,
    now: SimTime,
    batches: &mut [Vec<Append>],
) {
    for (i, node) in cluster.nodes().iter().enumerate() {
        let counters = network.counters(layout.net_ids[i]);
        let push = |batches: &mut [Vec<Append>], id: ShardedSeriesId, value: f64| {
            batches[id.shard as usize].push((id.series, value, now));
        };
        push(batches, layout.load1[i], node.cpu_load());
        push(batches, layout.mem[i], node.memory_available());
        push(batches, layout.tx[i], counters.tx_bytes);
        push(batches, layout.rx[i], counters.rx_bytes);
    }
    for &(a, b, id) in &layout.pings {
        let (src, dst) = (layout.net_ids[a as usize], layout.net_ids[b as usize]);
        let seed = crate::exporters::pair_seed(src.0 as u64, dst.0 as u64, now);
        let rtt = network.current_rtt(src, dst, seed);
        batches[id.shard as usize].push((id.series, rtt.as_secs_f64(), now));
    }
}

/// Per-chunk commit coordination between the writer workers of one chunk:
/// the *lead* writer flips the epoch odd before any shard is touched, the
/// last writer to finish flips it even. Readers therefore see the epoch odd
/// exactly for the duration of the apply phase — never while the dispatcher
/// is evaluating the next chunk.
#[derive(Debug)]
struct ChunkToken {
    /// Set by the lead writer once the epoch has been flipped odd; the other
    /// writers of the chunk spin (nanoseconds) until it is.
    begin_done: std::sync::atomic::AtomicBool,
    /// Writers still to finish their part of the chunk.
    pending: AtomicUsize,
}

/// One dispatch to a writer worker: the chunk's commit token, whether this
/// worker leads the commit, and the `(shard, appends)` batches for the
/// shards it owns.
struct WriterMsg {
    token: Arc<ChunkToken>,
    lead: bool,
    groups: Vec<(usize, Vec<Append>)>,
}

impl std::fmt::Debug for WriterMsg {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("WriterMsg { .. }")
    }
}

/// The long-lived writer workers: spawned once (lazily, on the first
/// [`ConcurrentScrapeManager::ingest`]) and kept across calls, because
/// thread spawn costs dwarf a scrape round. Each worker owns a fixed subset
/// of shards (`assignment[shard] → worker`), drains its bounded queue and
/// acks every applied batch.
#[derive(Debug)]
struct WriterPool {
    txs: Vec<channel::Sender<WriterMsg>>,
    ack_rx: channel::Receiver<()>,
    /// Shard index → owning writer index.
    assignment: Vec<usize>,
    handles: Vec<std::thread::JoinHandle<()>>,
}

impl WriterPool {
    fn spawn(shared: &Arc<IngestShared>, writer_workers: usize, queue_depth: usize) -> Self {
        let shard_count = shared.shards.len();
        let workers = writer_workers.clamp(1, shard_count);
        let assignment: Vec<usize> = (0..shard_count).map(|shard| shard % workers).collect();
        let (ack_tx, ack_rx) = channel::bounded::<()>(workers.max(1));
        let mut txs = Vec::with_capacity(workers);
        let mut handles = Vec::with_capacity(workers);
        for _ in 0..workers {
            let (tx, rx) = channel::bounded::<WriterMsg>(queue_depth.max(1));
            txs.push(tx);
            let ack_tx = ack_tx.clone();
            let shared = Arc::clone(shared);
            handles.push(std::thread::spawn(move || {
                while let Ok(msg) = rx.recv() {
                    if msg.lead {
                        shared.begin_commit();
                        // ordering: Release orders the odd epoch flip above
                        // before the flag the follower writers wait on.
                        msg.token.begin_done.store(true, Ordering::Release);
                    } else {
                        // The lead writer of this chunk flips the epoch odd
                        // before anyone touches a shard; wait for it. The
                        // window is nanoseconds unless the lead lost the CPU,
                        // so fall back to yielding rather than burning the
                        // core the lead needs.
                        let mut spins = 0u32;
                        // ordering: Acquire pairs with the lead's Release
                        // store, so the epoch is odd before we touch a shard.
                        while !msg.token.begin_done.load(Ordering::Acquire) {
                            spins += 1;
                            if spins > 512 {
                                std::thread::yield_now();
                            } else {
                                std::hint::spin_loop();
                            }
                        }
                    }
                    for (shard, appends) in msg.groups {
                        let mut store = shared.shards[shard].lock();
                        for (id, value, t) in appends {
                            store.append_value_deferred_prune(id, value, t);
                        }
                        // One prune per shard per chunk instead of one per
                        // append: the monotone cutoff makes the final live
                        // window identical, and nothing observes the
                        // intermediate states of an uncommitted chunk.
                        store.prune_all_to_watermark();
                    }
                    // ordering: AcqRel — Release publishes this writer's shard
                    // appends; Acquire on the final decrement makes every
                    // peer's appends visible before `end_commit` flips even.
                    if msg.token.pending.fetch_sub(1, Ordering::AcqRel) == 1 {
                        shared.end_commit();
                    }
                    if ack_tx.send(()).is_err() {
                        break;
                    }
                }
            }));
        }
        WriterPool {
            txs,
            ack_rx,
            assignment,
            handles,
        }
    }

    /// Dispatch one chunk's batches to the owning writers (the first one
    /// leads the commit), returning how many acks to collect. The commit
    /// itself — epoch flips included — is performed by the writers, so the
    /// caller is free to evaluate the next chunk while this one applies.
    fn dispatch(&self, batches: Vec<Vec<Append>>) -> usize {
        let mut msgs: Vec<Vec<(usize, Vec<Append>)>> =
            (0..self.txs.len()).map(|_| Vec::new()).collect();
        for (shard, appends) in batches.into_iter().enumerate() {
            if !appends.is_empty() {
                msgs[self.assignment[shard]].push((shard, appends));
            }
        }
        let dispatched = msgs.iter().filter(|m| !m.is_empty()).count();
        if dispatched == 0 {
            return 0;
        }
        let token = Arc::new(ChunkToken {
            begin_done: std::sync::atomic::AtomicBool::new(false),
            pending: AtomicUsize::new(dispatched),
        });
        let mut lead = true;
        for (writer, groups) in msgs.into_iter().enumerate() {
            if groups.is_empty() {
                continue;
            }
            self.txs[writer]
                .send(WriterMsg {
                    token: Arc::clone(&token),
                    lead,
                    groups,
                })
                .expect("writer workers alive");
            lead = false;
        }
        dispatched
    }
}

/// The scrape manager: drives the exporters on a grid-aligned cadence and
/// stores the samples in a store sharded by metric name.
///
/// Single rounds commit inline through the epoch protocol, and
/// [`ConcurrentScrapeManager::ingest`] pipelines whole scrape schedules
/// across worker threads (or inline, below the work threshold). Hand a
/// [`TelemetryReader`] to the scheduler (it implements [`SnapshotSource`])
/// and decision bursts overlap with scraping.
///
/// The manager is not `Clone`: a field-wise clone would alias the shards
/// through their shared `Arc`. [`ConcurrentScrapeManager::fork`] is the deep
/// copy.
#[derive(Debug)]
pub struct ConcurrentScrapeManager {
    config: ScrapeConfig,
    ingest: IngestConfig,
    shared: Arc<IngestShared>,
    layout: Option<Arc<ExporterLayout>>,
    writers: Option<WriterPool>,
    cadence: ScrapeCadence,
    scrape_count: u64,
    /// Epoch publisher, activated lazily by
    /// [`ConcurrentScrapeManager::published_handle`]: once a handle has been handed
    /// out, every committed round (or pipelined chunk) also publishes an
    /// immutable snapshot, so published readers never touch the shards.
    publisher: Option<SnapshotPublisher>,
    /// Timestamp of the last committed scrape round (publish-on-activation:
    /// a handle requested after scrapes immediately observes current state).
    last_scrape: Option<SimTime>,
    /// Per-shard append buffers carried across inline rounds, so a steady
    /// scrape loop reuses their capacity instead of allocating per round.
    batches: Vec<Vec<Append>>,
}

impl Drop for ConcurrentScrapeManager {
    fn drop(&mut self) {
        if let Some(pool) = self.writers.take() {
            // Disconnect the queues so the workers observe shutdown, then
            // join them (they only hold `Arc`s, but a clean join keeps the
            // thread count honest in tests and benches).
            drop(pool.txs);
            drop(pool.ack_rx);
            for handle in pool.handles {
                let _ = handle.join();
            }
        }
    }
}

impl ConcurrentScrapeManager {
    /// Create a manager with the given scrape configuration and default
    /// ingest tuning.
    pub fn new(config: ScrapeConfig) -> Self {
        Self::with_ingest(config, IngestConfig::default())
    }

    /// Create a manager with explicit ingest tuning.
    pub fn with_ingest(config: ScrapeConfig, ingest: IngestConfig) -> Self {
        let shared = Arc::new(IngestShared::new(&config, &ingest));
        let batches = vec![Vec::new(); shared.router.shard_count()];
        ConcurrentScrapeManager {
            config,
            ingest,
            shared,
            layout: None,
            writers: None,
            cadence: ScrapeCadence::default(),
            scrape_count: 0,
            publisher: None,
            last_scrape: None,
            batches,
        }
    }

    /// A deep, independent copy: copied shards, no writer pool (the fork's
    /// own first pipelined `ingest` spawns one) and a detached publisher
    /// seeded with this manager's latest epoch. Readers and published handles
    /// taken from either side only ever observe that side — what a simulated
    /// world needs to replay the same scrape history once per candidate.
    pub fn fork(&self) -> Self {
        ConcurrentScrapeManager {
            config: self.config.clone(),
            ingest: self.ingest,
            shared: Arc::new(self.shared.deep_copy()),
            layout: self.layout.clone(),
            writers: None,
            cadence: self.cadence,
            scrape_count: self.scrape_count,
            // `SnapshotPublisher::clone` detaches: fresh epochs, seeded with
            // the original's latest snapshot.
            publisher: self.publisher.clone(),
            last_scrape: self.last_scrape,
            batches: vec![Vec::new(); self.batches.len()],
        }
    }

    /// The scrape configuration.
    pub fn config(&self) -> &ScrapeConfig {
        &self.config
    }

    /// The ingest tuning.
    pub fn ingest_config(&self) -> &IngestConfig {
        &self.ingest
    }

    /// Number of scrape rounds performed.
    pub fn scrape_count(&self) -> u64 {
        self.scrape_count
    }

    /// When the next periodic scrape is due (immediately if never scraped).
    pub fn next_scrape_due(&self) -> SimTime {
        self.cadence.next_due()
    }

    /// Number of distinct series across all shards.
    pub fn series_count(&self) -> usize {
        self.shared
            .shards
            .iter()
            .map(|s| s.lock().series_count())
            .sum()
    }

    /// Total number of retained points across all shards.
    pub fn point_count(&self) -> usize {
        self.shared
            .shards
            .iter()
            .map(|s| s.lock().point_count())
            .sum()
    }

    /// A cheap cloneable read handle usable from other threads while this
    /// manager ingests.
    pub fn reader(&self) -> TelemetryReader {
        TelemetryReader {
            shared: Arc::clone(&self.shared),
        }
    }

    /// A cheap cloneable handle over **epoch-published immutable snapshots**
    /// (see [`crate::publish`]): one consistent [`ClusterSnapshot`] per
    /// committed round, resolved by readers with a single atomic load and an
    /// `Arc` clone — no shard locks, no waiting out in-flight commits, so
    /// fetch latency is flat under live ingest.
    ///
    /// Publishing activates on the first call (scrape managers without a
    /// handle outstanding pay nothing); state committed before activation is
    /// published immediately, so the handle never lags the store at the
    /// moment it is taken. Snapshots are published at each committed round's
    /// own scrape time with the configured rate window — byte-identical to
    /// what [`SnapshotSource::snapshot_into`] would assemble at that time.
    pub fn published_handle(&mut self) -> PublishedSnapshot {
        if self.publisher.is_none() {
            let mut publisher = SnapshotPublisher::new();
            if let Some(at) = self.last_scrape {
                let shared = &self.shared;
                let rate_window = self.config.rate_window;
                publisher.publish_with(|snap| shared.snapshot_into(at, rate_window, snap));
            }
            self.publisher = Some(publisher);
        }
        self.publisher.as_ref().expect("publisher active").handle()
    }

    /// Record a committed round at `at` and, when publishing is active,
    /// materialize + publish the next epoch's snapshot (copy-on-write over
    /// the previous epoch; in steady state only the values that scrape
    /// changed are rewritten, via the layout-generation fast path).
    fn publish_round(&mut self, at: SimTime) {
        self.last_scrape = Some(at);
        if let Some(publisher) = &mut self.publisher {
            let shared = &self.shared;
            let rate_window = self.config.rate_window;
            publisher.publish_with(|snap| shared.snapshot_into(at, rate_window, snap));
        }
    }

    /// Build (or rebuild) the sharded exporter layout when the cluster's node
    /// table changed, swapping it in atomically for readers.
    fn ensure_layout(&mut self, cluster: &ClusterState) -> Arc<ExporterLayout> {
        let rebuild = match &self.layout {
            Some(layout) => !layout.matches(cluster),
            None => true,
        };
        if rebuild {
            let shared = &self.shared;
            let layout = Arc::new(ExporterLayout::build(cluster, |key, kind| {
                let shard = shared.router.shard_of(&key.name);
                ShardedSeriesId {
                    // The router clamps its shard count to the u32 range.
                    shard: shard as u32,
                    series: shared.shards[shard].lock().intern(key, kind),
                }
            }));
            *self.shared.layout.lock() = Some(Arc::clone(&layout));
            self.layout = Some(layout);
        }
        self.layout.as_ref().expect("layout built above").clone()
    }

    /// One scrape round on the caller thread: evaluate every exporter series
    /// at `now` into the carried per-shard buffers, apply them under the
    /// epoch protocol (draining each buffer in place, so its capacity is
    /// reused by the next round), then publish and count the round. Cadence
    /// bookkeeping stays with the callers.
    fn scrape_round(
        &mut self,
        layout: &ExporterLayout,
        cluster: &ClusterState,
        network: &Network,
        now: SimTime,
    ) {
        evaluate_round_into(layout, cluster, network, now, &mut self.batches);
        self.shared.begin_commit();
        for (shard, appends) in self.batches.iter_mut().enumerate() {
            if appends.is_empty() {
                continue;
            }
            let mut store = self.shared.shards[shard].lock();
            for (id, value, t) in appends.drain(..) {
                store.append_value(id, value, t);
            }
        }
        self.shared.end_commit();
        self.publish_round(now);
        self.scrape_count += 1;
    }

    /// Perform one explicit scrape round at `now`, re-anchoring the periodic
    /// grid at `now`.
    pub fn scrape(&mut self, cluster: &ClusterState, network: &Network, now: SimTime) {
        let layout = self.ensure_layout(cluster);
        self.scrape_round(&layout, cluster, network, now);
        self.cadence.reanchor(now, self.config.interval);
    }

    /// Scrape only if the next grid-aligned due time has been reached.
    /// Returns `true` when a scrape happened. The next due time advances on
    /// the schedule grid (`due + k·interval`), so a delayed tick does not
    /// drift the due times of subsequent scrapes.
    pub fn scrape_if_due(
        &mut self,
        cluster: &ClusterState,
        network: &Network,
        now: SimTime,
    ) -> bool {
        if !self.cadence.is_due(now) {
            return false;
        }
        let layout = self.ensure_layout(cluster);
        self.scrape_round(&layout, cluster, network, now);
        self.cadence.advance_on_grid(now, self.config.interval);
        true
    }

    /// Run a whole scrape schedule (`times` must be sorted ascending) through
    /// the concurrent pipeline: exporter evaluation for chunks of rounds runs
    /// in parallel (on scoped workers, or inline on the dispatcher when
    /// `eval_workers <= 1`), long-lived per-shard writer workers drain
    /// bounded queues into their shards, and chunks commit strictly in
    /// schedule order under the epoch protocol. The dispatcher always
    /// evaluates/fetches the *next* chunk before waiting for the previous
    /// chunk's acks, so evaluation and shard appends overlap even with a
    /// single evaluation lane.
    ///
    /// Store contents afterwards are **byte-identical** to calling
    /// [`ConcurrentScrapeManager::scrape`] once per time: parallelism changes
    /// wall-clock, never results. Readers holding a [`TelemetryReader`]
    /// observe only whole committed rounds throughout.
    pub fn ingest(&mut self, cluster: &ClusterState, network: &Network, times: &[SimTime]) {
        if times.is_empty() {
            return;
        }
        let layout = self.ensure_layout(cluster);

        // Adaptive fallback: a round on a small world evaluates so few
        // series that channel and epoch traffic dominates — route it through
        // the synchronous inline path. Store contents, committed-round
        // visibility and cadence are identical either way (the crossover is
        // pinned byte-identical by test), only the wall-clock differs.
        let series_per_round = 4 * cluster.node_count() + layout.pings.len();
        if series_per_round < self.ingest.sync_work_threshold {
            for &t in times {
                self.scrape_round(&layout, cluster, network, t);
            }
            self.cadence
                .reanchor(*times.last().expect("non-empty"), self.config.interval);
            return;
        }

        if self.writers.is_none() {
            self.writers = Some(WriterPool::spawn(
                &self.shared,
                self.ingest.writer_workers,
                self.ingest.queue_depth,
            ));
        }
        let pool = self.writers.as_ref().expect("writer pool spawned above");
        let shard_count = self.shared.router.shard_count();
        let chunk_rounds = self.ingest.chunk_rounds.max(1);
        let chunks: Vec<&[SimTime]> = times.chunks(chunk_rounds).collect();
        let eval_workers = self.ingest.eval_workers.clamp(1, chunks.len());
        let queue_depth = self.ingest.queue_depth.max(1);
        let layout = &layout;
        let cursor = AtomicUsize::new(0);
        // Publishing, when active, happens on the dispatcher thread between
        // chunks — right after a chunk's acks are collected the epoch is even
        // and the writers are idle, so assembly never contends with appends.
        // A chunk boundary is a round boundary, so every published epoch is a
        // whole committed prefix of the schedule.
        let mut publisher = self.publisher.take();
        let publish_shared = Arc::clone(&self.shared);
        let rate_window = self.config.rate_window;

        // Exact per-shard series counts, so chunk batches are allocated at
        // final size instead of growing through reallocation.
        let mut series_per_shard = vec![0usize; shard_count];
        for ids in [&layout.load1, &layout.mem, &layout.tx, &layout.rx] {
            for id in ids.iter() {
                series_per_shard[id.shard as usize] += 1;
            }
        }
        for &(_, _, id) in &layout.pings {
            series_per_shard[id.shard as usize] += 1;
        }
        let series_per_shard = &series_per_shard;

        let evaluate_chunk = move |rounds: &[SimTime]| {
            let mut batches: Vec<Vec<Append>> = series_per_shard
                .iter()
                .map(|&series| Vec::with_capacity(series * rounds.len()))
                .collect();
            for &t in rounds {
                evaluate_round_into(layout, cluster, network, t, &mut batches);
            }
            batches
        };

        crossbeam::thread::scope(|scope| {
            // Optional stage 1: scoped evaluation workers pull chunk indices
            // from a cursor and evaluate whole rounds out of order (scoped
            // per call because they borrow the cluster and network). With a
            // single evaluation lane the dispatcher evaluates inline instead
            // and no thread is spawned at all.
            let eval_rx = if eval_workers > 1 {
                let (eval_tx, eval_rx) =
                    channel::bounded::<(usize, Vec<Vec<Append>>)>(queue_depth * eval_workers);
                let cursor = &cursor;
                let chunks_ref = &chunks;
                for _ in 0..eval_workers {
                    let eval_tx = eval_tx.clone();
                    scope.spawn(move |_| loop {
                        // ordering: Relaxed — the counter only claims chunk
                        // indices; the channel send below synchronizes the
                        // evaluated payload.
                        let idx = cursor.fetch_add(1, Ordering::Relaxed);
                        if idx >= chunks_ref.len() {
                            break;
                        }
                        if eval_tx
                            .send((idx, evaluate_chunk(chunks_ref[idx])))
                            .is_err()
                        {
                            break;
                        }
                    });
                }
                Some(eval_rx)
            } else {
                None
            };

            // Dispatcher (this thread): obtain chunks in schedule order,
            // collect the previous chunk's acks only *after* the next chunk
            // is in hand, and hand commits to the writer pool. The epoch is
            // odd exactly while writers apply, so concurrent readers only
            // ever wait out an apply phase, never an evaluation.
            let mut pending: BTreeMap<usize, Vec<Vec<Append>>> = BTreeMap::new();
            let mut inflight = 0usize;
            for (next, chunk) in chunks.iter().enumerate() {
                let batches = match &eval_rx {
                    None => evaluate_chunk(chunk),
                    Some(eval_rx) => loop {
                        if let Some(batches) = pending.remove(&next) {
                            break batches;
                        }
                        let (idx, batches) = eval_rx.recv().expect("evaluation workers alive");
                        if idx == next {
                            break batches;
                        }
                        pending.insert(idx, batches);
                    },
                };
                for _ in 0..inflight {
                    pool.ack_rx.recv().expect("writer workers alive");
                }
                if next > 0 {
                    if let Some(publisher) = publisher.as_mut() {
                        let at = *chunks[next - 1].last().expect("chunks are non-empty");
                        publisher.publish_with(|snap| {
                            publish_shared.snapshot_into(at, rate_window, snap)
                        });
                    }
                }
                inflight = pool.dispatch(batches);
            }
            for _ in 0..inflight {
                pool.ack_rx.recv().expect("writer workers alive");
            }
            if let Some(publisher) = publisher.as_mut() {
                let at = *times.last().expect("non-empty");
                publisher.publish_with(|snap| publish_shared.snapshot_into(at, rate_window, snap));
            }
        })
        .expect("ingest workers must not panic");

        self.publisher = publisher;
        self.last_scrape = Some(*times.last().expect("non-empty"));
        self.scrape_count += times.len() as u64;
        self.cadence
            .reanchor(*times.last().expect("non-empty"), self.config.interval);
    }
}

impl SnapshotSource for ConcurrentScrapeManager {
    fn snapshot_into(&self, at: SimTime, rate_window: SimDuration, snap: &mut ClusterSnapshot) {
        self.shared.snapshot_into(at, rate_window, snap);
    }

    fn published(&self) -> Option<PublishedEpoch> {
        self.publisher.as_ref().and_then(SnapshotPublisher::latest)
    }

    fn published_epoch(&self) -> Option<u64> {
        match self.publisher.as_ref().map_or(0, SnapshotPublisher::epoch) {
            0 => None,
            epoch => Some(epoch),
        }
    }
}

/// A cloneable, thread-safe read handle over a [`ConcurrentScrapeManager`]'s
/// shards. Snapshots observe only fully-committed scrape rounds (epoch
/// protocol), even while ingest is running on another thread.
#[derive(Debug, Clone)]
pub struct TelemetryReader {
    shared: Arc<IngestShared>,
}

impl SnapshotSource for TelemetryReader {
    fn snapshot_into(&self, at: SimTime, rate_window: SimDuration, snap: &mut ClusterSnapshot) {
        self.shared.snapshot_into(at, rate_window, snap);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cluster::{Node, Resources};
    use simnet::{gbps, mbps, NodeId, TopologyBuilder};

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
                NodeId(i),
                Resources::from_cores_and_gib(6, 8),
                if i % 2 == 0 { "A" } else { "B" },
            ));
        }
        (cluster, network)
    }

    /// The reference path: exporter-built samples appended to one store.
    fn naive_store(
        cluster: &ClusterState,
        network: &Network,
        times: &[SimTime],
    ) -> TimeSeriesStore {
        let mut store = TimeSeriesStore::with_retention(
            ScrapeConfig::default()
                .retention
                .expect("default retention"),
        );
        for &t in times {
            store.append_all(crate::node_exporter_samples(cluster, network, t));
            store.append_all(crate::ping_mesh_samples(cluster, network, t));
        }
        store
    }

    #[test]
    fn single_scrapes_match_the_naive_store() {
        let (cluster, network) = setup(3);
        let times: Vec<SimTime> = (0..6u64).map(|i| SimTime::from_secs(i * 5)).collect();
        let mut manager = ConcurrentScrapeManager::new(ScrapeConfig::default());
        for &t in &times {
            manager.scrape(&cluster, &network, t);
        }
        let reference = naive_store(&cluster, &network, &times);
        assert_eq!(manager.scrape_count(), 6);
        assert_eq!(manager.point_count(), reference.point_count());
        assert_eq!(manager.series_count(), reference.series_count());
        let at = SimTime::from_secs(27);
        let window = SimDuration::from_secs(30);
        let snap = SnapshotSource::snapshot(&manager, at, window);
        assert_eq!(
            serde_json::to_string(&snap).unwrap(),
            serde_json::to_string(&ClusterSnapshot::from_store(&reference, at, window)).unwrap()
        );
    }

    #[test]
    fn inline_rounds_reuse_the_carried_batch_buffers() {
        let (cluster, network) = setup(3);
        let mut manager = ConcurrentScrapeManager::new(ScrapeConfig::default());
        assert_eq!(manager.batches.len(), manager.ingest_config().shard_count);
        manager.scrape(&cluster, &network, SimTime::from_secs(5));
        // Drained in place: empty, but the capacity stays for the next round.
        assert!(manager.batches.iter().all(Vec::is_empty));
        let capacity: Vec<usize> = manager.batches.iter().map(Vec::capacity).collect();
        assert!(capacity.iter().sum::<usize>() >= 3 * 4 + 3 * 2);
        manager.scrape_if_due(&cluster, &network, SimTime::from_secs(10));
        manager.ingest(&cluster, &network, &[SimTime::from_secs(15)]);
        let after: Vec<usize> = manager.batches.iter().map(Vec::capacity).collect();
        assert_eq!(after, capacity);
        assert_eq!(manager.scrape_count(), 3);
    }

    /// Serialized snapshot of a manager at `at` over the default window.
    fn snapshot_bytes(manager: &ConcurrentScrapeManager, at: SimTime) -> String {
        let window = ScrapeConfig::default().rate_window;
        serde_json::to_string(&SnapshotSource::snapshot(manager, at, window)).unwrap()
    }

    #[test]
    fn forks_are_deep_and_independent_with_a_detached_publisher() {
        let (cluster, network) = setup(3);
        let mut original = ConcurrentScrapeManager::new(ScrapeConfig::default());
        let published = original.published_handle();
        for t in [5u64, 10] {
            original.scrape(&cluster, &network, SimTime::from_secs(t));
        }
        let epoch = published.epoch();
        let at = SimTime::from_secs(30);
        let mut copy = original.fork();
        let before = snapshot_bytes(&original, at);
        assert_eq!(snapshot_bytes(&copy, at), before);
        assert_eq!(copy.next_scrape_due(), original.next_scrape_due());
        // The fork's publisher starts from the original's latest snapshot.
        assert_eq!(
            copy.published().map(|p| p.snapshot),
            published.latest().map(|p| p.snapshot)
        );

        // A scrape on the fork moves neither the original's store nor its
        // published epoch.
        copy.scrape(&cluster, &network, SimTime::from_secs(15));
        assert_eq!(snapshot_bytes(&original, at), before);
        assert_eq!((original.scrape_count(), original.point_count()), (2, 36));
        assert_eq!(published.epoch(), epoch);
        let copy_bytes = snapshot_bytes(&copy, at);
        assert_ne!(copy_bytes, before);

        // And a scrape on the original leaves the fork alone.
        original.scrape(&cluster, &network, SimTime::from_secs(20));
        assert_eq!(snapshot_bytes(&copy, at), copy_bytes);
        assert_eq!((copy.scrape_count(), copy.point_count()), (3, 54));
        assert!(published.epoch() > epoch);
    }

    #[test]
    fn forking_a_manager_with_a_live_writer_pool() {
        let (cluster, network) = setup(3);
        let times: Vec<SimTime> = (0..4u64).map(|i| SimTime::from_secs(i * 5)).collect();
        let mut original = ConcurrentScrapeManager::with_ingest(
            ScrapeConfig::default(),
            IngestConfig {
                shard_count: 3,
                eval_workers: 1,
                writer_workers: 2,
                queue_depth: 1,
                chunk_rounds: 2,
                sync_work_threshold: 0,
            },
        );
        original.ingest(&cluster, &network, &times);
        assert!(original.writers.is_some());

        let mut copy = original.fork();
        assert!(
            copy.writers.is_none(),
            "a fork starts without a writer pool"
        );
        let at = SimTime::from_secs(40);
        assert_eq!(snapshot_bytes(&copy, at), snapshot_bytes(&original, at));

        // The fork's own pipelined ingest spawns its own pool.
        let later: Vec<SimTime> = (4..8u64).map(|i| SimTime::from_secs(i * 5)).collect();
        copy.ingest(&cluster, &network, &later);
        assert!(copy.writers.is_some());
        assert_eq!((original.scrape_count(), copy.scrape_count()), (4, 8));
        drop(copy);
        // The original's pool outlives the fork's and still commits.
        original.ingest(&cluster, &network, &later);
        assert_eq!(original.scrape_count(), 8);
        let all: Vec<SimTime> = times.iter().chain(&later).copied().collect();
        let reference = naive_store(&cluster, &network, &all);
        let window = ScrapeConfig::default().rate_window;
        assert_eq!(
            snapshot_bytes(&original, at),
            serde_json::to_string(&ClusterSnapshot::from_store(&reference, at, window)).unwrap()
        );
    }

    #[test]
    fn ingest_matches_round_by_round_scrapes() {
        let (cluster, network) = setup(4);
        let times: Vec<SimTime> = (0..40u64).map(|i| SimTime::from_secs(i * 5)).collect();
        let mut pipelined = ConcurrentScrapeManager::with_ingest(
            ScrapeConfig::default(),
            IngestConfig {
                shard_count: 3,
                eval_workers: 4,
                writer_workers: 2,
                queue_depth: 2,
                chunk_rounds: 4,
                sync_work_threshold: 0,
            },
        );
        pipelined.ingest(&cluster, &network, &times);
        let mut one_by_one = ConcurrentScrapeManager::new(ScrapeConfig::default());
        for &t in &times {
            one_by_one.scrape(&cluster, &network, t);
        }
        assert_eq!(pipelined.scrape_count(), 40);
        assert_eq!(pipelined.point_count(), one_by_one.point_count());
        assert_eq!(pipelined.next_scrape_due(), one_by_one.next_scrape_due());
        let at = *times.last().unwrap();
        let window = SimDuration::from_secs(30);
        let a = SnapshotSource::snapshot(&pipelined, at, window);
        let b = SnapshotSource::snapshot(&one_by_one, at, window);
        assert_eq!(a, b);
        assert!(!a.is_empty());
    }

    #[test]
    fn adaptive_fallback_crossover_is_byte_identical() {
        // 3 nodes → 4·3 + 6 ping pairs = 18 series per round: far below the
        // default threshold, so `ingest` takes the synchronous path; with
        // the threshold forced to 0 the same schedule runs through the
        // worker pipeline. Snapshots either side of the crossover — and
        // against round-by-round scrapes — must be byte-identical.
        let (cluster, network) = setup(3);
        let times: Vec<SimTime> = (0..30u64).map(|i| SimTime::from_secs(i * 5)).collect();

        let mut adaptive = ConcurrentScrapeManager::new(ScrapeConfig::default());
        assert!(adaptive.ingest_config().sync_work_threshold > 18);
        adaptive.ingest(&cluster, &network, &times);
        assert!(
            adaptive.writers.is_none(),
            "below the work threshold no writer pool may be spawned"
        );

        let mut pipelined = ConcurrentScrapeManager::with_ingest(
            ScrapeConfig::default(),
            IngestConfig {
                sync_work_threshold: 0,
                ..IngestConfig::default()
            },
        );
        pipelined.ingest(&cluster, &network, &times);
        assert!(
            pipelined.writers.is_some(),
            "threshold 0 forces the pipeline"
        );

        let mut round_by_round = ConcurrentScrapeManager::new(ScrapeConfig::default());
        for &t in &times {
            round_by_round.scrape(&cluster, &network, t);
        }

        assert_eq!(adaptive.scrape_count(), 30);
        assert_eq!(adaptive.point_count(), pipelined.point_count());
        assert_eq!(adaptive.next_scrape_due(), pipelined.next_scrape_due());
        let at = *times.last().unwrap();
        let window = SimDuration::from_secs(30);
        let sync_snap = SnapshotSource::snapshot(&adaptive, at, window);
        let pipe_snap = SnapshotSource::snapshot(&pipelined, at, window);
        let seq_snap = SnapshotSource::snapshot(&round_by_round, at, window);
        assert_eq!(sync_snap, pipe_snap);
        assert_eq!(sync_snap, seq_snap);
        assert!(!sync_snap.is_empty());
        // The serialized bytes agree too (byte-identical, not just
        // observationally equal).
        assert_eq!(
            serde_json::to_string(&sync_snap).unwrap(),
            serde_json::to_string(&pipe_snap).unwrap()
        );
    }

    #[test]
    fn reader_before_first_scrape_sees_empty_snapshot() {
        let manager = ConcurrentScrapeManager::new(ScrapeConfig::default());
        let reader = manager.reader();
        let snap = reader.snapshot(SimTime::from_secs(3), SimDuration::from_secs(30));
        assert!(snap.is_empty());
        assert_eq!(snap.time, SimTime::from_secs(3));
    }

    #[test]
    fn layout_rebuild_on_cluster_growth() {
        let (cluster, network) = setup(2);
        let mut manager = ConcurrentScrapeManager::new(ScrapeConfig::default());
        manager.scrape(&cluster, &network, SimTime::from_secs(5));
        let series_before = manager.series_count();

        let (grown, grown_network) = setup(3);
        manager.scrape(&grown, &grown_network, SimTime::from_secs(10));
        assert!(manager.series_count() > series_before);
        let snap =
            SnapshotSource::snapshot(&manager, SimTime::from_secs(12), SimDuration::from_secs(30));
        assert_eq!(snap.node_names().len(), 3);
        // The store still answers for the original series too.
        assert!(snap.node("node-1").is_some());
    }
}
