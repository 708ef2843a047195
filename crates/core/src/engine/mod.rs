//! The deduplication engine: write/read paths, post-processing flush,
//! reference management, and crash recovery.
//!
//! This is the paper's contribution assembled: *double hashing* (a chunk's
//! fingerprint **is** its chunk-pool object name, placed by the ordinary
//! cluster hash), *self-contained objects* (chunk maps and refcounts live in
//! object omap/xattr), *post-processing* with watermark rate control, and a
//! hotness-aware cache manager.
//!
//! The chunk-object format lives behind `crate::chunkpool`; this module
//! holds the store itself and what every path shares, and the paths are
//! plain `impl DedupStore` blocks in `write`, `read`, `flush`, `gc` and
//! `recover`.

mod flush;
mod gc;
mod read;
mod recover;
mod write;

use std::time::Instant;

use dedup_chunk::FixedChunker;
use dedup_fingerprint::Fingerprint;
use dedup_obs::{EventLog, Registry, Severity, Tracer};
use dedup_placement::PoolId;
use dedup_sim::{CostExpr, SimDuration, SimTime};
use dedup_store::{
    ClientId, Cluster, IoCtx, ObjectName, PoolConfig, StoreError, WalRecoveryReport,
};
use parking_lot::{Mutex, RwLock, RwLockReadGuard, RwLockWriteGuard};

use crate::chunkmap::ChunkMapEntry;
use crate::chunkpool::ChunkPool;
use crate::config::DedupConfig;
use crate::error::DedupError;
use crate::hitset::HitSet;
use crate::metrics::EngineMetrics;
use crate::queue::DirtyQueue;
use crate::ratecontrol::RateController;
use crate::refs::BackRef;

/// Outcome of flushing one metadata object.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FlushReport {
    /// Dirty chunks processed.
    pub chunks_flushed: u64,
    /// Chunks that already existed in the chunk pool (deduplicated).
    pub chunks_deduped: u64,
    /// New chunk objects created.
    pub chunks_created: u64,
    /// Old chunk references released.
    pub derefs: u64,
    /// Chunk objects deleted because their refcount reached zero.
    pub chunks_reclaimed: u64,
    /// Cached copies evicted (hole-punched) from the metadata object.
    pub chunks_evicted: u64,
    /// The object was hot and deduplication was skipped entirely.
    pub skipped_hot: bool,
    /// Queued objects found to have no dirty chunks left and retired.
    pub clean_retired: u64,
}

impl FlushReport {
    /// Accumulates `other` into `self` (batch and flush-all aggregation).
    pub fn absorb(&mut self, other: &FlushReport) {
        self.chunks_flushed += other.chunks_flushed;
        self.chunks_deduped += other.chunks_deduped;
        self.chunks_created += other.chunks_created;
        self.derefs += other.derefs;
        self.chunks_reclaimed += other.chunks_reclaimed;
        self.chunks_evicted += other.chunks_evicted;
        self.skipped_hot |= other.skipped_hot;
        self.clean_retired += other.clean_retired;
    }
}

/// Aggregate engine counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct EngineStats {
    /// Foreground writes served.
    pub writes: u64,
    /// Foreground reads served.
    pub reads: u64,
    /// Bytes written by clients.
    pub bytes_written: u64,
    /// Bytes read by clients.
    pub bytes_read: u64,
    /// Reads satisfied from cached data in the metadata pool.
    pub cache_hit_chunks: u64,
    /// Reads redirected to the chunk pool.
    pub redirected_chunks: u64,
    /// Flush passes that skipped a hot object.
    pub hot_skips: u64,
    /// Chunks promoted back into the metadata-pool cache on hot reads.
    pub promotions: u64,
    /// Background flushes denied by rate control.
    pub rate_denials: u64,
}

/// Maps an object name to its foreground shard.
///
/// A pure function of the name bytes and the shard count (FNV-1a over the
/// name, reduced modulo `shards`): the same name always routes to the same
/// shard, on every handle, in every process. Exposed so tests can verify
/// routing independently of a live store.
pub fn shard_index(name: &ObjectName, shards: usize) -> usize {
    const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;
    let mut h = FNV_OFFSET;
    for &b in name.as_bytes() {
        h ^= u64::from(b);
        h = h.wrapping_mul(FNV_PRIME);
    }
    (h % shards.max(1) as u64) as usize
}

/// The deduplicating storage service layered on a [`Cluster`].
///
/// # Locking model (see DESIGN.md §9)
///
/// Foreground ops ([`write`](DedupStore::write), [`read`](DedupStore::read),
/// [`truncate`](DedupStore::truncate), [`delete`](DedupStore::delete)) and
/// the background flush ([`dedup_tick`](DedupStore::dedup_tick),
/// [`flush_all`](DedupStore::flush_all) and the rest of that family) take
/// `&self`. Per-object state is only touched under the shard lock owning
/// the object ([`shard_index`]) in reader-writer mode: mutations, a
/// flush commit and a hot read's promotion take the shard *write* lock,
/// reads and a flush stage take the shard *read* lock. Ops on distinct
/// objects run in parallel, concurrent reads of the same shard (one hot
/// object included) run in parallel, and a mutation excludes everything
/// else on its shard. A hot read drops its read guard before its
/// promotion takes the write side, never upgrading a guard it holds. One
/// flush mutex serialises whole flush passes. Cross-object state sits
/// behind its own fine-grained locks (dirty queue, atomic-bit hitset, rate
/// controller, registry counters), and the chunk-pool refcount
/// read-modify-write is serialized per fingerprint by the chunk pool's own
/// stripe array. GC, recovery and admin keep `&mut self`, which statically
/// guarantees whole-store exclusion. Lock order: flush → shard (read or
/// write) → {dirty | hitset | rate} → chunk stripe → OSD locks; no level
/// is re-entered and at most one lock of each array is held at a time.
pub struct DedupStore {
    cluster: Cluster,
    metadata_pool: PoolId,
    /// The chunk pool: owns the chunk-object format, the chunk index and
    /// the refcount stripes (lock order: shard → chunk stripe → OSD).
    chunks: ChunkPool,
    config: DedupConfig,
    chunker: FixedChunker,
    /// Foreground namespace stripes: shard `i` owns every object hashing
    /// to `i`. Reader-writer: mutations hold the write side, reads share
    /// the read side.
    shards: Vec<RwLock<()>>,
    /// Held for one whole flush pass (stage → fingerprint → commit), so
    /// passes never interleave: a tiered commit's signature miss then
    /// proves no other flush stored the content (DESIGN.md §12).
    flush_pass: Mutex<()>,
    dirty: Mutex<DirtyQueue>,
    hitset: HitSet,
    rate: Mutex<RateController>,
    metrics: EngineMetrics,
    /// Flush-progress memory for the dirty-queue stall health probe: what
    /// the previous probe saw.
    stall: Mutex<crate::health::StallState>,
}

impl DedupStore {
    /// Creates the dedup layer on `cluster`, creating a metadata pool and a
    /// chunk pool from the given configs (paper §4.2's pool split).
    pub fn new(
        mut cluster: Cluster,
        metadata_pool_cfg: PoolConfig,
        chunk_pool_cfg: PoolConfig,
        config: DedupConfig,
    ) -> Self {
        let metadata_pool = cluster.create_pool(metadata_pool_cfg);
        let chunk_pool = cluster.create_pool(chunk_pool_cfg);
        // One registry per stack: the engine owns it and rebinds the
        // cluster's instruments so a single snapshot covers both layers.
        let registry = Registry::new();
        cluster.attach_registry(registry.clone());
        let shard_count = config.foreground_shards.max(1);
        let metrics = EngineMetrics::new(registry, shard_count);
        DedupStore {
            cluster,
            metadata_pool,
            chunks: ChunkPool::new(chunk_pool, &config, metrics.clone()),
            chunker: FixedChunker::new(config.chunk_size),
            shards: (0..shard_count).map(|_| RwLock::new(())).collect(),
            flush_pass: Mutex::new(()),
            dirty: Mutex::new(DirtyQueue::new()),
            hitset: HitSet::new(config.hitset),
            rate: Mutex::new(RateController::new(
                config.watermarks,
                metrics.foreground_ops.clone(),
            )),
            config,
            metrics,
            stall: Mutex::new(crate::health::StallState::default()),
        }
    }

    /// Creates the layer with the paper's default pools: both replicated
    /// ×2.
    pub fn with_default_pools(cluster: Cluster, config: DedupConfig) -> Self {
        DedupStore::new(
            cluster,
            PoolConfig::replicated("metadata", 2),
            PoolConfig::replicated("chunks", 2),
            config,
        )
    }

    /// The underlying cluster.
    pub fn cluster(&self) -> &Cluster {
        &self.cluster
    }

    /// Mutable access to the underlying cluster (failure injection, timing
    /// plane).
    pub fn cluster_mut(&mut self) -> &mut Cluster {
        &mut self.cluster
    }

    /// The metadata pool id.
    pub fn metadata_pool(&self) -> PoolId {
        self.metadata_pool
    }

    /// The chunk pool id.
    pub fn chunk_pool(&self) -> PoolId {
        self.chunks.pool()
    }

    pub(crate) fn chunks(&self) -> &ChunkPool {
        &self.chunks
    }

    /// The active configuration.
    pub fn config(&self) -> &DedupConfig {
        &self.config
    }

    /// Aggregate engine counters (a relaxed snapshot; individual fields are
    /// exact once concurrent foreground ops have returned).
    pub fn stats(&self) -> EngineStats {
        let m = &self.metrics;
        EngineStats {
            writes: m.writes.get(),
            reads: m.reads.get(),
            bytes_written: m.write_bytes.get(),
            bytes_read: m.read_bytes.get(),
            cache_hit_chunks: m.cache_hit_chunks.get(),
            redirected_chunks: m.redirected_chunks.get(),
            hot_skips: m.hot_skips.get(),
            promotions: m.promotions.get(),
            rate_denials: m.rate_denied.get(),
        }
    }

    /// Number of foreground namespace shards.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// The shard owning `name` — [`shard_index`] at this store's shard
    /// count.
    pub fn shard_of(&self, name: &ObjectName) -> usize {
        shard_index(name, self.shards.len())
    }

    /// Acquires the foreground shard lock owning `name` in *write*
    /// (exclusive) mode, recording the per-shard op counters and the
    /// wall-clock wait under `mode=write`.
    fn lock_shard_write(&self, name: &ObjectName) -> RwLockWriteGuard<'_, ()> {
        let idx = shard_index(name, self.shards.len());
        let start = Instant::now();
        let guard = self.shards[idx].write();
        self.metrics
            .shard_lock_wait_write_ns
            .record(start.elapsed().as_nanos() as u64);
        self.metrics.shard_ops[idx].inc();
        self.metrics.shard_write_ops[idx].inc();
        guard
    }

    /// Acquires the foreground shard lock owning `name` in *read*
    /// (shared) mode, recording the per-shard op counters and the
    /// wall-clock wait under `mode=read`.
    fn lock_shard_read(&self, name: &ObjectName) -> RwLockReadGuard<'_, ()> {
        let idx = shard_index(name, self.shards.len());
        let start = Instant::now();
        let guard = self.shards[idx].read();
        self.metrics
            .shard_lock_wait_read_ns
            .record(start.elapsed().as_nanos() as u64);
        self.metrics.shard_ops[idx].inc();
        self.metrics.shard_read_ops[idx].inc();
        guard
    }

    /// The metrics registry shared by the engine and its cluster; snapshot
    /// it to observe the whole stack at once.
    pub fn registry(&self) -> &Registry {
        self.metrics.registry()
    }

    /// Objects currently queued for background deduplication.
    pub fn dirty_len(&self) -> usize {
        self.dirty.lock().len()
    }

    /// Threads a flush pass runs stage 2 on — the committing thread and
    /// one fewer helpers: the configured
    /// [`DedupConfig::flush_parallelism`], with `0` resolved to the host's
    /// available parallelism.
    pub fn fingerprint_parallelism(&self) -> usize {
        match self.config.flush_parallelism {
            0 => std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1),
            n => n,
        }
    }

    /// The rate controller (to observe foreground IOPS).
    pub fn rate_controller_mut(&mut self) -> &mut RateController {
        self.rate.get_mut()
    }

    /// Bloom-gate fill ratio of the chunk index, in `[0, 1]`.
    pub fn bloom_fill_ratio(&self) -> f64 {
        self.chunks.index().bloom_fill_ratio()
    }

    /// Estimated resident bytes of the chunk index.
    pub fn index_resident_bytes(&self) -> u64 {
        self.chunks.index().resident_bytes()
    }

    pub(crate) fn stall_state(&self) -> &Mutex<crate::health::StallState> {
        &self.stall
    }

    pub(crate) fn metrics(&self) -> &EngineMetrics {
        &self.metrics
    }

    /// Attaches a tracer to the whole stack. The cluster holds the one
    /// handle, so from now on every cost leg, the engine's dedup legs and
    /// the cluster's replication/EC legs alike, carries its step name; the
    /// tracer's slow-op counter lands in this engine's registry.
    pub fn attach_tracer(&mut self, tracer: Tracer) {
        tracer.attach_registry(self.registry());
        self.cluster.attach_tracer(tracer);
    }

    /// The cluster's tracer, if one is attached.
    pub fn tracer(&self) -> Option<&Tracer> {
        self.cluster.tracer()
    }

    /// Attaches a structured event log to the whole stack: the engine
    /// emits bloom-overfill, stage-conflict, rate-band, GC and recovery
    /// events, and the underlying cluster emits OSD and WAL lifecycle
    /// events into the same bounded ring. Events only *observe* the
    /// virtual timeline — attaching a log never changes virtual-time
    /// results.
    pub fn attach_events(&mut self, events: EventLog) {
        self.cluster.attach_events(events);
    }

    /// The cluster's event log, if one is attached.
    pub fn events(&self) -> Option<&EventLog> {
        self.cluster.events()
    }

    /// Advances the event log's virtual clock when one is attached, so
    /// clock-less emitters (admin paths, recovery) stamp correctly.
    #[inline]
    fn advance_events(&self, now: SimTime) {
        if let Some(ev) = self.events() {
            ev.advance(now);
        }
    }

    /// Counts one validated foreground op on `name` at `now`: the
    /// `rate.foreground_ops` meter (which rate control reads) and the
    /// object's heat. Callers validate first, so a refused op leaves no
    /// trace.
    fn count_foreground(&self, name: &ObjectName, now: SimTime) {
        self.metrics.foreground_ops.mark(now, 1);
        self.advance_events(now);
        self.hitset.access(name.as_bytes(), now);
    }

    /// Tags `cost` with a step name iff the cluster has a tracer
    /// ([`Cluster::label`]).
    fn label(&self, label: &str, cost: CostExpr) -> CostExpr {
        self.cluster.label(label, cost)
    }

    fn meta_ctx(&self, client: ClientId) -> IoCtx {
        IoCtx::new(self.metadata_pool).with_client(client)
    }

    fn chunk_ctx(&self, client: ClientId) -> IoCtx {
        IoCtx::new(self.chunks.pool()).with_client(client)
    }

    fn load_chunk_map(&self, name: &ObjectName) -> Result<Vec<ChunkMapEntry>, DedupError> {
        let ctx = self.meta_ctx(ClientId::INTERNAL);
        match self.cluster.omap_entries(&ctx, name) {
            Ok(t) => Ok(ChunkMapEntry::all_from_omap(t.value.iter())),
            Err(StoreError::NoSuchObject(..)) => Ok(Vec::new()),
            Err(e) => Err(e.into()),
        }
    }

    fn entry_for(entries: &[ChunkMapEntry], offset: u64) -> Option<ChunkMapEntry> {
        entries.iter().copied().find(|e| e.offset == offset)
    }

    fn mark_dirty(&self, name: &ObjectName) {
        // Enqueues when absent; bumps the write epoch when already queued,
        // invalidating any staged-but-uncommitted snapshot of the object.
        self.update_dirty(|dirty| dirty.mark(name));
    }

    /// Mutates the dirty queue and republishes the queue-depth gauge under
    /// the same guard, so the gauge never lags a queue mutation.
    fn update_dirty<R>(&self, mutate: impl FnOnce(&mut DirtyQueue) -> R) -> R {
        let mut dirty = self.dirty.lock();
        let out = mutate(&mut dirty);
        self.metrics.flush_queue_depth.set(dirty.len() as i64);
        out
    }

    fn update_rate_band(&self, now: SimTime) {
        let iops = self.metrics.foreground_ops.rate(now);
        let band = i64::from(self.config.watermarks.band(iops));
        let prev = self.metrics.rate_band.get();
        self.metrics.rate_band.set(band);
        if let Some(ev) = self.events() {
            ev.advance(now);
            if prev != band {
                ev.emit_at(
                    now,
                    Severity::Info,
                    "rate",
                    "band_transition",
                    vec![
                        ("from", prev.to_string()),
                        ("to", band.to_string()),
                        ("foreground_iops", format!("{iops:.0}")),
                    ],
                );
            }
        }
    }

    fn primary_node(&self, pool: PoolId, name: &ObjectName) -> Result<usize, DedupError> {
        primary_node(&self.cluster, pool, name)
    }

    fn fingerprint_cost(&self, node: usize, bytes: u64) -> CostExpr {
        let nanos = self.config.fingerprint_cost.nanos_for(bytes);
        self.cluster
            .perf()
            .cpu_busy(node, SimDuration::from_nanos(nanos))
    }

    /// Runs `commit` — the transaction that makes `name`'s new chunk map
    /// durable — appends its cost, and only then releases `releases`
    /// synchronously (paper §4.6: decrement the count, drop the back
    /// reference, delete the chunk at zero), back-filling each reserved
    /// cost slot (tagged `deref_label` when given). Returns how many chunk
    /// objects the releases reclaimed. A crash between the two steps
    /// leaves stale back references and overcounts that
    /// [`DedupStore::gc_chunk_pool`] repairs.
    fn commit_then_release(
        &self,
        name: &ObjectName,
        costs: &mut Vec<CostExpr>,
        releases: Releases,
        deref_label: Option<&str>,
        commit: impl FnOnce() -> Result<CostExpr, DedupError>,
    ) -> Result<u64, DedupError> {
        costs.push(commit()?);
        let cctx = self.chunk_ctx(ClientId::INTERNAL);
        let mut reclaimed = 0;
        for (slot, fp, offset) in releases.0 {
            let backref = BackRef::new(self.metadata_pool, name.clone(), offset);
            let t = self.chunks.deref(&self.cluster, &cctx, fp, &backref)?;
            reclaimed += u64::from(t.value);
            costs[slot] = match deref_label {
                Some(label) => self.label(label, t.cost),
                None => t.cost,
            };
        }
        Ok(reclaimed)
    }
}

/// The node hosting the primary OSD of `name` in `pool`.
pub(crate) fn primary_node(
    cluster: &Cluster,
    pool: PoolId,
    name: &ObjectName,
) -> Result<usize, DedupError> {
    let acting = cluster.primary_of(pool, name)?;
    Ok(cluster.map().osd(acting).node.0 as usize)
}

/// Chunk references an op drops from an object's chunk map, held back
/// until that map is durable. The crash-ordering rule — commit the recipe,
/// *then* release the old chunks — lives in
/// [`DedupStore::commit_then_release`], the only consumer, which always
/// releases synchronously: a crash in between strands a chunk or
/// overcounts it (GC's back-reference validation repairs both) instead of
/// deleting one the durable map still points at.
#[derive(Default)]
struct Releases(Vec<(usize, Fingerprint, u64)>);

impl Releases {
    /// Defers releasing the reference the chunk-map slot at `offset` holds
    /// on `fp`, reserving its place in `costs` here so the cost sequence
    /// reads as if the release ran in place.
    fn defer(&mut self, costs: &mut Vec<CostExpr>, fp: Fingerprint, offset: u64) {
        costs.push(CostExpr::Nop);
        self.0.push((costs.len() - 1, fp, offset));
    }
}

/// What [`DedupStore::recover_after_crash`] did, stage by stage.
#[derive(Debug, Clone, Default)]
pub struct CrashRecoveryReport {
    /// WAL replay outcome (records replayed, torn tails dropped, errors).
    pub wal: WalRecoveryReport,
    /// Dirty metadata objects re-queued from replayed chunk maps.
    pub dirty_objects: usize,
    /// Fingerprints re-seeded into the Bloom filter.
    pub bloom_seeded: usize,
    /// Outcome of flushing the recovered dirty backlog.
    pub flush: FlushReport,
    /// Outcome of the post-replay garbage-collection pass.
    pub gc: GcReport,
    /// Sequence number of the post-recovery checkpoint.
    pub checkpoint_seq: u64,
}

/// Outcome of a chunk-pool garbage-collection pass.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct GcReport {
    /// Chunk objects inspected.
    pub chunks_examined: u64,
    /// Stale back references removed.
    pub stale_refs_dropped: u64,
    /// Chunk objects whose refcount was corrected downward.
    pub counts_corrected: u64,
    /// Unreferenced chunk objects deleted.
    pub chunks_reclaimed: u64,
}

#[cfg(test)]
pub(crate) mod testutil {
    //! Fixtures shared by the engine's in-file test modules.

    use std::sync::Arc;

    use dedup_sim::SimTime;
    use dedup_store::{ClusterBuilder, CrashPlan, MemWalBackend, ObjectName};

    use super::DedupStore;
    use crate::config::DedupConfig;
    use crate::crashpoint::{wal_store, CrashTopology};

    pub(crate) const CS: u32 = 8 * 1024; // small chunks keep tests fast

    pub(crate) fn patterned(len: usize, seed: u64) -> Vec<u8> {
        let mut state = seed;
        (0..len)
            .map(|_| {
                state = state
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                (state >> 33) as u8
            })
            .collect()
    }

    pub(crate) fn store_with(config: DedupConfig) -> DedupStore {
        let cluster = ClusterBuilder::new().nodes(4).osds_per_node(4).build();
        DedupStore::with_default_pools(cluster, config)
    }

    pub(crate) fn store() -> DedupStore {
        store_with(DedupConfig::with_chunk_size(CS))
    }

    /// [`store_with`]'s store with a WAL attached, and the WAL's backend.
    pub(crate) fn wal_store_with(config: DedupConfig) -> (DedupStore, Arc<MemWalBackend>) {
        wal_store(CrashTopology::default(), config)
    }

    /// Arms a clean crash at the `k`-th durable write from now (0: the
    /// next one).
    pub(crate) fn crash_at(backend: &MemWalBackend, k: u64) {
        backend.set_crash_plan(Some(CrashPlan {
            after: backend.durable_writes() + k,
            torn: false,
        }));
    }

    /// Flushes `name` with the store dying cleanly at the flush's `k`-th
    /// durable write — 0 is the first chunk's store, since nothing durable
    /// happens before it — then revives the backend so the same store
    /// carries on. The engine restart is the caller's
    /// `recover_dirty_queue`.
    pub(crate) fn flush_crashing_at(
        s: &DedupStore,
        backend: &MemWalBackend,
        name: &ObjectName,
        now: SimTime,
        k: u64,
    ) {
        crash_at(backend, k);
        assert!(
            s.flush_object(name, now).is_err(),
            "the crash fails the flush"
        );
        assert!(backend.crashed(), "crash point {k} fired");
        backend.set_crash_plan(None);
    }

    pub(crate) fn t(secs: u64) -> SimTime {
        SimTime::from_secs(secs)
    }
}
