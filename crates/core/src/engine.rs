//! The deduplication engine: write/read paths, post-processing flush,
//! reference management, and crash recovery.
//!
//! This is the paper's contribution assembled: *double hashing* (a chunk's
//! fingerprint **is** its chunk-pool object name, placed by the ordinary
//! cluster hash), *self-contained objects* (chunk maps and refcounts live in
//! object omap/xattr), *post-processing* with watermark rate control, and a
//! hotness-aware cache manager.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::time::Instant;

use bytes::Bytes;
use dedup_chunk::FixedChunker;
use dedup_fingerprint::{ChunkSig, Fingerprint, SIG_SAMPLE_BYTES};
use dedup_obs::{EventLog, Registry, Severity, Tracer};
use dedup_placement::PoolId;
use dedup_sim::{CostExpr, SimDuration, SimTime};
use dedup_store::{
    ClientId, Cluster, IoCtx, ObjectName, PoolConfig, StoreError, Timed, TxOp, WalRecoveryReport,
};
use parking_lot::{Mutex, MutexGuard, RwLock, RwLockReadGuard, RwLockWriteGuard};

use crate::chunkmap::ChunkMapEntry;
use crate::config::{CachePolicy, DedupConfig, DedupMode, FingerprintDomain};
use crate::error::DedupError;
use crate::hitset::SharedHitSet;
use crate::index::{build_index, ChunkIndex};
use crate::metrics::EngineMetrics;
use crate::pipeline::{fingerprint_batch, StagedBatch, StagedChunk, StagedObject};
use crate::queue::DirtyQueue;
use crate::ratecontrol::RateController;
use crate::refs::{
    decode_raw_len, decode_refcount, encode_raw_len, encode_refcount, BackRef, COMPRESS_XATTR,
    REFCOUNT_XATTR,
};

/// Injectable crash points in the flush protocol, matching the failure
/// analysis of the paper's consistency model (§4.6, Fig. 9).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FailurePoint {
    /// Crash after reading the dirty chunk but before touching the chunk
    /// pool (paper step 3).
    BeforeChunkStore,
    /// Crash after the chunk object (and its reference) is stored but
    /// before the chunk map is updated (paper steps 4→5).
    AfterChunkStore,
}

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
    /// The flush was aborted by an injected failure.
    pub aborted: bool,
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
        self.aborted |= other.aborted;
    }
}

/// What staging one dirty-queue candidate produced.
enum StageOutcome {
    /// No dirty chunks left; the queue entry was retired.
    Clean,
    /// Hot object under [`CachePolicy::HotnessAware`]; requeued at the
    /// back, still dirty.
    Hot,
    /// Dirty chunks read and snapshotted, ready for fingerprint + commit.
    Staged(StagedObject),
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

/// Lock-free engine counters: every field mirrors one [`EngineStats`]
/// field, updated with relaxed atomics so concurrent foreground shards
/// never serialize on accounting.
#[derive(Debug, Default)]
struct AtomicEngineStats {
    writes: AtomicU64,
    reads: AtomicU64,
    bytes_written: AtomicU64,
    bytes_read: AtomicU64,
    cache_hit_chunks: AtomicU64,
    redirected_chunks: AtomicU64,
    hot_skips: AtomicU64,
    promotions: AtomicU64,
    rate_denials: AtomicU64,
}

impl AtomicEngineStats {
    fn snapshot(&self) -> EngineStats {
        EngineStats {
            writes: self.writes.load(Ordering::Relaxed),
            reads: self.reads.load(Ordering::Relaxed),
            bytes_written: self.bytes_written.load(Ordering::Relaxed),
            bytes_read: self.bytes_read.load(Ordering::Relaxed),
            cache_hit_chunks: self.cache_hit_chunks.load(Ordering::Relaxed),
            redirected_chunks: self.redirected_chunks.load(Ordering::Relaxed),
            hot_skips: self.hot_skips.load(Ordering::Relaxed),
            promotions: self.promotions.load(Ordering::Relaxed),
            rate_denials: self.rate_denials.load(Ordering::Relaxed),
        }
    }
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
/// [`truncate`](DedupStore::truncate), [`delete`](DedupStore::delete)) take
/// `&self`: each acquires the shard lock owning its object
/// ([`shard_index`]) in reader-writer mode — mutations take the shard
/// *write* lock, reads take the shard *read* lock, so ops on distinct
/// objects run in parallel, concurrent reads of the same shard (one hot
/// object included) run in parallel, and a mutation excludes everything
/// else on its shard. Cross-object state sits behind its own fine-grained
/// locks (dirty queue, atomic-bit hitset, rate controller, atomic stats),
/// and the chunk-pool refcount read-modify-write is serialized per
/// fingerprint by a second stripe array. Background flush, GC, recovery,
/// and admin keep `&mut self`, which statically guarantees whole-store
/// exclusion. Lock order: shard (read or write) → {dirty | hitset | rate}
/// → chunk stripe → OSD locks; no level is re-entered and at most one
/// lock of each array is held at a time.
pub struct DedupStore {
    cluster: Cluster,
    metadata_pool: PoolId,
    chunk_pool: PoolId,
    config: DedupConfig,
    chunker: FixedChunker,
    /// Foreground namespace stripes: shard `i` owns every object hashing
    /// to `i`. Reader-writer: mutations hold the write side, reads share
    /// the read side.
    shards: Vec<RwLock<()>>,
    /// Chunk refcount stripes: serialize the get_xattr → omap → transact
    /// read-modify-write in [`DedupStore::store_chunk`] /
    /// [`DedupStore::deref_chunk`] per fingerprint.
    chunk_stripes: Vec<Mutex<()>>,
    dirty: Mutex<DirtyQueue>,
    hitset: SharedHitSet,
    rate: Mutex<RateController>,
    stats: AtomicEngineStats,
    metrics: EngineMetrics,
    tracer: Option<Tracer>,
    /// Structured event log shared with the cluster; `None` (the default)
    /// keeps every emission site a single branch — the same
    /// zero-cost-when-off contract as the tracer.
    events: Option<EventLog>,
    /// The chunk index: Bloom-gated negative lookups plus (in tiered
    /// mode) the signature → candidate map behind the tiered fingerprint
    /// pipeline. Every chunk creation goes through
    /// [`DedupStore::store_chunk`], which registers here before the chunk
    /// becomes visible, so a definite "absent" answer is always safe.
    index: Box<dyn ChunkIndex>,
    /// Monotonic sequence for minted weak chunk names; resumed past the
    /// highest surviving sequence at recovery so names are never reused.
    weak_seq: AtomicU64,
    /// Flush-progress memory for the dirty-queue stall health probe
    /// ([`crate::health::QueueHealth`]): what the previous probe saw.
    stall: Mutex<crate::health::StallState>,
    /// Latched when the Bloom overfill warning has fired (reset by an
    /// index rebuild).
    bloom_warned: AtomicBool,
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
        let chunker = FixedChunker::new(config.chunk_size);
        let hitset = SharedHitSet::new(config.hitset);
        let rate = RateController::new(config.watermarks);
        // One registry per stack: the engine owns it and rebinds the
        // cluster's instruments so a single snapshot covers both layers.
        let registry = Registry::new();
        cluster.attach_registry(registry.clone());
        let shard_count = config.foreground_shards.max(1);
        let metrics = EngineMetrics::new(registry, SimDuration::from_secs(1), shard_count);
        let index = build_index(config.bloom, &config.chunk_index);
        DedupStore {
            cluster,
            metadata_pool,
            chunk_pool,
            config,
            chunker,
            shards: (0..shard_count).map(|_| RwLock::new(())).collect(),
            chunk_stripes: (0..shard_count).map(|_| Mutex::new(())).collect(),
            dirty: Mutex::new(DirtyQueue::new()),
            hitset,
            rate: Mutex::new(rate),
            stats: AtomicEngineStats::default(),
            metrics,
            tracer: None,
            events: None,
            index,
            weak_seq: AtomicU64::new(0),
            stall: Mutex::new(crate::health::StallState::default()),
            bloom_warned: AtomicBool::new(false),
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
        self.chunk_pool
    }

    /// The active configuration.
    pub fn config(&self) -> &DedupConfig {
        &self.config
    }

    /// Aggregate engine counters (a relaxed snapshot; individual fields are
    /// exact once concurrent foreground ops have returned).
    pub fn stats(&self) -> EngineStats {
        self.stats.snapshot()
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

    /// Acquires the chunk refcount stripe lock for `fp` (striped by the
    /// fingerprint's first word — already uniform, no rehash needed).
    fn lock_chunk_stripe(&self, fp: &Fingerprint) -> MutexGuard<'_, ()> {
        let idx = (fp.0[0] % self.chunk_stripes.len() as u64) as usize;
        self.chunk_stripes[idx].lock()
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

    /// Worker threads the fingerprint stage will use: the configured
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
        self.index.bloom_fill_ratio()
    }

    /// Estimated resident bytes of the chunk index.
    pub fn index_resident_bytes(&self) -> u64 {
        self.index.resident_bytes()
    }

    /// The chunk index's declared memory bound at its current population
    /// (`None` when the hot tier is unbounded — the default).
    pub fn index_memory_bound(&self) -> Option<u64> {
        self.index.declared_memory_bound()
    }

    /// Foreground ops routed through each namespace shard since startup.
    pub fn shard_op_counts(&self) -> Vec<u64> {
        self.metrics.shard_ops.iter().map(|c| c.get()).collect()
    }

    /// Foreground *reads* (shared-mode shard acquisitions) routed through
    /// each namespace shard since startup.
    pub fn shard_read_op_counts(&self) -> Vec<u64> {
        self.metrics
            .shard_read_ops
            .iter()
            .map(|c| c.get())
            .collect()
    }

    /// Foreground *mutations* (exclusive-mode shard acquisitions —
    /// writes, truncates, deletes) routed through each namespace shard
    /// since startup.
    pub fn shard_write_op_counts(&self) -> Vec<u64> {
        self.metrics
            .shard_write_ops
            .iter()
            .map(|c| c.get())
            .collect()
    }

    /// The active watermark band last published by rate control
    /// (0 = unlimited, 1 = mid ratio, 2 = high ratio).
    pub fn rate_band(&self) -> i64 {
        self.metrics.rate_band.get()
    }

    /// Lifetime dirty chunks flushed — the flush-progress signal the
    /// dirty-queue stall probe watches.
    pub fn chunks_flushed_total(&self) -> u64 {
        self.metrics.chunks_flushed.get()
    }

    pub(crate) fn stall_state(&self) -> &Mutex<crate::health::StallState> {
        &self.stall
    }

    pub(crate) fn metrics(&self) -> &EngineMetrics {
        &self.metrics
    }

    /// Attaches a tracer to the whole stack: the engine labels its dedup
    /// cost legs, the underlying cluster labels its replication/EC legs,
    /// and the tracer's slow-op counter lands in this engine's registry.
    pub fn attach_tracer(&mut self, tracer: Tracer) {
        self.cluster.attach_tracer(tracer.clone());
        tracer.attach_registry(self.registry());
        self.tracer = Some(tracer);
    }

    /// The attached tracer, if any.
    pub fn tracer(&self) -> Option<&Tracer> {
        self.tracer.as_ref()
    }

    /// Attaches a structured event log to the whole stack: the engine
    /// emits bloom-overfill, stage-conflict, rate-band, GC and recovery
    /// events, and the underlying cluster emits OSD and WAL lifecycle
    /// events into the same bounded ring. Events only *observe* the
    /// virtual timeline — attaching a log never changes virtual-time
    /// results.
    pub fn attach_events(&mut self, events: EventLog) {
        self.cluster.attach_events(events.clone());
        self.events = Some(events);
    }

    /// The attached event log, if any.
    pub fn events(&self) -> Option<&EventLog> {
        self.events.as_ref()
    }

    /// Advances the event log's virtual clock when one is attached, so
    /// clock-less emitters (admin paths, recovery) stamp correctly.
    #[inline]
    fn advance_events(&self, now: SimTime) {
        if let Some(ev) = &self.events {
            ev.advance(now);
        }
    }

    /// Tags `cost` with a semantic label when a tracer is attached;
    /// returns it untouched (no allocation) otherwise.
    fn label(&self, label: &str, cost: CostExpr) -> CostExpr {
        if self.tracer.is_some() {
            CostExpr::tagged(label, cost)
        } else {
            cost
        }
    }

    fn meta_ctx(&self, client: ClientId) -> IoCtx {
        let ctx = IoCtx::new(self.metadata_pool).with_client(client);
        match &self.tracer {
            Some(t) => ctx.with_trace(t.ctx()),
            None => ctx,
        }
    }

    fn chunk_ctx(&self, client: ClientId) -> IoCtx {
        let ctx = IoCtx::new(self.chunk_pool).with_client(client);
        match &self.tracer {
            Some(t) => ctx.with_trace(t.ctx()),
            None => ctx,
        }
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
        let mut dirty = self.dirty.lock();
        dirty.mark(name);
        self.sync_queue_depth(&dirty);
    }

    /// Publishes the queue-depth gauge from an already-held dirty-queue
    /// guard (taking the lock again here would self-deadlock).
    fn sync_queue_depth(&self, dirty: &DirtyQueue) {
        self.metrics.flush_queue_depth.set(dirty.len() as i64);
    }

    fn update_rate_band(&self, now: SimTime) {
        let iops = self.rate.lock().foreground_iops(now);
        let band = if iops < self.config.watermarks.low_iops {
            0
        } else if iops < self.config.watermarks.high_iops {
            1
        } else {
            2
        };
        let prev = self.metrics.rate_band.get();
        self.metrics.rate_band.set(band);
        if let Some(ev) = &self.events {
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

    /// Writes `data` at `offset` (paper §4.5 write path).
    ///
    /// In post-processing mode the data lands in the metadata object as
    /// cached+dirty chunks in one transaction; in inline mode the chunks go
    /// straight to the chunk pool.
    ///
    /// Accepts anything convertible to [`Bytes`]: a caller that already
    /// owns a shared buffer hands it through the whole data plane without
    /// a single copy (the replica fan-out below stores refcounted views);
    /// plain slices convert with one copy, exactly as before.
    ///
    /// Takes `&self`: the op serializes only against other foreground ops
    /// on objects in the same shard.
    ///
    /// # Errors
    ///
    /// Propagates store failures (degraded pool, size cap...).
    pub fn write(
        &self,
        client: ClientId,
        name: &ObjectName,
        offset: u64,
        data: impl Into<Bytes>,
        now: SimTime,
    ) -> Result<Timed<()>, DedupError> {
        let data = data.into();
        let _shard = self.lock_shard_write(name);
        self.stats.writes.fetch_add(1, Ordering::Relaxed);
        self.stats
            .bytes_written
            .fetch_add(data.len() as u64, Ordering::Relaxed);
        self.metrics.writes.inc();
        self.metrics.write_bytes.add(data.len() as u64);
        self.metrics.foreground_ops.mark(now, 1);
        self.advance_events(now);
        self.hitset.access(name.as_bytes(), now);
        self.rate.lock().record_foreground(now);
        match self.config.mode {
            DedupMode::PostProcess => self.write_postprocess(client, name, offset, data),
            DedupMode::Inline => self.write_inline(client, name, offset, &data),
        }
    }

    fn write_postprocess(
        &self,
        client: ClientId,
        name: &ObjectName,
        offset: u64,
        data: Bytes,
    ) -> Result<Timed<()>, DedupError> {
        let ctx = self.meta_ctx(client);
        let entries = self.load_chunk_map(name)?;
        let cs = self.chunker.chunk_size() as u64;
        let end = offset + data.len() as u64;
        let object_len = self
            .cluster
            .stat(self.metadata_pool, name)?
            .unwrap_or(0)
            .max(end);

        let mut costs: Vec<CostExpr> = Vec::new();
        let mut ops: Vec<TxOp> = Vec::new();
        for idx in self.chunker.touched_chunks(offset, data.len() as u64) {
            let c_off = idx * cs;
            let c_len = cs.min(object_len.saturating_sub(c_off)).max(
                // A brand-new tail chunk is as long as the write reaches.
                end.saturating_sub(c_off).min(cs),
            ) as u32;
            // No pre-read here: a partial write of an evicted chunk leaves
            // holes; the background flush merges them from the old chunk
            // object ("reading data for flush", paper Fig. 10 analysis).
            let existing = Self::entry_for(&entries, c_off);
            let mut entry = existing.unwrap_or(ChunkMapEntry::new_dirty(c_off, c_len));
            entry.len = entry.len.max(c_len);
            entry.cached = true;
            entry.dirty = true;
            ops.push(TxOp::SetOmap(entry.key(), entry.encode_value().into()));
        }
        // The transaction adopts the caller's buffer: a whole-object write
        // becomes the payload outright (the replica fan-out then shares
        // it), while a partial write is spliced into the resident data.
        self.metrics.bytes_shared.add(data.len() as u64);
        if offset == 0 && end >= object_len {
            ops.push(TxOp::WriteFull(data));
        } else {
            ops.push(TxOp::Write { offset, data });
        }
        let t = self.cluster.transact(&ctx, name, ops)?;
        costs.push(self.label("write.commit", t.cost));
        self.mark_dirty(name);
        Ok(Timed::new((), CostExpr::seq(costs)))
    }

    fn write_inline(
        &self,
        client: ClientId,
        name: &ObjectName,
        offset: u64,
        data: &[u8],
    ) -> Result<Timed<()>, DedupError> {
        let entries = self.load_chunk_map(name)?;
        let cs = self.chunker.chunk_size() as u64;
        let end = offset + data.len() as u64;
        let object_len = self
            .cluster
            .stat(self.metadata_pool, name)?
            .unwrap_or(0)
            .max(end);
        let meta_node = self.primary_node(self.metadata_pool, name)?;

        let mut costs: Vec<CostExpr> = Vec::new();
        let mut ops: Vec<TxOp> = Vec::new();
        let mut pending_derefs: Vec<(usize, Fingerprint, BackRef)> = Vec::new();
        for idx in self.chunker.touched_chunks(offset, data.len() as u64) {
            let c_off = idx * cs;
            let c_len = cs
                .min(object_len.saturating_sub(c_off))
                .max(end.saturating_sub(c_off).min(cs)) as u32;
            let existing = Self::entry_for(&entries, c_off);

            // Assemble the full new chunk content (read-modify-write for
            // partial coverage — the Fig. 5a penalty).
            let mut content = vec![0u8; c_len as usize];
            let covers_fully = offset <= c_off && end >= c_off + c_len as u64;
            if !covers_fully {
                if let Some(e) = existing {
                    if let Some(fp) = e.chunk_id {
                        let chunk_name = ObjectName::new(fp.to_object_name());
                        let cctx = self.chunk_ctx(client);
                        let t = self.read_chunk_at(&cctx, &chunk_name, 0, e.len as u64)?;
                        costs.push(t.cost);
                        content[..t.value.len()].copy_from_slice(&t.value);
                    }
                }
            }
            let copy_start = offset.max(c_off);
            let copy_end = end.min(c_off + c_len as u64);
            content[(copy_start - c_off) as usize..(copy_end - c_off) as usize].copy_from_slice(
                &data[(copy_start - offset) as usize..(copy_end - offset) as usize],
            );

            // Fingerprint (CPU), store new, dereference old — the deref is
            // deferred past the map commit (crash safety: never delete a
            // chunk the durable map still points at) but keeps its original
            // slot in the cost sequence.
            let fp = Fingerprint::of(&content);
            costs.push(self.fingerprint_cost(meta_node, c_len as u64));
            if let Some(e) = existing {
                if let Some(old) = e.chunk_id {
                    if old != fp {
                        costs.push(CostExpr::Nop);
                        pending_derefs.push((
                            costs.len() - 1,
                            old,
                            BackRef::new(self.metadata_pool, name.clone(), c_off),
                        ));
                    }
                }
            }
            let t = self.store_chunk(client, fp, content.into(), name, c_off, None, None)?;
            costs.push(t.cost);

            let entry = ChunkMapEntry {
                offset: c_off,
                len: c_len,
                chunk_id: Some(fp),
                cached: false,
                dirty: false,
            };
            ops.push(TxOp::SetOmap(entry.key(), entry.encode_value().into()));
        }
        // The metadata object records size (sparse) and the chunk map but
        // caches no data.
        if object_len > 0 {
            ops.push(TxOp::Truncate(object_len));
        }
        let ctx = self.meta_ctx(client);
        let t = self.cluster.transact(&ctx, name, ops)?;
        costs.push(t.cost);
        for (slot, old, backref) in pending_derefs {
            let t = self.deref_chunk(old, &backref)?;
            costs[slot] = t.cost;
        }
        Ok(Timed::new((), CostExpr::seq(costs)))
    }

    /// Reads `len` bytes at `offset` (paper §4.5 read path): cached chunks
    /// come from the metadata object, the rest is redirected to the chunk
    /// pool.
    ///
    /// Returns a shared [`Bytes`] view. The hot path — cached chunks on a
    /// replicated metadata pool — performs **zero** payload copies: each
    /// chunk read is a refcounted slice of the stored replica, and
    /// adjacent slices of the same replica buffer are rejoined O(1).
    /// Only genuinely scattered results (chunk-pool redirection mixing
    /// with cached data, hole fallbacks) assemble into a fresh buffer,
    /// which the `engine.bytes_copied` counter records.
    ///
    /// # Errors
    ///
    /// Fails if the object does not exist or the range is out of bounds.
    pub fn read(
        &self,
        client: ClientId,
        name: &ObjectName,
        offset: u64,
        len: u64,
        now: SimTime,
    ) -> Result<Timed<Bytes>, DedupError> {
        let _shard = self.lock_shard_read(name);
        self.stats.reads.fetch_add(1, Ordering::Relaxed);
        self.stats.bytes_read.fetch_add(len, Ordering::Relaxed);
        self.metrics.reads.inc();
        self.metrics.read_bytes.add(len);
        self.metrics.foreground_ops.mark(now, 1);
        self.advance_events(now);
        self.hitset.access(name.as_bytes(), now);
        self.rate.lock().record_foreground(now);

        let object_len = self
            .cluster
            .stat(self.metadata_pool, name)?
            .ok_or_else(|| StoreError::NoSuchObject(self.metadata_pool, name.clone()))?;
        if offset + len > object_len {
            return Err(StoreError::ReadOutOfRange {
                offset,
                len,
                object_size: object_len,
            }
            .into());
        }
        let entries = self.load_chunk_map(name)?;
        let ctx = self.meta_ctx(client);

        // The chunk-map lookup happens on the metadata primary as part of
        // request handling (no extra disk op); per-chunk data reads then
        // proceed in parallel (large blocks fan out, Fig. 11's 128 KiB
        // case).
        let mut costs: Vec<CostExpr> = Vec::new();
        let map_cost = CostExpr::Nop;
        // Result assembly: non-overlapping `(object offset, view)` parts
        // collected per leg, stitched zero-copy after the loop.
        let mut parts: Vec<(u64, Bytes)> = Vec::new();
        let mut chunk_costs: Vec<CostExpr> = Vec::new();
        let cs = self.chunker.chunk_size() as u64;
        for idx in self.chunker.touched_chunks(offset, len) {
            let c_off = idx * cs;
            let entry = Self::entry_for(&entries, c_off);
            let mut want_start = offset.max(c_off);
            let want_end = (offset + len).min(c_off + cs).min(object_len);
            if want_start >= want_end {
                continue;
            }
            // A chunk entry covers [e.offset, e.end()); bytes past that
            // (the object grew after the entry was written) live only in
            // the metadata object as resident zeros/fresh data.
            let covered_end = entry.map(|e| e.end()).unwrap_or(c_off).min(want_end);
            if covered_end < want_end {
                let tail_start = want_start.max(covered_end);
                if tail_start < want_end {
                    let t = self
                        .cluster
                        .read_at(&ctx, name, tail_start, want_end - tail_start)?;
                    parts.push((tail_start, t.value));
                    chunk_costs.push(self.label("read.tail", t.cost));
                }
                if want_start >= covered_end {
                    continue;
                }
            }
            let want_end = want_end.min(covered_end);
            let _ = &mut want_start;
            let span = want_end - want_start;
            let cached = entry.map(|e| e.cached).unwrap_or(true);
            if cached {
                // Cached (or never deduplicated): the metadata pool serves
                // resident bytes; punched sub-ranges (a partial write into
                // an evicted chunk) fall back to the old chunk object.
                let splits =
                    self.cluster
                        .resident_ranges(self.metadata_pool, name, want_start, span)?;
                let fully_resident = splits.iter().all(|&(_, _, res)| res);
                if fully_resident {
                    self.stats.cache_hit_chunks.fetch_add(1, Ordering::Relaxed);
                    self.metrics.cache_hit_chunks.inc();
                } else {
                    self.stats.redirected_chunks.fetch_add(1, Ordering::Relaxed);
                    self.metrics.redirected_chunks.inc();
                }
                let t = self.cluster.read_at(&ctx, name, want_start, span)?;
                chunk_costs.push(self.label("read.cached", t.cost));
                if fully_resident {
                    parts.push((want_start, t.value));
                } else if let Some(fp) = entry.and_then(|e| e.chunk_id) {
                    // Punched sub-ranges fall back to the old chunk
                    // object; splicing them in forces one deep copy of
                    // this chunk's span (cold path, accounted).
                    let mut patched = t.value.to_vec();
                    self.metrics.bytes_copied.add(span);
                    let chunk_name = ObjectName::new(fp.to_object_name());
                    let cctx = self.chunk_ctx(client);
                    for &(hs, he, resident) in &splits {
                        if resident {
                            continue;
                        }
                        let t = self.read_chunk_at(&cctx, &chunk_name, hs - c_off, he - hs)?;
                        patched[(hs - want_start) as usize..(he - want_start) as usize]
                            .copy_from_slice(&t.value);
                        chunk_costs.push(self.label("read.chunk_fallback", t.cost));
                    }
                    parts.push((want_start, Bytes::from(patched)));
                } else {
                    parts.push((want_start, t.value));
                }
            } else {
                // Redirection: metadata pool forwards to the chunk pool.
                self.stats.redirected_chunks.fetch_add(1, Ordering::Relaxed);
                self.metrics.redirected_chunks.inc();
                let e = entry.expect("non-cached chunk must have an entry");
                let fp = e.chunk_id.ok_or_else(|| DedupError::MissingChunk {
                    object: name.clone(),
                    chunk: "<unset>".into(),
                })?;
                let chunk_name = ObjectName::new(fp.to_object_name());
                // Redirection is a *proxy* read, as in Ceph tiering: the
                // metadata-pool primary forwards the request to the chunk
                // pool, receives the data, and relays it to the client —
                // the chunk bytes traverse the metadata node's NIC both
                // ways. This is the paper's read penalty (Figs. 10b & 11).
                let cctx = self.chunk_ctx(ClientId::INTERNAL);
                let t = self
                    .read_chunk_at(&cctx, &chunk_name, want_start - c_off, span)
                    .map_err(|err| match err {
                        DedupError::Store(StoreError::NoSuchObject(..)) => {
                            DedupError::MissingChunk {
                                object: name.clone(),
                                chunk: chunk_name.to_string(),
                            }
                        }
                        other => other,
                    })?;
                parts.push((want_start, t.value));
                let meta_node = self.primary_node(self.metadata_pool, name)?;
                let chunk_node = self.primary_node(self.chunk_pool, &chunk_name)?;
                let perf = self.cluster.perf();
                let request_hop = perf.node_to_node(meta_node, chunk_node, 64);
                // Data arrives at the proxy, then goes out to the client.
                let proxy_in = CostExpr::transfer(perf.nics[meta_node], span);
                let relay = perf.client_to_node(client, meta_node, span);
                chunk_costs.push(CostExpr::seq([
                    self.label("redirect.lookup", request_hop),
                    self.label("redirect.chunk_read", t.cost),
                    self.label("redirect.relay", CostExpr::seq([proxy_in, relay])),
                ]));
            }
        }
        costs.push(map_cost);
        costs.push(CostExpr::par(chunk_costs));

        // Cache-manager promotion (paper §4.3/§5): once the HitSet says the
        // object is hot, its non-cached chunks are pulled back into the
        // metadata pool so subsequent reads stay local. Only the adaptive
        // policy promotes; EvictAll pins data in the chunk pool and KeepAll
        // never evicted in the first place.
        if self.config.cache_policy == CachePolicy::HotnessAware
            && self.hitset.is_hot(name.as_bytes(), now)
        {
            let t = self.promote_chunks(name, offset, len)?;
            costs.push(self.label("read.promote", t.cost));
        }
        Ok(Timed::new(
            self.assemble_read(offset, len, parts),
            CostExpr::seq(costs),
        ))
    }

    /// Stitches per-leg read parts into one buffer. Adjacent views of the
    /// same parent buffer (consecutive cached chunks of one replica)
    /// rejoin O(1); anything else falls back to a single gather copy,
    /// recorded in `engine.bytes_copied`.
    fn assemble_read(&self, offset: u64, len: u64, mut parts: Vec<(u64, Bytes)>) -> Bytes {
        parts.sort_by_key(|&(start, _)| start);
        let contiguous = parts.first().map(|&(s, _)| s == offset).unwrap_or(false)
            && parts
                .windows(2)
                .all(|w| w[0].0 + w[0].1.len() as u64 == w[1].0)
            && parts
                .last()
                .map(|(s, b)| s + b.len() as u64 == offset + len)
                .unwrap_or(false);
        if contiguous {
            let mut acc = Bytes::new();
            let mut joined = true;
            for (_, b) in &parts {
                match acc.try_join(b) {
                    Some(j) => acc = j,
                    None => {
                        joined = false;
                        break;
                    }
                }
            }
            if joined {
                self.metrics.bytes_shared.add(len);
                return acc;
            }
            // Different parents: one gather copy.
            self.metrics.bytes_copied.add(len);
            let mut out = Vec::with_capacity(len as usize);
            for (_, b) in &parts {
                out.extend_from_slice(b);
            }
            return Bytes::from(out);
        }
        // Defensive: gaps or overlap (cannot happen with the loop above,
        // but a wrong answer would be worse than a copy).
        self.metrics.bytes_copied.add(len);
        let mut out = vec![0u8; len as usize];
        for (start, b) in parts {
            let s = (start - offset) as usize;
            out[s..s + b.len()].copy_from_slice(&b);
        }
        Bytes::from(out)
    }

    /// Pulls the non-cached chunks overlapping `[offset, offset + len)`
    /// back into the metadata object's data part (tiering promotion).
    fn promote_chunks(
        &self,
        name: &ObjectName,
        offset: u64,
        len: u64,
    ) -> Result<Timed<u64>, DedupError> {
        let entries = self.load_chunk_map(name)?;
        let cs = self.chunker.chunk_size() as u64;
        let mut costs: Vec<CostExpr> = Vec::new();
        let mut ops: Vec<TxOp> = Vec::new();
        let mut promoted = 0u64;
        for idx in self.chunker.touched_chunks(offset, len) {
            let c_off = idx * cs;
            let Some(e) = Self::entry_for(&entries, c_off) else {
                continue;
            };
            if e.cached {
                continue;
            }
            let Some(fp) = e.chunk_id else { continue };
            let chunk_name = ObjectName::new(fp.to_object_name());
            let cctx = self.chunk_ctx(ClientId::INTERNAL);
            let t = match self.read_chunk_at(&cctx, &chunk_name, 0, e.len as u64) {
                Ok(t) => t,
                Err(DedupError::Store(StoreError::NoSuchObject(..))) => continue, // raced with GC
                Err(err) => return Err(err),
            };
            costs.push(t.cost);
            ops.push(TxOp::Write {
                offset: e.offset,
                data: t.value,
            });
            let entry = ChunkMapEntry {
                cached: true,
                dirty: false,
                ..e
            };
            ops.push(TxOp::SetOmap(entry.key(), entry.encode_value().into()));
            promoted += 1;
        }
        if !ops.is_empty() {
            let ctx = self.meta_ctx(ClientId::INTERNAL);
            let t = self.cluster.transact(&ctx, name, ops)?;
            costs.push(t.cost);
            self.stats.promotions.fetch_add(promoted, Ordering::Relaxed);
            self.metrics.promotions.add(promoted);
        }
        Ok(Timed::new(promoted, CostExpr::seq(costs)))
    }

    /// Logical size of a user object, or `None` if absent. Control-plane.
    ///
    /// # Errors
    ///
    /// Fails if the store does.
    pub fn stat_len(&self, name: &ObjectName) -> Result<Option<u64>, DedupError> {
        Ok(self.cluster.stat(self.metadata_pool, name)?)
    }

    /// Truncates a user object to `new_len` bytes (shrink or zero-extend).
    ///
    /// Chunks entirely beyond the new end are dereferenced and their map
    /// entries removed; a chunk straddling the boundary is shortened and
    /// marked dirty so the next flush re-deduplicates its new content.
    /// Zero-extension grows the tail sparsely.
    ///
    /// # Errors
    ///
    /// Fails if the object does not exist or the store does.
    pub fn truncate(
        &self,
        client: ClientId,
        name: &ObjectName,
        new_len: u64,
        now: SimTime,
    ) -> Result<Timed<()>, DedupError> {
        let _shard = self.lock_shard_write(name);
        let old_len = self
            .cluster
            .stat(self.metadata_pool, name)?
            .ok_or_else(|| StoreError::NoSuchObject(self.metadata_pool, name.clone()))?;
        self.metrics.foreground_ops.mark(now, 1);
        self.advance_events(now);
        self.hitset.access(name.as_bytes(), now);
        self.rate.lock().record_foreground(now);
        let entries = self.load_chunk_map(name)?;
        let cs = self.chunker.chunk_size() as u64;
        let mut costs: Vec<CostExpr> = Vec::new();
        let mut ops: Vec<TxOp> = Vec::new();
        let mut dirtied = false;

        // Deref after the map transact commits (never delete a chunk the
        // durable map still references); slots keep the cost order.
        let mut pending_derefs: Vec<(usize, Fingerprint, BackRef)> = Vec::new();
        for e in &entries {
            if e.offset >= new_len {
                // Entirely cut off: drop the entry, release the chunk.
                ops.push(TxOp::RemoveOmap(e.key()));
                if let Some(fp) = e.chunk_id {
                    costs.push(CostExpr::Nop);
                    pending_derefs.push((
                        costs.len() - 1,
                        fp,
                        BackRef::new(self.metadata_pool, name.clone(), e.offset),
                    ));
                }
            } else if e.end() > new_len {
                // Boundary chunk: shorter content means a new fingerprint.
                let mut entry = *e;
                entry.len = (new_len - e.offset) as u32;
                entry.dirty = true;
                ops.push(TxOp::SetOmap(entry.key(), entry.encode_value().into()));
                dirtied = true;
            }
        }
        if new_len > old_len {
            // Zero-extension: the tail chunk grows (sparse zeros) and any
            // brand-new chunks get fresh dirty entries.
            for idx in self.chunker.touched_chunks(old_len, new_len - old_len) {
                let c_off = idx * cs;
                let c_len = cs.min(new_len - c_off) as u32;
                let mut entry = Self::entry_for(&entries, c_off)
                    .unwrap_or(ChunkMapEntry::new_dirty(c_off, c_len));
                entry.len = entry.len.max(c_len);
                entry.dirty = true;
                entry.cached = true;
                ops.push(TxOp::SetOmap(entry.key(), entry.encode_value().into()));
            }
            dirtied = true;
        }
        ops.push(TxOp::Truncate(new_len));
        let ctx = self.meta_ctx(client);
        let t = self.cluster.transact(&ctx, name, ops)?;
        costs.push(t.cost);
        for (slot, fp, backref) in pending_derefs {
            let t = self.deref_chunk(fp, &backref)?;
            costs[slot] = t.cost;
        }
        if dirtied {
            self.mark_dirty(name);
        } else {
            // A pure shrink still rewrites the chunk map: invalidate any
            // staged-but-uncommitted flush snapshot of this object.
            self.dirty.lock().bump_epoch(name);
        }
        Ok(Timed::new((), CostExpr::seq(costs)))
    }

    /// Deletes a user object: dereferences every chunk it points at, then
    /// removes the metadata object.
    ///
    /// # Errors
    ///
    /// Fails if the store does.
    pub fn delete(&self, client: ClientId, name: &ObjectName) -> Result<Timed<()>, DedupError> {
        let _shard = self.lock_shard_write(name);
        let entries = self.load_chunk_map(name)?;
        let mut costs = Vec::new();
        // Delete the metadata object first: once it (and its chunk map) is
        // durably gone, releasing the references is safe at any crash
        // point — a stranded chunk's backref is stale and GC reclaims it.
        // The derefs keep their original leading slots in the cost order.
        let mut pending_derefs: Vec<(usize, Fingerprint, BackRef)> = Vec::new();
        for e in entries {
            if let Some(fp) = e.chunk_id {
                costs.push(CostExpr::Nop);
                pending_derefs.push((
                    costs.len() - 1,
                    fp,
                    BackRef::new(self.metadata_pool, name.clone(), e.offset),
                ));
            }
        }
        let ctx = self.meta_ctx(client);
        match self.cluster.delete(&ctx, name) {
            Ok(t) => costs.push(t.cost),
            Err(StoreError::NoSuchObject(..)) => {}
            Err(e) => return Err(e.into()),
        }
        for (slot, fp, backref) in pending_derefs {
            let t = self.deref_chunk(fp, &backref)?;
            costs[slot] = t.cost;
        }
        let mut dirty = self.dirty.lock();
        dirty.remove(name);
        self.sync_queue_depth(&dirty);
        Ok(Timed::new((), CostExpr::seq(costs)))
    }

    fn primary_node(&self, pool: PoolId, name: &ObjectName) -> Result<usize, DedupError> {
        let acting = self
            .cluster
            .primary_of(pool, name)
            .map_err(DedupError::from)?;
        Ok(self.cluster.map().osd(acting).node.0 as usize)
    }

    fn fingerprint_cost(&self, node: usize, bytes: u64) -> CostExpr {
        let nanos = self.config.fingerprint_cost.nanos_for(bytes);
        self.cluster
            .perf()
            .cpu_busy(node, dedup_sim::SimDuration::from_nanos(nanos))
    }

    /// Stored format of a chunk object: `Some(raw_len)` when the payload
    /// is compressed (the xattr carries the logical length), `None` for a
    /// raw payload. Metadata-plane probe: like chunk-map lookups it rides
    /// the request and charges no virtual-time cost, so read paths on a
    /// pool with no compressed chunks stay cost-identical to a build
    /// without the compression plane.
    fn chunk_raw_len(
        &self,
        cctx: &IoCtx,
        chunk_name: &ObjectName,
    ) -> Result<Option<u64>, StoreError> {
        let t = self.cluster.get_xattr(cctx, chunk_name, COMPRESS_XATTR)?;
        Ok(t.value.and_then(|v| decode_raw_len(&v)))
    }

    /// A chunk object's *logical* extent — the raw length for
    /// compressed-stored chunks, the stored extent otherwise — or `None`
    /// when the object is absent.
    fn chunk_extent(
        &self,
        cctx: &IoCtx,
        chunk_name: &ObjectName,
    ) -> Result<Option<u64>, DedupError> {
        let Some(stored) = self.cluster.stat(self.chunk_pool, chunk_name)? else {
            return Ok(None);
        };
        Ok(Some(
            self.chunk_raw_len(cctx, chunk_name)?.unwrap_or(stored),
        ))
    }

    /// Reads `[off, off + len)` of a chunk object's *logical* payload,
    /// transparently decompressing compressed-stored chunks. A raw-stored
    /// chunk passes its stored view straight through — the same single
    /// `read_at` (and the same cost expression) as a store without a
    /// compression plane, so the CoW fast path stays zero-copy end to
    /// end. A compressed chunk reads its whole (smaller) stored extent,
    /// decodes it once, and returns the requested span as a zero-copy
    /// slice of the decoded buffer; the decode CPU is charged to the
    /// chunk's primary node.
    fn read_chunk_at(
        &self,
        cctx: &IoCtx,
        chunk_name: &ObjectName,
        off: u64,
        len: u64,
    ) -> Result<Timed<Bytes>, DedupError> {
        let Some(raw_len) = self.chunk_raw_len(cctx, chunk_name)? else {
            return Ok(self.cluster.read_at(cctx, chunk_name, off, len)?);
        };
        let extent = self
            .cluster
            .stat(self.chunk_pool, chunk_name)?
            .ok_or_else(|| StoreError::NoSuchObject(self.chunk_pool, chunk_name.clone()))?;
        let t = self.cluster.read_at(cctx, chunk_name, 0, extent)?;
        let raw =
            dedup_compress::decompress_with_limit(&t.value, raw_len as usize).map_err(|_| {
                DedupError::CorruptCompressedChunk {
                    chunk: chunk_name.to_string(),
                }
            })?;
        self.metrics.compress_decompressed_chunks.inc();
        self.metrics
            .compress_decompressed_bytes
            .add(raw.len() as u64);
        let node = self.primary_node(self.chunk_pool, chunk_name)?;
        let nanos = self
            .config
            .compression
            .cost
            .decompress_nanos(raw.len() as u64);
        let cpu = self
            .cluster
            .perf()
            .cpu_busy(node, SimDuration::from_nanos(nanos));
        let raw = Bytes::from(raw);
        let end = (off + len).min(raw.len() as u64);
        let start = off.min(end);
        Ok(Timed::new(
            raw.slice(start as usize..end as usize),
            CostExpr::seq([t.cost, self.label("read.decompress_cpu", cpu)]),
        ))
    }

    /// Stores or references a chunk object named by its fingerprint —
    /// *double hashing* in action: the name is the content hash, placement
    /// is the cluster's ordinary name hash.
    ///
    /// `content` is the bytes the pool stores (the compressed form when
    /// the flush encode kept it); `encoded_raw_len` carries the logical
    /// length for compressed payloads so the create branch stamps the
    /// [`COMPRESS_XATTR`] format marker. `None` means raw — such chunks
    /// are byte-identical to ones written with compression off.
    #[allow(clippy::too_many_arguments)]
    fn store_chunk(
        &self,
        client: ClientId,
        fp: Fingerprint,
        content: Bytes,
        referrer: &ObjectName,
        ref_offset: u64,
        sig: Option<ChunkSig>,
        encoded_raw_len: Option<u64>,
    ) -> Result<Timed<ChunkStoreOutcome>, DedupError> {
        // The refcount update is a read-modify-write spanning three cluster
        // calls; the stripe lock keeps two referrers of the same chunk from
        // interleaving it.
        let _stripe = self.lock_chunk_stripe(&fp);
        let chunk_name = ObjectName::new(fp.to_object_name());
        let cctx = self.chunk_ctx(client);
        let backref = BackRef::new(self.metadata_pool, referrer.clone(), ref_offset);
        // Negative-lookup fast path: a unique chunk — the common case on a
        // low-dedup workload — probes the chunk pool only to hear "no
        // such object". The Bloom filter answers that definitively from
        // memory. Cost-neutral: the create branch below never charged the
        // lookup's cost anyway.
        let existing_count = if !self.index.may_contain(&fp) {
            self.metrics.bloom_hits.inc();
            None
        } else {
            self.metrics.bloom_misses.inc();
            match self.cluster.get_xattr(&cctx, &chunk_name, REFCOUNT_XATTR) {
                // A present chunk with *no* refcount xattr is a torn state
                // (crash between chunk write and refcount commit), not a
                // corrupt one — don't let it decode as zero.
                Ok(t) => {
                    let raw = t.value.ok_or_else(|| DedupError::MissingRefcount {
                        chunk: chunk_name.to_string(),
                    })?;
                    Some((
                        decode_refcount(&raw).ok_or_else(|| DedupError::CorruptRefcount {
                            chunk: chunk_name.to_string(),
                        })?,
                        t.cost,
                    ))
                }
                Err(StoreError::NoSuchObject(..)) => None,
                Err(e) => return Err(e.into()),
            }
        };
        match existing_count {
            Some((count, lookup_cost)) => {
                // Chunk already stored: add our reference (if new).
                let t_ref = self.cluster.omap_entries(&cctx, &chunk_name)?;
                let already = t_ref.value.contains_key(&backref.key());
                if already {
                    // Idempotent retry after a crash: nothing to do.
                    return Ok(Timed::new(
                        ChunkStoreOutcome::AlreadyReferenced,
                        lookup_cost,
                    ));
                }
                let tx = self.cluster.transact(
                    &cctx,
                    &chunk_name,
                    vec![
                        TxOp::SetXattr(REFCOUNT_XATTR.into(), encode_refcount(count + 1).into()),
                        TxOp::SetOmap(backref.key(), backref.encode_value().into()),
                    ],
                )?;
                Ok(Timed::new(
                    ChunkStoreOutcome::Deduplicated,
                    CostExpr::seq([lookup_cost, tx.cost]),
                ))
            }
            None => {
                // Register before the chunk becomes visible so the Bloom
                // side never yields a false negative for a stored chunk,
                // and — in tiered mode — so every stored chunk's signature
                // is indexed before any probe could miss it (a signature
                // miss must prove global uniqueness).
                let sig = match sig {
                    Some(s) => Some(s),
                    None if self.config.tiered_fingerprint => Some(ChunkSig::of(&content)),
                    None => None,
                };
                self.index.note_stored(fp, sig);
                self.metrics.bytes_shared.add(content.len() as u64);
                let mut ops = vec![
                    TxOp::WriteFull(content),
                    TxOp::SetXattr(REFCOUNT_XATTR.into(), encode_refcount(1).into()),
                    TxOp::SetOmap(backref.key(), backref.encode_value().into()),
                ];
                if let Some(raw_len) = encoded_raw_len {
                    ops.push(TxOp::SetXattr(
                        COMPRESS_XATTR.into(),
                        encode_raw_len(raw_len).into(),
                    ));
                }
                let tx = self.cluster.transact(&cctx, &chunk_name, ops)?;
                Ok(Timed::new(ChunkStoreOutcome::Created, tx.cost))
            }
        }
    }

    /// Releases one reference to a chunk object, deleting it when the count
    /// reaches zero. Idempotent: missing chunk or missing reference is a
    /// no-op (crash retries).
    fn deref_chunk(&self, fp: Fingerprint, backref: &BackRef) -> Result<Timed<bool>, DedupError> {
        if self.config.lazy_dereference {
            // False-positive refcounting: skip the synchronous round trip;
            // the stale back reference stays until the garbage collector
            // validates it against the live chunk map.
            let _ = (fp, backref);
            return Ok(Timed::new(false, CostExpr::Nop));
        }
        let _stripe = self.lock_chunk_stripe(&fp);
        if !self.index.may_contain(&fp) {
            // Definitely never stored: same outcome (and same zero cost)
            // as the NoSuchObject branch below, without the probe.
            self.metrics.bloom_hits.inc();
            return Ok(Timed::new(false, CostExpr::Nop));
        }
        self.metrics.bloom_misses.inc();
        let chunk_name = ObjectName::new(fp.to_object_name());
        let cctx = self.chunk_ctx(ClientId::INTERNAL);
        let count = match self.cluster.get_xattr(&cctx, &chunk_name, REFCOUNT_XATTR) {
            Ok(t) => {
                // Missing xattr on a present chunk: torn, not corrupt —
                // surface it distinctly instead of decoding a default.
                let raw = t.value.ok_or_else(|| DedupError::MissingRefcount {
                    chunk: chunk_name.to_string(),
                })?;
                decode_refcount(&raw).ok_or(DedupError::CorruptRefcount {
                    chunk: chunk_name.to_string(),
                })?
            }
            Err(StoreError::NoSuchObject(..)) => return Ok(Timed::new(false, CostExpr::Nop)),
            Err(e) => return Err(e.into()),
        };
        let refs = self.cluster.omap_entries(&cctx, &chunk_name)?;
        if !refs.value.contains_key(&backref.key()) {
            return Ok(Timed::new(false, refs.cost));
        }
        if count <= 1 {
            let t = self.cluster.delete(&cctx, &chunk_name)?;
            Ok(Timed::new(true, CostExpr::seq([refs.cost, t.cost])))
        } else {
            let t = self.cluster.transact(
                &cctx,
                &chunk_name,
                vec![
                    TxOp::SetXattr(REFCOUNT_XATTR.into(), encode_refcount(count - 1).into()),
                    TxOp::RemoveOmap(backref.key()),
                ],
            )?;
            Ok(Timed::new(false, CostExpr::seq([refs.cost, t.cost])))
        }
    }

    /// Reads a dirty chunk's full content: resident bytes from the
    /// metadata object, punched sub-ranges from the previous chunk object
    /// (the deferred read-modify-write). Returns the content, the read
    /// costs, and whether a merge happened.
    fn read_dirty_chunk(
        &self,
        name: &ObjectName,
        e: &ChunkMapEntry,
    ) -> Result<(Bytes, Vec<CostExpr>, bool), DedupError> {
        let ctx = self.meta_ctx(ClientId::INTERNAL);
        let mut costs = Vec::new();
        let t = self.cluster.read_at(&ctx, name, e.offset, e.len as u64)?;
        costs.push(t.cost);
        // The staged snapshot is a shared view of the stored replica — no
        // copy. A racing foreground write detaches the replica's buffer
        // (copy-on-write), leaving this snapshot stable; the dirty-queue
        // epoch ticket then discards it at commit.
        let mut content = t.value;
        let splits =
            self.cluster
                .resident_ranges(self.metadata_pool, name, e.offset, e.len as u64)?;
        let has_holes = splits.iter().any(|&(_, _, res)| !res);
        let mut merged = false;
        if has_holes {
            if let Some(old) = e.chunk_id {
                // Deferred read-modify-write: splice the evicted ranges
                // from the previous chunk object into a private copy.
                let mut buf = content.to_vec();
                self.metrics.bytes_copied.add(buf.len() as u64);
                let chunk_name = ObjectName::new(old.to_object_name());
                let cctx = self.chunk_ctx(ClientId::INTERNAL);
                // A zero-extending truncate can grow this entry past the
                // chunk object flushed for its previous content; bytes
                // beyond that extent were never written and stay zero.
                // (Logical extent: a compressed-stored chunk's stored
                // extent is its physical size, not its data length.)
                let old_extent = self.chunk_extent(&cctx, &chunk_name)?.unwrap_or(0);
                for &(hs, he, resident) in &splits {
                    if resident {
                        continue;
                    }
                    let rel_start = hs - e.offset;
                    let rel_end = (he - e.offset).min(old_extent);
                    if rel_start >= rel_end {
                        continue;
                    }
                    let t =
                        self.read_chunk_at(&cctx, &chunk_name, rel_start, rel_end - rel_start)?;
                    buf[rel_start as usize..rel_end as usize].copy_from_slice(&t.value);
                    costs.push(t.cost);
                    merged = true;
                }
                content = Bytes::from(buf);
            }
        }
        Ok((content, costs, merged))
    }

    /// Flushes one metadata object's dirty chunks (engine steps 1–6 of
    /// §4.4.1).
    ///
    /// # Errors
    ///
    /// Fails if the store does.
    pub fn flush_object(
        &mut self,
        name: &ObjectName,
        now: SimTime,
    ) -> Result<Timed<FlushReport>, DedupError> {
        self.flush_object_with_failure(name, now, None)
    }

    /// [`DedupStore::flush_object`] with an injectable crash point for the
    /// consistency experiments.
    ///
    /// # Errors
    ///
    /// Fails if the store does (an injected crash is *not* an error: the
    /// report has `aborted = true`).
    pub fn flush_object_with_failure(
        &mut self,
        name: &ObjectName,
        now: SimTime,
        failure: Option<FailurePoint>,
    ) -> Result<Timed<FlushReport>, DedupError> {
        match self.stage_object(name, now)? {
            StageOutcome::Clean => Ok(Timed::new(FlushReport::default(), CostExpr::Nop)),
            StageOutcome::Hot => {
                let report = FlushReport {
                    skipped_hot: true,
                    ..Default::default()
                };
                Ok(Timed::new(report, CostExpr::Nop))
            }
            StageOutcome::Staged(staged) => {
                let batch = StagedBatch {
                    objects: vec![staged],
                    ..Default::default()
                };
                self.fingerprint_and_commit(batch, failure)
            }
        }
    }

    /// Pipeline stage 1 for one dirty-queue candidate: the cache-manager
    /// decision (paper §4.3), then reading every dirty chunk — deferred
    /// read-modify-write merges included — into a [`StagedObject`]
    /// snapshot. The object *stays queued*; its
    /// [`DirtyTicket`](crate::queue::DirtyTicket) ties the snapshot to the
    /// current write epoch so the commit can detect racing mutations.
    fn stage_object(
        &mut self,
        name: &ObjectName,
        now: SimTime,
    ) -> Result<StageOutcome, DedupError> {
        let entries = self.load_chunk_map(name)?;
        let dirty: Vec<ChunkMapEntry> = entries.iter().copied().filter(|e| e.dirty).collect();
        if dirty.is_empty() {
            self.finish_clean(name);
            return Ok(StageOutcome::Clean);
        }

        // Cache-manager decision (paper §4.3): hot objects are left alone.
        let hot = self.hitset.is_hot(name.as_bytes(), now);
        if hot && self.config.cache_policy == CachePolicy::HotnessAware {
            self.stats.hot_skips.fetch_add(1, Ordering::Relaxed);
            self.metrics.hot_skips.inc();
            // Stays dirty; re-queue at the back.
            let mut dirty = self.dirty.lock();
            dirty.requeue_back(name);
            self.sync_queue_depth(&dirty);
            return Ok(StageOutcome::Hot);
        }

        let meta_node = self.primary_node(self.metadata_pool, name)?;
        let keep_cached = match self.config.cache_policy {
            CachePolicy::KeepAll => true,
            CachePolicy::EvictAll => false,
            CachePolicy::HotnessAware => hot,
        };
        let mut chunks = Vec::with_capacity(dirty.len());
        for e in dirty {
            // (2) Read the cached dirty chunk from the metadata object,
            // merging any punched sub-ranges from the previous chunk object
            // (deferred read-modify-write).
            let (content, read_costs, merged) = self.read_dirty_chunk(name, &e)?;
            if merged {
                self.metrics.deferred_rmw_merges.inc();
            }
            // Tiered pipeline: compute the cheap signature now and probe
            // the index. A miss means no stored chunk can possibly match,
            // so stage 2 skips the full fingerprint for this chunk. The
            // probe is only a hint — commit re-probes under the lock, so a
            // candidate appearing later (e.g. stored by an earlier chunk
            // of this very batch) is still caught.
            let (sig, fingerprint_wanted) = if self.config.tiered_fingerprint {
                if self.config.compression.enabled
                    && self.config.compression.domain == FingerprintDomain::Compressed
                {
                    // Signatures live in the compressed namespace, which
                    // is unknown until stage 2 encodes; stage 2 signs the
                    // stored bytes and commit probes under the lock. Full
                    // hashing stays unpaid unless that probe collides.
                    (None, false)
                } else {
                    let s = ChunkSig::of(&content);
                    let wanted = !self.index.candidates(&s, now).is_empty();
                    (Some(s), wanted)
                }
            } else {
                (None, true)
            };
            chunks.push(StagedChunk {
                entry: e,
                content,
                read_costs,
                merged,
                fingerprint: None,
                sig,
                fingerprint_wanted,
                encoded: None,
            });
        }
        Ok(StageOutcome::Staged(StagedObject {
            name: name.clone(),
            ticket: self.dirty.lock().ticket(name),
            meta_node,
            keep_cached,
            staged_at: now,
            chunks,
        }))
    }

    /// Pipeline stage 1 over the queue: stages up to `max_objects`
    /// candidates from the front of the dirty queue. With
    /// `rate_controlled`, each candidate consumes one rate-control
    /// admission; a denial stops the batch (and is counted only when the
    /// pass has done nothing yet, preserving classic per-tick denial
    /// counts at batch size 1).
    ///
    /// # Errors
    ///
    /// Fails if the store does.
    pub fn stage_batch(
        &mut self,
        max_objects: usize,
        now: SimTime,
        rate_controlled: bool,
    ) -> Result<StagedBatch, DedupError> {
        let start = Instant::now();
        let mut batch = StagedBatch::default();
        let candidates: Vec<ObjectName> = self
            .dirty
            .lock()
            .live_prefix(max_objects)
            .into_iter()
            .map(|(n, _)| n)
            .collect();
        for name in candidates {
            if rate_controlled {
                if !self.rate.lock().admit_dedup(now) {
                    if batch.is_empty() {
                        self.stats.rate_denials.fetch_add(1, Ordering::Relaxed);
                        self.metrics.rate_denied.inc();
                    }
                    self.update_rate_band(now);
                    break;
                }
                self.metrics.rate_admitted.inc();
                self.update_rate_band(now);
            }
            match self.stage_object(&name, now)? {
                StageOutcome::Clean => batch.clean += 1,
                StageOutcome::Hot => batch.skipped_hot += 1,
                StageOutcome::Staged(s) => batch.objects.push(s),
            }
        }
        self.metrics
            .flush_batch_size
            .set(batch.objects.len() as i64);
        let elapsed = start.elapsed().as_nanos() as u64;
        self.metrics.stage_wall_ns.record(elapsed);
        if let Some(t) = &self.tracer {
            let end = t.wall_now_ns();
            t.wall_span("flush.stage", end.saturating_sub(elapsed), end);
        }
        Ok(batch)
    }

    /// Pipeline stage 1 for one background tick: rate-controlled staging of
    /// up to [`DedupConfig::flush_batch_size`] objects. Returns `None` when
    /// there is nothing to do (idle queue, or throttled before any
    /// candidate was admitted).
    ///
    /// This is the lock-splitting entry point: callers holding the engine
    /// behind a mutex stage here, release the lock to run
    /// [`crate::pipeline::fingerprint_batch`], then reacquire it for
    /// [`DedupStore::commit_batch`].
    ///
    /// # Errors
    ///
    /// Fails if the store does.
    pub fn stage_tick_batch(&mut self, now: SimTime) -> Result<Option<StagedBatch>, DedupError> {
        let batch = self.stage_batch(self.config.flush_batch_size, now, true)?;
        if batch.is_empty() {
            Ok(None)
        } else {
            Ok(Some(batch))
        }
    }

    /// Pipeline stages 2+3 under one borrow: fingerprint the staged batch
    /// (recording the wall-clock histogram), then commit it.
    fn fingerprint_and_commit(
        &mut self,
        mut batch: StagedBatch,
        failure: Option<FailurePoint>,
    ) -> Result<Timed<FlushReport>, DedupError> {
        let start = Instant::now();
        let parallelism = self.fingerprint_parallelism();
        fingerprint_batch(
            &mut batch,
            parallelism,
            self.config.tiered_fingerprint,
            &self.config.compression,
        );
        let elapsed = start.elapsed().as_nanos() as u64;
        self.metrics.fingerprint_wall_ns.record(elapsed);
        if let Some(t) = &self.tracer {
            let end = t.wall_now_ns();
            t.wall_span("flush.fingerprint", end.saturating_sub(elapsed), end);
        }
        self.commit_batch(batch, failure)
    }

    /// Pipeline stage 3: commits a fingerprinted batch. Each object's
    /// ticket is re-validated first; objects whose write epoch moved while
    /// the lock was released are skipped (they stay dirty and queued for a
    /// later pass). Returns the aggregate report and the virtual-time cost
    /// of the whole batch.
    ///
    /// # Errors
    ///
    /// Fails if the store does (an injected crash is *not* an error: the
    /// report has `aborted = true`).
    pub fn commit_batch(
        &mut self,
        batch: StagedBatch,
        failure: Option<FailurePoint>,
    ) -> Result<Timed<FlushReport>, DedupError> {
        let start = Instant::now();
        let mut total = FlushReport {
            skipped_hot: batch.skipped_hot > 0,
            ..Default::default()
        };
        let mut costs: Vec<CostExpr> = Vec::new();
        for staged in batch.objects {
            if let Some(t) = self.commit_staged(staged, failure)? {
                total.absorb(&t.value);
                costs.push(t.cost);
                if t.value.aborted {
                    // An injected crash kills the engine: nothing after it
                    // commits.
                    break;
                }
            }
        }
        let elapsed = start.elapsed().as_nanos() as u64;
        self.metrics.commit_wall_ns.record(elapsed);
        if let Some(t) = &self.tracer {
            let end = t.wall_now_ns();
            t.wall_span("flush.commit", end.saturating_sub(elapsed), end);
        }
        Ok(Timed::new(total, CostExpr::seq(costs)))
    }

    /// Commits one staged object (engine steps 3–6 of §4.4.1). Returns
    /// `None` when the staged ticket no longer matches — a foreground
    /// write, truncate, or delete raced the unlocked fingerprint stage and
    /// the snapshot is stale.
    ///
    /// The per-chunk cost sequence is assembled exactly as the classic
    /// serial flush did — reads, fingerprint CPU on the metadata node,
    /// deref, inter-node hop, store, final transact — so virtual-time
    /// results are unchanged by the pipeline split.
    fn commit_staged(
        &mut self,
        staged: StagedObject,
        failure: Option<FailurePoint>,
    ) -> Result<Option<Timed<FlushReport>>, DedupError> {
        let StagedObject {
            name,
            ticket,
            meta_node,
            keep_cached,
            staged_at,
            chunks,
        } = staged;
        if let Some(ticket) = ticket {
            if !self.dirty.lock().check(&name, ticket) {
                self.metrics.stage_conflicts.inc();
                if let Some(ev) = &self.events {
                    ev.emit(
                        Severity::Warn,
                        "engine.flush",
                        "stage_conflict",
                        vec![("object", name.as_str().to_string())],
                    );
                }
                return Ok(None);
            }
        }
        let mut report = FlushReport::default();
        let mut costs: Vec<CostExpr> = Vec::new();
        let ctx = self.meta_ctx(ClientId::INTERNAL);
        let mut ops: Vec<TxOp> = Vec::new();
        // Old-chunk dereferences are deferred until after the chunk-map
        // commit: a crash in between strands the *new* chunk (repaired by
        // GC backref validation) instead of deleting a chunk the durable
        // map still points at (unrecoverable data loss). Each deferred
        // deref keeps its original slot in the cost sequence so the
        // virtual-time model is byte-for-byte unchanged.
        let mut pending_derefs: Vec<(usize, Fingerprint, BackRef)> = Vec::new();
        let compress_enabled = self.config.compression.enabled;
        let compressed_domain =
            compress_enabled && self.config.compression.domain == FingerprintDomain::Compressed;
        let mut chunks_compressed = 0u64;
        let mut chunks_stored_raw = 0u64;
        for chunk in chunks {
            let e = chunk.entry;
            let stored = chunk.stored().clone();
            let encoded = chunk.encoded.is_some();
            let content = chunk.content;
            let merged = chunk.merged;
            costs.extend(chunk.read_costs);
            if compress_enabled && !content.is_empty() {
                // The encode attempt ran in stage 2 with the lock
                // released; like fingerprinting, its CPU bill lands on
                // the metadata node here so parallelism never perturbs
                // virtual-time results. The bill covers the raw bytes
                // whether or not the compressed form was kept.
                self.metrics.compress_attempted_chunks.inc();
                self.metrics
                    .compress_attempted_bytes
                    .add(content.len() as u64);
                let nanos = self
                    .config
                    .compression
                    .cost
                    .compress_nanos(content.len() as u64);
                let cpu = self
                    .cluster
                    .perf()
                    .cpu_busy(meta_node, SimDuration::from_nanos(nanos));
                costs.push(self.label("flush.compress_cpu", cpu));
                if encoded {
                    chunks_compressed += 1;
                    self.metrics.compress_stored_chunks.inc();
                    self.metrics.compress_raw_bytes.add(content.len() as u64);
                    self.metrics.compress_stored_bytes.add(stored.len() as u64);
                    // The compressed form is a fresh allocation; the CoW
                    // fast path (stored raw) allocates nothing.
                    self.metrics.bytes_copied.add(stored.len() as u64);
                } else {
                    chunks_stored_raw += 1;
                    self.metrics.compress_raw_fallbacks.inc();
                }
            }
            // (3) Resolve the chunk's target name. Classic mode: the full
            // fingerprint was computed in stage 2 (possibly on a worker
            // thread with the engine lock released); its CPU cost is
            // charged to the metadata node here, exactly as the serial
            // engine did. Tiered mode: re-probe the signature under the
            // lock and pay the full fingerprint only on a candidate
            // collision — a miss proves global uniqueness and the chunk
            // stores under a minted weak name, never hashed in full.
            // In the compressed fingerprint domain both paths hash (and
            // sign) the *stored* bytes — fewer bytes per full hash.
            let (fp, sig) = if self.config.tiered_fingerprint {
                let (domain_bytes, domain_len) = if compressed_domain {
                    (&stored, stored.len() as u64)
                } else {
                    (&content, e.len as u64)
                };
                self.resolve_chunk_target(
                    chunk.sig.unwrap_or_else(|| ChunkSig::of(domain_bytes)),
                    chunk.fingerprint,
                    domain_bytes,
                    domain_len,
                    compressed_domain && encoded,
                    meta_node,
                    staged_at,
                    &mut costs,
                )?
            } else {
                let (hashed, hashed_len) = if compressed_domain {
                    (&stored, stored.len() as u64)
                } else {
                    (&content, e.len as u64)
                };
                let fp = chunk.fingerprint.unwrap_or_else(|| {
                    let f = Fingerprint::of(hashed);
                    if compressed_domain && encoded {
                        f.into_compressed_domain()
                    } else {
                        f
                    }
                });
                self.metrics.fp_full_calls.inc();
                self.metrics.fp_full_hash_bytes.add(hashed_len);
                let fp_cost = self.fingerprint_cost(meta_node, hashed_len);
                costs.push(self.label("flush.fingerprint_cpu", fp_cost));
                (fp, None)
            };
            report.chunks_flushed += 1;

            if failure == Some(FailurePoint::BeforeChunkStore) {
                report.aborted = true;
                self.record_flush_report(&report);
                return Ok(Some(Timed::new(report, CostExpr::seq(costs))));
            }

            if e.chunk_id == Some(fp) {
                // Content unchanged since last flush: just clear the dirty
                // bit (reference already held).
            } else {
                // Reserve the deref's cost slot here (paper step 3's
                // position); the deref itself runs after the map commit.
                if let Some(old) = e.chunk_id {
                    costs.push(CostExpr::Nop);
                    pending_derefs.push((
                        costs.len() - 1,
                        old,
                        BackRef::new(self.metadata_pool, name.clone(), e.offset),
                    ));
                }
                // (4–5) Store or reference the chunk in the chunk pool
                // (the stored bytes: compressed form when encode kept it).
                let t = self.store_chunk(
                    ClientId::INTERNAL,
                    fp,
                    stored.clone(),
                    &name,
                    e.offset,
                    sig,
                    encoded.then_some(content.len() as u64),
                )?;
                match t.value {
                    ChunkStoreOutcome::Created => report.chunks_created += 1,
                    ChunkStoreOutcome::Deduplicated | ChunkStoreOutcome::AlreadyReferenced => {
                        report.chunks_deduped += 1
                    }
                }
                // Data travels metadata node → chunk pool — the stored
                // (possibly compressed) bytes when the plane is on.
                let hop_bytes = if compress_enabled {
                    stored.len() as u64
                } else {
                    e.len as u64
                };
                let chunk_name = ObjectName::new(fp.to_object_name());
                let chunk_node = self.primary_node(self.chunk_pool, &chunk_name)?;
                let hop = self
                    .cluster
                    .perf()
                    .node_to_node(meta_node, chunk_node, hop_bytes);
                costs.push(self.label("flush.chunk_hop", hop));
                costs.push(self.label("flush.chunk_store", t.cost));
            }

            if failure == Some(FailurePoint::AfterChunkStore) {
                report.aborted = true;
                self.record_flush_report(&report);
                return Ok(Some(Timed::new(report, CostExpr::seq(costs))));
            }

            // (6) Chunk-map update for this entry.
            let new_entry = ChunkMapEntry {
                offset: e.offset,
                len: e.len,
                chunk_id: Some(fp),
                cached: keep_cached,
                dirty: false,
            };
            ops.push(TxOp::SetOmap(
                new_entry.key(),
                new_entry.encode_value().into(),
            ));
            if !keep_cached {
                report.chunks_evicted += 1;
                ops.push(TxOp::PunchHole {
                    offset: e.offset,
                    len: e.len as u64,
                });
            } else if merged {
                // The cache keeps serving this chunk: fill its holes with
                // the merged content so reads stay local.
                ops.push(TxOp::Write {
                    offset: e.offset,
                    data: content.clone(),
                });
            }
        }
        let t = self.cluster.transact(&ctx, &name, ops)?;
        costs.push(self.label("flush.map_update", t.cost));
        // The map now durably points at the new chunks; releasing the old
        // references is safe (and crash-tolerant: a stranded old chunk's
        // backref no longer matches the live map, so GC reclaims it).
        for (slot, old, backref) in pending_derefs {
            let t = self.deref_chunk(old, &backref)?;
            report.derefs += 1;
            if t.value {
                report.chunks_reclaimed += 1;
            }
            costs[slot] = self.label("flush.deref", t.cost);
        }
        if chunks_compressed > 0 {
            if let Some(ev) = &self.events {
                ev.emit(
                    Severity::Info,
                    "engine.compress",
                    "chunks_compressed",
                    vec![
                        ("object", name.as_str().to_string()),
                        ("compressed", chunks_compressed.to_string()),
                        ("stored_raw", chunks_stored_raw.to_string()),
                    ],
                );
            }
        }
        self.finish_clean(&name);
        self.record_flush_report(&report);
        Ok(Some(Timed::new(report, CostExpr::seq(costs))))
    }

    fn record_flush_report(&self, report: &FlushReport) {
        self.metrics.chunks_flushed.add(report.chunks_flushed);
        self.metrics.chunks_deduped.add(report.chunks_deduped);
        self.metrics.chunks_created.add(report.chunks_created);
        self.metrics.chunks_reclaimed.add(report.chunks_reclaimed);
        self.metrics.chunks_evicted.add(report.chunks_evicted);
        self.publish_index_health();
    }

    /// Tiered-pipeline chunk resolution: decides what name the staged
    /// chunk deduplicates against (or stores under) while paying the full
    /// fingerprint only when a signature collision forces it.
    ///
    /// The candidate probe runs *under the engine lock* and therefore sees
    /// every chunk stored so far — including by earlier chunks of this
    /// very batch — so an empty candidate set is proof no stored chunk can
    /// share this content: every store registers its signature before the
    /// chunk becomes visible, and post-process mode has no racing stores
    /// while the lock is held. Such chunks skip full hashing forever and
    /// store under a minted weak name.
    ///
    /// Returns the target fingerprint plus the signature for
    /// [`DedupStore::store_chunk`] to index on creation.
    ///
    /// `content` is in the configured fingerprint domain (raw bytes, or
    /// stored bytes under [`FingerprintDomain::Compressed`]);
    /// `tag_compressed` marks a compressed stream so a fallback hash
    /// lands in the compressed fingerprint namespace.
    #[allow(clippy::too_many_arguments)]
    fn resolve_chunk_target(
        &self,
        sig: ChunkSig,
        staged_fp: Option<Fingerprint>,
        content: &Bytes,
        len: u64,
        tag_compressed: bool,
        meta_node: usize,
        staged_at: SimTime,
        costs: &mut Vec<CostExpr>,
    ) -> Result<(Fingerprint, Option<ChunkSig>), DedupError> {
        self.metrics.fp_sig_calls.inc();
        let sig_cost = self.fingerprint_cost(meta_node, SIG_SAMPLE_BYTES.min(len));
        costs.push(self.label("flush.sig_cpu", sig_cost));
        let probe_start = Instant::now();
        let cands = self.index.candidates(&sig, staged_at);
        self.metrics
            .index_probe_ns
            .record(probe_start.elapsed().as_nanos() as u64);
        if cands.is_empty() && staged_fp.is_none() {
            self.metrics.fp_skipped_unique.inc();
            self.metrics.fp_weak_stored.inc();
            let seq = self.weak_seq.fetch_add(1, Ordering::Relaxed);
            return Ok((Fingerprint::mint_weak(&sig, seq), Some(sig)));
        }
        // Collision (or stage 2 hashed already): pay the full fingerprint.
        let full = staged_fp.unwrap_or_else(|| {
            let f = Fingerprint::of(content);
            if tag_compressed {
                f.into_compressed_domain()
            } else {
                f
            }
        });
        self.metrics.fp_full_calls.inc();
        self.metrics.fp_full_hash_bytes.add(len);
        let fp_cost = self.fingerprint_cost(meta_node, len);
        costs.push(self.label("flush.fingerprint_cpu", fp_cost));
        for cand in cands {
            let cand_full = match cand.full {
                Some(f) => Some(f),
                None => self.upgrade_candidate(&sig, cand.stored, meta_node, costs)?,
            };
            if cand_full == Some(full) {
                return Ok((cand.stored, Some(sig)));
            }
        }
        Ok((full, Some(sig)))
    }

    /// Resolves a weak-named candidate's full fingerprint by reading its
    /// content back from the chunk pool and hashing it — at most once per
    /// stored chunk, since the result is memoized into the index. A
    /// candidate whose chunk object has since been reclaimed is dropped
    /// from the index and skipped (`Ok(None)`).
    fn upgrade_candidate(
        &self,
        sig: &ChunkSig,
        stored: Fingerprint,
        meta_node: usize,
        costs: &mut Vec<CostExpr>,
    ) -> Result<Option<Fingerprint>, DedupError> {
        let chunk_name = ObjectName::new(stored.to_object_name());
        let extent = match self.cluster.stat(self.chunk_pool, &chunk_name)? {
            Some(len) => len,
            None => {
                self.index.drop_candidate(sig, stored);
                return Ok(None);
            }
        };
        let cctx = self.chunk_ctx(ClientId::INTERNAL);
        let compressed_domain = self.config.compression.enabled
            && self.config.compression.domain == FingerprintDomain::Compressed;
        let (full, len) = if compressed_domain {
            // Compressed domain: the full name covers the *stored* bytes,
            // tagged into the compressed namespace when those bytes are a
            // compressed stream.
            let t = self.cluster.read_at(&cctx, &chunk_name, 0, extent)?;
            costs.push(self.label("flush.upgrade_read", t.cost));
            let f = Fingerprint::of(&t.value);
            let f = if self.chunk_raw_len(&cctx, &chunk_name)?.is_some() {
                f.into_compressed_domain()
            } else {
                f
            };
            (f, extent)
        } else {
            // Raw domain: hash the logical payload (decompressing a
            // compressed-stored candidate first).
            let logical = self.chunk_extent(&cctx, &chunk_name)?.unwrap_or(extent);
            let t = self.read_chunk_at(&cctx, &chunk_name, 0, logical)?;
            costs.push(self.label("flush.upgrade_read", t.cost));
            (Fingerprint::of(&t.value), logical)
        };
        costs.push(self.label("flush.upgrade_cpu", self.fingerprint_cost(meta_node, len)));
        self.metrics.fp_full_hash_bytes.add(len);
        self.index.memoize_full(sig, stored, full);
        self.metrics.fp_upgrades.inc();
        Ok(Some(full))
    }

    /// Publishes the chunk index's health gauges: Bloom fill ratio (with a
    /// one-shot warning counter on crossing 0.5), resident memory, tier
    /// populations, and migration counts.
    fn publish_index_health(&self) {
        let fill = self.index.bloom_fill_ratio();
        self.metrics
            .bloom_fill_ratio
            .set((fill * 1_000_000.0) as i64);
        if fill > 0.5 && !self.bloom_warned.swap(true, Ordering::Relaxed) {
            self.metrics.bloom_overfill.inc();
            if let Some(ev) = &self.events {
                ev.emit(
                    Severity::Warn,
                    "engine.bloom",
                    "overfill",
                    vec![("fill_ppm", ((fill * 1_000_000.0) as i64).to_string())],
                );
            }
        }
        self.metrics
            .index_resident_bytes
            .set(self.index.resident_bytes() as i64);
        let stats = self.index.stats();
        self.metrics
            .index_hot_entries
            .set(stats.hot_candidates as i64);
        self.metrics
            .index_cold_entries
            .set(stats.cold_records as i64);
        self.metrics.index_promotions.set(stats.promotions as i64);
        self.metrics.index_demotions.set(stats.demotions as i64);
    }

    fn finish_clean(&self, name: &ObjectName) {
        let mut dirty = self.dirty.lock();
        dirty.remove(name);
        self.sync_queue_depth(&dirty);
    }

    /// One background-engine step: honours rate control, pops up to
    /// [`DedupConfig::flush_batch_size`] of the oldest dirty objects, and
    /// flushes them through the stage → fingerprint → commit pipeline.
    /// Returns `None` when idle or throttled. At the default batch size of
    /// 1 this behaves exactly like the classic one-object tick.
    ///
    /// # Errors
    ///
    /// Fails if the store does.
    pub fn dedup_tick(&mut self, now: SimTime) -> Result<Option<Timed<FlushReport>>, DedupError> {
        match self.stage_tick_batch(now)? {
            None => Ok(None),
            Some(batch) => self.fingerprint_and_commit(batch, None).map(Some),
        }
    }

    /// Flushes the oldest dirty object, ignoring rate control (the
    /// *uncontrolled background deduplication* of Figs. 5b & 14). Hotness
    /// still applies per the configured cache policy.
    ///
    /// # Errors
    ///
    /// Fails if the store does.
    pub fn flush_next(&mut self, now: SimTime) -> Result<Option<Timed<FlushReport>>, DedupError> {
        let front = self.dirty.lock().front();
        match front {
            None => Ok(None),
            Some(name) => Ok(Some(self.flush_object(&name, now)?)),
        }
    }

    /// Flushes every dirty object ignoring rate control and hotness; used
    /// by capacity experiments that want the steady state. Internally runs
    /// the pipeline in bounded batches (staged chunk contents are held in
    /// memory between stage and commit).
    ///
    /// # Errors
    ///
    /// Fails if the store does.
    pub fn flush_all(&mut self, now: SimTime) -> Result<Timed<FlushReport>, DedupError> {
        /// Objects staged per internal pass; bounds staged memory.
        const FLUSH_ALL_BATCH: usize = 64;
        let saved_policy = self.config.cache_policy;
        if saved_policy == CachePolicy::HotnessAware {
            self.config.cache_policy = CachePolicy::EvictAll;
        }
        let mut total = FlushReport::default();
        let mut costs = Vec::new();
        let result = loop {
            if self.dirty.lock().is_empty() {
                break Ok(Timed::new(total, CostExpr::seq(costs)));
            }
            let before = self.dirty.lock().len();
            let batch = match self.stage_batch(FLUSH_ALL_BATCH, now, false) {
                Ok(b) => b,
                Err(e) => break Err(e),
            };
            let had_objects = !batch.objects.is_empty();
            match self.fingerprint_and_commit(batch, None) {
                Ok(t) => {
                    total.absorb(&t.value);
                    costs.push(t.cost);
                }
                Err(e) => break Err(e),
            }
            if !had_objects && self.dirty.lock().len() >= before {
                // Defensive: nothing staged and nothing left the queue.
                // Cannot happen with the hotness override above, but a
                // silent livelock would be worse than a partial flush.
                break Ok(Timed::new(total, CostExpr::seq(costs)));
            }
        };
        self.config.cache_policy = saved_policy;
        result
    }

    /// Garbage-collects the chunk pool (the companion of
    /// [`DedupConfig::lazy_dereference`]): every chunk object's back
    /// references are validated against the live chunk maps; stale
    /// references are dropped, counts corrected, and unreferenced chunks
    /// deleted. Safe to run at any time in any mode.
    ///
    /// # Errors
    ///
    /// Fails if the store does.
    pub fn gc_chunk_pool(&mut self) -> Result<Timed<GcReport>, DedupError> {
        let mut report = GcReport::default();
        let mut costs: Vec<CostExpr> = Vec::new();
        let cctx = self.chunk_ctx(ClientId::INTERNAL);
        let chunk_names = self.cluster.list_objects(self.chunk_pool)?;
        for chunk_name in chunk_names {
            report.chunks_examined += 1;
            let fp = match Fingerprint::from_object_name(chunk_name.as_str()) {
                Some(fp) => fp,
                None => continue, // foreign object in the pool; leave it
            };
            let refs = self.cluster.omap_entries(&cctx, &chunk_name)?;
            costs.push(refs.cost);
            let mut live = 0u64;
            let mut ops: Vec<TxOp> = Vec::new();
            for key in refs.value.keys() {
                let Some(backref) = BackRef::decode_key(key) else {
                    continue;
                };
                // A reference is live iff the referrer still exists and its
                // chunk map entry at that offset names this chunk.
                let entries = self.load_chunk_map(&backref.object)?;
                let points_here = entries
                    .iter()
                    .any(|e| e.offset == backref.offset && e.chunk_id == Some(fp));
                if points_here {
                    live += 1;
                } else {
                    report.stale_refs_dropped += 1;
                    ops.push(TxOp::RemoveOmap(key.clone()));
                }
            }
            if live == 0 {
                let t = self.cluster.delete(&cctx, &chunk_name)?;
                costs.push(t.cost);
                report.chunks_reclaimed += 1;
            } else if !ops.is_empty() {
                ops.push(TxOp::SetXattr(
                    REFCOUNT_XATTR.into(),
                    encode_refcount(live).into(),
                ));
                let t = self.cluster.transact(&cctx, &chunk_name, ops)?;
                costs.push(t.cost);
                report.counts_corrected += 1;
            }
        }
        self.metrics
            .gc_chunks_reclaimed
            .add(report.chunks_reclaimed);
        self.metrics
            .gc_stale_refs_dropped
            .add(report.stale_refs_dropped);
        if let Some(ev) = &self.events {
            if report.chunks_reclaimed > 0
                || report.stale_refs_dropped > 0
                || report.counts_corrected > 0
            {
                ev.emit(
                    Severity::Info,
                    "engine.gc",
                    "gc_pass",
                    vec![
                        ("chunks_examined", report.chunks_examined.to_string()),
                        ("chunks_reclaimed", report.chunks_reclaimed.to_string()),
                        ("stale_refs_dropped", report.stale_refs_dropped.to_string()),
                        ("counts_corrected", report.counts_corrected.to_string()),
                    ],
                );
            }
        }
        Ok(Timed::new(report, CostExpr::seq(costs)))
    }

    /// Dedup-level scrub: walks every metadata object's chunk map and
    /// verifies the referenced chunk objects exist in the chunk pool.
    /// Returns the dangling references (metadata object, chunk name) —
    /// evidence of data loss beyond the pools' fault tolerance.
    ///
    /// # Errors
    ///
    /// Fails if the store does.
    pub fn verify_references(&self) -> Result<Vec<(ObjectName, String)>, DedupError> {
        let mut missing = Vec::new();
        let names = self.cluster.list_objects(self.metadata_pool)?;
        for name in names {
            for e in self.load_chunk_map(&name)? {
                if let Some(fp) = e.chunk_id {
                    let chunk_name = ObjectName::new(fp.to_object_name());
                    if self.cluster.stat(self.chunk_pool, &chunk_name)?.is_none() {
                        missing.push((name.clone(), chunk_name.to_string()));
                    }
                }
            }
        }
        Ok(missing)
    }

    /// Rebuilds the in-memory dirty queue by scanning metadata-object chunk
    /// maps — crash recovery for the engine. Because dirty bits live in the
    /// objects themselves, no dedup state is lost with the process.
    ///
    /// # Errors
    ///
    /// Fails if the store does.
    pub fn recover_dirty_queue(&mut self) -> Result<usize, DedupError> {
        {
            let mut dirty = self.dirty.lock();
            dirty.clear();
            self.sync_queue_depth(&dirty);
        }
        let names = self.cluster.list_objects(self.metadata_pool)?;
        for name in names {
            let entries = self.load_chunk_map(&name)?;
            if entries.iter().any(|e| e.dirty) {
                self.mark_dirty(&name);
            }
        }
        Ok(self.dirty.lock().len())
    }

    /// Re-seeds the chunk index (Bloom side and, in tiered mode, the
    /// signature → candidate map) from the chunk pool's current contents.
    /// Mandatory after WAL replay into a fresh engine: an empty filter
    /// would answer a definite "absent" for a chunk that *does* exist, and
    /// the next [`DedupStore::store_chunk`] of that content would
    /// overwrite its refcount with 1 — a silent double-free waiting to
    /// happen. In tiered mode the signature map must likewise cover every
    /// surviving chunk (a signature miss claims uniqueness), and the weak
    /// name sequence is resumed past the highest surviving sequence so a
    /// recycled name can never alias different content.
    ///
    /// # Errors
    ///
    /// Fails if the store does.
    pub fn rebuild_index(&mut self) -> Result<usize, DedupError> {
        self.index.clear();
        self.bloom_warned.store(false, Ordering::Relaxed);
        // Signatures must be re-derived over the same bytes the live
        // pipeline signs: stored bytes under the compressed fingerprint
        // domain, logical (decompressed) bytes otherwise.
        let compressed_domain = self.config.compression.enabled
            && self.config.compression.domain == FingerprintDomain::Compressed;
        let cctx = self.chunk_ctx(ClientId::INTERNAL);
        let mut seeded = 0;
        let mut max_weak = 0u64;
        for chunk_name in self.cluster.list_objects(self.chunk_pool)? {
            let Some(fp) = Fingerprint::from_object_name(chunk_name.as_str()) else {
                continue;
            };
            let sig = if self.config.tiered_fingerprint {
                if compressed_domain {
                    let len = self
                        .cluster
                        .stat(self.chunk_pool, &chunk_name)?
                        .unwrap_or(0);
                    if len == 0 {
                        Some(ChunkSig::of(&[]))
                    } else {
                        let t = self.cluster.read_at(&cctx, &chunk_name, 0, len)?;
                        Some(ChunkSig::of(&t.value))
                    }
                } else {
                    let len = self.chunk_extent(&cctx, &chunk_name)?.unwrap_or(0);
                    if len == 0 {
                        Some(ChunkSig::of(&[]))
                    } else {
                        let t = self.read_chunk_at(&cctx, &chunk_name, 0, len)?;
                        Some(ChunkSig::of(&t.value))
                    }
                }
            } else {
                None
            };
            self.index.note_stored(fp, sig);
            if let Some(seq) = fp.weak_seq() {
                max_weak = max_weak.max(seq + 1);
            }
            seeded += 1;
        }
        self.weak_seq.fetch_max(max_weak, Ordering::Relaxed);
        self.publish_index_health();
        Ok(seeded)
    }

    /// Backwards-compatible alias for [`DedupStore::rebuild_index`] (the
    /// Bloom filter is one face of the chunk index).
    ///
    /// # Errors
    ///
    /// Fails if the store does.
    pub fn rebuild_bloom(&mut self) -> Result<usize, DedupError> {
        self.rebuild_index()
    }

    /// Lists chunk objects none of whose back references are live — the
    /// stranded state a crash between chunk-pool commit and chunk-map
    /// update leaves behind. These leak capacity until
    /// [`DedupStore::gc_chunk_pool`] reclaims them; the crash harness
    /// asserts the set is empty after recovery.
    ///
    /// # Errors
    ///
    /// Fails if the store does.
    pub fn find_leaked_chunks(&self) -> Result<Vec<String>, DedupError> {
        let cctx = self.chunk_ctx(ClientId::INTERNAL);
        let mut leaked = Vec::new();
        for chunk_name in self.cluster.list_objects(self.chunk_pool)? {
            let Some(fp) = Fingerprint::from_object_name(chunk_name.as_str()) else {
                continue;
            };
            let refs = self.cluster.omap_entries(&cctx, &chunk_name)?;
            let mut live = false;
            for key in refs.value.keys() {
                let Some(backref) = BackRef::decode_key(key) else {
                    continue;
                };
                let entries = self.load_chunk_map(&backref.object)?;
                if entries
                    .iter()
                    .any(|e| e.offset == backref.offset && e.chunk_id == Some(fp))
                {
                    live = true;
                    break;
                }
            }
            if !live {
                leaked.push(chunk_name.to_string());
            }
        }
        Ok(leaked)
    }

    /// Full restart-after-crash protocol for a freshly built engine whose
    /// cluster has a WAL attached. The order is load-bearing:
    ///
    /// 1. Replay the WAL (checkpoint segments, then the committed log
    ///    tail; torn tails are dropped by CRC).
    /// 2. Rebuild the dirty queue from the replayed chunk maps.
    /// 3. Re-seed the chunk index from the chunk pool (before any
    ///    `store_chunk` can consult it — see
    ///    [`DedupStore::rebuild_index`]).
    /// 4. Flush the dirty backlog, completing any interrupted flush while
    ///    its old chunks still exist for deferred read-modify-write.
    /// 5. Garbage-collect the chunk pool: drops back references stranded
    ///    by a crash between chunk-pool commit and map update, corrects
    ///    refcounts, reclaims unreferenced chunks.
    /// 6. Checkpoint, so the repaired state is the new durable baseline
    ///    and torn log tails never sit mid-log.
    ///
    /// # Errors
    ///
    /// Fails if the store does.
    pub fn recover_after_crash(&mut self, now: SimTime) -> Result<CrashRecoveryReport, DedupError> {
        self.advance_events(now);
        let wal = self.cluster.wal_recover()?;
        let dirty_objects = self.recover_dirty_queue()?;
        let bloom_seeded = self.rebuild_index()?;
        let flush = self.flush_all(now)?.value;
        let gc = self.gc_chunk_pool()?.value;
        let checkpoint_seq = self.cluster.wal_checkpoint()?.last_seq;
        if let Some(ev) = &self.events {
            ev.emit_at(
                now,
                Severity::Info,
                "engine.recovery",
                "crash_recovery",
                vec![
                    ("log_records_replayed", wal.log_records_replayed.to_string()),
                    ("torn_tails_dropped", wal.torn_tails_dropped.to_string()),
                    ("dirty_objects", dirty_objects.to_string()),
                    ("index_seeded", bloom_seeded.to_string()),
                    ("gc_reclaimed", gc.chunks_reclaimed.to_string()),
                    ("checkpoint_seq", checkpoint_seq.to_string()),
                ],
            );
        }
        Ok(CrashRecoveryReport {
            wal,
            dirty_objects,
            bloom_seeded,
            flush,
            gc,
            checkpoint_seq,
        })
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

/// What [`DedupStore::store_chunk`] did.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum ChunkStoreOutcome {
    /// A new chunk object was created (unique content).
    Created,
    /// The chunk existed; a reference was added (capacity saved).
    Deduplicated,
    /// The chunk existed and already carried our reference (crash retry).
    AlreadyReferenced,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{HitSetConfig, Watermarks};
    use dedup_store::ClusterBuilder;

    const CS: u32 = 8 * 1024; // small chunks keep tests fast

    fn patterned(len: usize, seed: u64) -> Vec<u8> {
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

    fn store_with(config: DedupConfig) -> DedupStore {
        let cluster = ClusterBuilder::new().nodes(4).osds_per_node(4).build();
        DedupStore::with_default_pools(cluster, config)
    }

    fn store() -> DedupStore {
        store_with(DedupConfig::with_chunk_size(CS))
    }

    fn t(secs: u64) -> SimTime {
        SimTime::from_secs(secs)
    }

    #[test]
    fn write_then_read_before_flush() {
        let s = store();
        let name = ObjectName::new("obj");
        let data = patterned(3 * CS as usize + 100, 1);
        let _ = s.write(ClientId(0), &name, 0, &data, t(0)).expect("write");
        let r = s
            .read(ClientId(0), &name, 0, data.len() as u64, t(0))
            .expect("read");
        assert_eq!(r.value, data);
        assert!(s.stats().redirected_chunks == 0, "all cached before flush");
        assert_eq!(s.dirty_len(), 1);
    }

    #[test]
    fn flush_dedups_identical_objects() {
        let mut s = store();
        let data = patterned(4 * CS as usize, 7);
        for i in 0..5 {
            let name = ObjectName::new(format!("obj-{i}"));
            let _ = s.write(ClientId(0), &name, 0, &data, t(0)).expect("write");
        }
        let rep = s.flush_all(t(10)).expect("flush");
        assert_eq!(rep.value.chunks_flushed, 20);
        assert_eq!(rep.value.chunks_created, 4, "only unique chunks stored");
        assert_eq!(rep.value.chunks_deduped, 16);
        let sr = s.space_report().expect("report");
        assert_eq!(sr.chunk_objects, 4);
        assert_eq!(sr.logical_bytes, 5 * 4 * CS as u64);
        assert_eq!(sr.chunk_bytes, 4 * CS as u64);
        // ~80% ideal dedup ratio for 5 identical objects.
        assert!((sr.ideal_ratio_percent() - 80.0).abs() < 1.0);
    }

    #[test]
    fn refcounts_track_referrers() {
        let mut s = store();
        let data = patterned(CS as usize, 3);
        for i in 0..3 {
            let _ = s
                .write(
                    ClientId(0),
                    &ObjectName::new(format!("o{i}")),
                    0,
                    &data,
                    t(0),
                )
                .expect("write");
        }
        let _ = s.flush_all(t(5)).expect("flush");
        let fp = Fingerprint::of(&data);
        let chunk_name = ObjectName::new(fp.to_object_name());
        let cctx = IoCtx::new(s.chunk_pool());
        let count = s
            .cluster_mut()
            .get_xattr(&cctx, &chunk_name, REFCOUNT_XATTR)
            .expect("xattr")
            .value
            .and_then(|v| decode_refcount(&v))
            .expect("count");
        assert_eq!(count, 3);
        let refs = s
            .cluster_mut()
            .omap_entries(&cctx, &chunk_name)
            .expect("omap")
            .value;
        assert_eq!(refs.keys().filter(|k| BackRef::is_ref_key(k)).count(), 3);
    }

    #[test]
    fn eviction_frees_metadata_pool_space() {
        let mut s = store();
        let name = ObjectName::new("obj");
        let data = patterned(8 * CS as usize, 9);
        let _ = s.write(ClientId(0), &name, 0, &data, t(0)).expect("write");
        let before = s
            .cluster()
            .usage(s.metadata_pool())
            .expect("usage")
            .stored_bytes;
        let _ = s.flush_all(t(5)).expect("flush");
        let after = s
            .cluster()
            .usage(s.metadata_pool())
            .expect("usage")
            .stored_bytes;
        assert!(
            after < before / 4,
            "eviction should free space: {before} -> {after}"
        );
        // Data still correct via redirection.
        let r = s
            .read(ClientId(0), &name, 0, data.len() as u64, t(6))
            .expect("read");
        assert_eq!(r.value, data);
        assert!(s.stats().redirected_chunks > 0);
    }

    #[test]
    fn keep_all_policy_serves_from_cache_after_flush() {
        let mut s = store_with(DedupConfig::with_chunk_size(CS).cache_policy(CachePolicy::KeepAll));
        let name = ObjectName::new("obj");
        let data = patterned(4 * CS as usize, 11);
        let _ = s.write(ClientId(0), &name, 0, &data, t(0)).expect("write");
        let _ = s.flush_all(t(5)).expect("flush");
        let r = s
            .read(ClientId(0), &name, 0, data.len() as u64, t(6))
            .expect("read");
        assert_eq!(r.value, data);
        assert_eq!(s.stats().redirected_chunks, 0, "cache keeps serving");
        // Chunk pool still holds the deduplicated copy.
        assert!(s.space_report().expect("report").chunk_objects > 0);
    }

    #[test]
    fn hot_object_skips_dedup_until_cool() {
        let mut s = store();
        let name = ObjectName::new("hot");
        let data = patterned(CS as usize, 13);
        // Touch the object in several hitset intervals: hot.
        let _ = s.write(ClientId(0), &name, 0, &data, t(0)).expect("write");
        let _ = s.write(ClientId(0), &name, 0, &data, t(1)).expect("write");
        let rep = s.flush_object(&name, t(1)).expect("flush");
        assert!(rep.value.skipped_hot);
        assert_eq!(s.dirty_len(), 1, "object stays dirty");
        // Long idle: cools down, flush proceeds.
        let rep = s.flush_object(&name, t(100)).expect("flush");
        assert!(!rep.value.skipped_hot);
        assert_eq!(rep.value.chunks_flushed, 1);
        assert_eq!(s.dirty_len(), 0);
    }

    #[test]
    fn overwrite_reclaims_unreferenced_chunks() {
        let mut s = store();
        let name = ObjectName::new("obj");
        let old = patterned(CS as usize, 17);
        let _ = s.write(ClientId(0), &name, 0, &old, t(0)).expect("write");
        let _ = s.flush_all(t(5)).expect("flush");
        assert_eq!(s.space_report().expect("r").chunk_objects, 1);
        // Overwrite with new content; old chunk loses its only reference.
        let new = patterned(CS as usize, 18);
        let _ = s.write(ClientId(0), &name, 0, &new, t(10)).expect("write");
        let rep = s.flush_all(t(15)).expect("flush");
        assert_eq!(rep.value.derefs, 1);
        assert_eq!(rep.value.chunks_reclaimed, 1);
        let sr = s.space_report().expect("r");
        assert_eq!(sr.chunk_objects, 1, "old chunk deleted, new chunk stored");
        let r = s
            .read(ClientId(0), &name, 0, new.len() as u64, t(16))
            .expect("read");
        assert_eq!(r.value, new);
    }

    #[test]
    fn delete_dereferences_everything() {
        let mut s = store();
        let data = patterned(2 * CS as usize, 19);
        let a = ObjectName::new("a");
        let b = ObjectName::new("b");
        let _ = s.write(ClientId(0), &a, 0, &data, t(0)).expect("write");
        let _ = s.write(ClientId(0), &b, 0, &data, t(0)).expect("write");
        let _ = s.flush_all(t(5)).expect("flush");
        assert_eq!(s.space_report().expect("r").chunk_objects, 2);
        let _ = s.delete(ClientId(0), &a).expect("delete");
        // Chunks still referenced by b.
        assert_eq!(s.space_report().expect("r").chunk_objects, 2);
        let _ = s.delete(ClientId(0), &b).expect("delete");
        let sr = s.space_report().expect("r");
        assert_eq!(sr.chunk_objects, 0, "last reference reclaims chunks");
        assert_eq!(sr.metadata_objects, 0);
    }

    #[test]
    fn partial_write_to_evicted_chunk_prereads() {
        let mut s = store();
        let name = ObjectName::new("obj");
        let data = patterned(CS as usize, 23);
        let _ = s.write(ClientId(0), &name, 0, &data, t(0)).expect("write");
        let _ = s.flush_all(t(5)).expect("flush");
        // 1 KiB partial update in the middle of the (evicted) chunk.
        let patch = patterned(1024, 29);
        let _ = s
            .write(ClientId(0), &name, 2048, &patch, t(10))
            .expect("write");
        let _ = s.flush_all(t(15)).expect("flush");
        let r = s
            .read(ClientId(0), &name, 0, CS as u64, t(16))
            .expect("read");
        let mut expect = data.clone();
        expect[2048..3072].copy_from_slice(&patch);
        assert_eq!(r.value, expect, "pre-read preserved surrounding bytes");
    }

    #[test]
    fn inline_mode_dedups_without_flush() {
        let s = store_with(DedupConfig::with_chunk_size(CS).inline());
        let data = patterned(2 * CS as usize, 31);
        for i in 0..4 {
            let _ = s
                .write(
                    ClientId(0),
                    &ObjectName::new(format!("o{i}")),
                    0,
                    &data,
                    t(0),
                )
                .expect("write");
        }
        assert_eq!(s.dirty_len(), 0, "inline mode leaves nothing dirty");
        let sr = s.space_report().expect("r");
        assert_eq!(sr.chunk_objects, 2, "deduplicated at write time");
        let r = s
            .read(
                ClientId(0),
                &ObjectName::new("o3"),
                0,
                data.len() as u64,
                t(1),
            )
            .expect("read");
        assert_eq!(r.value, data);
    }

    #[test]
    fn inline_partial_write_read_modify_write() {
        let s = store_with(DedupConfig::with_chunk_size(CS).inline());
        let name = ObjectName::new("obj");
        let data = patterned(CS as usize, 37);
        let _ = s.write(ClientId(0), &name, 0, &data, t(0)).expect("write");
        let patch = patterned(100, 41);
        let _ = s
            .write(ClientId(0), &name, 500, &patch, t(1))
            .expect("write");
        let r = s
            .read(ClientId(0), &name, 0, CS as u64, t(2))
            .expect("read");
        let mut expect = data.clone();
        expect[500..600].copy_from_slice(&patch);
        assert_eq!(r.value, expect);
        // The stale original chunk was dereferenced and reclaimed.
        assert_eq!(s.space_report().expect("r").chunk_objects, 1);
    }

    #[test]
    fn crash_before_chunk_store_recovers() {
        let mut s = store();
        let name = ObjectName::new("obj");
        let data = patterned(2 * CS as usize, 43);
        let _ = s.write(ClientId(0), &name, 0, &data, t(0)).expect("write");
        let rep = s
            .flush_object_with_failure(&name, t(100), Some(FailurePoint::BeforeChunkStore))
            .expect("flush");
        assert!(rep.value.aborted);
        assert_eq!(
            s.space_report().expect("r").chunk_objects,
            0,
            "nothing stored yet"
        );
        // Simulate engine restart: dirty queue rebuilt from object state.
        let found = s.recover_dirty_queue().expect("recover");
        assert_eq!(found, 1);
        let _ = s.flush_all(t(200)).expect("flush");
        let r = s
            .read(ClientId(0), &name, 0, data.len() as u64, t(201))
            .expect("read");
        assert_eq!(r.value, data);
    }

    #[test]
    fn crash_after_chunk_store_is_idempotent() {
        let mut s = store();
        let name = ObjectName::new("obj");
        let data = patterned(CS as usize, 47);
        let _ = s.write(ClientId(0), &name, 0, &data, t(0)).expect("write");
        let rep = s
            .flush_object_with_failure(&name, t(100), Some(FailurePoint::AfterChunkStore))
            .expect("flush");
        assert!(rep.value.aborted);
        // Chunk landed but the map still says dirty.
        assert_eq!(s.space_report().expect("r").chunk_objects, 1);
        let found = s.recover_dirty_queue().expect("recover");
        assert_eq!(found, 1);
        // Retry converges without double-counting the reference.
        let _ = s.flush_all(t(200)).expect("flush");
        let fp = Fingerprint::of(&data);
        let chunk_name = ObjectName::new(fp.to_object_name());
        let cctx = IoCtx::new(s.chunk_pool());
        let count = s
            .cluster_mut()
            .get_xattr(&cctx, &chunk_name, REFCOUNT_XATTR)
            .expect("xattr")
            .value
            .and_then(|v| decode_refcount(&v))
            .expect("count");
        assert_eq!(count, 1, "no refcount leak on retry");
        let r = s
            .read(ClientId(0), &name, 0, data.len() as u64, t(201))
            .expect("read");
        assert_eq!(r.value, data);
    }

    #[test]
    fn flush_merges_entry_extended_past_old_chunk_extent() {
        // A zero-extending truncate grows a flushed-and-evicted entry past
        // the length of the chunk object backing it; the next flush's
        // deferred read-modify-write must clamp its hole reads to the old
        // chunk's extent (the tail is sparse zeros), not read past EOF.
        let mut s =
            store_with(DedupConfig::with_chunk_size(CS).cache_policy(CachePolicy::EvictAll));
        let name = ObjectName::new("obj");
        let data = patterned(4096, 71);
        let _ = s
            .write(ClientId(0), &name, 8192, &data, t(0))
            .expect("write");
        let _ = s.flush_all(t(1000)).expect("flush"); // chunk object: 4096 bytes
        let _ = s
            .truncate(ClientId(0), &name, 16672, t(2000)) // entry grows to 8192
            .expect("truncate");
        let _ = s.flush_all(t(5000)).expect("flush after zero-extension");
        let r = s.read(ClientId(0), &name, 0, 16672, t(6000)).expect("read");
        let mut expect = vec![0u8; 16672];
        expect[8192..12288].copy_from_slice(&data);
        assert_eq!(r.value, expect);
        assert!(s.verify_references().expect("verify").is_empty());
    }

    #[test]
    fn crash_after_chunk_store_on_rewrite_strands_only_the_new_chunk() {
        // The torn-flush window: a crash between chunk-pool commit and
        // chunk-map update. The commit order must leave the *old* chunk
        // alive (the durable map still points at it) and strand only the
        // *new* one, which GC then reclaims. Deleting the old chunk first
        // would turn this crash into unrecoverable data loss.
        let mut s = store();
        let name = ObjectName::new("obj");
        let v1 = patterned(CS as usize, 61);
        let _ = s.write(ClientId(0), &name, 0, &v1, t(0)).expect("write v1");
        let _ = s.flush_all(t(1)).expect("flush v1");
        let v2 = patterned(CS as usize, 62);
        let _ = s.write(ClientId(0), &name, 0, &v2, t(2)).expect("write v2");
        // Flush far enough in virtual time that the object is cold again.
        let rep = s
            .flush_object_with_failure(&name, t(5000), Some(FailurePoint::AfterChunkStore))
            .expect("flush");
        assert!(rep.value.aborted, "got {:?}", rep.value);
        // The map still names the v1 chunk and that chunk still exists.
        assert!(s.verify_references().expect("verify").is_empty());
        // The v2 chunk landed but nothing references it: exactly one leak.
        let leaked = s.find_leaked_chunks().expect("leaks");
        assert_eq!(
            leaked,
            vec![Fingerprint::of(&v2).to_object_name()],
            "crash strands the new chunk only"
        );
        // Engine restart: re-queue, re-flush (idempotent via the existing
        // backref), then GC sweeps the strand... which by then is live.
        let found = s.recover_dirty_queue().expect("recover");
        assert_eq!(found, 1);
        let _ = s.flush_all(t(10)).expect("reflush");
        let gc = s.gc_chunk_pool().expect("gc").value;
        assert!(s.find_leaked_chunks().expect("leaks").is_empty());
        assert!(s.verify_references().expect("verify").is_empty());
        // v1's chunk was dereferenced by the completed re-flush (or GC).
        assert_eq!(
            s.space_report().expect("r").chunk_objects,
            1,
            "one live chunk (v2); v1 reclaimed, gc={gc:?}"
        );
        let r = s
            .read(ClientId(0), &name, 0, v2.len() as u64, t(11))
            .expect("read");
        assert_eq!(r.value, v2);
    }

    #[test]
    fn dedup_tick_honours_rate_control() {
        let mut s = store_with(DedupConfig::with_chunk_size(CS).watermarks(Watermarks {
            low_iops: 10.0,
            high_iops: 100.0,
            mid_ratio: 1_000,
            high_ratio: 10_000,
        }));
        let name = ObjectName::new("obj");
        let data = patterned(CS as usize, 53);
        // Generate enough foreground to sit between the watermarks with
        // far fewer ops than mid_ratio.
        for i in 0..50u64 {
            let _ = s
                .write(
                    ClientId(0),
                    &name,
                    0,
                    &data,
                    SimTime::from_nanos(i * 20_000_000),
                )
                .expect("write");
        }
        let now = SimTime::from_nanos(50 * 20_000_000);
        let ticked = s.dedup_tick(now).expect("tick");
        assert!(ticked.is_none(), "throttled below required ratio");
        assert!(s.stats().rate_denials > 0);
        // Idle long enough for the window to drain: unlimited again.
        let later = now + dedup_sim::SimDuration::from_secs(5);
        let ticked = s.dedup_tick(later).expect("tick");
        assert!(ticked.is_some(), "idle system flushes freely");
    }

    #[test]
    fn dirty_queue_dedupes_names() {
        let s = store();
        let name = ObjectName::new("obj");
        let data = patterned(CS as usize, 59);
        for i in 0..10 {
            let _ = s.write(ClientId(0), &name, 0, &data, t(i)).expect("write");
        }
        assert_eq!(s.dirty_len(), 1);
    }

    #[test]
    fn tail_chunk_shorter_than_chunk_size() {
        let mut s = store();
        let name = ObjectName::new("obj");
        let data = patterned(CS as usize + 777, 61);
        let _ = s.write(ClientId(0), &name, 0, &data, t(0)).expect("write");
        let _ = s.flush_all(t(5)).expect("flush");
        let r = s
            .read(ClientId(0), &name, 0, data.len() as u64, t(6))
            .expect("read");
        assert_eq!(r.value, data);
        let sr = s.space_report().expect("r");
        assert_eq!(sr.chunk_objects, 2);
        assert_eq!(
            sr.chunk_bytes,
            data.len() as u64,
            "tail stored at true size"
        );
    }

    #[test]
    fn identical_content_same_object_offsets_dedup() {
        // One object whose chunks repeat internally.
        let mut s = store();
        let name = ObjectName::new("obj");
        let block = patterned(CS as usize, 67);
        let mut data = block.clone();
        data.extend_from_slice(&block);
        data.extend_from_slice(&block);
        let _ = s.write(ClientId(0), &name, 0, &data, t(0)).expect("write");
        let _ = s.flush_all(t(5)).expect("flush");
        let sr = s.space_report().expect("r");
        assert_eq!(sr.chunk_objects, 1, "self-similar object collapses");
        let r = s
            .read(ClientId(0), &name, 0, data.len() as u64, t(6))
            .expect("read");
        assert_eq!(r.value, data);
    }

    #[test]
    fn unchanged_dirty_chunk_is_not_rewritten() {
        let mut s = store();
        let name = ObjectName::new("obj");
        let data = patterned(CS as usize, 71);
        let _ = s.write(ClientId(0), &name, 0, &data, t(0)).expect("write");
        let _ = s.flush_all(t(5)).expect("flush");
        // Rewrite the same bytes: flush recognises the unchanged content.
        let _ = s.write(ClientId(0), &name, 0, &data, t(50)).expect("write");
        let rep = s.flush_all(t(100)).expect("flush");
        assert_eq!(rep.value.chunks_created, 0);
        assert_eq!(rep.value.derefs, 0, "same fingerprint keeps its reference");
        assert_eq!(s.space_report().expect("r").chunk_objects, 1);
    }

    #[test]
    fn hitset_config_interacts_with_flush_policy() {
        // hit_count of 1 means everything is instantly hot: nothing flushes.
        let mut cfg = DedupConfig::with_chunk_size(CS);
        cfg.hitset = HitSetConfig {
            hit_count: 1,
            ..HitSetConfig::default()
        };
        let mut s = store_with(cfg);
        let name = ObjectName::new("obj");
        let _ = s
            .write(ClientId(0), &name, 0, patterned(CS as usize, 73), t(0))
            .expect("write");
        let rep = s.flush_object(&name, t(1)).expect("flush");
        assert!(rep.value.skipped_hot);
    }

    #[test]
    fn read_of_partially_written_evicted_chunk_before_flush() {
        // Write, flush (evict), then overwrite only the middle 1 KiB and
        // read the whole chunk BEFORE the next flush: resident bytes come
        // from the cache, the rest from the old chunk object.
        let mut s = store();
        let name = ObjectName::new("obj");
        let data = patterned(CS as usize, 83);
        let _ = s.write(ClientId(0), &name, 0, &data, t(0)).expect("write");
        let _ = s.flush_all(t(5)).expect("flush");
        let patch = patterned(1024, 89);
        let _ = s
            .write(ClientId(0), &name, 4096, &patch, t(50))
            .expect("write");
        let r = s
            .read(ClientId(0), &name, 0, CS as u64, t(51))
            .expect("read");
        let mut expect = data.clone();
        expect[4096..5120].copy_from_slice(&patch);
        assert_eq!(r.value, expect, "holes served from old chunk object");
        // And after the flush the merged chunk persists.
        let _ = s.flush_all(t(100)).expect("flush");
        let r = s
            .read(ClientId(0), &name, 0, CS as u64, t(101))
            .expect("read");
        assert_eq!(r.value, expect);
    }

    #[test]
    fn kept_cache_is_completed_after_merge_flush() {
        // KeepAll: after a partial write + flush, the cached copy must be
        // fully resident again (no holes left behind).
        let mut s = store_with(DedupConfig::with_chunk_size(CS).cache_policy(CachePolicy::KeepAll));
        let name = ObjectName::new("obj");
        let data = patterned(CS as usize, 91);
        let _ = s.write(ClientId(0), &name, 0, &data, t(0)).expect("write");
        let _ = s.flush_all(t(5)).expect("flush");
        // Punch a synthetic partial state: evict by hand via a new write
        // after switching policy is overkill; instead overwrite partially.
        let patch = patterned(100, 93);
        let _ = s
            .write(ClientId(0), &name, 10, &patch, t(50))
            .expect("write");
        let _ = s.flush_all(t(100)).expect("flush");
        let before = s.stats().redirected_chunks;
        let r = s
            .read(ClientId(0), &name, 0, CS as u64, t(101))
            .expect("read");
        let mut expect = data.clone();
        expect[10..110].copy_from_slice(&patch);
        assert_eq!(r.value, expect);
        assert_eq!(
            s.stats().redirected_chunks,
            before,
            "read must be fully cache-resident"
        );
    }

    #[test]
    fn costs_are_non_trivial_and_executable() {
        let mut s = store();
        let name = ObjectName::new("obj");
        let data = patterned(2 * CS as usize, 79);
        let w = s.write(ClientId(0), &name, 0, &data, t(0)).expect("write");
        assert!(!w.cost.is_nop());
        let done = s.cluster_mut().execute_at(t(0), &w.cost);
        assert!(done > t(0));
        let f = s.flush_all(t(5)).expect("flush");
        let done = s.cluster_mut().execute_at(t(5), &f.cost);
        assert!(done > t(5));
    }

    #[test]
    fn fingerprint_parallelism_changes_neither_report_nor_cost() {
        // Duplicate and unique objects across several batches: the
        // fingerprint pool width is wall-clock only, so the serial and the
        // 4-wide flush must agree on what was done and what it cost.
        let flush = |workers: usize| {
            let mut s = store_with(
                DedupConfig::with_chunk_size(CS)
                    .cache_policy(CachePolicy::EvictAll)
                    .flush_parallelism(workers)
                    .flush_batch_size(4),
            );
            for i in 0..12u64 {
                let data = patterned(3 * CS as usize, i % 5);
                let name = ObjectName::new(format!("obj-{i}"));
                let _ = s.write(ClientId(0), &name, 0, &data, t(0)).expect("write");
            }
            assert_eq!(s.fingerprint_parallelism(), workers);
            let f = s.flush_all(t(10)).expect("flush");
            (f.value, f.cost)
        };
        let (serial, parallel) = (flush(1), flush(4));
        assert_eq!(serial.0.chunks_flushed, 36);
        assert_eq!(serial.0.chunks_created, 15, "five distinct objects");
        assert!(!serial.1.is_nop());
        assert_eq!(serial, parallel);
    }
}

#[cfg(test)]
mod gc_tests {
    use super::*;
    use dedup_store::ClusterBuilder;

    const CS: u32 = 8 * 1024;

    fn patterned(len: usize, seed: u64) -> Vec<u8> {
        let mut state = seed | 1;
        (0..len)
            .map(|_| {
                state = state
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                (state >> 33) as u8
            })
            .collect()
    }

    fn lazy_store() -> DedupStore {
        let cluster = ClusterBuilder::new().build();
        DedupStore::with_default_pools(
            cluster,
            DedupConfig::with_chunk_size(CS)
                .cache_policy(CachePolicy::EvictAll)
                .lazy_dereference(),
        )
    }

    #[test]
    fn lazy_deref_defers_reclaim_until_gc() {
        let mut s = lazy_store();
        let name = ObjectName::new("obj");
        let v1 = patterned(CS as usize, 1);
        let v2 = patterned(CS as usize, 2);
        let _ = s
            .write(ClientId(0), &name, 0, &v1, SimTime::ZERO)
            .expect("w");
        let _ = s.flush_all(SimTime::from_secs(10)).expect("flush");
        let _ = s
            .write(ClientId(0), &name, 0, &v2, SimTime::from_secs(20))
            .expect("w");
        let _ = s.flush_all(SimTime::from_secs(30)).expect("flush");
        // Lazy mode: the v1 chunk lingers with a stale back reference.
        assert_eq!(s.space_report().expect("r").chunk_objects, 2);
        let gc = s.gc_chunk_pool().expect("gc");
        assert_eq!(gc.value.chunks_reclaimed, 1, "v1 chunk collected");
        assert_eq!(gc.value.chunks_examined, 2);
        assert_eq!(s.space_report().expect("r").chunk_objects, 1);
        // Data still reads correctly after GC.
        let r = s
            .read(
                ClientId(0),
                &name,
                0,
                v2.len() as u64,
                SimTime::from_secs(40),
            )
            .expect("read");
        assert_eq!(r.value, v2);
    }

    #[test]
    fn gc_corrects_overcounted_shared_chunks() {
        let mut s = lazy_store();
        let data = patterned(CS as usize, 3);
        for i in 0..3 {
            let _ = s
                .write(
                    ClientId(0),
                    &ObjectName::new(format!("o{i}")),
                    0,
                    &data,
                    SimTime::ZERO,
                )
                .expect("w");
        }
        let _ = s.flush_all(SimTime::from_secs(10)).expect("flush");
        // Delete one referrer: lazy mode leaves the count at 3.
        let _ = s
            .delete(ClientId(0), &ObjectName::new("o0"))
            .expect("delete");
        let gc = s.gc_chunk_pool().expect("gc");
        assert_eq!(gc.value.stale_refs_dropped, 1);
        assert_eq!(gc.value.counts_corrected, 1);
        assert_eq!(gc.value.chunks_reclaimed, 0, "still referenced by o1/o2");
        // Remaining referrers read fine; deleting them + GC empties the pool.
        for i in 1..3 {
            let _ = s
                .delete(ClientId(0), &ObjectName::new(format!("o{i}")))
                .expect("delete");
        }
        let gc = s.gc_chunk_pool().expect("gc");
        assert_eq!(gc.value.chunks_reclaimed, 1);
        assert_eq!(s.space_report().expect("r").chunk_objects, 0);
    }

    #[test]
    fn gc_is_a_noop_when_strict_refcounting() {
        let cluster = ClusterBuilder::new().build();
        let mut s = DedupStore::with_default_pools(
            cluster,
            DedupConfig::with_chunk_size(CS).cache_policy(CachePolicy::EvictAll),
        );
        let data = patterned(2 * CS as usize, 5);
        let _ = s
            .write(ClientId(0), &ObjectName::new("a"), 0, &data, SimTime::ZERO)
            .expect("w");
        let _ = s.flush_all(SimTime::from_secs(10)).expect("flush");
        let gc = s.gc_chunk_pool().expect("gc");
        assert_eq!(gc.value.chunks_reclaimed, 0);
        assert_eq!(gc.value.stale_refs_dropped, 0);
        assert_eq!(gc.value.chunks_examined, 2);
    }

    #[test]
    fn verify_references_detects_catastrophic_loss() {
        // Strict mode store; wipe BOTH replicas of a chunk object behind
        // the engine's back and let the reference scrub find it.
        let cluster = ClusterBuilder::new().build();
        let mut s = DedupStore::with_default_pools(
            cluster,
            DedupConfig::with_chunk_size(CS).cache_policy(CachePolicy::EvictAll),
        );
        let data = patterned(CS as usize, 7);
        let name = ObjectName::new("obj");
        let _ = s
            .write(ClientId(0), &name, 0, &data, SimTime::ZERO)
            .expect("w");
        let _ = s.flush_all(SimTime::from_secs(10)).expect("flush");
        assert!(s.verify_references().expect("scrub").is_empty());
        let chunk_name = ObjectName::new(Fingerprint::of(&data).to_object_name());
        let cctx = IoCtx::new(s.chunk_pool());
        let _ = s.cluster_mut().delete(&cctx, &chunk_name).expect("wipe");
        let missing = s.verify_references().expect("scrub");
        assert_eq!(missing.len(), 1);
        assert_eq!(missing[0].0, name);
    }
}

#[cfg(test)]
mod promotion_tests {
    use super::*;
    use dedup_store::ClusterBuilder;

    const CS: u32 = 8 * 1024;

    fn patterned(len: usize, seed: u64) -> Vec<u8> {
        let mut state = seed | 1;
        (0..len)
            .map(|_| {
                state = state.wrapping_mul(6364136223846793005).wrapping_add(7);
                (state >> 33) as u8
            })
            .collect()
    }

    fn adaptive_store() -> DedupStore {
        let cluster = ClusterBuilder::new().build();
        DedupStore::with_default_pools(
            cluster,
            DedupConfig::with_chunk_size(CS), // HotnessAware by default
        )
    }

    #[test]
    fn hot_reads_promote_back_into_cache() {
        let mut s = adaptive_store();
        let name = ObjectName::new("obj");
        let data = patterned(4 * CS as usize, 41);
        let _ = s
            .write(ClientId(0), &name, 0, &data, SimTime::ZERO)
            .expect("w");
        // Flush while cold (far in the future): evicts.
        let _ = s.flush_all(SimTime::from_secs(1_000)).expect("flush");
        // First read: redirected, counts an access.
        let r = s
            .read(
                ClientId(0),
                &name,
                0,
                data.len() as u64,
                SimTime::from_secs(2_000),
            )
            .expect("read");
        assert_eq!(r.value, data);
        assert!(s.stats().redirected_chunks > 0);
        assert_eq!(s.stats().promotions, 0, "one access is not hot yet");
        // Second access in a later interval: hot → promoted.
        let r = s
            .read(
                ClientId(0),
                &name,
                0,
                data.len() as u64,
                SimTime::from_secs(2_001),
            )
            .expect("read");
        assert_eq!(r.value, data);
        assert_eq!(s.stats().promotions, 4, "all four chunks promoted");
        // Third read is served from cache.
        let redirects_before = s.stats().redirected_chunks;
        let r = s
            .read(
                ClientId(0),
                &name,
                0,
                data.len() as u64,
                SimTime::from_secs(2_002),
            )
            .expect("read");
        assert_eq!(r.value, data);
        assert_eq!(s.stats().redirected_chunks, redirects_before);
        // Promotion does not mark anything dirty (content matches chunks).
        assert_eq!(s.dirty_len(), 0);
        // Capacity: the cached copies occupy the metadata pool again.
        let resident = s
            .cluster()
            .usage(s.metadata_pool())
            .expect("usage")
            .stored_bytes;
        assert!(resident >= data.len() as u64, "cache repopulated");
    }

    #[test]
    fn evict_all_policy_never_promotes() {
        let cluster = ClusterBuilder::new().build();
        let mut s = DedupStore::with_default_pools(
            cluster,
            DedupConfig::with_chunk_size(CS).cache_policy(CachePolicy::EvictAll),
        );
        let name = ObjectName::new("obj");
        let data = patterned(CS as usize, 43);
        let _ = s
            .write(ClientId(0), &name, 0, &data, SimTime::ZERO)
            .expect("w");
        let _ = s.flush_all(SimTime::from_secs(1_000)).expect("flush");
        for t in 0..5 {
            let _ = s
                .read(
                    ClientId(0),
                    &name,
                    0,
                    data.len() as u64,
                    SimTime::from_secs(2_000 + t),
                )
                .expect("read");
        }
        assert_eq!(s.stats().promotions, 0);
    }

    #[test]
    fn promoted_then_rewritten_chunk_flushes_correctly() {
        let mut s = adaptive_store();
        let name = ObjectName::new("obj");
        let data = patterned(CS as usize, 47);
        let _ = s
            .write(ClientId(0), &name, 0, &data, SimTime::ZERO)
            .expect("w");
        let _ = s.flush_all(SimTime::from_secs(1_000)).expect("flush");
        // Heat it up and promote.
        for t in 0..3 {
            let _ = s
                .read(
                    ClientId(0),
                    &name,
                    0,
                    data.len() as u64,
                    SimTime::from_secs(2_000 + t),
                )
                .expect("read");
        }
        assert!(s.stats().promotions > 0);
        // Overwrite the promoted chunk, cool down, flush: old chunk must be
        // dereferenced and the new content stored.
        let v2 = patterned(CS as usize, 53);
        let _ = s
            .write(ClientId(0), &name, 0, &v2, SimTime::from_secs(2_010))
            .expect("w");
        let _ = s.flush_all(SimTime::from_secs(9_000)).expect("flush");
        let sr = s.space_report().expect("r");
        assert_eq!(sr.chunk_objects, 1, "old chunk reclaimed after rewrite");
        let r = s
            .read(
                ClientId(0),
                &name,
                0,
                v2.len() as u64,
                SimTime::from_secs(9_001),
            )
            .expect("read");
        assert_eq!(r.value, v2);
    }
}

#[cfg(test)]
mod truncate_tests {
    use super::*;
    use dedup_store::ClusterBuilder;

    const CS: u32 = 8 * 1024;

    fn patterned(len: usize, seed: u64) -> Vec<u8> {
        let mut state = seed | 1;
        (0..len)
            .map(|_| {
                state = state.wrapping_mul(6364136223846793005).wrapping_add(3);
                (state >> 33) as u8
            })
            .collect()
    }

    fn store() -> DedupStore {
        let cluster = ClusterBuilder::new().build();
        DedupStore::with_default_pools(
            cluster,
            DedupConfig::with_chunk_size(CS).cache_policy(CachePolicy::EvictAll),
        )
    }

    #[test]
    fn truncate_drops_whole_chunks_and_their_references() {
        let mut s = store();
        let name = ObjectName::new("obj");
        let data = patterned(4 * CS as usize, 1);
        let _ = s
            .write(ClientId(0), &name, 0, &data, SimTime::ZERO)
            .expect("w");
        let _ = s.flush_all(SimTime::from_secs(100)).expect("flush");
        assert_eq!(s.space_report().expect("r").chunk_objects, 4);
        // Cut to exactly two chunks.
        let _ = s
            .truncate(ClientId(0), &name, 2 * CS as u64, SimTime::from_secs(200))
            .expect("truncate");
        let _ = s.flush_all(SimTime::from_secs(300)).expect("flush");
        let sr = s.space_report().expect("r");
        assert_eq!(sr.chunk_objects, 2, "two chunks dereferenced and reclaimed");
        assert_eq!(sr.logical_bytes, 2 * CS as u64);
        let r = s
            .read(
                ClientId(0),
                &name,
                0,
                2 * CS as u64,
                SimTime::from_secs(400),
            )
            .expect("read");
        assert_eq!(r.value, data[..2 * CS as usize]);
        // Reads past the new end fail.
        assert!(s
            .read(
                ClientId(0),
                &name,
                0,
                3 * CS as u64,
                SimTime::from_secs(401)
            )
            .is_err());
    }

    #[test]
    fn truncate_mid_chunk_rededups_the_boundary() {
        let mut s = store();
        let name = ObjectName::new("obj");
        let data = patterned(2 * CS as usize, 5);
        let _ = s
            .write(ClientId(0), &name, 0, &data, SimTime::ZERO)
            .expect("w");
        let _ = s.flush_all(SimTime::from_secs(100)).expect("flush");
        let cut = CS as u64 + 1000;
        let _ = s
            .truncate(ClientId(0), &name, cut, SimTime::from_secs(200))
            .expect("truncate");
        let _ = s.flush_all(SimTime::from_secs(300)).expect("flush");
        let r = s
            .read(ClientId(0), &name, 0, cut, SimTime::from_secs(400))
            .expect("read");
        assert_eq!(r.value, data[..cut as usize]);
        let sr = s.space_report().expect("r");
        // Chunk 0 unchanged + the shortened boundary chunk.
        assert_eq!(sr.chunk_objects, 2);
        assert_eq!(sr.chunk_bytes, CS as u64 + 1000);
        // The old full-size second chunk was dereferenced.
        let hist = s.refcount_histogram().expect("hist");
        assert_eq!(hist.values().sum::<u64>(), 2);
    }

    #[test]
    fn truncate_to_zero_then_delete_reclaims_everything() {
        let mut s = store();
        let name = ObjectName::new("obj");
        let _ = s
            .write(
                ClientId(0),
                &name,
                0,
                patterned(3 * CS as usize, 7),
                SimTime::ZERO,
            )
            .expect("w");
        let _ = s.flush_all(SimTime::from_secs(100)).expect("flush");
        let _ = s
            .truncate(ClientId(0), &name, 0, SimTime::from_secs(200))
            .expect("truncate");
        let _ = s.flush_all(SimTime::from_secs(300)).expect("flush");
        assert_eq!(s.space_report().expect("r").chunk_objects, 0);
        assert_eq!(s.stat_len(&name).expect("stat"), Some(0));
        let _ = s.delete(ClientId(0), &name).expect("delete");
        assert_eq!(s.space_report().expect("r").metadata_objects, 0);
    }

    #[test]
    fn zero_extension_is_sparse_and_reads_zero() {
        let mut s = store();
        let name = ObjectName::new("obj");
        let data = patterned(CS as usize, 9);
        let _ = s
            .write(ClientId(0), &name, 0, &data, SimTime::ZERO)
            .expect("w");
        let _ = s
            .truncate(ClientId(0), &name, 3 * CS as u64, SimTime::from_secs(10))
            .expect("truncate");
        let r = s
            .read(ClientId(0), &name, 0, 3 * CS as u64, SimTime::from_secs(20))
            .expect("read");
        assert_eq!(&r.value[..CS as usize], &data[..]);
        assert!(r.value[CS as usize..].iter().all(|&b| b == 0));
        let _ = s.flush_all(SimTime::from_secs(100)).expect("flush");
        let r = s
            .read(
                ClientId(0),
                &name,
                0,
                3 * CS as u64,
                SimTime::from_secs(200),
            )
            .expect("read");
        assert!(r.value[CS as usize..].iter().all(|&b| b == 0));
    }

    #[test]
    fn truncating_missing_object_errors() {
        let s = store();
        assert!(s
            .truncate(ClientId(0), &ObjectName::new("ghost"), 10, SimTime::ZERO)
            .is_err());
    }
}
