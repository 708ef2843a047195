//! Engine-level observability: cached instrument handles for the dedup
//! layer's hot paths.
//!
//! The engine creates one [`Registry`] per stack and shares it with its
//! cluster ([`Cluster::attach_registry`](dedup_store::Cluster)), so a
//! single snapshot covers foreground I/O, the background flush engine,
//! rate control, and the data plane underneath.

use dedup_obs::{Counter, Gauge, Histogram, Meter, Registry};

/// Instrument handles for one dedup engine.
#[derive(Debug, Clone)]
pub(crate) struct EngineMetrics {
    registry: Registry,
    /// Foreground writes served.
    pub writes: Counter,
    /// Bytes written by clients.
    pub write_bytes: Counter,
    /// Foreground reads served.
    pub reads: Counter,
    /// Bytes read by clients.
    pub read_bytes: Counter,
    /// Chunk reads satisfied from cached data in the metadata pool.
    pub cache_hit_chunks: Counter,
    /// Chunk reads redirected (proxied) to the chunk pool.
    pub redirected_chunks: Counter,
    /// Chunks promoted back into the metadata-pool cache on hot reads.
    pub promotions: Counter,
    /// Flush passes that skipped a hot object.
    pub hot_skips: Counter,
    /// Objects currently queued for background deduplication.
    pub flush_queue_depth: Gauge,
    /// Objects staged per flush-pipeline pass (last batch).
    pub flush_batch_size: Gauge,
    /// Wall-clock nanoseconds spent staging a flush batch (pipeline
    /// stage 1, each object under its shard read lock).
    pub stage_wall_ns: Histogram,
    /// Wall-clock nanoseconds a flush pass's committing thread spent on
    /// pipeline stage 2 (no engine lock held), running jobs or waiting
    /// for helpers: the part of stage 2 commit did not hide.
    pub fingerprint_wall_ns: Histogram,
    /// Wall-clock nanoseconds a flush pass's committing thread spent
    /// inside commit (pipeline stage 3, each object under its shard write
    /// lock). With `fingerprint_wall_ns`, the pass's wall time.
    pub commit_wall_ns: Histogram,
    /// Staged objects thrown away at commit because a foreground
    /// mutation landed between stage and commit.
    pub stage_conflicts: Counter,
    /// Dirty chunks processed by flushes.
    pub chunks_flushed: Counter,
    /// Chunks found already present in the chunk pool (deduplicated).
    pub chunks_deduped: Counter,
    /// New chunk objects created by flushes.
    pub chunks_created: Counter,
    /// Unreferenced chunks reclaimed by GC passes.
    pub gc_chunks_reclaimed: Counter,
    /// Stale back references dropped by GC passes.
    pub gc_stale_refs_dropped: Counter,
    /// Background flushes admitted by rate control.
    pub rate_admitted: Counter,
    /// Background flushes denied by rate control.
    pub rate_denied: Counter,
    /// Active watermark band: 0 = unlimited, 1 = mid ratio, 2 = high
    /// ratio.
    pub rate_band: Gauge,
    /// Foreground ops over the rate controller's observation window; the
    /// controller reads this meter.
    pub foreground_ops: Meter,
    /// Foreground ops routed through each namespace shard (one labelled
    /// counter per shard, `service.shard.ops{shard=i}`).
    pub shard_ops: Vec<Counter>,
    /// Foreground reads per shard (`service.shard.read_ops{shard=i}`):
    /// shared-mode shard acquisitions. Read-heavy skew is benign under
    /// RwLock shards; the shard health probe tells the two apart.
    pub shard_read_ops: Vec<Counter>,
    /// Foreground mutations per shard
    /// (`service.shard.write_ops{shard=i}`): exclusive-mode shard
    /// acquisitions (write/truncate/delete).
    pub shard_write_ops: Vec<Counter>,
    /// Wall-clock nanoseconds foreground *reads* spent waiting for their
    /// shard lock (`service.shard.lock_wait_ns{mode=read}`; recorded on
    /// every acquisition, contended or not).
    pub shard_lock_wait_read_ns: Histogram,
    /// Wall-clock nanoseconds foreground *mutations* spent waiting for
    /// their shard lock (`service.shard.lock_wait_ns{mode=write}`).
    pub shard_lock_wait_write_ns: Histogram,
    /// Payload bytes deep-copied (memcpy) on the data plane. Shares the
    /// `engine.bytes_copied` instrument with the cluster layer, so one
    /// snapshot covers every remaining copy in the stack.
    pub bytes_copied: Counter,
    /// Payload bytes moved by refcount bump where the pre-zero-copy
    /// design memcpy'd (`engine.bytes_shared`, shared with the cluster).
    pub bytes_shared: Counter,
    /// Chunk-pool existence probes answered "definitely absent" by the
    /// Bloom filter (negative lookup short-circuited).
    pub bloom_hits: Counter,
    /// Chunk-pool existence probes the Bloom filter could not rule out
    /// (full probe performed).
    pub bloom_misses: Counter,
    /// Chunks run through the inline compressor on the flush path.
    pub compress_attempted_chunks: Counter,
    /// Raw bytes run through the inline compressor on the flush path.
    pub compress_attempted_bytes: Counter,
    /// Chunks stored in compressed form (the encode beat the ratio
    /// threshold).
    pub compress_stored_chunks: Counter,
    /// Chunks stored raw because compression did not pay — the zero-copy
    /// CoW fast path.
    pub compress_raw_fallbacks: Counter,
    /// Logical (pre-compression) bytes of chunks stored compressed.
    pub compress_raw_bytes: Counter,
    /// Physical (compressed) bytes of chunks stored compressed.
    pub compress_stored_bytes: Counter,
    /// Chunk reads that decoded a compressed-stored payload.
    pub compress_decompressed_chunks: Counter,
    /// Raw bytes produced by read-path decompression.
    pub compress_decompressed_bytes: Counter,
    /// Full content fingerprints computed on the flush path.
    pub fp_full_calls: Counter,
    /// Raw chunk bytes run through full content fingerprints on the
    /// flush path, weak-name upgrades included.
    pub fp_full_hash_bytes: Counter,
    /// Cheap chunk signatures computed on the flush path (tiered pipeline).
    pub fp_sig_calls: Counter,
    /// Chunks proven globally unique by signature miss — the full
    /// fingerprint was skipped entirely.
    pub fp_skipped_unique: Counter,
    /// Stored chunks upgraded (read back + fully hashed + memoized) to
    /// resolve a signature collision.
    pub fp_upgrades: Counter,
    /// Chunks stored under minted weak names (never fully hashed).
    pub fp_weak_stored: Counter,
    /// Records across the index's cold sorted runs.
    pub index_cold_entries: Gauge,
}

impl EngineMetrics {
    pub(crate) fn new(registry: Registry, shards: usize) -> Self {
        EngineMetrics {
            shard_ops: (0..shards)
                .map(|i| registry.counter_with("service.shard.ops", &[("shard", &i.to_string())]))
                .collect(),
            shard_read_ops: (0..shards)
                .map(|i| {
                    registry.counter_with("service.shard.read_ops", &[("shard", &i.to_string())])
                })
                .collect(),
            shard_write_ops: (0..shards)
                .map(|i| {
                    registry.counter_with("service.shard.write_ops", &[("shard", &i.to_string())])
                })
                .collect(),
            shard_lock_wait_read_ns: registry
                .histogram_with("service.shard.lock_wait_ns", &[("mode", "read")]),
            shard_lock_wait_write_ns: registry
                .histogram_with("service.shard.lock_wait_ns", &[("mode", "write")]),
            writes: registry.counter("engine.writes"),
            write_bytes: registry.counter("engine.write_bytes"),
            reads: registry.counter("engine.reads"),
            read_bytes: registry.counter("engine.read_bytes"),
            cache_hit_chunks: registry.counter("engine.cache_hit_chunks"),
            redirected_chunks: registry.counter("engine.redirected_chunks"),
            promotions: registry.counter("engine.promotions"),
            hot_skips: registry.counter("engine.hot_skips"),
            flush_queue_depth: registry.gauge("engine.flush.queue_depth"),
            flush_batch_size: registry.gauge("engine.flush.batch_size"),
            stage_wall_ns: registry.histogram("engine.flush.stage_wall_ns"),
            fingerprint_wall_ns: registry.histogram("engine.flush.fingerprint_wall_ns"),
            commit_wall_ns: registry.histogram("engine.flush.commit_wall_ns"),
            stage_conflicts: registry.counter("engine.flush.stage_conflicts"),
            chunks_flushed: registry.counter("engine.flush.chunks_flushed"),
            chunks_deduped: registry.counter("engine.flush.chunks_deduped"),
            chunks_created: registry.counter("engine.flush.chunks_created"),
            gc_chunks_reclaimed: registry.counter("engine.gc.chunks_reclaimed"),
            gc_stale_refs_dropped: registry.counter("engine.gc.stale_refs_dropped"),
            rate_admitted: registry.counter("rate.admitted"),
            rate_denied: registry.counter("rate.denied"),
            rate_band: registry.gauge("rate.band"),
            bytes_copied: registry.counter("engine.bytes_copied"),
            bytes_shared: registry.counter("engine.bytes_shared"),
            bloom_hits: registry.counter("engine.chunkmap.bloom_hits"),
            bloom_misses: registry.counter("engine.chunkmap.bloom_misses"),
            compress_attempted_chunks: registry.counter("engine.compress.attempted_chunks"),
            compress_attempted_bytes: registry.counter("engine.compress.attempted_bytes"),
            compress_stored_chunks: registry.counter("engine.compress.stored_chunks"),
            compress_raw_fallbacks: registry.counter("engine.compress.raw_fallbacks"),
            compress_raw_bytes: registry.counter("engine.compress.raw_bytes"),
            compress_stored_bytes: registry.counter("engine.compress.stored_bytes"),
            compress_decompressed_chunks: registry.counter("engine.compress.decompressed_chunks"),
            compress_decompressed_bytes: registry.counter("engine.compress.decompressed_bytes"),
            fp_full_calls: registry.counter("engine.fp.full_calls"),
            fp_full_hash_bytes: registry.counter("engine.fp.full_hash_bytes"),
            fp_sig_calls: registry.counter("engine.fp.sig_calls"),
            fp_skipped_unique: registry.counter("engine.fp.skipped_unique"),
            fp_upgrades: registry.counter("engine.fp.upgrades"),
            fp_weak_stored: registry.counter("engine.fp.weak_chunks_stored"),
            index_cold_entries: registry.gauge("engine.index.cold_entries"),
            foreground_ops: registry.meter("rate.foreground_ops", crate::ratecontrol::WINDOW),
            registry,
        }
    }

    pub(crate) fn registry(&self) -> &Registry {
        &self.registry
    }
}
