//! Deduplication configuration.

use dedup_fingerprint::FingerprintCostModel;
use serde::{Deserialize, Serialize};

use crate::bloom::BloomConfig;

/// When deduplication work happens relative to the foreground write.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum DedupMode {
    /// Writes land in the metadata pool as cached+dirty chunks; a
    /// background engine flushes them later (the paper's design).
    PostProcess,
    /// Every write is chunked, fingerprinted, and sent to the chunk pool
    /// synchronously — the baseline whose partial-write penalty Fig. 5a
    /// shows.
    Inline,
}

/// What happens to a chunk's cached copy after it is flushed.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum CachePolicy {
    /// Evict unless the hitset says the object is hot (the paper's cache
    /// manager).
    HotnessAware,
    /// Always keep the cached copy (the *Proposed-cache* configuration of
    /// Fig. 10).
    KeepAll,
    /// Always evict (the *Proposed-flush* configuration of Fig. 10).
    EvictAll,
}

/// Deduplication rate-control thresholds (paper §4.4.2).
///
/// Observed foreground IOPS select how many foreground I/Os must pass
/// between two background deduplication I/Os.
///
/// Both watermark comparisons are strict (`iops < low_iops`,
/// `iops < high_iops`), so a load sitting *exactly on* a watermark falls
/// into the higher-throttle band: `iops == low_iops` is rate-limited at
/// `mid_ratio`, and `iops == high_iops` at `high_ratio`. Reaching a
/// watermark therefore always means the throttle is already engaged.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Watermarks {
    /// Strictly below this IOPS, dedup I/O is unlimited.
    pub low_iops: f64,
    /// At or above this IOPS, one dedup I/O per `high_ratio` foreground
    /// I/Os.
    pub high_iops: f64,
    /// Foreground I/Os per dedup I/O between the watermarks (paper: 100).
    pub mid_ratio: u64,
    /// Foreground I/Os per dedup I/O above high watermark (paper: 500).
    pub high_ratio: u64,
}

impl Default for Watermarks {
    fn default() -> Self {
        Watermarks {
            low_iops: 1_000.0,
            high_iops: 10_000.0,
            mid_ratio: 100,
            high_ratio: 500,
        }
    }
}

impl Watermarks {
    /// The throttle band `iops` falls in: 0 below the low watermark
    /// (unlimited), 1 between the watermarks (`mid_ratio`), 2 at or above
    /// the high watermark (`high_ratio`).
    pub(crate) fn band(&self, iops: f64) -> u8 {
        if iops < self.low_iops {
            0
        } else if iops < self.high_iops {
            1
        } else {
            2
        }
    }
}

/// Hotness-tracking parameters of the cache manager's HitSet (paper §5),
/// [`DedupConfig::hitset`].
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct HitSetConfig {
    /// Width of one hitset interval in virtual seconds.
    pub interval_secs: u64,
    /// Number of trailing intervals retained.
    pub intervals: usize,
    /// Accesses within the retained window at which an object counts as
    /// hot.
    pub hit_count: u32,
    /// Bits in each interval's Bloom filter (rounded up to a power of two,
    /// minimum 64, as for [`crate::DedupConfig::bloom`]).
    pub bloom_bits: usize,
}

impl Default for HitSetConfig {
    fn default() -> Self {
        HitSetConfig {
            interval_secs: 1,
            intervals: 8,
            hit_count: 2,
            bloom_bits: 1 << 16,
        }
    }
}

/// Sizing of the hot/cold tiered chunk index ([`crate::TieredIndex`]).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct TieredIndexConfig {
    /// Maximum candidate entries resident in the hot in-memory tier;
    /// overflow is demoted into the sorted cold tier. `usize::MAX`
    /// ([`TieredIndexConfig::unbounded`]) never demotes: the index is
    /// then one flat in-memory map with no declared memory bound.
    pub hot_capacity: usize,
}

impl Default for TieredIndexConfig {
    /// The memory-bounded sizing: a 4096-candidate hot tier.
    fn default() -> Self {
        TieredIndexConfig { hot_capacity: 4096 }
    }
}

impl TieredIndexConfig {
    /// An unbounded hot tier — every candidate stays in the in-memory
    /// map and nothing is ever demoted. [`DedupConfig`]'s default.
    pub fn unbounded() -> Self {
        TieredIndexConfig {
            hot_capacity: usize::MAX,
        }
    }
}

/// CPU cost model for the inline compression plane (virtual-time nanos
/// charged per byte pushed through the codec).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct CompressionCostModel {
    /// Compression throughput of one core in bytes per second.
    pub compress_bytes_per_sec: u64,
    /// Decompression throughput of one core in bytes per second.
    pub decompress_bytes_per_sec: u64,
}

impl Default for CompressionCostModel {
    /// Roughly LZ4 software throughput on one core: compression is
    /// hash-table bound, decompression is a straight copy loop.
    fn default() -> Self {
        CompressionCostModel {
            compress_bytes_per_sec: 768 * 1024 * 1024,
            decompress_bytes_per_sec: 3 * 1024 * 1024 * 1024,
        }
    }
}

impl CompressionCostModel {
    /// Virtual CPU nanoseconds to compress `bytes`.
    pub fn compress_nanos(&self, bytes: u64) -> u64 {
        Self::nanos(bytes, self.compress_bytes_per_sec)
    }

    /// Virtual CPU nanoseconds to decompress into `bytes` of output.
    pub fn decompress_nanos(&self, bytes: u64) -> u64 {
        Self::nanos(bytes, self.decompress_bytes_per_sec)
    }

    fn nanos(bytes: u64, rate: u64) -> u64 {
        if rate == 0 {
            return 0;
        }
        ((bytes as u128 * 1_000_000_000) / rate as u128) as u64
    }
}

/// Inline chunk-pool compression (off by default).
///
/// When enabled, the flush pipeline compresses every staged chunk off the
/// engine lock and keeps the compressed form only if it pays: a chunk
/// whose compressed size exceeds `max_ratio_ppm` millionths of its raw
/// size is stored as the original `Bytes` view untouched — the zero-copy
/// CoW fast path (no allocation, no copy). Stored-compressed chunks carry
/// their raw length in an object xattr and are transparently decompressed
/// on read. A chunk's name hashes its raw bytes either way, so how it is
/// stored is the chunk pool's business alone.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct CompressionConfig {
    /// Master switch. `false` leaves every path byte-identical to the
    /// pre-compression engine.
    pub enabled: bool,
    /// Keep the compressed form only if
    /// `compressed_len * 1_000_000 <= raw_len * max_ratio_ppm`; otherwise
    /// the chunk is stored raw. Default 900 000 (store compressed only
    /// when at least 10% smaller).
    pub max_ratio_ppm: u64,
    /// Virtual CPU cost of the codec.
    pub cost: CompressionCostModel,
}

impl Default for CompressionConfig {
    fn default() -> Self {
        CompressionConfig {
            enabled: false,
            max_ratio_ppm: 900_000,
            cost: CompressionCostModel::default(),
        }
    }
}

/// Full configuration of the deduplication layer.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DedupConfig {
    /// Fixed chunk size in bytes (paper default: 32 KiB).
    pub chunk_size: u32,
    /// Processing mode.
    pub mode: DedupMode,
    /// Cache policy after flush.
    pub cache_policy: CachePolicy,
    /// Rate-control watermarks.
    pub watermarks: Watermarks,
    /// Hotness tracking.
    pub hitset: HitSetConfig,
    /// CPU cost of fingerprinting.
    pub fingerprint_cost: FingerprintCostModel,
    /// Threads a flush pass runs stage 2 (encode and fingerprint) on: the
    /// committing thread plus `flush_parallelism − 1` helpers, which
    /// overlap stage 2 with the pass's serial, in-order commit. `1` runs
    /// the pass serially on one thread; `0` means "use the host's
    /// available parallelism". This is a wall-clock knob only: the virtual
    /// timing plane keeps charging fingerprint CPU to the metadata node as
    /// if serial, so simulated results are identical at any setting.
    pub flush_parallelism: usize,
    /// Maximum dirty objects staged per background flush pass
    /// ([`crate::DedupStore::dedup_tick`] admits up to this many per
    /// call, budget permitting). `1` reproduces the classic
    /// one-object-per-tick behaviour exactly.
    pub flush_batch_size: usize,
    /// Lock stripes over the foreground object namespace: ops on objects
    /// in different shards run in parallel, same-shard ops serialize
    /// ([`crate::shard_index`] routes names to shards). Purely a
    /// wall-clock concurrency knob — virtual-time results are identical
    /// at any setting.
    pub foreground_shards: usize,
    /// Sizing of the chunk-pool negative-lookup Bloom filter. The default
    /// reproduces the historical hard-coded 2^21 bits / 4 probes
    /// bit-for-bit.
    pub bloom: BloomConfig,
    /// Enables the tiered fingerprint pipeline in the flush stage: dirty
    /// chunks are first screened by a cheap [`dedup_fingerprint::ChunkSig`]
    /// (length class + sparse-sample hash) against the chunk index's
    /// candidate sets, and only signature collisions pay a full
    /// fingerprint — unique chunks are stored under minted weak names
    /// without ever being fully hashed. Off by default; the default path
    /// is byte-identical to the classic engine.
    pub tiered_fingerprint: bool,
    /// Chunk index sizing. The default hot tier is unbounded (everything
    /// in memory); a finite `hot_capacity` bounds resident memory by
    /// demoting cold signatures into compact sorted runs.
    pub chunk_index: TieredIndexConfig,
    /// Inline chunk-pool compression plane (off by default; the default
    /// path is byte-identical to the pre-compression engine).
    pub compression: CompressionConfig,
}

impl Default for DedupConfig {
    fn default() -> Self {
        DedupConfig {
            chunk_size: 32 * 1024,
            mode: DedupMode::PostProcess,
            cache_policy: CachePolicy::HotnessAware,
            watermarks: Watermarks::default(),
            hitset: HitSetConfig::default(),
            fingerprint_cost: FingerprintCostModel::default(),
            flush_parallelism: 0,
            flush_batch_size: 1,
            foreground_shards: 16,
            bloom: BloomConfig::default(),
            tiered_fingerprint: false,
            chunk_index: TieredIndexConfig::unbounded(),
            compression: CompressionConfig::default(),
        }
    }
}

impl DedupConfig {
    /// Post-processing config with the given chunk size.
    ///
    /// # Panics
    ///
    /// Panics if `chunk_size` is zero.
    pub fn with_chunk_size(chunk_size: u32) -> Self {
        assert!(chunk_size > 0, "chunk size must be positive");
        DedupConfig {
            chunk_size,
            ..Default::default()
        }
    }

    /// Switches to inline processing.
    pub fn inline(mut self) -> Self {
        self.mode = DedupMode::Inline;
        self
    }

    /// Overrides the cache policy.
    pub fn cache_policy(mut self, policy: CachePolicy) -> Self {
        self.cache_policy = policy;
        self
    }

    /// Overrides the watermarks.
    pub fn watermarks(mut self, watermarks: Watermarks) -> Self {
        self.watermarks = watermarks;
        self
    }

    /// Overrides how many threads a flush pass runs stage 2 on, the
    /// committing thread included (`0` = available cores).
    pub fn flush_parallelism(mut self, workers: usize) -> Self {
        self.flush_parallelism = workers;
        self
    }

    /// Overrides how many dirty objects one background pass may stage.
    ///
    /// # Panics
    ///
    /// Panics if `objects` is zero.
    pub fn flush_batch_size(mut self, objects: usize) -> Self {
        assert!(objects > 0, "flush batch size must be positive");
        self.flush_batch_size = objects;
        self
    }

    /// Overrides the foreground namespace shard count.
    ///
    /// # Panics
    ///
    /// Panics if `shards` is zero.
    pub fn foreground_shards(mut self, shards: usize) -> Self {
        assert!(shards > 0, "foreground shard count must be positive");
        self.foreground_shards = shards;
        self
    }

    /// Overrides the Bloom filter sizing (bits are rounded up to a power
    /// of two, probes clamped to 1..=16 at construction).
    ///
    /// # Panics
    ///
    /// Panics if `bits` or `probes` is zero.
    pub fn bloom(mut self, bits: usize, probes: usize) -> Self {
        assert!(bits > 0, "bloom bit count must be positive");
        assert!(probes > 0, "bloom probe count must be positive");
        self.bloom = BloomConfig { bits, probes };
        self
    }

    /// Enables the tiered fingerprint pipeline (cheap signature screening
    /// before full fingerprints in the flush stage).
    pub fn tiered_fingerprint(mut self) -> Self {
        self.tiered_fingerprint = true;
        self
    }

    /// Overrides the chunk index sizing (a finite `hot_capacity` bounds
    /// its resident memory).
    pub fn tiered_index(mut self, index: TieredIndexConfig) -> Self {
        self.chunk_index = index;
        self
    }

    /// Enables inline chunk-pool compression.
    pub fn compress(mut self) -> Self {
        self.compression.enabled = true;
        self
    }

    /// Overrides the store-compressed threshold in parts per million of
    /// the raw size (see [`CompressionConfig::max_ratio_ppm`]).
    ///
    /// # Panics
    ///
    /// Panics if `ppm` is zero or exceeds 1 000 000.
    pub fn compress_max_ratio_ppm(mut self, ppm: u64) -> Self {
        assert!(
            ppm > 0 && ppm <= 1_000_000,
            "compression ratio threshold must be in 1..=1_000_000 ppm"
        );
        self.compression.max_ratio_ppm = ppm;
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_paper() {
        let c = DedupConfig::default();
        assert_eq!(c.chunk_size, 32 * 1024);
        assert_eq!(c.mode, DedupMode::PostProcess);
        assert_eq!(c.watermarks.mid_ratio, 100);
        assert_eq!(c.watermarks.high_ratio, 500);
        assert_eq!(c.flush_parallelism, 0, "0 = auto (available cores)");
        assert_eq!(c.flush_batch_size, 1, "classic one-object ticks");
        assert_eq!(c.foreground_shards, 16, "default namespace striping");
        assert_eq!(c.bloom, BloomConfig::default(), "historical bloom sizing");
        assert!(!c.tiered_fingerprint, "tiered pipeline is opt-in");
        assert_eq!(
            c.chunk_index.hot_capacity,
            usize::MAX,
            "unbounded index default"
        );
        assert!(!c.compression.enabled, "compression is opt-in");
        assert_eq!(c.compression.max_ratio_ppm, 900_000);
        // Exhaustive on purpose: adding a knob must break this test.
        let DedupConfig {
            chunk_size: _,
            mode: _,
            cache_policy: _,
            watermarks: _,
            hitset: _,
            fingerprint_cost: _,
            flush_parallelism: _,
            flush_batch_size: _,
            foreground_shards: _,
            bloom: _,
            tiered_fingerprint: _,
            chunk_index: _,
            compression: _,
        } = c;
    }

    #[test]
    fn compression_builders_compose() {
        let c = DedupConfig::default()
            .compress()
            .compress_max_ratio_ppm(750_000);
        assert!(c.compression.enabled);
        assert_eq!(c.compression.max_ratio_ppm, 750_000);
    }

    #[test]
    #[should_panic(expected = "compression ratio threshold")]
    fn oversized_compress_ratio_rejected() {
        let _ = DedupConfig::default().compress_max_ratio_ppm(1_000_001);
    }

    #[test]
    fn tiered_builders_compose() {
        let c = DedupConfig::default()
            .bloom(1 << 16, 6)
            .tiered_fingerprint()
            .tiered_index(TieredIndexConfig { hot_capacity: 128 });
        assert_eq!(c.bloom.bits, 1 << 16);
        assert_eq!(c.bloom.probes, 6);
        assert!(c.tiered_fingerprint);
        assert_eq!(c.chunk_index.hot_capacity, 128);
    }

    #[test]
    #[should_panic(expected = "bloom probe count must be positive")]
    fn zero_bloom_probes_rejected() {
        let _ = DedupConfig::default().bloom(1 << 16, 0);
    }

    #[test]
    fn shard_builder_composes() {
        let c = DedupConfig::default().foreground_shards(4);
        assert_eq!(c.foreground_shards, 4);
    }

    #[test]
    #[should_panic(expected = "foreground shard count must be positive")]
    fn zero_shards_rejected() {
        let _ = DedupConfig::default().foreground_shards(0);
    }

    #[test]
    fn pipeline_builders_compose() {
        let c = DedupConfig::default()
            .flush_parallelism(4)
            .flush_batch_size(16);
        assert_eq!(c.flush_parallelism, 4);
        assert_eq!(c.flush_batch_size, 16);
    }

    #[test]
    #[should_panic(expected = "flush batch size must be positive")]
    fn zero_batch_rejected() {
        let _ = DedupConfig::default().flush_batch_size(0);
    }

    #[test]
    fn builders_compose() {
        let c = DedupConfig::with_chunk_size(16 * 1024)
            .inline()
            .cache_policy(CachePolicy::KeepAll);
        assert_eq!(c.chunk_size, 16 * 1024);
        assert_eq!(c.mode, DedupMode::Inline);
        assert_eq!(c.cache_policy, CachePolicy::KeepAll);
    }

    #[test]
    #[should_panic(expected = "chunk size must be positive")]
    fn zero_chunk_rejected() {
        DedupConfig::with_chunk_size(0);
    }
}
