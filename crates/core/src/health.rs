//! Engine-layer health checks and the stack-wide aggregation entry point.
//!
//! Each probe implements [`dedup_obs::HealthCheck`]: a cheap, read-only
//! pull over state the engine already maintains — no new bookkeeping is
//! added to the hot path. [`DedupStore::health_report`] aggregates the
//! engine probes with the store layer's [`dedup_store::OsdHealth`] and
//! [`dedup_store::WalHealth`] into one [`HealthReport`].
//!
//! Thresholds (all documented on the individual probes):
//!
//! | component       | degraded                              | critical         |
//! |-----------------|---------------------------------------|------------------|
//! | `engine.bloom`  | fill ratio > 0.5                      | fill ratio ≥ 0.9 |
//! | `engine.index`  | resident ≥ 90% of bound               | resident > bound |
//! | `service.shard` | write-heavy op skew > 4 (>1k ops)     | —                |
//! | `engine.flush`  | dirty queue made no progress          | —                |
//! | `rate`          | band 2 (hardest throttle)             | —                |
//!
//! Shard skew is verdict-split since the foreground plane went
//! reader-writer: a skewed shard dominated by shared-mode *reads* no
//! longer serializes (readers share the lock), so it reports an
//! informational `shard_skew_read` finding at `ok`; only a skewed shard
//! dominated by exclusive-mode *mutations* still degrades.

use dedup_obs::{HealthCheck, HealthFinding, HealthReport, HealthStatus};
use dedup_sim::SimTime;
use dedup_store::{OsdHealth, WalHealth};

use crate::engine::DedupStore;

/// Bloom fill ratio above which dedup lookups degrade (false-positive
/// rate climbs, forcing wasted full-index probes).
const BLOOM_DEGRADED_FILL: f64 = 0.5;
/// Bloom fill ratio at which the filter is effectively saturated.
const BLOOM_CRITICAL_FILL: f64 = 0.9;
/// Fraction of the declared index memory bound at which we warn.
const INDEX_NEAR_BOUND: f64 = 0.9;
/// Shard skew (max ops / mean ops) above which routing is unbalanced.
const SHARD_SKEW_LIMIT: f64 = 4.0;
/// Minimum total shard ops before skew is meaningful.
const SHARD_SKEW_MIN_OPS: u64 = 1000;
/// Fraction of a skewed shard's ops that must be exclusive-mode
/// mutations before the skew counts as write-heavy (and degrades):
/// shared-mode reads don't serialize, so a read-dominated hot shard is
/// merely worth knowing about.
const SHARD_SKEW_WRITE_HEAVY: f64 = 0.5;

/// Bloom-gate saturation probe. A filter past ~50% fill answers
/// "maybe" too often to be worth consulting; past ~90% it is noise.
pub struct BloomHealth<'a> {
    store: &'a DedupStore,
}

impl<'a> BloomHealth<'a> {
    /// Probes `store`'s chunk-index bloom gate.
    pub fn new(store: &'a DedupStore) -> Self {
        BloomHealth { store }
    }
}

impl HealthCheck for BloomHealth<'_> {
    fn component(&self) -> &str {
        "engine.bloom"
    }

    fn check(&self, _now: SimTime) -> Vec<HealthFinding> {
        let fill = self.store.bloom_fill_ratio();
        let status = if fill >= BLOOM_CRITICAL_FILL {
            HealthStatus::Critical
        } else if fill > BLOOM_DEGRADED_FILL {
            HealthStatus::Degraded
        } else {
            return Vec::new();
        };
        vec![HealthFinding::new(
            "engine.bloom",
            status,
            "bloom_overfill",
            format!("bloom gate fill ratio {fill:.3} (degraded > {BLOOM_DEGRADED_FILL}, critical >= {BLOOM_CRITICAL_FILL})"),
        )]
    }
}

/// Chunk-index memory-bound probe. Only indexes that declare a bound
/// ([`crate::ChunkIndex::declared_memory_bound`], i.e. a finite hot
/// tier) are checked; the default unbounded index is exempt by
/// construction.
pub struct IndexHealth<'a> {
    store: &'a DedupStore,
}

impl<'a> IndexHealth<'a> {
    /// Probes `store`'s chunk index against its declared memory bound.
    pub fn new(store: &'a DedupStore) -> Self {
        IndexHealth { store }
    }
}

impl HealthCheck for IndexHealth<'_> {
    fn component(&self) -> &str {
        "engine.index"
    }

    fn check(&self, _now: SimTime) -> Vec<HealthFinding> {
        let Some(bound) = self.store.chunks().index().declared_memory_bound() else {
            return Vec::new();
        };
        let resident = self.store.index_resident_bytes();
        let status = if resident > bound {
            HealthStatus::Critical
        } else if resident as f64 >= bound as f64 * INDEX_NEAR_BOUND {
            HealthStatus::Degraded
        } else {
            return Vec::new();
        };
        vec![HealthFinding::new(
            "engine.index",
            status,
            "index_memory",
            format!("index resident {resident} B vs declared bound {bound} B"),
        )]
    }
}

/// Foreground-shard balance probe: a shard drawing more than
/// [`SHARD_SKEW_LIMIT`]× the mean op count signals a pathological name
/// distribution (one hot object). Since the shard plane is
/// reader-writer, the verdict depends on *what* is skewed: a hot shard
/// dominated by exclusive-mode mutations still serializes the
/// foreground path (degraded, `shard_skew`), while one dominated by
/// shared-mode reads proceeds in parallel and is reported
/// informationally (`shard_skew_read` at [`HealthStatus::Ok`]).
pub struct ShardHealth<'a> {
    store: &'a DedupStore,
}

impl<'a> ShardHealth<'a> {
    /// Probes `store`'s per-shard op counters.
    pub fn new(store: &'a DedupStore) -> Self {
        ShardHealth { store }
    }
}

impl HealthCheck for ShardHealth<'_> {
    fn component(&self) -> &str {
        "service.shard"
    }

    fn check(&self, _now: SimTime) -> Vec<HealthFinding> {
        let m = self.store.metrics();
        let counts: Vec<u64> = m.shard_ops.iter().map(|c| c.get()).collect();
        if counts.len() < 2 {
            return Vec::new();
        }
        let total: u64 = counts.iter().sum();
        if total < SHARD_SKEW_MIN_OPS {
            return Vec::new();
        }
        let (hottest, &max) = counts
            .iter()
            .enumerate()
            .max_by_key(|(_, &c)| c)
            .expect("len >= 2");
        let mean = total as f64 / counts.len() as f64;
        let skew = max as f64 / mean;
        if skew <= SHARD_SKEW_LIMIT {
            return Vec::new();
        }
        let writes = m.shard_write_ops.get(hottest).map_or(0, |c| c.get());
        let write_fraction = if max == 0 {
            0.0
        } else {
            writes as f64 / max as f64
        };
        if write_fraction < SHARD_SKEW_WRITE_HEAVY {
            // Read-heavy: shared-mode acquisitions run in parallel, so
            // the hot shard is not a serialization point — informational.
            return vec![HealthFinding::new(
                "service.shard",
                HealthStatus::Ok,
                "shard_skew_read",
                format!(
                    "hottest shard took {max} of {total} ops ({skew:.1}x the mean across {} shards), \
                     but only {writes} were exclusive-mode mutations — read-heavy skew is benign \
                     under reader-writer shards",
                    counts.len()
                ),
            )];
        }
        vec![HealthFinding::new(
            "service.shard",
            HealthStatus::Degraded,
            "shard_skew",
            format!(
                "hottest shard took {max} of {total} ops ({skew:.1}x the mean across {} shards), \
                 {writes} of them exclusive-mode mutations — write-heavy skew serializes the shard",
                counts.len()
            ),
        )]
    }
}

/// What the previous [`QueueHealth`] probe observed, kept on the store so
/// successive `health_report` calls can detect "no progress".
#[derive(Debug, Default, Clone, Copy)]
pub struct StallState {
    last_depth: u64,
    last_flushed: u64,
    primed: bool,
}

/// Dirty-queue stall probe: if the queue is non-empty and neither drained
/// nor flushed a single chunk since the previous probe, background
/// deduplication has stopped making progress (worker dead, or rate
/// control pinned at the hardest band with no foreground lull).
pub struct QueueHealth<'a> {
    store: &'a DedupStore,
}

impl<'a> QueueHealth<'a> {
    /// Probes `store`'s dirty queue. Stateful across calls: the first
    /// probe only primes the baseline and never reports.
    pub fn new(store: &'a DedupStore) -> Self {
        QueueHealth { store }
    }
}

impl HealthCheck for QueueHealth<'_> {
    fn component(&self) -> &str {
        "engine.flush"
    }

    fn check(&self, _now: SimTime) -> Vec<HealthFinding> {
        let depth = self.store.dirty_len() as u64;
        let flushed = self.store.metrics().chunks_flushed.get();
        let mut st = self.store.stall_state().lock();
        let stalled =
            st.primed && depth > 0 && depth >= st.last_depth && flushed == st.last_flushed;
        let prev_depth = st.last_depth;
        st.primed = true;
        st.last_depth = depth;
        st.last_flushed = flushed;
        if !stalled {
            return Vec::new();
        }
        vec![HealthFinding::new(
            "engine.flush",
            HealthStatus::Degraded,
            "queue_stall",
            format!(
                "dirty queue stalled at depth {depth} (was {prev_depth}; no chunks flushed since last probe)"
            ),
        )]
    }
}

/// Effective compression ratio (ppm, physical/logical) at or above which
/// the compression plane is burning CPU without reclaiming capacity.
const COMPRESS_INEFFECTIVE_RATIO_PPM: u64 = 950_000;
/// Minimum bytes pushed through the compressor before the ratio verdict
/// is statistically meaningful.
const COMPRESS_MIN_ATTEMPTED_BYTES: u64 = 1 << 20;

/// Compression-effectiveness probe: when the inline compression plane is
/// enabled but the data does not compress (effective physical/logical
/// ratio at or above [`COMPRESS_INEFFECTIVE_RATIO_PPM`] after at least
/// [`COMPRESS_MIN_ATTEMPTED_BYTES`] attempted), every flush is paying
/// compressor CPU for no capacity return — the plane should be turned
/// off for this workload. Inactive while compression is disabled.
pub struct CompressionHealth<'a> {
    store: &'a DedupStore,
}

impl<'a> CompressionHealth<'a> {
    /// Probes `store`'s lifetime compression counters.
    pub fn new(store: &'a DedupStore) -> Self {
        CompressionHealth { store }
    }
}

impl HealthCheck for CompressionHealth<'_> {
    fn component(&self) -> &str {
        "engine.compress"
    }

    fn check(&self, _now: SimTime) -> Vec<HealthFinding> {
        if !self.store.config().compression.enabled {
            return Vec::new();
        }
        let m = self.store.metrics();
        let attempted = m.compress_attempted_bytes.get();
        if attempted < COMPRESS_MIN_ATTEMPTED_BYTES {
            return Vec::new();
        }
        // `compress_raw_bytes` is the logical size of chunks that kept
        // their compressed form; everything else fell back to verbatim
        // storage, so the effective physical footprint is the kept
        // compressed bytes plus the logical size of the fallbacks.
        let raw = m.compress_raw_bytes.get();
        let physical = m.compress_stored_bytes.get() + attempted.saturating_sub(raw);
        let ratio_ppm = physical.saturating_mul(1_000_000) / attempted.max(1);
        if ratio_ppm < COMPRESS_INEFFECTIVE_RATIO_PPM {
            return Vec::new();
        }
        vec![HealthFinding::new(
            "engine.compress",
            HealthStatus::Degraded,
            "compression_ineffective",
            format!(
                "inline compression is not paying: {physical} physical B for {attempted} logical B \
                 ({ratio_ppm} ppm, degraded >= {COMPRESS_INEFFECTIVE_RATIO_PPM} ppm) — \
                 workload is incompressible, consider disabling the plane"
            ),
        )]
    }
}

/// Rate-control pressure probe: band 2 means foreground IOPS exceeded
/// the high watermark and dedup is throttled hardest — sustained, the
/// dirty backlog only grows.
pub struct RateHealth<'a> {
    store: &'a DedupStore,
}

impl<'a> RateHealth<'a> {
    /// Probes `store`'s published watermark band.
    pub fn new(store: &'a DedupStore) -> Self {
        RateHealth { store }
    }
}

impl HealthCheck for RateHealth<'_> {
    fn component(&self) -> &str {
        "rate"
    }

    fn check(&self, _now: SimTime) -> Vec<HealthFinding> {
        let band = self.store.metrics().rate_band.get();
        if band < 2 {
            return Vec::new();
        }
        vec![HealthFinding::new(
            "rate",
            HealthStatus::Degraded,
            "throttle_band_high",
            format!("rate control in band {band}: foreground load above the high watermark, dedup throttled hardest"),
        )]
    }
}

impl DedupStore {
    /// Runs every engine- and store-layer health probe and aggregates
    /// the findings into one [`HealthReport`] stamped `now`.
    ///
    /// Read-only apart from the stall probe's progress memory; safe to
    /// call at any cadence. The first call primes the stall baseline.
    pub fn health_report(&self, now: SimTime) -> HealthReport {
        let bloom = BloomHealth::new(self);
        let index = IndexHealth::new(self);
        let shards = ShardHealth::new(self);
        let queue = QueueHealth::new(self);
        let rate = RateHealth::new(self);
        let compress = CompressionHealth::new(self);
        let osd = OsdHealth::new(self.cluster());
        let wal = WalHealth::new(self.cluster());
        HealthReport::collect(
            now,
            &[
                &bloom, &index, &shards, &queue, &rate, &compress, &osd, &wal,
            ],
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::DedupConfig;
    use dedup_store::ClientId;
    use dedup_store::{ClusterBuilder, ObjectName};

    fn store_with(config: DedupConfig) -> DedupStore {
        let cluster = ClusterBuilder::new().nodes(4).osds_per_node(4).build();
        DedupStore::with_default_pools(cluster, config)
    }

    fn store() -> DedupStore {
        store_with(DedupConfig::with_chunk_size(4096))
    }

    #[test]
    fn fresh_store_is_healthy() {
        let s = store();
        let report = s.health_report(SimTime::ZERO);
        assert_eq!(report.status(), HealthStatus::Ok);
        assert!(report.findings.is_empty());
        assert!(report.components.iter().any(|c| c == "engine.bloom"));
        assert!(report.components.iter().any(|c| c == "cluster.osd"));
    }

    #[test]
    fn queue_stall_needs_two_probes_without_progress() {
        let mut s = store();
        let name = ObjectName::new("obj");
        let now = SimTime::from_secs(1);
        let _ = s
            .write(ClientId(0), &name, 0, vec![7u8; 8192], now)
            .expect("write");
        assert!(s.dirty_len() > 0);

        // First probe primes; second with no flush progress reports.
        assert!(QueueHealth::new(&s).check(now).is_empty());
        let findings = QueueHealth::new(&s).check(now);
        assert_eq!(findings.len(), 1);
        assert_eq!(findings[0].status, HealthStatus::Degraded);
        assert_eq!(findings[0].code, "queue_stall");

        // Flush; next probe sees progress and clears.
        let _ = s.flush_all(now).expect("flush");
        assert!(QueueHealth::new(&s).check(now).is_empty());
    }

    #[test]
    fn compression_probe_inactive_when_disabled_and_quiet_when_paying() {
        // Disabled plane: never reports, whatever the data looks like.
        let mut s = store();
        let name = ObjectName::new("obj");
        let _ = s
            .write(ClientId(0), &name, 0, vec![0u8; 1 << 21], SimTime::ZERO)
            .expect("write");
        let _ = s.flush_all(SimTime::ZERO).expect("flush");
        assert!(CompressionHealth::new(&s).check(SimTime::ZERO).is_empty());

        // Enabled on compressible data: the ratio is good, stay quiet.
        let mut s = store_with(DedupConfig::with_chunk_size(4096).compress());
        let _ = s
            .write(ClientId(0), &name, 0, vec![0u8; 1 << 21], SimTime::ZERO)
            .expect("write");
        let _ = s.flush_all(SimTime::ZERO).expect("flush");
        assert!(s.metrics().compress_attempted_bytes.get() >= 1 << 20);
        assert!(CompressionHealth::new(&s).check(SimTime::ZERO).is_empty());
    }

    #[test]
    fn compression_probe_degrades_on_incompressible_workload() {
        let mut s = store_with(DedupConfig::with_chunk_size(4096).compress());
        // Pseudorandom payload: no repeated windows for the compressor
        // to exploit, so every chunk falls back to raw storage.
        let mut state = 0x9e37_79b9_7f4a_7c15u64;
        let data: Vec<u8> = (0..(2usize << 20))
            .map(|_| {
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                (state >> 32) as u8
            })
            .collect();
        let name = ObjectName::new("rand");
        let _ = s
            .write(ClientId(0), &name, 0, data, SimTime::ZERO)
            .expect("write");
        let _ = s.flush_all(SimTime::ZERO).expect("flush");
        let findings = CompressionHealth::new(&s).check(SimTime::ZERO);
        assert_eq!(findings.len(), 1);
        assert_eq!(findings[0].code, "compression_ineffective");
        assert_eq!(findings[0].status, HealthStatus::Degraded);
    }

    #[test]
    fn shard_skew_reports_hot_shard() {
        let s = store_with(DedupConfig::with_chunk_size(4096).foreground_shards(8));
        let name = ObjectName::new("hot");
        // Hammer one object name: all ops land on one shard.
        for i in 0..1200u64 {
            let _ = s
                .write(ClientId(0), &name, 0, vec![1u8; 512], SimTime::from_secs(i))
                .expect("write");
        }
        let findings = ShardHealth::new(&s).check(SimTime::ZERO);
        assert_eq!(findings.len(), 1);
        assert_eq!(findings[0].code, "shard_skew");
        assert_eq!(findings[0].status, HealthStatus::Degraded);

        // A store with balanced names stays quiet.
        let s2 = store_with(DedupConfig::with_chunk_size(4096).foreground_shards(4));
        for i in 0..1200u64 {
            let name = ObjectName::new(format!("obj-{i}"));
            let _ = s2
                .write(ClientId(0), &name, 0, vec![1u8; 512], SimTime::from_secs(i))
                .expect("write");
        }
        assert!(ShardHealth::new(&s2).check(SimTime::ZERO).is_empty());
    }

    #[test]
    fn read_heavy_skew_is_benign_write_heavy_degrades() {
        // Read-heavy: one preload write, then a skew of shared-mode reads
        // on the same object. The hot shard no longer serializes, so the
        // probe reports informationally at Ok.
        let s = store_with(DedupConfig::with_chunk_size(4096).foreground_shards(8));
        let name = ObjectName::new("hot");
        let _ = s
            .write(ClientId(0), &name, 0, vec![1u8; 4096], SimTime::ZERO)
            .expect("preload");
        for i in 0..1200u64 {
            let _ = s
                .read(ClientId(0), &name, 0, 4096, SimTime::from_secs(i))
                .expect("read");
        }
        let findings = ShardHealth::new(&s).check(SimTime::ZERO);
        assert_eq!(findings.len(), 1);
        assert_eq!(findings[0].code, "shard_skew_read");
        assert_eq!(findings[0].status, HealthStatus::Ok);
        // The informational finding never drags the report below Ok.
        assert_eq!(s.health_report(SimTime::ZERO).status(), HealthStatus::Ok);

        // Write-heavy on the same shape: the degraded verdict stands.
        let s2 = store_with(DedupConfig::with_chunk_size(4096).foreground_shards(8));
        for i in 0..1200u64 {
            let _ = s2
                .write(ClientId(0), &name, 0, vec![1u8; 512], SimTime::from_secs(i))
                .expect("write");
        }
        let findings = ShardHealth::new(&s2).check(SimTime::ZERO);
        assert_eq!(findings.len(), 1);
        assert_eq!(findings[0].code, "shard_skew");
        assert_eq!(findings[0].status, HealthStatus::Degraded);
    }
}
