//! Engine-layer health probes and the stack-wide probe table.
//!
//! Each probe is a plain `fn(&DedupStore) -> Option<HealthFinding>`: a
//! cheap, read-only pull over state the engine already maintains — no new
//! bookkeeping is added to the hot path. `PROBES` lists every probe
//! once, engine and store layer ([`dedup_store::osd_health`],
//! [`dedup_store::wal_health`]) alike, with its component name;
//! [`DedupStore::health_report`] walks it into one [`HealthReport`].
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

use dedup_obs::{HealthFinding, HealthReport, HealthStatus};
use dedup_sim::SimTime;
use dedup_store::{osd_health, wal_health};

use crate::engine::DedupStore;

/// Bloom fill ratio above which dedup lookups degrade (false-positive
/// rate climbs, forcing wasted full-index probes); the one-shot
/// `engine.bloom/overfill` event fires at the same point.
pub(crate) const BLOOM_DEGRADED_FILL: f64 = 0.5;
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

/// A health probe: `None` means healthy.
type Probe = fn(&DedupStore) -> Option<HealthFinding>;

/// Every probe of the stack, with its component name, in report order.
const PROBES: [(&str, Probe); 8] = [
    ("engine.bloom", bloom_health),
    ("engine.index", index_health),
    ("service.shard", shard_health),
    ("engine.flush", queue_health),
    ("rate", rate_health),
    ("engine.compress", compression_health),
    ("cluster.osd", |s| osd_health(s.cluster())),
    ("cluster.wal", |s| wal_health(s.cluster())),
];

/// Bloom-gate saturation probe. A filter past ~50% fill answers
/// "maybe" too often to be worth consulting; past ~90% it is noise.
fn bloom_health(store: &DedupStore) -> Option<HealthFinding> {
    let fill = store.bloom_fill_ratio();
    let status = if fill >= BLOOM_CRITICAL_FILL {
        HealthStatus::Critical
    } else if fill > BLOOM_DEGRADED_FILL {
        HealthStatus::Degraded
    } else {
        return None;
    };
    Some(HealthFinding::new(
        "engine.bloom",
        status,
        "bloom_overfill",
        format!("bloom gate fill ratio {fill:.3} (degraded > {BLOOM_DEGRADED_FILL}, critical >= {BLOOM_CRITICAL_FILL})"),
    ))
}

/// Chunk-index memory-bound probe. Only indexes that declare a bound
/// ([`crate::ChunkIndex::declared_memory_bound`], i.e. a finite hot
/// tier) are checked; the default unbounded index is exempt by
/// construction.
fn index_health(store: &DedupStore) -> Option<HealthFinding> {
    let bound = store.chunks().index().declared_memory_bound()?;
    let resident = store.index_resident_bytes();
    let status = if resident > bound {
        HealthStatus::Critical
    } else if resident as f64 >= bound as f64 * INDEX_NEAR_BOUND {
        HealthStatus::Degraded
    } else {
        return None;
    };
    Some(HealthFinding::new(
        "engine.index",
        status,
        "index_memory",
        format!("index resident {resident} B vs declared bound {bound} B"),
    ))
}

/// Foreground-shard balance probe: a shard drawing more than
/// [`SHARD_SKEW_LIMIT`]× the mean op count signals a pathological name
/// distribution (one hot object). Since the shard plane is
/// reader-writer, the verdict depends on *what* is skewed: a hot shard
/// dominated by exclusive-mode mutations still serializes the
/// foreground path (degraded, `shard_skew`), while one dominated by
/// shared-mode reads proceeds in parallel and is reported
/// informationally (`shard_skew_read` at [`HealthStatus::Ok`]).
fn shard_health(store: &DedupStore) -> Option<HealthFinding> {
    let m = store.metrics();
    let counts: Vec<u64> = m.shard_ops.iter().map(|c| c.get()).collect();
    if counts.len() < 2 {
        return None;
    }
    let total: u64 = counts.iter().sum();
    if total < SHARD_SKEW_MIN_OPS {
        return None;
    }
    let (hottest, &max) = counts.iter().enumerate().max_by_key(|(_, &c)| c)?;
    let mean = total as f64 / counts.len() as f64;
    let skew = max as f64 / mean;
    if skew <= SHARD_SKEW_LIMIT {
        return None;
    }
    let writes = m.shard_write_ops.get(hottest).map_or(0, |c| c.get());
    let write_fraction = if max == 0 {
        0.0
    } else {
        writes as f64 / max as f64
    };
    if write_fraction < SHARD_SKEW_WRITE_HEAVY {
        // Read-heavy: shared-mode acquisitions run in parallel, so the
        // hot shard is not a serialization point — informational.
        return Some(HealthFinding::new(
            "service.shard",
            HealthStatus::Ok,
            "shard_skew_read",
            format!(
                "hottest shard took {max} of {total} ops ({skew:.1}x the mean across {} shards), \
                 but only {writes} were exclusive-mode mutations — read-heavy skew is benign \
                 under reader-writer shards",
                counts.len()
            ),
        ));
    }
    Some(HealthFinding::new(
        "service.shard",
        HealthStatus::Degraded,
        "shard_skew",
        format!(
            "hottest shard took {max} of {total} ops ({skew:.1}x the mean across {} shards), \
             {writes} of them exclusive-mode mutations — write-heavy skew serializes the shard",
            counts.len()
        ),
    ))
}

/// What the previous dirty-queue stall probe observed, kept on the store
/// so successive `health_report` calls can detect "no progress".
#[derive(Debug, Default, Clone, Copy)]
pub(crate) struct StallState {
    last_depth: u64,
    last_flushed: u64,
    primed: bool,
}

/// Dirty-queue stall probe: if the queue is non-empty and neither drained
/// nor flushed a single chunk since the previous probe, background
/// deduplication has stopped making progress (worker dead, or rate
/// control pinned at the hardest band with no foreground lull). Stateful
/// across calls: the first probe only primes the baseline and never
/// reports.
fn queue_health(store: &DedupStore) -> Option<HealthFinding> {
    let depth = store.dirty_len() as u64;
    let flushed = store.metrics().chunks_flushed.get();
    let mut st = store.stall_state().lock();
    let stalled = st.primed && depth > 0 && depth >= st.last_depth && flushed == st.last_flushed;
    let prev_depth = st.last_depth;
    *st = StallState {
        last_depth: depth,
        last_flushed: flushed,
        primed: true,
    };
    stalled.then(|| {
        HealthFinding::new(
            "engine.flush",
            HealthStatus::Degraded,
            "queue_stall",
            format!(
                "dirty queue stalled at depth {depth} (was {prev_depth}; no chunks flushed since last probe)"
            ),
        )
    })
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
fn compression_health(store: &DedupStore) -> Option<HealthFinding> {
    if !store.config().compression.enabled {
        return None;
    }
    let m = store.metrics();
    let attempted = m.compress_attempted_bytes.get();
    if attempted < COMPRESS_MIN_ATTEMPTED_BYTES {
        return None;
    }
    // `compress_raw_bytes` is the logical size of chunks that kept their
    // compressed form; everything else fell back to verbatim storage, so
    // the effective physical footprint is the kept compressed bytes plus
    // the logical size of the fallbacks.
    let raw = m.compress_raw_bytes.get();
    let physical = m.compress_stored_bytes.get() + attempted.saturating_sub(raw);
    let ratio_ppm = physical.saturating_mul(1_000_000) / attempted.max(1);
    if ratio_ppm < COMPRESS_INEFFECTIVE_RATIO_PPM {
        return None;
    }
    Some(HealthFinding::new(
        "engine.compress",
        HealthStatus::Degraded,
        "compression_ineffective",
        format!(
            "inline compression is not paying: {physical} physical B for {attempted} logical B \
             ({ratio_ppm} ppm, degraded >= {COMPRESS_INEFFECTIVE_RATIO_PPM} ppm) — \
             workload is incompressible, consider disabling the plane"
        ),
    ))
}

/// Rate-control pressure probe: band 2 means foreground IOPS exceeded
/// the high watermark and dedup is throttled hardest — sustained, the
/// dirty backlog only grows.
fn rate_health(store: &DedupStore) -> Option<HealthFinding> {
    let band = store.metrics().rate_band.get();
    (band >= 2).then(|| {
        HealthFinding::new(
            "rate",
            HealthStatus::Degraded,
            "throttle_band_high",
            format!("rate control in band {band}: foreground load above the high watermark, dedup throttled hardest"),
        )
    })
}

impl DedupStore {
    /// Runs every probe in the table (`PROBES`) and aggregates the findings into one
    /// [`HealthReport`] stamped `now`.
    ///
    /// Read-only apart from the stall probe's progress memory; safe to
    /// call at any cadence. The first call primes the stall baseline.
    pub fn health_report(&self, now: SimTime) -> HealthReport {
        HealthReport::collect(
            now,
            PROBES.map(|(component, probe)| (component, probe(self))),
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
        let names: Vec<&str> = PROBES.iter().map(|(c, _)| *c).collect();
        assert_eq!(
            report.components, names,
            "one component per probe, in table order"
        );
    }

    #[test]
    fn queue_stall_needs_two_probes_without_progress() {
        let s = store();
        let name = ObjectName::new("obj");
        let now = SimTime::from_secs(1);
        let _ = s
            .write(ClientId(0), &name, 0, vec![7u8; 8192], now)
            .expect("write");
        assert!(s.dirty_len() > 0);

        // First probe primes; second with no flush progress reports.
        assert!(queue_health(&s).is_none());
        let finding = queue_health(&s).expect("stalled");
        assert_eq!(finding.status, HealthStatus::Degraded);
        assert_eq!(finding.code, "queue_stall");

        // Flush; next probe sees progress and clears.
        let _ = s.flush_all(now).expect("flush");
        assert!(queue_health(&s).is_none());
    }

    #[test]
    fn compression_probe_inactive_when_disabled_and_quiet_when_paying() {
        // Disabled plane: never reports, whatever the data looks like.
        let s = store();
        let name = ObjectName::new("obj");
        let _ = s
            .write(ClientId(0), &name, 0, vec![0u8; 1 << 21], SimTime::ZERO)
            .expect("write");
        let _ = s.flush_all(SimTime::ZERO).expect("flush");
        assert!(compression_health(&s).is_none());

        // Enabled on compressible data: the ratio is good, stay quiet.
        let s = store_with(DedupConfig::with_chunk_size(4096).compress());
        let _ = s
            .write(ClientId(0), &name, 0, vec![0u8; 1 << 21], SimTime::ZERO)
            .expect("write");
        let _ = s.flush_all(SimTime::ZERO).expect("flush");
        assert!(s.metrics().compress_attempted_bytes.get() >= 1 << 20);
        assert!(compression_health(&s).is_none());
    }

    #[test]
    fn compression_probe_degrades_on_incompressible_workload() {
        let s = store_with(DedupConfig::with_chunk_size(4096).compress());
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
        let finding = compression_health(&s).expect("incompressible");
        assert_eq!(finding.code, "compression_ineffective");
        assert_eq!(finding.status, HealthStatus::Degraded);
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
        let finding = shard_health(&s).expect("hot shard");
        assert_eq!(finding.code, "shard_skew");
        assert_eq!(finding.status, HealthStatus::Degraded);

        // A store with balanced names stays quiet.
        let s2 = store_with(DedupConfig::with_chunk_size(4096).foreground_shards(4));
        for i in 0..1200u64 {
            let name = ObjectName::new(format!("obj-{i}"));
            let _ = s2
                .write(ClientId(0), &name, 0, vec![1u8; 512], SimTime::from_secs(i))
                .expect("write");
        }
        assert!(shard_health(&s2).is_none());
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
        let finding = shard_health(&s).expect("hot shard");
        assert_eq!(finding.code, "shard_skew_read");
        assert_eq!(finding.status, HealthStatus::Ok);
        // The informational finding never drags the report below Ok.
        assert_eq!(s.health_report(SimTime::ZERO).status(), HealthStatus::Ok);

        // Write-heavy on the same shape: the degraded verdict stands.
        let s2 = store_with(DedupConfig::with_chunk_size(4096).foreground_shards(8));
        for i in 0..1200u64 {
            let _ = s2
                .write(ClientId(0), &name, 0, vec![1u8; 512], SimTime::from_secs(i))
                .expect("write");
        }
        let finding = shard_health(&s2).expect("hot shard");
        assert_eq!(finding.code, "shard_skew");
        assert_eq!(finding.status, HealthStatus::Degraded);
    }
}
