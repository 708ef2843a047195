//! Space accounting: deduplication ratios with and without metadata
//! overhead (the paper's Table 2 distinction between *ideal* and *actual*
//! ratios).

use std::collections::BTreeMap;

use serde::{Deserialize, Serialize};

use crate::engine::DedupStore;
use crate::error::DedupError;

/// A capacity snapshot of the dedup layer, normalised to a single copy
/// (redundancy excluded, as the paper's §6.3 reports ratios "excluding the
/// redundancy caused by replication").
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize, Deserialize)]
pub struct SpaceReport {
    /// User-visible logical bytes across all metadata objects.
    pub logical_bytes: u64,
    /// Resident cached data in the metadata pool (per copy).
    pub cached_bytes: u64,
    /// Unique chunk payload in the chunk pool (per copy).
    pub chunk_bytes: u64,
    /// Dedup metadata: chunk maps, refcounts, back references (per copy).
    pub metadata_bytes: u64,
    /// Fixed per-object overhead across both pools (per copy).
    pub object_overhead_bytes: u64,
    /// Raw physical bytes including redundancy, both pools.
    pub raw_bytes: u64,
    /// Number of unique chunk objects.
    pub chunk_objects: u64,
    /// Number of metadata (user) objects.
    pub metadata_objects: u64,
}

impl SpaceReport {
    /// Stored data bytes per copy: cached + unique chunks.
    pub fn stored_data_bytes(&self) -> u64 {
        self.cached_bytes + self.chunk_bytes
    }

    /// Total stored bytes per copy including metadata and overhead.
    pub fn stored_total_bytes(&self) -> u64 {
        self.stored_data_bytes() + self.metadata_bytes + self.object_overhead_bytes
    }

    /// *Ideal* deduplication ratio (data only), in percent:
    /// `1 - unique_data / logical`.
    pub fn ideal_ratio_percent(&self) -> f64 {
        if self.logical_bytes == 0 {
            return 0.0;
        }
        (1.0 - self.stored_data_bytes() as f64 / self.logical_bytes as f64) * 100.0
    }

    /// *Actual* deduplication ratio including metadata overhead, in
    /// percent: `1 - (unique_data + metadata) / logical`.
    pub fn actual_ratio_percent(&self) -> f64 {
        if self.logical_bytes == 0 {
            return 0.0;
        }
        (1.0 - self.stored_total_bytes() as f64 / self.logical_bytes as f64) * 100.0
    }
}

impl DedupStore {
    /// Takes a capacity snapshot.
    ///
    /// # Errors
    ///
    /// Fails if the pools cannot be inspected.
    pub fn space_report(&self) -> Result<SpaceReport, DedupError> {
        let mu = self.cluster().usage(self.metadata_pool())?;
        let cu = self.cluster().usage(self.chunk_pool())?;
        let mf = self
            .cluster()
            .pool_config(self.metadata_pool())?
            .redundancy
            .overhead_factor();
        let cf = self
            .cluster()
            .pool_config(self.chunk_pool())?
            .redundancy
            .overhead_factor();
        Ok(SpaceReport {
            logical_bytes: mu.logical_bytes,
            cached_bytes: (mu.stored_bytes as f64 / mf) as u64,
            chunk_bytes: (cu.stored_bytes as f64 / cf) as u64,
            metadata_bytes: ((mu.metadata_bytes as f64 / mf) + (cu.metadata_bytes as f64 / cf))
                as u64,
            object_overhead_bytes: ((mu.overhead_bytes as f64 / mf)
                + (cu.overhead_bytes as f64 / cf)) as u64,
            raw_bytes: mu.total_bytes() + cu.total_bytes(),
            chunk_objects: cu.objects,
            metadata_objects: mu.objects,
        })
    }
}

/// Compression accounting across the chunk pool: how many chunk objects
/// are stored compressed, and the logical-vs-physical byte split for
/// them. Produced by [`DedupStore::compression_report`] from the chunk
/// objects' own format markers, so it reflects what is actually on
/// storage (GC'd chunks excluded), not lifetime counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct CompressionReport {
    /// Chunk objects stored in compressed form.
    pub compressed_chunks: u64,
    /// Chunk objects stored raw (incompressible, or written with the
    /// plane off).
    pub raw_chunks: u64,
    /// Logical (pre-compression) bytes of compressed-stored chunks.
    pub compressed_logical_bytes: u64,
    /// Physical (stored) bytes of compressed-stored chunks.
    pub compressed_stored_bytes: u64,
}

impl CompressionReport {
    /// Bytes compression removed from the chunk pool (per copy).
    pub fn saved_bytes(&self) -> u64 {
        self.compressed_logical_bytes
            .saturating_sub(self.compressed_stored_bytes)
    }

    /// Physical/logical ratio over compressed-stored chunks in
    /// parts-per-million; 1,000,000 when nothing is compressed.
    pub fn ratio_ppm(&self) -> u64 {
        if self.compressed_logical_bytes == 0 {
            return 1_000_000;
        }
        self.compressed_stored_bytes
            .saturating_mul(1_000_000)
            .div_euclid(self.compressed_logical_bytes)
    }
}

impl DedupStore {
    /// Takes a [`CompressionReport`] by scanning the chunk pool's format
    /// markers. Costs one pool scan, like the refcount histogram.
    ///
    /// # Errors
    ///
    /// Fails if the store does, or on a chunk with torn or corrupt
    /// reference metadata.
    pub fn compression_report(&self) -> Result<CompressionReport, DedupError> {
        Ok(self.chunks().census(self.cluster())?.1)
    }

    /// Distribution of chunk reference counts: `count → number of chunk
    /// objects with that many referrers`. The shape of this histogram is
    /// the capacity story of a dedup system — mass at 1 means unique data,
    /// a long tail means a few chunks (OS images, zero blocks) carry most
    /// of the saving.
    ///
    /// # Errors
    ///
    /// Fails if the store does, or — typed, never counted as zero — on a
    /// chunk whose refcount is missing
    /// ([`DedupError::MissingRefcount`]) or undecodable
    /// ([`DedupError::CorruptRefcount`]).
    pub fn refcount_histogram(&self) -> Result<BTreeMap<u64, u64>, DedupError> {
        Ok(self.chunks().census(self.cluster())?.0)
    }
}

/// One point on a capacity / dedup-effectiveness curve: the space report
/// plus a refcount-distribution summary and the fingerprint-tier and GC
/// counters that explain *why* the ratio moved. Produced by
/// [`DedupStore::sample_capacity`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CapacitySample {
    /// Virtual time of the sample, nanoseconds.
    pub at_ns: u64,
    /// The space snapshot ([`DedupStore::space_report`]).
    pub space: SpaceReport,
    /// Full refcount distribution: `refcount → chunk objects`.
    pub refcounts: BTreeMap<u64, u64>,
    /// Chunk objects with exactly one referrer (no sharing).
    pub unique_chunks: u64,
    /// Chunk objects with two or more referrers.
    pub shared_chunks: u64,
    /// Largest refcount observed (the zero-block / golden-image tail).
    pub max_refcount: u64,
    /// Lifetime chunks stored under a weak (signature) name.
    pub weak_chunks_stored: u64,
    /// Lifetime weak→full name upgrades.
    pub fp_upgrades: u64,
    /// Lifetime chunks reclaimed by GC passes.
    pub gc_chunks_reclaimed: u64,
    /// Lifetime stale references dropped by GC passes.
    pub gc_stale_refs_dropped: u64,
    /// On-storage compression accounting
    /// ([`DedupStore::compression_report`]).
    #[serde(default)]
    pub compression: CompressionReport,
}

impl CapacitySample {
    /// The live dedup-ratio series value: *actual* ratio (metadata
    /// included), in percent.
    pub fn dedup_ratio_percent(&self) -> f64 {
        self.space.actual_ratio_percent()
    }
}

impl DedupStore {
    /// Takes a [`CapacitySample`] at `now` (space report, refcount
    /// summary, compression census). Emits an `info` `capacity/sample`
    /// event when an event log is attached.
    ///
    /// Costs one pool scan (shared by the refcount histogram and the
    /// compression report); intended for per-segment sampling, not per-op.
    ///
    /// # Errors
    ///
    /// Fails if the pools cannot be inspected.
    pub fn sample_capacity(&self, now: dedup_sim::SimTime) -> Result<CapacitySample, DedupError> {
        let space = self.space_report()?;
        let (refcounts, compression) = self.chunks().census(self.cluster())?;
        let unique_chunks = refcounts
            .iter()
            .filter(|(rc, _)| **rc <= 1)
            .map(|(_, n)| n)
            .sum();
        let shared_chunks = refcounts
            .iter()
            .filter(|(rc, _)| **rc >= 2)
            .map(|(_, n)| n)
            .sum();
        let max_refcount = refcounts.keys().next_back().copied().unwrap_or(0);

        let sample = CapacitySample {
            at_ns: now.as_nanos(),
            space,
            refcounts,
            unique_chunks,
            shared_chunks,
            max_refcount,
            weak_chunks_stored: self.metrics().fp_weak_stored.get(),
            fp_upgrades: self.metrics().fp_upgrades.get(),
            gc_chunks_reclaimed: self.metrics().gc_chunks_reclaimed.get(),
            gc_stale_refs_dropped: self.metrics().gc_stale_refs_dropped.get(),
            compression,
        };
        if let Some(ev) = self.events() {
            ev.emit_at(
                now,
                dedup_obs::Severity::Info,
                "capacity",
                "sample",
                vec![
                    ("logical_bytes", sample.space.logical_bytes.to_string()),
                    (
                        "stored_total_bytes",
                        sample.space.stored_total_bytes().to_string(),
                    ),
                    (
                        "dedup_ratio_ppm",
                        ((sample.dedup_ratio_percent() * 10_000.0) as i64).to_string(),
                    ),
                ],
            );
        }
        Ok(sample)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ratios_from_components() {
        let r = SpaceReport {
            logical_bytes: 1000,
            cached_bytes: 0,
            chunk_bytes: 400,
            metadata_bytes: 50,
            object_overhead_bytes: 50,
            raw_bytes: 1000,
            chunk_objects: 10,
            metadata_objects: 2,
        };
        assert!((r.ideal_ratio_percent() - 60.0).abs() < 1e-9);
        assert!((r.actual_ratio_percent() - 50.0).abs() < 1e-9);
        assert_eq!(r.stored_total_bytes(), 500);
    }

    #[test]
    fn empty_report_is_zero() {
        let r = SpaceReport::default();
        assert_eq!(r.ideal_ratio_percent(), 0.0);
        assert_eq!(r.actual_ratio_percent(), 0.0);
    }

    #[test]
    fn refcount_histogram_shapes() {
        use crate::config::{CachePolicy, DedupConfig};
        use dedup_sim::SimTime;
        use dedup_store::{ClientId, ClusterBuilder, ObjectName};

        let cluster = ClusterBuilder::new().build();
        let s = crate::engine::DedupStore::with_default_pools(
            cluster,
            DedupConfig::with_chunk_size(8 * 1024).cache_policy(CachePolicy::EvictAll),
        );
        // One block shared by 5 objects, one unique block.
        let shared = vec![1u8; 8 * 1024];
        for i in 0..5 {
            let _ = s
                .write(
                    ClientId(0),
                    &ObjectName::new(format!("s{i}")),
                    0,
                    &shared,
                    SimTime::ZERO,
                )
                .expect("write");
        }
        let unique: Vec<u8> = (0..8 * 1024).map(|i| (i % 251) as u8).collect();
        let _ = s
            .write(
                ClientId(0),
                &ObjectName::new("u"),
                0,
                &unique,
                SimTime::ZERO,
            )
            .expect("write");
        let _ = s.flush_all(SimTime::from_secs(10)).expect("flush");
        let hist = s.refcount_histogram().expect("hist");
        assert_eq!(hist.get(&5), Some(&1), "one chunk with 5 referrers");
        assert_eq!(hist.get(&1), Some(&1), "one unique chunk");
        assert_eq!(hist.values().sum::<u64>(), 2);

        // The capacity sample agrees with the histogram and the space
        // report.
        let sample = s
            .sample_capacity(SimTime::from_secs(11))
            .expect("capacity sample");
        assert_eq!(sample.unique_chunks, 1);
        assert_eq!(sample.shared_chunks, 1);
        assert_eq!(sample.max_refcount, 5);
        assert_eq!(sample.space, s.space_report().expect("space"));
    }

    #[test]
    fn a_torn_or_corrupt_refcount_is_a_typed_error_not_a_zero() {
        use crate::config::DedupConfig;
        use crate::refs::REFCOUNT_XATTR;
        use crate::DedupError;
        use dedup_sim::SimTime;
        use dedup_store::{ClientId, ClusterBuilder, IoCtx, ObjectName, TxOp};

        let cluster = ClusterBuilder::new().build();
        let s = crate::engine::DedupStore::with_default_pools(
            cluster,
            DedupConfig::with_chunk_size(8 * 1024),
        );
        let _ = s
            .write(
                ClientId(0),
                &ObjectName::new("o"),
                0,
                vec![7u8; 8 * 1024],
                SimTime::ZERO,
            )
            .expect("write");
        let _ = s.flush_all(SimTime::from_secs(10)).expect("flush");
        assert_eq!(s.refcount_histogram().expect("hist").get(&1), Some(&1));

        let cctx = IoCtx::new(s.chunk_pool());
        let chunk = s
            .cluster()
            .list_objects(s.chunk_pool())
            .expect("list")
            .remove(0);
        let tamper = |s: &DedupStore, op: TxOp| {
            let _ = s
                .cluster()
                .transact(&cctx, &chunk, vec![op])
                .expect("tamper");
        };
        tamper(&s, TxOp::SetXattr(REFCOUNT_XATTR.into(), vec![9].into()));
        let corrupt = DedupError::CorruptRefcount {
            chunk: chunk.to_string(),
        };
        assert_eq!(s.refcount_histogram().unwrap_err(), corrupt);
        assert_eq!(s.compression_report().unwrap_err(), corrupt);
        assert_eq!(
            s.sample_capacity(SimTime::from_secs(11)).unwrap_err(),
            corrupt
        );

        tamper(&s, TxOp::RemoveXattr(REFCOUNT_XATTR.into()));
        let missing = DedupError::MissingRefcount {
            chunk: chunk.to_string(),
        };
        assert_eq!(s.refcount_histogram().unwrap_err(), missing);
        assert_eq!(
            s.sample_capacity(SimTime::from_secs(12)).unwrap_err(),
            missing
        );
    }
}
