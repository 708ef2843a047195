//! Chunk-pool garbage collection and the reference audits.

use dedup_fingerprint::Fingerprint;
use dedup_obs::Severity;
use dedup_store::{ClientId, ObjectName, Timed};

use super::{DedupStore, GcReport};
use crate::chunkpool::ChunkPool;
use crate::error::DedupError;
use crate::refs::BackRef;

impl DedupStore {
    /// Garbage-collects the chunk pool: every chunk object's back
    /// references are validated against the live chunk maps; stale
    /// references are dropped, counts corrected, and unreferenced chunks
    /// deleted. Releases run synchronously after each map commit, so what
    /// this reclaims is whatever a crash between the map commit and the
    /// release — or between a chunk store and the map commit — stranded.
    /// Safe to run at any time.
    ///
    /// # Errors
    ///
    /// Fails if the store does.
    pub fn gc_chunk_pool(&mut self) -> Result<Timed<GcReport>, DedupError> {
        let cctx = self.chunk_ctx(ClientId::INTERNAL);
        let pass = self
            .chunks
            .gc(&self.cluster, &cctx, |b, fp| self.backref_is_live(b, fp))?;
        let report = pass.value;
        self.metrics
            .gc_chunks_reclaimed
            .add(report.chunks_reclaimed);
        self.metrics
            .gc_stale_refs_dropped
            .add(report.stale_refs_dropped);
        if let Some(ev) = self.events() {
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
        Ok(pass)
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
        for name in self.cluster.list_objects(self.metadata_pool)? {
            for fp in self
                .load_chunk_map(&name)?
                .iter()
                .filter_map(|e| e.chunk_id)
            {
                let chunk = ChunkPool::object_name(fp);
                if self.cluster.stat(self.chunks.pool(), &chunk)?.is_none() {
                    missing.push((name.clone(), chunk.to_string()));
                }
            }
        }
        Ok(missing)
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
        self.chunks.live_backrefs(
            &self.cluster,
            &cctx,
            |b, fp| self.backref_is_live(b, fp),
            |chunk| {
                if chunk.live == 0 {
                    leaked.push(chunk.name.to_string());
                }
                Ok(())
            },
        )?;
        Ok(leaked)
    }

    /// A back reference is live iff the referrer still exists and its
    /// chunk-map entry at that offset names the chunk.
    fn backref_is_live(&self, backref: &BackRef, fp: Fingerprint) -> Result<bool, DedupError> {
        Ok(self
            .load_chunk_map(&backref.object)?
            .iter()
            .any(|e| e.offset == backref.offset && e.chunk_id == Some(fp)))
    }
}

#[cfg(test)]
mod gc_tests {
    use super::*;
    use std::sync::Arc;

    use crate::config::{CachePolicy, DedupConfig};
    use crate::engine::testutil::{flush_crashing_at, wal_store_with};
    use crate::refs::{decode_refcount, REFCOUNT_XATTR};
    use dedup_sim::SimTime;
    use dedup_store::{ClusterBuilder, IoCtx, MemWalBackend};

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

    fn config() -> DedupConfig {
        DedupConfig::with_chunk_size(CS).cache_policy(CachePolicy::EvictAll)
    }

    fn store() -> DedupStore {
        DedupStore::with_default_pools(ClusterBuilder::new().build(), config())
    }

    fn wal_store() -> (DedupStore, Arc<MemWalBackend>) {
        wal_store_with(config())
    }

    #[test]
    fn gc_reclaims_the_chunk_a_crash_before_the_map_commit_strands() {
        let (mut s, backend) = wal_store();
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
        // Crash at the map commit, the flush's second durable write.
        flush_crashing_at(&s, &backend, &name, SimTime::from_secs(5000), 1);
        // The v2 chunk landed with a back reference the map never took.
        assert_eq!(s.space_report().expect("r").chunk_objects, 2);
        let gc = s.gc_chunk_pool().expect("gc");
        assert_eq!(gc.value.chunks_reclaimed, 1, "v2 chunk collected");
        assert_eq!(gc.value.chunks_examined, 2);
        assert_eq!(s.space_report().expect("r").chunk_objects, 1);
        // Data still reads correctly after GC.
        let r = s
            .read(
                ClientId(0),
                &name,
                0,
                v2.len() as u64,
                SimTime::from_secs(5001),
            )
            .expect("read");
        assert_eq!(r.value, v2);
    }

    #[test]
    fn gc_corrects_overcounted_shared_chunks() {
        let (mut s, backend) = wal_store();
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
        for i in 1..3 {
            let _ = s
                .flush_object(&ObjectName::new(format!("o{i}")), SimTime::from_secs(10))
                .expect("flush");
        }
        // A dedup hit that crashes before o0's map commit: the count goes
        // to 3 while only o1 and o2 reference the chunk.
        let o0 = ObjectName::new("o0");
        flush_crashing_at(&s, &backend, &o0, SimTime::from_secs(10), 1);
        let chunk = ObjectName::new(Fingerprint::of(&data).to_object_name());
        let count = s
            .cluster()
            .get_xattr(&IoCtx::new(s.chunk_pool()), &chunk, REFCOUNT_XATTR)
            .expect("xattr")
            .value
            .and_then(|v| decode_refcount(&v));
        assert_eq!(count, Some(3), "the dedup hit landed");
        let gc = s.gc_chunk_pool().expect("gc");
        assert_eq!(gc.value.stale_refs_dropped, 1);
        assert_eq!(gc.value.counts_corrected, 1);
        assert_eq!(gc.value.chunks_reclaimed, 0, "still referenced by o1/o2");
        // With the count corrected to 2, deleting both live referrers
        // releases the chunk; GC finds nothing left over.
        for i in 1..3 {
            let _ = s
                .delete(ClientId(0), &ObjectName::new(format!("o{i}")))
                .expect("delete");
        }
        assert_eq!(s.space_report().expect("r").chunk_objects, 0);
        let gc = s.gc_chunk_pool().expect("gc");
        assert_eq!(gc.value.chunks_reclaimed, 0);
    }

    #[test]
    fn gc_is_a_noop_on_a_consistent_store() {
        let mut s = store();
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
        // Wipe BOTH replicas of a chunk object behind the engine's back
        // and let the reference scrub find it.
        let mut s = store();
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
