//! Foreground mutations: write (post-processing and inline), truncate,
//! delete.

use bytes::Bytes;
use dedup_fingerprint::Fingerprint;
use dedup_sim::{CostExpr, SimTime};
use dedup_store::{ClientId, ObjectName, StoreError, Timed, TxOp};

use super::{DedupStore, Releases};
use crate::chunkmap::ChunkMapEntry;
use crate::chunkpool::ChunkPool;
use crate::config::DedupMode;
use crate::error::DedupError;
use crate::refs::BackRef;

impl DedupStore {
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
        let end = self.cluster.check_extent(offset, data.len() as u64)?;
        self.metrics.writes.inc();
        self.metrics.write_bytes.add(data.len() as u64);
        self.count_foreground(name, now);
        match self.config.mode {
            DedupMode::PostProcess => self.write_postprocess(client, name, offset, end, data),
            DedupMode::Inline => self.write_inline(client, name, offset, end, &data),
        }
    }

    /// The post-processing write of `data` at `offset`, which ends at
    /// `end` (already checked against the size cap).
    fn write_postprocess(
        &self,
        client: ClientId,
        name: &ObjectName,
        offset: u64,
        end: u64,
        data: Bytes,
    ) -> Result<Timed<()>, DedupError> {
        let ctx = self.meta_ctx(client);
        let entries = self.load_chunk_map(name)?;
        let cs = self.chunker.chunk_size() as u64;
        let object_len = self
            .cluster
            .stat(self.metadata_pool, name)?
            .unwrap_or(0)
            .max(end);

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
        self.mark_dirty(name);
        Ok(Timed::new((), self.label("write.commit", t.cost)))
    }

    /// The inline write of `data` at `offset`, which ends at `end`
    /// (already checked against the size cap).
    fn write_inline(
        &self,
        client: ClientId,
        name: &ObjectName,
        offset: u64,
        end: u64,
        data: &[u8],
    ) -> Result<Timed<()>, DedupError> {
        let entries = self.load_chunk_map(name)?;
        let cs = self.chunker.chunk_size() as u64;
        let object_len = self
            .cluster
            .stat(self.metadata_pool, name)?
            .unwrap_or(0)
            .max(end);
        let meta_node = self.primary_node(self.metadata_pool, name)?;

        let mut costs: Vec<CostExpr> = Vec::new();
        let mut ops: Vec<TxOp> = Vec::new();
        let mut releases = Releases::default();
        let cctx = self.chunk_ctx(client);
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
                        let chunk = ChunkPool::object_name(fp);
                        let t =
                            self.chunks
                                .read_at(&self.cluster, &cctx, &chunk, 0, e.len as u64)?;
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

            // Fingerprint (CPU), dereference old (deferred past the map
            // commit, slot kept), store new.
            let fp = Fingerprint::of(&content);
            costs.push(self.fingerprint_cost(meta_node, c_len as u64));
            if let Some(old) = existing.and_then(|e| e.chunk_id).filter(|old| *old != fp) {
                releases.defer(&mut costs, old, c_off);
            }
            let backref = BackRef::new(self.metadata_pool, name.clone(), c_off);
            let t = self.chunks.store(
                &self.cluster,
                &cctx,
                fp,
                content.into(),
                &backref,
                None,
                None,
            )?;
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
        self.commit_then_release(name, &mut costs, releases, None, || {
            Ok(self.cluster.transact(&ctx, name, ops)?.cost)
        })?;
        Ok(Timed::new((), CostExpr::seq(costs)))
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
    /// Fails if the object does not exist, if `new_len` passes the size
    /// cap, or if the store fails.
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
        self.cluster.check_extent(0, new_len)?;
        self.count_foreground(name, now);
        let entries = self.load_chunk_map(name)?;
        let cs = self.chunker.chunk_size() as u64;
        let mut costs: Vec<CostExpr> = Vec::new();
        let mut ops: Vec<TxOp> = Vec::new();
        let mut dirtied = false;

        let mut releases = Releases::default();
        for e in &entries {
            if e.offset >= new_len {
                // Entirely cut off: drop the entry, release the chunk.
                ops.push(TxOp::RemoveOmap(e.key()));
                if let Some(fp) = e.chunk_id {
                    releases.defer(&mut costs, fp, e.offset);
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
        self.commit_then_release(name, &mut costs, releases, None, || {
            Ok(self.cluster.transact(&ctx, name, ops)?.cost)
        })?;
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
        // The commit here is deleting the metadata object: once it (and
        // its chunk map) is durably gone, releasing the references is safe
        // at any crash point. They keep their leading cost slots.
        let mut releases = Releases::default();
        for e in entries {
            if let Some(fp) = e.chunk_id {
                releases.defer(&mut costs, fp, e.offset);
            }
        }
        let ctx = self.meta_ctx(client);
        self.commit_then_release(name, &mut costs, releases, None, || {
            match self.cluster.delete(&ctx, name) {
                Ok(t) => Ok(t.cost),
                Err(StoreError::NoSuchObject(..)) => Ok(CostExpr::Nop),
                Err(e) => Err(e.into()),
            }
        })?;
        self.update_dirty(|dirty| dirty.remove(name));
        Ok(Timed::new((), CostExpr::seq(costs)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::DedupConfig;
    use crate::engine::testutil::{patterned, store, store_with, t, CS};
    use dedup_store::{ClusterBuilder, MemWalBackend, StoreError};

    /// Runs `refuse` against a store holding one two-chunk object under a
    /// 64-chunk size cap, in both write modes, and asserts that it fails
    /// with `expect` and leaves no trace: no engine counter, no
    /// foreground-rate mark (which rate control reads), no heat.
    fn assert_refused_without_trace(
        refuse: impl Fn(&DedupStore, &ObjectName, u64) -> Result<(), DedupError>,
        expect: fn(&StoreError) -> bool,
    ) {
        let cap = 64 * CS as u64;
        for config in [
            DedupConfig::with_chunk_size(CS),
            DedupConfig::with_chunk_size(CS).inline(),
        ] {
            let cluster = ClusterBuilder::new().object_size_cap(cap).build();
            let s = DedupStore::with_default_pools(cluster, config);
            let name = ObjectName::new("obj");
            let _ = s
                .write(ClientId(0), &name, 0, patterned(2 * CS as usize, 5), t(0))
                .expect("write");
            let trace = |s: &DedupStore| {
                (
                    s.stats(),
                    s.metrics.foreground_ops.total(),
                    s.hitset.hit_count(name.as_bytes(), t(3)),
                )
            };
            let before = trace(&s);
            match refuse(&s, &name, cap) {
                Err(DedupError::Store(e)) if expect(&e) => {}
                other => panic!("expected a refusal, got {other:?}"),
            }
            assert_eq!(trace(&s), before, "the refused op left a trace");
        }
    }

    #[test]
    fn read_past_the_end_leaves_no_trace() {
        assert_refused_without_trace(
            |s, name, _| {
                s.read(ClientId(0), name, CS as u64, CS as u64 + 1, t(3))
                    .map(drop)
            },
            |e| matches!(e, StoreError::ReadOutOfRange { .. }),
        );
    }

    #[test]
    fn write_past_the_cap_leaves_no_trace() {
        assert_refused_without_trace(
            |s, name, cap| {
                s.write(ClientId(0), name, cap - 1, vec![7u8; 2], t(3))
                    .map(drop)
            },
            |e| matches!(e, StoreError::ObjectTooLarge { .. }),
        );
    }

    #[test]
    fn truncate_past_the_cap_leaves_no_trace() {
        let too_large = |e: &StoreError| matches!(e, StoreError::ObjectTooLarge { .. });
        assert_refused_without_trace(
            |s, name, cap| s.truncate(ClientId(0), name, cap + 1, t(3)).map(drop),
            too_large,
        );
        // Refused before the chunk map is built: one `SetOmap` per chunk
        // up to `u64::MAX` would never finish.
        assert_refused_without_trace(
            |s, name, _| s.truncate(ClientId(0), name, u64::MAX, t(3)).map(drop),
            too_large,
        );
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

    /// `offset + len` used to wrap: the chunk-map ops were built for a
    /// nonsense range, the cluster logged them, and `write_into` panicked.
    #[test]
    fn write_wrapping_past_u64_max_is_refused_before_the_log() {
        for config in [
            DedupConfig::with_chunk_size(CS),
            DedupConfig::with_chunk_size(CS).inline(),
        ] {
            let mut cluster = ClusterBuilder::new().build();
            cluster.attach_wal(MemWalBackend::shared());
            let s = DedupStore::with_default_pools(cluster, config);
            let name = ObjectName::new("obj");
            let _ = s
                .write(ClientId(0), &name, 0, vec![1u8; 64], t(0))
                .expect("write");
            let appends = s.registry().counter("wal.appends").get();
            let err = s
                .write(ClientId(0), &name, u64::MAX - 10, vec![7u8; 100], t(1))
                .expect_err("must fail");
            let DedupError::Store(StoreError::ObjectTooLarge { requested, .. }) = err else {
                panic!("{err}");
            };
            assert_eq!(requested, u64::MAX);
            assert_eq!(s.registry().counter("wal.appends").get(), appends);
            let r = s.read(ClientId(0), &name, 0, 64, t(2)).expect("read");
            assert_eq!(r.value, vec![1u8; 64]);
        }
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
    fn delete_dereferences_everything() {
        let s = store();
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
}

#[cfg(test)]
mod truncate_tests {
    use super::*;
    use crate::config::{CachePolicy, DedupConfig};
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
        let s = store();
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
        let s = store();
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
        let s = store();
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
        let s = store();
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
