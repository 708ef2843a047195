//! The foreground read path: cached chunks from the metadata object, the
//! rest redirected to the chunk pool, hot objects promoted back.

use bytes::Bytes;
use dedup_sim::{CostExpr, SimTime};
use dedup_store::{ClientId, ObjectName, StoreError, Timed, TxOp};

use super::DedupStore;
use crate::chunkmap::ChunkMapEntry;
use crate::chunkpool::ChunkPool;
use crate::config::CachePolicy;
use crate::error::DedupError;

impl DedupStore {
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
        let shard = self.lock_shard_read(name);
        let object_len = self
            .cluster
            .stat(self.metadata_pool, name)?
            .ok_or_else(|| StoreError::NoSuchObject(self.metadata_pool, name.clone()))?;
        if offset.checked_add(len).is_none_or(|end| end > object_len) {
            return Err(StoreError::ReadOutOfRange {
                offset,
                len,
                object_size: object_len,
            }
            .into());
        }
        self.metrics.reads.inc();
        self.metrics.read_bytes.add(len);
        self.count_foreground(name, now);

        let entries = self.load_chunk_map(name)?;
        let ctx = self.meta_ctx(client);

        // The chunk-map lookup happens on the metadata primary as part of
        // request handling (no extra disk op); per-chunk data reads then
        // proceed in parallel (large blocks fan out, Fig. 11's 128 KiB
        // case).
        // Result assembly: non-overlapping `(object offset, view)` parts
        // collected per leg, stitched zero-copy after the loop.
        let mut parts: Vec<(u64, Bytes)> = Vec::new();
        let mut chunk_costs: Vec<CostExpr> = Vec::new();
        let cs = self.chunker.chunk_size() as u64;
        for idx in self.chunker.touched_chunks(offset, len) {
            let c_off = idx * cs;
            let entry = Self::entry_for(&entries, c_off);
            let want_start = offset.max(c_off);
            let want_end = (offset + len).min(c_off + cs).min(object_len);
            if want_start >= want_end {
                continue;
            }
            // A chunk entry covers [e.offset, e.end()); bytes past that
            // (the object grew after the entry was written) live only in
            // the metadata object as resident zeros/fresh data.
            let covered_end = entry.map_or(c_off, |e| e.end()).min(want_end);
            let tail_start = want_start.max(covered_end);
            if tail_start < want_end {
                let t = self
                    .cluster
                    .read_at(&ctx, name, tail_start, want_end - tail_start)?;
                parts.push((tail_start, t.value));
                chunk_costs.push(self.label("read.tail", t.cost));
            }
            let Some(e) = entry.filter(|_| want_start < covered_end) else {
                continue;
            };
            let span = covered_end - want_start;
            if e.cached {
                // Cached (or never deduplicated): the metadata pool serves
                // resident bytes; punched sub-ranges (a partial write into
                // an evicted chunk) fall back to the old chunk object.
                let (bytes, costs, fully_resident) =
                    self.read_patched(client, name, want_start, span, &e)?;
                if fully_resident {
                    self.metrics.cache_hit_chunks.inc();
                } else {
                    self.metrics.redirected_chunks.inc();
                }
                let mut costs = costs.into_iter();
                chunk_costs.extend(costs.next().map(|c| self.label("read.cached", c)));
                chunk_costs.extend(costs.map(|c| self.label("read.chunk_fallback", c)));
                parts.push((want_start, bytes));
            } else {
                // Redirection: metadata pool forwards to the chunk pool.
                self.metrics.redirected_chunks.inc();
                let fp = e.chunk_id.ok_or_else(|| DedupError::MissingChunk {
                    object: name.clone(),
                    chunk: "<unset>".into(),
                })?;
                let chunk_name = ChunkPool::object_name(fp);
                // Redirection is a *proxy* read, as in Ceph tiering: the
                // metadata-pool primary forwards the request to the chunk
                // pool, receives the data, and relays it to the client —
                // the chunk bytes traverse the metadata node's NIC both
                // ways. This is the paper's read penalty (Figs. 10b & 11).
                let cctx = self.chunk_ctx(ClientId::INTERNAL);
                let t = self
                    .chunks
                    .read_at(&self.cluster, &cctx, &chunk_name, want_start - c_off, span)
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
                let chunk_node = self.primary_node(self.chunks.pool(), &chunk_name)?;
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
        let mut costs = vec![CostExpr::par(chunk_costs)];

        // Cache-manager promotion (paper §4.3/§5): once the HitSet says the
        // object is hot, its non-cached chunks are pulled back into the
        // metadata pool so subsequent reads stay local. Only the adaptive
        // policy promotes; EvictAll pins data in the chunk pool and KeepAll
        // never evicted in the first place.
        if self.config.cache_policy == CachePolicy::HotnessAware
            && self.hitset.is_hot(name.as_bytes(), now)
        {
            drop(shard);
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

    /// Reads `[start, start + len)` of the cached chunk `e` of `name`:
    /// resident bytes from the metadata object, sub-ranges an eviction
    /// punched out spliced in from the chunk object `e` still names (the
    /// deferred read-modify-write; one deep copy of the span, accounted).
    /// Returns the bytes, the metadata read's cost followed by one cost
    /// per chunk-pool read, and whether the span was fully resident.
    pub(super) fn read_patched(
        &self,
        client: ClientId,
        name: &ObjectName,
        start: u64,
        len: u64,
        e: &ChunkMapEntry,
    ) -> Result<(Bytes, Vec<CostExpr>, bool), DedupError> {
        let t = self
            .cluster
            .read_at(&self.meta_ctx(client), name, start, len)?;
        let splits = self
            .cluster
            .resident_ranges(self.metadata_pool, name, start, len)?;
        let fully_resident = splits.iter().all(|&(_, _, res)| res);
        let (Some(old), false) = (e.chunk_id, fully_resident) else {
            return Ok((t.value, vec![t.cost], fully_resident));
        };
        let mut buf = t.value.to_vec();
        self.metrics.bytes_copied.add(len);
        let mut costs = vec![t.cost];
        let chunk_name = ChunkPool::object_name(old);
        let cctx = self.chunk_ctx(client);
        // A zero-extending truncate can grow the entry past the chunk
        // object flushed for its previous content; bytes beyond that
        // (logical) extent were never written and stay zero.
        let old_extent = self.chunks.extent(&self.cluster, &cctx, &chunk_name)?;
        let old_end = e.offset + old_extent.unwrap_or(0);
        for &(hs, he, resident) in &splits {
            let he = he.min(old_end);
            if resident || hs >= he {
                continue;
            }
            let t =
                self.chunks
                    .read_at(&self.cluster, &cctx, &chunk_name, hs - e.offset, he - hs)?;
            buf[(hs - start) as usize..(he - start) as usize].copy_from_slice(&t.value);
            costs.push(t.cost);
        }
        Ok((Bytes::from(buf), costs, false))
    }

    /// Pulls the non-cached chunks overlapping `[offset, offset + len)`
    /// back into the metadata object's data part (tiering promotion).
    ///
    /// The promotion transacts on the object, and concurrent reads share
    /// its shard's read lock, which does not serialise transactions on one
    /// object. So it holds the shard write lock, taken raw like a flush
    /// commit's (the `service.shard.*` series count the read once), and
    /// re-loads the chunk map under it: a write or a commit may have
    /// landed since the read's own load.
    fn promote_chunks(
        &self,
        name: &ObjectName,
        offset: u64,
        len: u64,
    ) -> Result<Timed<u64>, DedupError> {
        let _shard = self.shards[self.shard_of(name)].write();
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
            let chunk_name = ChunkPool::object_name(fp);
            let cctx = self.chunk_ctx(ClientId::INTERNAL);
            let t = match self
                .chunks
                .read_at(&self.cluster, &cctx, &chunk_name, 0, e.len as u64)
            {
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
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::DedupConfig;
    use crate::engine::testutil::{patterned, store, store_with, t, CS};

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

    /// `offset + len` used to wrap past the range check and return `Ok`.
    #[test]
    fn read_wrapping_past_u64_max_is_out_of_range() {
        let s = store();
        let name = ObjectName::new("obj");
        let _ = s
            .write(ClientId(0), &name, 0, vec![1u8; 64], t(0))
            .expect("write");
        let err = s
            .read(ClientId(0), &name, u64::MAX, 2, t(1))
            .expect_err("must fail");
        assert!(
            matches!(err, DedupError::Store(StoreError::ReadOutOfRange { .. })),
            "{err}"
        );
    }

    #[test]
    fn eviction_frees_metadata_pool_space() {
        let s = store();
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
        let s = store_with(DedupConfig::with_chunk_size(CS).cache_policy(CachePolicy::KeepAll));
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
    fn read_of_partially_written_evicted_chunk_before_flush() {
        // Write, flush (evict), then overwrite only the middle 1 KiB and
        // read the whole chunk BEFORE the next flush: resident bytes come
        // from the cache, the rest from the old chunk object.
        let s = store();
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
    fn read_before_flush_of_zero_extended_evicted_chunk() {
        // An evicted chunk grown by a zero-extending truncate has holes
        // past the extent of the chunk object still backing it. Reading
        // it *before* the next flush must clamp the fallback reads to
        // that extent, exactly as the flush's merge does (the two share
        // `read_patched`); it used to fail with `ReadOutOfRange`.
        let s = store_with(DedupConfig::with_chunk_size(CS).cache_policy(CachePolicy::EvictAll));
        let name = ObjectName::new("obj");
        let data = patterned(4096, 71);
        let _ = s
            .write(ClientId(0), &name, 8192, &data, t(0))
            .expect("write");
        let _ = s.flush_all(t(1000)).expect("flush"); // chunk object: 4096 bytes
        let _ = s
            .truncate(ClientId(0), &name, 16672, t(2000)) // entry grows to 8192
            .expect("truncate");
        let r = s.read(ClientId(0), &name, 0, 16672, t(2001)).expect("read");
        let mut expect = vec![0u8; 16672];
        expect[8192..12288].copy_from_slice(&data);
        assert_eq!(r.value, expect);
    }

    #[test]
    fn kept_cache_is_completed_after_merge_flush() {
        // KeepAll: after a partial write + flush, the cached copy must be
        // fully resident again (no holes left behind).
        let s = store_with(DedupConfig::with_chunk_size(CS).cache_policy(CachePolicy::KeepAll));
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
}

#[cfg(test)]
mod promotion_tests {
    use super::*;
    use crate::config::DedupConfig;
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
        let s = adaptive_store();
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

    /// Two hot reads of one object share its shard's read lock, so a
    /// promotion (a transaction on the object) must wait for the write
    /// side: while a reader of the shard holds on, nothing is promoted.
    #[test]
    fn promotion_waits_for_the_shard_write_lock() {
        use std::sync::Arc;
        use std::time::Duration;

        let s = Arc::new(adaptive_store());
        let name = ObjectName::new("obj");
        let data = patterned(4 * CS as usize, 59);
        let _ = s
            .write(ClientId(0), &name, 0, &data, SimTime::ZERO)
            .expect("w");
        let _ = s.flush_all(SimTime::from_secs(1_000)).expect("flush");
        // One access: the next read is hot and promotes.
        let _ = s
            .read(
                ClientId(0),
                &name,
                0,
                data.len() as u64,
                SimTime::from_secs(2_000),
            )
            .expect("read");
        assert_eq!(s.stats().promotions, 0);

        let shared = s.shards[s.shard_of(&name)].read();
        let reader = {
            let (s, name, len) = (Arc::clone(&s), name.clone(), data.len() as u64);
            std::thread::spawn(move || {
                s.read(ClientId(1), &name, 0, len, SimTime::from_secs(2_001))
                    .expect("hot read")
                    .value
            })
        };
        std::thread::sleep(Duration::from_millis(150));
        assert_eq!(
            s.stats().promotions,
            0,
            "promoted while another reader held the shard"
        );
        drop(shared);
        assert_eq!(reader.join().expect("reader"), data);
        assert_eq!(s.stats().promotions, 4, "all four chunks promoted");
    }

    #[test]
    fn evict_all_policy_never_promotes() {
        let cluster = ClusterBuilder::new().build();
        let s = DedupStore::with_default_pools(
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
        let s = adaptive_store();
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
