//! The background flush: stage → fingerprint → commit (see
//! `crate::pipeline`), and the tick / flush-all entry points over it.
//! Every entry point takes `&self` and holds the flush mutex for one
//! pass; stage and commit lock only the object they work on.

use std::time::{Duration, Instant};

use bytes::Bytes;
use dedup_fingerprint::{ChunkSig, Fingerprint, SIG_SAMPLE_BYTES};
use dedup_obs::{Histogram, Severity};
use dedup_sim::{CostExpr, SimDuration, SimTime};
use dedup_store::{ClientId, ObjectName, Timed, TxOp};

use super::{DedupStore, FlushReport, Releases};
use crate::chunkmap::ChunkMapEntry;
use crate::chunkpool::{ChunkPool, ChunkStoreOutcome};
use crate::config::CachePolicy;
use crate::error::DedupError;
use crate::pipeline::{stage2_and_commit, StagedBatch, StagedChunk, StagedObject};
use crate::refs::BackRef;

impl DedupStore {
    /// Flushes one metadata object's dirty chunks (engine steps 1–6 of
    /// §4.4.1). An object not queued for deduplication is left alone.
    ///
    /// # Errors
    ///
    /// Fails if the store does.
    pub fn flush_object(
        &self,
        name: &ObjectName,
        now: SimTime,
    ) -> Result<Timed<FlushReport>, DedupError> {
        let _pass = self.flush_pass.lock();
        let mut batch = StagedBatch::default();
        self.stage_object(&mut batch, name, now, self.config.cache_policy)?;
        self.fingerprint_and_commit(batch)
    }

    /// Pipeline stage 1 for one dirty-queue candidate, into `batch`: the
    /// cache-manager decision (paper §4.3) under `policy`, then reading
    /// every dirty chunk — deferred read-modify-write merges included —
    /// into a [`StagedObject`] snapshot. The object *stays queued*; its
    /// [`DirtyTicket`](crate::queue::DirtyTicket) ties the snapshot to the
    /// current write epoch so the commit can detect racing mutations. A
    /// candidate with no dirty chunks left is retired from the queue, a
    /// hot one requeued at the back; `batch` counts both. A name that is
    /// not queued stages nothing.
    ///
    /// Holds the object's shard read lock throughout, so no foreground
    /// mutation lands between the chunk-map load and the ticket. The guard
    /// is taken raw: the `service.shard.*` series count foreground ops
    /// only.
    fn stage_object(
        &self,
        batch: &mut StagedBatch,
        name: &ObjectName,
        now: SimTime,
        policy: CachePolicy,
    ) -> Result<(), DedupError> {
        let _shard = self.shards[self.shard_of(name)].read();
        let Some(ticket) = self.dirty.lock().ticket(name) else {
            return Ok(());
        };
        let entries = self.load_chunk_map(name)?;
        let dirty: Vec<ChunkMapEntry> = entries.iter().copied().filter(|e| e.dirty).collect();
        if dirty.is_empty() {
            self.update_dirty(|dirty| dirty.remove(name));
            batch.clean += 1;
            return Ok(());
        }

        // Cache-manager decision (paper §4.3): hot objects are left alone.
        let hot = self.hitset.is_hot(name.as_bytes(), now);
        if hot && policy == CachePolicy::HotnessAware {
            self.metrics.hot_skips.inc();
            // Stays dirty; re-queue at the back.
            self.update_dirty(|dirty| dirty.requeue_back(name));
            batch.skipped_hot += 1;
            return Ok(());
        }

        let meta_node = self.primary_node(self.metadata_pool, name)?;
        let keep_cached = match policy {
            CachePolicy::KeepAll => true,
            CachePolicy::EvictAll => false,
            CachePolicy::HotnessAware => hot,
        };
        let mut chunks = Vec::with_capacity(dirty.len());
        for e in dirty {
            // (2) Read the cached dirty chunk from the metadata object,
            // merging any punched sub-ranges from the previous chunk object
            // (deferred read-modify-write). The snapshot is a shared view
            // of the stored replica unless a merge forced a copy: a
            // foreground write after stage detaches the replica's buffer
            // (CoW) and the dirty-queue epoch ticket discards the snapshot
            // at commit.
            let (content, read_costs, _) =
                self.read_patched(ClientId::INTERNAL, name, e.offset, e.len as u64, &e)?;
            let merged = read_costs.len() > 1;
            // Tiered pipeline: compute the cheap signature now and probe
            // the index. A miss means no stored chunk can possibly match,
            // so stage 2 skips the full fingerprint for this chunk. The
            // probe is only a hint — commit re-probes, so a candidate
            // appearing later (e.g. stored by an earlier chunk of this
            // very batch) is still caught.
            let (sig, fingerprint_wanted) = if self.config.tiered_fingerprint {
                let s = ChunkSig::of(&content);
                let wanted = !self.chunks.index().candidates(&s, now).is_empty();
                (Some(s), wanted)
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
        batch.objects.push(StagedObject {
            name: name.clone(),
            ticket,
            meta_node,
            keep_cached,
            staged_at: now,
            chunks,
        });
        Ok(())
    }

    /// Pipeline stage 1 over the queue: stages up to `max_objects`
    /// candidates from the front of the dirty queue, the cache manager
    /// deciding under `policy`. With `rate_controlled`, each candidate
    /// consumes one rate-control admission; a denial stops the batch (and
    /// is counted only when the pass has done nothing yet, preserving
    /// classic per-tick denial counts at batch size 1).
    ///
    /// A background tick is `stage_batch(config.flush_batch_size, now,
    /// true, config.cache_policy)`; an empty batch means idle or throttled.
    fn stage_batch(
        &self,
        max_objects: usize,
        now: SimTime,
        rate_controlled: bool,
        policy: CachePolicy,
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
                let admitted = self.rate.lock().admit_dedup(now);
                self.update_rate_band(now);
                if !admitted {
                    if batch.is_empty() {
                        self.metrics.rate_denied.inc();
                    }
                    break;
                }
                self.metrics.rate_admitted.inc();
            }
            self.stage_object(&mut batch, &name, now, policy)?;
        }
        self.metrics
            .flush_batch_size
            .set(batch.objects.len() as i64);
        self.record_stage_wall(
            &self.metrics.stage_wall_ns,
            "flush.stage",
            start.elapsed(),
            Duration::ZERO,
        );
        Ok(batch)
    }

    /// Pipeline stages 2+3, overlapped ([`stage2_and_commit`]): encodes
    /// and fingerprints `batch` with no engine lock held, on
    /// [`DedupStore::fingerprint_parallelism`] threads, while this thread
    /// commits its objects in batch order. Each object's ticket is
    /// re-validated first; objects whose write epoch moved since stage are
    /// skipped (they stay dirty and queued for a later pass). Returns the
    /// aggregate report and the virtual-time cost of the whole batch.
    ///
    /// The pass's wall time is split between the two histograms on every
    /// exit path, errors included: `commit_wall_ns` is this thread's time
    /// inside commit, `fingerprint_wall_ns` the rest — stage-2 work it ran
    /// or waited for, the part of stage 2 commit did not hide.
    fn fingerprint_and_commit(
        &self,
        mut batch: StagedBatch,
    ) -> Result<Timed<FlushReport>, DedupError> {
        let start = Instant::now();
        let mut total = FlushReport {
            skipped_hot: batch.skipped_hot > 0,
            clean_retired: batch.clean,
            ..Default::default()
        };
        let mut costs: Vec<CostExpr> = Vec::new();
        let mut in_commit = Duration::ZERO;
        let passed: Result<(), DedupError> = stage2_and_commit(
            &mut batch.objects,
            self.fingerprint_parallelism(),
            &self.config.compression,
            |staged| {
                let commit_start = Instant::now();
                let committed = self.commit_staged(staged);
                in_commit += commit_start.elapsed();
                if let Some(t) = committed? {
                    total.absorb(&t.value);
                    costs.push(t.cost);
                }
                Ok(())
            },
        );
        if !batch.objects.is_empty() {
            let exposed = start.elapsed().saturating_sub(in_commit);
            self.record_stage_wall(
                &self.metrics.fingerprint_wall_ns,
                "flush.fingerprint",
                exposed,
                in_commit,
            );
        }
        self.record_stage_wall(
            &self.metrics.commit_wall_ns,
            "flush.commit",
            in_commit,
            Duration::ZERO,
        );
        passed?;
        Ok(Timed::new(total, CostExpr::seq(costs)))
    }

    /// Commits one staged object (engine steps 3–6 of §4.4.1). Returns
    /// `None` when the staged ticket no longer matches — a foreground
    /// write, truncate, or delete landed after stage and the snapshot is
    /// stale.
    ///
    /// Holds the object's shard write lock (raw, like stage's) from the
    /// ticket check through the map transaction and the release: a
    /// foreground write landing in between would otherwise be overwritten
    /// by this commit's `SetOmap`/`PunchHole`.
    ///
    /// The per-chunk cost sequence is assembled exactly as the classic
    /// serial flush did — reads, fingerprint CPU on the metadata node,
    /// deref, inter-node hop, store, final transact — so virtual-time
    /// results are unchanged by the pipeline split.
    fn commit_staged(
        &self,
        staged: &mut StagedObject,
    ) -> Result<Option<Timed<FlushReport>>, DedupError> {
        let chunks = std::mem::take(&mut staged.chunks);
        let StagedObject {
            ref name,
            ticket,
            meta_node,
            keep_cached,
            staged_at,
            ..
        } = *staged;
        let _shard = self.shards[self.shard_of(name)].write();
        if !self.dirty.lock().check(name, ticket) {
            self.metrics.stage_conflicts.inc();
            if let Some(ev) = self.events() {
                ev.emit(
                    Severity::Warn,
                    "engine.flush",
                    "stage_conflict",
                    vec![("object", name.as_str().to_string())],
                );
            }
            return Ok(None);
        }
        let mut report = FlushReport::default();
        let mut costs: Vec<CostExpr> = Vec::new();
        let ctx = self.meta_ctx(ClientId::INTERNAL);
        let mut ops: Vec<TxOp> = Vec::new();
        let mut releases = Releases::default();
        let cctx = self.chunk_ctx(ClientId::INTERNAL);
        let mut chunks_compressed = 0u64;
        let mut chunks_stored_raw = 0u64;
        for chunk in chunks {
            let e = chunk.entry;
            let stored = chunk.stored().clone();
            let encoded = chunk.encoded.is_some();
            let content = chunk.content;
            let merged = chunk.merged;
            costs.extend(chunk.read_costs);
            if self.config.compression.enabled && !content.is_empty() {
                // The encode attempt ran in stage 2 with no engine lock
                // held; like fingerprinting, its CPU bill lands on
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
            // thread); its CPU cost is charged to the metadata node here,
            // exactly as the serial engine did. Tiered mode (stage 1
            // signed every chunk): re-probe the signature and pay the full
            // fingerprint only on a candidate collision — a miss proves
            // global uniqueness and the chunk stores under a minted weak
            // name, never hashed in full.
            let (fp, sig) = match chunk.sig {
                Some(sig) => self.resolve_chunk_target(
                    sig,
                    chunk.fingerprint,
                    &content,
                    meta_node,
                    staged_at,
                    &mut costs,
                )?,
                None => {
                    let fp = chunk
                        .fingerprint
                        .unwrap_or_else(|| Fingerprint::of(&content));
                    self.charge_full_hash(meta_node, content.len() as u64, &mut costs);
                    (fp, None)
                }
            };
            report.chunks_flushed += 1;

            // Content unchanged since the last flush keeps its reference:
            // only the dirty bit clears.
            if e.chunk_id != Some(fp) {
                // The old chunk's release keeps paper step 3's position in
                // the cost sequence; it runs after the map commit.
                if let Some(old) = e.chunk_id {
                    releases.defer(&mut costs, old, e.offset);
                }
                // (4–5) Store or reference the chunk in the chunk pool
                // (the stored bytes: compressed form when encode kept it).
                let t = self.chunks.store(
                    &self.cluster,
                    &cctx,
                    fp,
                    stored.clone(),
                    &BackRef::new(self.metadata_pool, name.clone(), e.offset),
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
                // (possibly compressed) bytes.
                let chunk_node =
                    self.primary_node(self.chunks.pool(), &ChunkPool::object_name(fp))?;
                let hop =
                    self.cluster
                        .perf()
                        .node_to_node(meta_node, chunk_node, stored.len() as u64);
                costs.push(self.label("flush.chunk_hop", hop));
                costs.push(self.label("flush.chunk_store", t.cost));
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
        report.derefs = releases.0.len() as u64;
        report.chunks_reclaimed =
            self.commit_then_release(name, &mut costs, releases, Some("flush.deref"), || {
                let t = self.cluster.transact(&ctx, name, ops)?;
                Ok(self.label("flush.map_update", t.cost))
            })?;
        if chunks_compressed > 0 {
            if let Some(ev) = self.events() {
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
        self.update_dirty(|dirty| dirty.remove(name));
        self.record_flush_report(&report);
        Ok(Some(Timed::new(report, CostExpr::seq(costs))))
    }

    /// Records `elapsed` of one pipeline stage's wall-clock time: into its
    /// histogram, and as a span on the tracer's wall track when one is
    /// attached, ending `before_now` ago (a pass's fingerprint and commit
    /// shares are interleaved; their spans are laid end to end).
    fn record_stage_wall(
        &self,
        histogram: &Histogram,
        span: &str,
        elapsed: Duration,
        before_now: Duration,
    ) {
        let elapsed = elapsed.as_nanos() as u64;
        histogram.record(elapsed);
        if let Some(t) = self.tracer() {
            let end = t.wall_now_ns().saturating_sub(before_now.as_nanos() as u64);
            t.wall_span(span, end.saturating_sub(elapsed), end);
        }
    }

    fn record_flush_report(&self, report: &FlushReport) {
        self.metrics.chunks_flushed.add(report.chunks_flushed);
        self.metrics.chunks_deduped.add(report.chunks_deduped);
        self.metrics.chunks_created.add(report.chunks_created);
        self.publish_index_health();
    }

    /// Tiered-pipeline chunk resolution: decides what name the staged
    /// chunk deduplicates against (or stores under) while paying the full
    /// fingerprint only when a signature collision forces it.
    ///
    /// The candidate probe runs *under the flush mutex* and therefore sees
    /// every chunk any flush stored so far — including earlier chunks of
    /// this very batch — so an empty candidate set is proof no stored
    /// chunk can share this content: every store registers its signature
    /// before the chunk becomes visible, and in post-process mode only
    /// flushes store chunks. Such chunks skip full hashing forever and
    /// store under a minted weak name (DESIGN.md §12 prices the inline
    /// mode exception: at most a duplicate chunk object).
    ///
    /// Returns the target fingerprint plus the signature for
    /// [`ChunkPool::store`] to index on creation.
    fn resolve_chunk_target(
        &self,
        sig: ChunkSig,
        staged_fp: Option<Fingerprint>,
        content: &Bytes,
        meta_node: usize,
        staged_at: SimTime,
        costs: &mut Vec<CostExpr>,
    ) -> Result<(Fingerprint, Option<ChunkSig>), DedupError> {
        let len = content.len() as u64;
        self.metrics.fp_sig_calls.inc();
        let sig_cost = self.fingerprint_cost(meta_node, SIG_SAMPLE_BYTES.min(len));
        costs.push(self.label("flush.sig_cpu", sig_cost));
        let cands = self.chunks.index().candidates(&sig, staged_at);
        if cands.is_empty() && staged_fp.is_none() {
            self.metrics.fp_skipped_unique.inc();
            self.metrics.fp_weak_stored.inc();
            return Ok((self.chunks.mint_weak(&sig), Some(sig)));
        }
        // Collision (or stage 2 hashed already): pay the full fingerprint.
        let full = staged_fp.unwrap_or_else(|| Fingerprint::of(content));
        self.charge_full_hash(meta_node, len, costs);
        let cctx = self.chunk_ctx(ClientId::INTERNAL);
        for cand in cands {
            // A weak-named candidate is read back and hashed, at most once
            // per stored chunk (`None`: it has since been reclaimed).
            let cand_full = match cand.full {
                Some(f) => Some(f),
                None => self
                    .chunks
                    .upgrade(&self.cluster, &cctx, &sig, cand.stored)?
                    .map(|t| {
                        let (full, hashed) = t.value;
                        costs.push(self.label("flush.upgrade_read", t.cost));
                        let cpu = self.fingerprint_cost(meta_node, hashed);
                        costs.push(self.label("flush.upgrade_cpu", cpu));
                        self.metrics.fp_full_hash_bytes.add(hashed);
                        self.metrics.fp_upgrades.inc();
                        full
                    }),
            };
            if cand_full == Some(full) {
                return Ok((cand.stored, Some(sig)));
            }
        }
        Ok((full, Some(sig)))
    }

    /// Accounts one full content fingerprint over `len` bytes: the
    /// counters, and the CPU bill on the metadata node.
    fn charge_full_hash(&self, meta_node: usize, len: u64, costs: &mut Vec<CostExpr>) {
        self.metrics.fp_full_calls.inc();
        self.metrics.fp_full_hash_bytes.add(len);
        let fp_cost = self.fingerprint_cost(meta_node, len);
        costs.push(self.label("flush.fingerprint_cpu", fp_cost));
    }

    /// Publishes the chunk index's cold-tier population and emits the
    /// one-shot `engine.bloom/overfill` warning when the Bloom fill ratio
    /// first crosses 0.5.
    pub(super) fn publish_index_health(&self) {
        let index = self.chunks.index();
        let fill = index.bloom_fill_ratio();
        if self.chunks.bloom_newly_overfull(fill) {
            if let Some(ev) = self.events() {
                ev.emit(
                    Severity::Warn,
                    "engine.bloom",
                    "overfill",
                    vec![("fill_ppm", ((fill * 1_000_000.0) as i64).to_string())],
                );
            }
        }
        self.metrics
            .index_cold_entries
            .set(index.stats().cold_records as i64);
    }

    /// One background-engine step: honours rate control, pops up to
    /// [`DedupConfig::flush_batch_size`](crate::DedupConfig::flush_batch_size)
    /// of the oldest dirty objects, and flushes them through the stage →
    /// fingerprint → commit pipeline.
    /// Returns `None` when idle or throttled. At the default batch size of
    /// 1 this behaves exactly like the classic one-object tick.
    ///
    /// # Errors
    ///
    /// Fails if the store does.
    pub fn dedup_tick(&self, now: SimTime) -> Result<Option<Timed<FlushReport>>, DedupError> {
        let _pass = self.flush_pass.lock();
        let batch = self.stage_batch(
            self.config.flush_batch_size,
            now,
            true,
            self.config.cache_policy,
        )?;
        if batch.is_empty() {
            return Ok(None);
        }
        self.fingerprint_and_commit(batch).map(Some)
    }

    /// Flushes the oldest dirty object, ignoring rate control (the
    /// *uncontrolled background deduplication* of Figs. 5b & 14). Hotness
    /// still applies per the configured cache policy.
    ///
    /// # Errors
    ///
    /// Fails if the store does.
    pub fn flush_next(&self, now: SimTime) -> Result<Option<Timed<FlushReport>>, DedupError> {
        let front = self.dirty.lock().front();
        front.map(|name| self.flush_object(&name, now)).transpose()
    }

    /// Flushes every dirty object ignoring rate control and hotness; used
    /// by capacity experiments that want the steady state. Internally runs
    /// the pipeline in bounded batches (staged chunk contents are held in
    /// memory between stage and commit).
    ///
    /// # Errors
    ///
    /// Fails if the store does.
    pub fn flush_all(&self, now: SimTime) -> Result<Timed<FlushReport>, DedupError> {
        /// Objects staged per internal pass; bounds staged memory.
        const FLUSH_ALL_BATCH: usize = 64;
        // Hotness is overridden for this pass only; the configuration is
        // never rewritten.
        let policy = match self.config.cache_policy {
            CachePolicy::HotnessAware => CachePolicy::EvictAll,
            configured => configured,
        };
        let mut total = FlushReport::default();
        let mut costs = Vec::new();
        loop {
            let _pass = self.flush_pass.lock();
            let before = self.dirty.lock().len();
            if before == 0 {
                break;
            }
            let batch = self.stage_batch(FLUSH_ALL_BATCH, now, false, policy)?;
            let had_objects = !batch.objects.is_empty();
            let t = self.fingerprint_and_commit(batch)?;
            total.absorb(&t.value);
            costs.push(t.cost);
            if !had_objects && self.dirty.lock().len() >= before {
                // Defensive: nothing staged and nothing left the queue.
                // Cannot happen with the hotness override above, but a
                // silent livelock would be worse than a partial flush.
                break;
            }
        }
        Ok(Timed::new(total, CostExpr::seq(costs)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{DedupConfig, HitSetConfig, Watermarks};
    use crate::engine::testutil::{crash_at, patterned, store, store_with, t, wal_store_with, CS};
    use crate::refs::{decode_refcount, REFCOUNT_XATTR};
    use dedup_store::IoCtx;

    #[test]
    fn flush_dedups_identical_objects() {
        let s = store();
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
    fn hot_object_skips_dedup_until_cool() {
        let s = store();
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
        let s = store();
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
    fn partial_write_to_evicted_chunk_prereads() {
        let s = store();
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
    fn flush_merges_entry_extended_past_old_chunk_extent() {
        // A zero-extending truncate grows a flushed-and-evicted entry past
        // the length of the chunk object backing it; the next flush's
        // deferred read-modify-write must clamp its hole reads to the old
        // chunk's extent (the tail is sparse zeros), not read past EOF.
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
        let _ = s.flush_all(t(5000)).expect("flush after zero-extension");
        let r = s.read(ClientId(0), &name, 0, 16672, t(6000)).expect("read");
        let mut expect = vec![0u8; 16672];
        expect[8192..12288].copy_from_slice(&data);
        assert_eq!(r.value, expect);
        assert!(s.verify_references().expect("verify").is_empty());
    }

    #[test]
    fn dedup_tick_honours_rate_control() {
        let s = store_with(DedupConfig::with_chunk_size(CS).watermarks(Watermarks {
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
    fn tail_chunk_shorter_than_chunk_size() {
        let s = store();
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
        let s = store();
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
        let s = store();
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
        let s = store_with(cfg);
        let name = ObjectName::new("obj");
        let _ = s
            .write(ClientId(0), &name, 0, patterned(CS as usize, 73), t(0))
            .expect("write");
        let rep = s.flush_object(&name, t(1)).expect("flush");
        assert!(rep.value.skipped_hot);
    }

    #[test]
    fn flush_all_overrides_hotness_without_rewriting_the_config() {
        // HotnessAware by default; two writes in distinct intervals make
        // the object hot, so a plain flush skips it ...
        let s = store();
        let name = ObjectName::new("hot");
        let data = patterned(CS as usize, 97);
        let _ = s.write(ClientId(0), &name, 0, &data, t(0)).expect("write");
        let _ = s.write(ClientId(0), &name, 0, &data, t(1)).expect("write");
        assert!(
            s.flush_object(&name, t(1))
                .expect("flush")
                .value
                .skipped_hot
        );
        // ... while flush_all overrides hotness for its own pass only: the
        // configuration it runs under is never touched.
        let rep = s.flush_all(t(1)).expect("flush_all").value;
        assert_eq!(rep.chunks_flushed, 1);
        assert_eq!(rep.chunks_evicted, 1, "flushed as EvictAll");
        assert_eq!(s.dirty_len(), 0);
        assert_eq!(s.config().cache_policy, CachePolicy::HotnessAware);
        let _ = s.write(ClientId(0), &name, 0, &data, t(2)).expect("write");
        assert!(
            s.flush_object(&name, t(2))
                .expect("flush")
                .value
                .skipped_hot
        );
    }

    /// The chunk pool's object names, sorted.
    fn chunk_names(s: &DedupStore) -> Vec<ObjectName> {
        let mut names = s.cluster().list_objects(s.chunk_pool()).expect("list");
        names.sort();
        names
    }

    /// Chunk size of the batch-conformance tests: large enough that a
    /// chunk's stage 2 outlasts a helper thread's start.
    const BLOCK: u32 = 4 * CS;

    /// `BLOCK` bytes of `patterned` content, with `flip` a byte changed
    /// outside the signature's sampled windows (head, middle, tail): the
    /// same `ChunkSig`, different content.
    fn block(seed: u64, flip: bool) -> Vec<u8> {
        let mut b = patterned(BLOCK as usize, seed);
        if flip {
            b[100] ^= 0xff;
        }
        b
    }

    #[test]
    fn fingerprint_parallelism_changes_neither_report_nor_cost() {
        // Two flush_all rounds in 4-object batches. Round one: each batch
        // opens with an 8-chunk object followed by a 1-chunk one, so at
        // two or more workers the second object's stage 2 often finishes
        // first; objects 2k and 2k+1 share a chunk neither has stored
        // (same batch); first chunks repeat every fifth object, so later
        // batches hit chunks earlier batches stored, weak-named in tiered
        // mode (the upgrade path); object 6's last chunk has the same
        // signature as its first but other content. Round two overwrites
        // objects 3 and 4, releasing old chunks (two are reclaimed), and
        // adds a collider. The width is wall-clock only: every setting
        // must agree on what was done, what it cost and what the chunk
        // pool holds.
        let flush = |workers: usize, tiered: bool| {
            let mut config = DedupConfig::with_chunk_size(BLOCK)
                .cache_policy(CachePolicy::EvictAll)
                .flush_parallelism(workers)
                .flush_batch_size(4);
            if tiered {
                config = config.tiered_fingerprint();
            }
            let s = store_with(config);
            assert_eq!(s.fingerprint_parallelism(), workers);
            let put = |i: u64, blocks: &[Vec<u8>], now: SimTime| {
                let name = ObjectName::new(format!("obj-{i:02}"));
                let _ = s
                    .write(ClientId(0), &name, 0, blocks.concat(), now)
                    .expect("write");
            };
            for i in 0..12u64 {
                let mut blocks = vec![block(50 + i / 2, false)];
                if i % 4 != 1 {
                    blocks.insert(0, block(i % 5, false));
                    blocks.push(block(100 + i, i == 6));
                }
                if i % 4 == 0 {
                    blocks.extend((0..5).map(|j| block(300 + 10 * i + j, false)));
                }
                if i == 6 {
                    blocks.push(block(1, true));
                }
                put(i, &blocks, t(0));
            }
            let first = s.flush_all(t(10)).expect("flush");
            put(
                3,
                &[block(200, false), block(50, false), block(202, false)],
                t(20),
            );
            put(4, &[block(201, false), block(3, true)], t(20));
            let second = s.flush_all(t(30)).expect("flush");
            let upgrades = s.metrics.fp_upgrades.get();
            (
                (first.value, first.cost),
                (second.value, second.cost),
                chunk_names(&s),
                upgrades,
            )
        };
        for tiered in [false, true] {
            let serial = flush(1, tiered);
            let ((first, cost), (second, _), names, upgrades) = &serial;
            assert_eq!((first.chunks_flushed, first.chunks_created), (46, 36));
            assert!(!cost.is_nop());
            assert_eq!(second.chunks_flushed, 5);
            assert_eq!((second.derefs, second.chunks_reclaimed), (5, 2), "releases");
            assert_eq!(names.len(), 36 + 4 - 2);
            assert_eq!(*upgrades > 0, tiered, "weak-named candidates upgraded");
            for workers in [2, 4] {
                assert_eq!(
                    serial,
                    flush(workers, tiered),
                    "{workers} workers, tiered {tiered}"
                );
            }
        }
    }

    /// Four staged objects sharing one chunk, the even ones two chunks
    /// long and the odd ones one, with compression on so stage 2 outlasts
    /// a helper's start: at two workers an odd object's stage 2 often ends
    /// before the even one's before it. A pass that crashes at any of its
    /// durable writes or fails inside a commit leaves the store as the
    /// serial pass does.
    #[test]
    fn abort_and_error_mid_batch_leave_what_the_serial_pass_leaves() {
        let staged = |workers: usize| {
            let (s, backend) = wal_store_with(
                DedupConfig::with_chunk_size(BLOCK)
                    .cache_policy(CachePolicy::EvictAll)
                    .compress()
                    .flush_parallelism(workers)
                    .flush_batch_size(4),
            );
            for i in 0..4u64 {
                let data = match i % 2 {
                    0 => [block(i, false), block(9, false)].concat(),
                    _ => block(9, false),
                };
                let name = ObjectName::new(format!("obj-{i}"));
                let _ = s.write(ClientId(0), &name, 0, &data, t(0)).expect("write");
            }
            let batch = s
                .stage_batch(4, t(10), false, CachePolicy::EvictAll)
                .expect("stage");
            assert_eq!(batch.objects.len(), 4);
            (s, backend, batch)
        };

        // Each object's commit is its chunk stores (after the first, the
        // shared chunk's are dedup hits) and then one map transaction.
        let (s, backend, batch) = staged(1);
        let before = backend.durable_writes();
        let _ = s.fingerprint_and_commit(batch).expect("flush");
        let writes = backend.durable_writes() - before;
        assert_eq!(writes, 3 + 2 + 3 + 2);
        let crash = |workers: usize, k: u64| {
            let (s, backend, batch) = staged(workers);
            crash_at(&backend, k);
            assert!(s.fingerprint_and_commit(batch).is_err());
            assert!(backend.crashed());
            (s.dirty_len(), chunk_names(&s))
        };
        for k in 0..writes {
            let serial = crash(1, k);
            if k == 1 {
                assert_eq!(serial.0, 4, "the crashed object stays queued");
                assert_eq!(serial.1.len(), 1, "one chunk stored before the crash");
            }
            assert_eq!(serial, crash(2, k), "crash at durable write {k}");
        }

        // Foreground writes move the first two objects' tickets, so their
        // commits are skipped and the third object's is the first to
        // reach the cluster — with every OSD down.
        let (mut s, _, batch) = staged(2);
        for i in 0..2u64 {
            let name = ObjectName::new(format!("obj-{i}"));
            let _ = s
                .write(ClientId(0), &name, 0, block(i, false), t(11))
                .expect("write");
        }
        let osds = s.cluster().map().osd_count() as u32;
        for i in 0..osds {
            s.cluster_mut().mark_down(dedup_placement::OsdId(i));
        }
        let m = &s.metrics;
        let walls = || (m.fingerprint_wall_ns.count(), m.commit_wall_ns.count());
        let (conflicts, before) = (m.stage_conflicts.get(), walls());
        // Returning at all means every helper was joined.
        assert!(s.fingerprint_and_commit(batch).is_err());
        assert_eq!(m.stage_conflicts.get(), conflicts + 2);
        assert_eq!(
            walls(),
            (before.0 + 1, before.1 + 1),
            "the failed pass is timed"
        );
        assert_eq!(s.dirty_len(), 4, "every uncommitted object stays queued");
        assert!(chunk_names(&s).is_empty());

        for i in 0..osds {
            s.cluster_mut().revive_osd(dedup_placement::OsdId(i));
        }
        let rep = s.flush_all(t(20)).expect("flush").value;
        assert_eq!(rep.chunks_flushed, 6);
        assert_eq!(s.dirty_len(), 0);
        assert!(s.verify_references().expect("verify").is_empty());
    }

    /// Reads `name` whole and compares it with `expect` (`None`: deleted).
    fn assert_reads(s: &DedupStore, name: &ObjectName, expect: &Option<Vec<u8>>, now: SimTime) {
        match expect {
            Some(data) => {
                let r = s
                    .read(ClientId(0), name, 0, data.len() as u64, now)
                    .expect("read");
                assert_eq!(r.value, *data);
                assert_eq!(
                    s.cluster().stat(s.metadata_pool(), name).expect("stat"),
                    Some(data.len() as u64),
                    "object length"
                );
            }
            None => assert!(s.read(ClientId(0), name, 0, 1, now).is_err(), "deleted"),
        }
    }

    /// A foreground write, shrinking truncate or delete that lands between
    /// stage and commit moves the object's ticket: the commit discards the
    /// stale snapshot instead of writing it over the op.
    #[test]
    fn foreground_op_between_stage_and_commit_discards_the_snapshot() {
        #[derive(Debug)]
        enum Op {
            Write,
            Shrink,
            Delete,
        }
        let cs = CS as usize;
        for op in [Op::Write, Op::Shrink, Op::Delete] {
            let mut s =
                store_with(DedupConfig::with_chunk_size(CS).cache_policy(CachePolicy::EvictAll));
            let x = ObjectName::new("x");
            let old = patterned(2 * cs, 1);
            let _ = s.write(ClientId(0), &x, 0, &old, t(0)).expect("write");
            let _ = s.flush_all(t(1)).expect("flush");
            let new = patterned(2 * cs, 2);
            let _ = s.write(ClientId(0), &x, 0, &new, t(2)).expect("rewrite");

            let conflicts = s.metrics.stage_conflicts.get();
            let batch = s
                .stage_batch(1, t(3), false, CachePolicy::EvictAll)
                .expect("stage");
            assert_eq!(batch.objects.len(), 1, "{op:?}: x staged");
            let expect = match op {
                Op::Write => {
                    let patch = patterned(cs, 3);
                    let _ = s
                        .write(ClientId(0), &x, CS as u64, &patch, t(4))
                        .expect("write");
                    let mut e = new.clone();
                    e[cs..].copy_from_slice(&patch);
                    Some(e)
                }
                Op::Shrink => {
                    let _ = s
                        .truncate(ClientId(0), &x, CS as u64 / 2, t(4))
                        .expect("truncate");
                    Some(new[..cs / 2].to_vec())
                }
                Op::Delete => {
                    let _ = s.delete(ClientId(0), &x).expect("delete");
                    None
                }
            };
            let rep = s.fingerprint_and_commit(batch).expect("commit");
            assert_eq!(
                s.metrics.stage_conflicts.get(),
                conflicts + 1,
                "{op:?}: conflict counted"
            );
            assert_eq!(rep.value.chunks_flushed, 0, "{op:?}: nothing committed");
            assert_reads(&s, &x, &expect, t(5));

            let _ = s.flush_all(t(6)).expect("flush");
            assert_eq!(s.dirty_len(), 0, "{op:?}");
            assert_reads(&s, &x, &expect, t(7));
            assert!(s.verify_references().expect("verify").is_empty(), "{op:?}");
            let _ = s.gc_chunk_pool().expect("gc");
            assert!(s.find_leaked_chunks().expect("leaks").is_empty(), "{op:?}");
        }
    }

    /// A flush blocks on the shard of the object it works on and nowhere
    /// else: stage waits out a shard writer, commit waits out a shard
    /// reader, and ops on another shard run all the while.
    #[test]
    fn flush_locks_one_shard_not_the_store() {
        use std::sync::{mpsc, Arc};
        use std::time::Duration;

        const WAIT: Duration = Duration::from_millis(150);
        let s = Arc::new(store());
        let x = ObjectName::new("x");
        let y = (0..)
            .map(|i| ObjectName::new(format!("y{i}")))
            .find(|y| s.shard_of(y) != s.shard_of(&x))
            .expect("a name on another shard");
        let (data_x, data_y) = (patterned(2 * CS as usize, 5), patterned(CS as usize, 6));
        let _ = s.write(ClientId(0), &x, 0, &data_x, t(0)).expect("write x");
        let _ = s.write(ClientId(0), &y, 0, &data_y, t(0)).expect("write y");

        // While `flush` is blocked, another shard serves a write and a
        // read, and the flush does not return.
        let other_shard_serves = |done: &mpsc::Receiver<FlushReport>, now: SimTime| {
            let _ = s.write(ClientId(1), &y, 0, &data_y, now).expect("write y");
            let r = s
                .read(ClientId(1), &y, 0, data_y.len() as u64, now)
                .expect("read y");
            assert_eq!(r.value, data_y);
            assert!(
                done.recv_timeout(WAIT).is_err(),
                "flush returned while x's shard was held"
            );
        };

        let writer = s.shards[s.shard_of(&x)].write();
        let (tx, done) = mpsc::channel();
        let flusher = {
            let s = Arc::clone(&s);
            std::thread::spawn(move || {
                let rep = s.flush_all(t(100)).expect("flush");
                tx.send(rep.value).expect("report");
            })
        };
        // Stage needs x's shard read lock: blocked by the writer.
        other_shard_serves(&done, t(1));
        // Readers may stage alongside; commit needs the write lock.
        let reader = parking_lot::RwLockWriteGuard::downgrade(writer);
        other_shard_serves(&done, t(2));
        drop(reader);

        let rep = done.recv().expect("flush finished");
        flusher.join().expect("flusher");
        assert_eq!(rep.chunks_flushed, 3, "x's two chunks and y's one");
        assert_eq!(s.dirty_len(), 0);
        let r = s
            .read(ClientId(0), &x, 0, data_x.len() as u64, t(200))
            .expect("read x");
        assert_eq!(r.value, data_x);
    }

    /// Whole flush passes queue on the flush mutex — the lock a tiered
    /// commit's "signature miss proves uniqueness" rests on.
    #[test]
    fn flush_passes_queue_on_the_flush_mutex() {
        use std::sync::{mpsc, Arc};
        use std::time::Duration;

        let s = Arc::new(store());
        let x = ObjectName::new("x");
        let _ = s
            .write(ClientId(0), &x, 0, patterned(2 * CS as usize, 8), t(0))
            .expect("write");
        let pass = s.flush_pass.lock();
        let (tx, done) = mpsc::channel();
        let flushers: Vec<_> = [true, false]
            .into_iter()
            .map(|all| {
                let (s, tx) = (Arc::clone(&s), tx.clone());
                std::thread::spawn(move || {
                    let rep = if all {
                        s.flush_all(t(100)).expect("flush").value
                    } else {
                        let tick = s.dedup_tick(t(100)).expect("tick");
                        tick.map(|t| t.value).unwrap_or_default()
                    };
                    tx.send(rep.chunks_flushed).expect("report");
                })
            })
            .collect();
        assert!(
            done.recv_timeout(Duration::from_millis(150)).is_err(),
            "a flush ran while another pass held the flush mutex"
        );
        drop(pass);
        let flushed: u64 = done.iter().take(2).sum();
        for f in flushers {
            f.join().expect("flusher");
        }
        assert_eq!(flushed, 2, "x's two chunks, flushed once");
        assert_eq!(s.dirty_len(), 0);
    }
}
