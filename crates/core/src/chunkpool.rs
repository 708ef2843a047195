//! The chunk pool: the one owner of the chunk-object format.
//!
//! The paper's two structural ideas meet in the chunk object: *double
//! hashing* (a chunk's fingerprint **is** its object name, placed by the
//! cluster's ordinary name hash) and *self-contained objects* (the
//! reference count rides in an xattr, one back reference per referrer in
//! omap, the compression marker in a second xattr — see [`crate::refs`]).
//! [`ChunkPool`] is the only non-test code in this crate that knows how a
//! chunk object is named, counted, back-referenced or compressed; the
//! engine asks it to [`store`](ChunkPool::store), [`deref`](ChunkPool::deref)
//! and [`read_at`](ChunkPool::read_at) and never touches the format.
//!
//! # Locking
//!
//! The struct holds the chunk index, the per-fingerprint refcount stripes,
//! the weak-name sequence and the Bloom-overfill latch — and nothing
//! through which it could reach a foreground shard lock, the dirty queue,
//! the hitset or the rate controller. A chunk-plane call therefore takes
//! stripe → OSD locks only (DESIGN.md §9), checked by the compiler rather
//! than by convention.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

use bytes::Bytes;
use dedup_fingerprint::{ChunkSig, Fingerprint};
use dedup_placement::PoolId;
use dedup_sim::{CostExpr, SimDuration};
use dedup_store::{Cluster, IoCtx, ObjectName, StoreError, Timed, TxOp};
use parking_lot::Mutex;

use crate::config::{CompressionConfig, DedupConfig};
use crate::engine::{primary_node, GcReport};
use crate::error::DedupError;
use crate::health::BLOOM_DEGRADED_FILL;
use crate::index::{build_index, ChunkIndex};
use crate::metrics::EngineMetrics;
use crate::refs::{
    decode_raw_len, decode_refcount, encode_raw_len, encode_refcount, BackRef, COMPRESS_XATTR,
    REFCOUNT_XATTR,
};
use crate::stats::CompressionReport;

/// What [`ChunkPool::store`] did.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum ChunkStoreOutcome {
    /// A new chunk object was created (unique content).
    Created,
    /// The chunk existed; a reference was added (capacity saved).
    Deduplicated,
    /// The chunk existed and already carried our reference (crash retry).
    AlreadyReferenced,
}

/// One chunk object's back references, each judged live or stale by the
/// caller of [`ChunkPool::live_backrefs`].
#[derive(Debug)]
pub(crate) struct ChunkRefs {
    /// The chunk object.
    pub name: ObjectName,
    /// Back references that are live.
    pub live: u64,
    /// Omap keys of the stale ones.
    pub stale: Vec<String>,
    /// Virtual-time cost of listing the references.
    pub cost: CostExpr,
}

/// The chunk pool of one dedup engine (see the module docs).
#[derive(Debug)]
pub(crate) struct ChunkPool {
    pool: PoolId,
    /// Bloom-gated negative lookups plus (in tiered mode) the signature →
    /// candidate map. Every chunk creation registers here before the
    /// chunk becomes visible, so a definite "absent" answer is always
    /// safe.
    index: Box<dyn ChunkIndex>,
    /// Serialize the refcount read-modify-write (xattr → omap → transact)
    /// per fingerprint.
    stripes: Vec<Mutex<()>>,
    /// Monotonic sequence for minted weak chunk names; resumed past the
    /// highest surviving sequence at rebuild so names are never reused.
    weak_seq: AtomicU64,
    /// Latched once the Bloom gate is seen past half full (reset by a
    /// rebuild).
    bloom_warned: AtomicBool,
    tiered: bool,
    compression: CompressionConfig,
    metrics: EngineMetrics,
}

impl ChunkPool {
    pub(crate) fn new(pool: PoolId, config: &DedupConfig, metrics: EngineMetrics) -> Self {
        ChunkPool {
            pool,
            index: build_index(config.bloom, &config.chunk_index),
            stripes: (0..config.foreground_shards.max(1))
                .map(|_| Mutex::new(()))
                .collect(),
            weak_seq: AtomicU64::new(0),
            bloom_warned: AtomicBool::new(false),
            tiered: config.tiered_fingerprint,
            compression: config.compression,
            metrics,
        }
    }

    /// The pool's id.
    pub(crate) fn pool(&self) -> PoolId {
        self.pool
    }

    /// The chunk index, for signature probes and health gauges. Chunks
    /// enter it only through [`ChunkPool::store`] and
    /// [`ChunkPool::rebuild`].
    pub(crate) fn index(&self) -> &dyn ChunkIndex {
        &*self.index
    }

    /// The chunk object named by `fp` — the name *is* the fingerprint.
    pub(crate) fn object_name(fp: Fingerprint) -> ObjectName {
        ObjectName::new(fp.to_object_name())
    }

    /// A fresh weak name for a chunk whose signature proved it globally
    /// unique (never hashed in full).
    pub(crate) fn mint_weak(&self, sig: &ChunkSig) -> Fingerprint {
        Fingerprint::mint_weak(sig, self.weak_seq.fetch_add(1, Ordering::Relaxed))
    }

    /// Whether `fill` is the first Bloom fill ratio past
    /// [`BLOOM_DEGRADED_FILL`] seen since the last rebuild — the point
    /// false positives start climbing.
    pub(crate) fn bloom_newly_overfull(&self, fill: f64) -> bool {
        fill > BLOOM_DEGRADED_FILL && !self.bloom_warned.swap(true, Ordering::Relaxed)
    }

    /// Every chunk object in the pool with the fingerprint its name
    /// carries; foreign objects are left alone.
    fn chunks(
        &self,
        cluster: &Cluster,
    ) -> Result<impl Iterator<Item = (ObjectName, Fingerprint)>, DedupError> {
        let names = cluster.list_objects(self.pool)?;
        Ok(names.into_iter().filter_map(|name| {
            let fp = Fingerprint::from_object_name(name.as_str())?;
            Some((name, fp))
        }))
    }

    /// The chunk's reference count and the lookup's cost, `None` when the
    /// object is absent. A present chunk with *no* refcount xattr is a
    /// torn state (crash between chunk write and refcount commit), not a
    /// corrupt one — neither decodes as zero.
    pub(crate) fn refcount(
        &self,
        cluster: &Cluster,
        cctx: &IoCtx,
        chunk: &ObjectName,
    ) -> Result<Option<Timed<u64>>, DedupError> {
        let t = match cluster.get_xattr(cctx, chunk, REFCOUNT_XATTR) {
            Ok(t) => t,
            Err(StoreError::NoSuchObject(..)) => return Ok(None),
            Err(e) => return Err(e.into()),
        };
        let raw = t.value.ok_or_else(|| DedupError::MissingRefcount {
            chunk: chunk.to_string(),
        })?;
        let count = decode_refcount(&raw).ok_or_else(|| DedupError::CorruptRefcount {
            chunk: chunk.to_string(),
        })?;
        Ok(Some(Timed::new(count, t.cost)))
    }

    fn set_refcount(count: u64) -> TxOp {
        TxOp::SetXattr(REFCOUNT_XATTR.into(), encode_refcount(count).into())
    }

    fn lock_stripe(&self, fp: &Fingerprint) -> parking_lot::MutexGuard<'_, ()> {
        // Striped by the fingerprint's first word — already uniform.
        self.stripes[(fp.0[0] % self.stripes.len() as u64) as usize].lock()
    }

    /// Stores or references the chunk object named by `fp` — the one
    /// hit-or-register call of a content store.
    ///
    /// `content` is the bytes the pool stores (the compressed form when
    /// the flush encode kept it); `encoded_raw_len` carries the logical
    /// length of a compressed payload so the create branch stamps the
    /// format marker. `None` means raw — such chunks are byte-identical to
    /// ones written with compression off.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn store(
        &self,
        cluster: &Cluster,
        cctx: &IoCtx,
        fp: Fingerprint,
        content: Bytes,
        backref: &BackRef,
        sig: Option<ChunkSig>,
        encoded_raw_len: Option<u64>,
    ) -> Result<Timed<ChunkStoreOutcome>, DedupError> {
        // The refcount update is a read-modify-write spanning three cluster
        // calls; the stripe lock keeps two referrers of the same chunk from
        // interleaving it.
        let _stripe = self.lock_stripe(&fp);
        let chunk = Self::object_name(fp);
        // Negative-lookup fast path: a unique chunk — the common case on a
        // low-dedup workload — probes the chunk pool only to hear "no such
        // object". The Bloom filter answers that definitively from memory.
        // Cost-neutral: the create branch never charged the lookup anyway.
        let existing = if self.index.may_contain(&fp) {
            self.metrics.bloom_misses.inc();
            self.refcount(cluster, cctx, &chunk)?
        } else {
            self.metrics.bloom_hits.inc();
            None
        };
        let Some(count) = existing else {
            // Register before the chunk becomes visible so the Bloom side
            // never yields a false negative for a stored chunk, and — in
            // tiered mode — so every stored chunk's signature is indexed
            // before any probe could miss it (a signature miss must prove
            // global uniqueness).
            let sig = sig.or_else(|| self.tiered.then(|| ChunkSig::of(&content)));
            self.index.note_stored(fp, sig);
            self.metrics.bytes_shared.add(content.len() as u64);
            let mut ops = vec![
                TxOp::WriteFull(content),
                Self::set_refcount(1),
                TxOp::SetOmap(backref.key(), backref.encode_value().into()),
            ];
            if let Some(raw_len) = encoded_raw_len {
                ops.push(TxOp::SetXattr(
                    COMPRESS_XATTR.into(),
                    encode_raw_len(raw_len).into(),
                ));
            }
            let tx = cluster.transact(cctx, &chunk, ops)?;
            return Ok(Timed::new(ChunkStoreOutcome::Created, tx.cost));
        };
        // Chunk already stored: add our reference (if new).
        let refs = cluster.omap_entries(cctx, &chunk)?;
        if refs.value.contains_key(&backref.key()) {
            // Idempotent retry after a crash: nothing to do.
            return Ok(Timed::new(ChunkStoreOutcome::AlreadyReferenced, count.cost));
        }
        let tx = cluster.transact(
            cctx,
            &chunk,
            vec![
                Self::set_refcount(count.value + 1),
                TxOp::SetOmap(backref.key(), backref.encode_value().into()),
            ],
        )?;
        Ok(Timed::new(
            ChunkStoreOutcome::Deduplicated,
            CostExpr::seq([count.cost, tx.cost]),
        ))
    }

    /// Releases `backref`'s reference to the chunk named by `fp`, deleting
    /// the object when the count reaches zero (`true`). Idempotent: a
    /// missing chunk or a missing reference is a no-op (crash retries).
    pub(crate) fn deref(
        &self,
        cluster: &Cluster,
        cctx: &IoCtx,
        fp: Fingerprint,
        backref: &BackRef,
    ) -> Result<Timed<bool>, DedupError> {
        let _stripe = self.lock_stripe(&fp);
        if !self.index.may_contain(&fp) {
            // Definitely never stored: same outcome (and same zero cost)
            // as an absent object, without the probe.
            self.metrics.bloom_hits.inc();
            return Ok(Timed::new(false, CostExpr::Nop));
        }
        self.metrics.bloom_misses.inc();
        let chunk = Self::object_name(fp);
        let Some(count) = self.refcount(cluster, cctx, &chunk)? else {
            return Ok(Timed::new(false, CostExpr::Nop));
        };
        let refs = cluster.omap_entries(cctx, &chunk)?;
        if !refs.value.contains_key(&backref.key()) {
            return Ok(Timed::new(false, refs.cost));
        }
        if count.value <= 1 {
            let t = cluster.delete(cctx, &chunk)?;
            return Ok(Timed::new(true, CostExpr::seq([refs.cost, t.cost])));
        }
        let t = cluster.transact(
            cctx,
            &chunk,
            vec![
                Self::set_refcount(count.value - 1),
                TxOp::RemoveOmap(backref.key()),
            ],
        )?;
        Ok(Timed::new(false, CostExpr::seq([refs.cost, t.cost])))
    }

    /// Stored format of a chunk object: `Some(raw_len)` when the payload
    /// is compressed, `None` for a raw payload. A marker that is present
    /// but does not decode is [`DedupError::CorruptCompressedChunk`]:
    /// taking it for "raw" would serve the compressed stream as user data.
    /// Metadata-plane probe: like chunk-map lookups it rides the request
    /// and charges no virtual-time cost, so read paths on a pool with no
    /// compressed chunks stay cost-identical to a build without the
    /// compression plane.
    fn raw_len(
        &self,
        cluster: &Cluster,
        cctx: &IoCtx,
        chunk: &ObjectName,
    ) -> Result<Option<u64>, DedupError> {
        let t = cluster.get_xattr(cctx, chunk, COMPRESS_XATTR)?;
        t.value
            .map(|v| {
                decode_raw_len(&v).ok_or_else(|| DedupError::CorruptCompressedChunk {
                    chunk: chunk.to_string(),
                })
            })
            .transpose()
    }

    /// A chunk object's *logical* extent — the raw length for
    /// compressed-stored chunks, the stored extent otherwise — or `None`
    /// when the object is absent.
    pub(crate) fn extent(
        &self,
        cluster: &Cluster,
        cctx: &IoCtx,
        chunk: &ObjectName,
    ) -> Result<Option<u64>, DedupError> {
        let Some(stored) = cluster.stat(self.pool, chunk)? else {
            return Ok(None);
        };
        Ok(Some(self.raw_len(cluster, cctx, chunk)?.unwrap_or(stored)))
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
    pub(crate) fn read_at(
        &self,
        cluster: &Cluster,
        cctx: &IoCtx,
        chunk: &ObjectName,
        off: u64,
        len: u64,
    ) -> Result<Timed<Bytes>, DedupError> {
        let raw_len = self.raw_len(cluster, cctx, chunk)?;
        self.read_span(cluster, cctx, chunk, raw_len, off, len)
    }

    /// [`ChunkPool::read_at`] with the chunk's [`ChunkPool::raw_len`]
    /// already looked up.
    fn read_span(
        &self,
        cluster: &Cluster,
        cctx: &IoCtx,
        chunk: &ObjectName,
        raw_len: Option<u64>,
        off: u64,
        len: u64,
    ) -> Result<Timed<Bytes>, DedupError> {
        let Some(raw_len) = raw_len else {
            return Ok(cluster.read_at(cctx, chunk, off, len)?);
        };
        let extent = cluster
            .stat(self.pool, chunk)?
            .ok_or_else(|| StoreError::NoSuchObject(self.pool, chunk.clone()))?;
        let t = cluster.read_at(cctx, chunk, 0, extent)?;
        // A stream that decodes short of the recorded length is as corrupt
        // as one that does not decode: serving it would zero-fill the gap.
        let raw = dedup_compress::decompress_with_limit(&t.value, raw_len as usize)
            .ok()
            .filter(|raw| raw.len() as u64 == raw_len)
            .ok_or_else(|| DedupError::CorruptCompressedChunk {
                chunk: chunk.to_string(),
            })?;
        self.metrics.compress_decompressed_chunks.inc();
        self.metrics
            .compress_decompressed_bytes
            .add(raw.len() as u64);
        let node = primary_node(cluster, self.pool, chunk)?;
        let nanos = self.compression.cost.decompress_nanos(raw.len() as u64);
        let cpu = cluster.label(
            "read.decompress_cpu",
            cluster
                .perf()
                .cpu_busy(node, SimDuration::from_nanos(nanos)),
        );
        let raw = Bytes::from(raw);
        let end = (off + len).min(raw.len() as u64);
        let start = off.min(end);
        Ok(Timed::new(
            raw.slice(start as usize..end as usize),
            CostExpr::seq([t.cost, cpu]),
        ))
    }

    /// Reads a stored chunk's whole logical content — the bytes its
    /// signature and full fingerprint cover. `None` when the object is
    /// absent.
    fn read_content(
        &self,
        cluster: &Cluster,
        cctx: &IoCtx,
        chunk: &ObjectName,
    ) -> Result<Option<Timed<Bytes>>, DedupError> {
        let Some(stored_len) = cluster.stat(self.pool, chunk)? else {
            return Ok(None);
        };
        let raw_len = self.raw_len(cluster, cctx, chunk)?;
        Ok(Some(match raw_len.unwrap_or(stored_len) {
            0 => Timed::new(Bytes::new(), CostExpr::Nop),
            len => self.read_span(cluster, cctx, chunk, raw_len, 0, len)?,
        }))
    }

    /// Resolves a weak-named candidate's full fingerprint by reading its
    /// content back and hashing it — at most once per stored chunk, since
    /// the result is memoized into the index. Returns the full name and
    /// the bytes hashed, costed with the read. A candidate whose chunk
    /// object has since been reclaimed is dropped from the index
    /// (`Ok(None)`).
    pub(crate) fn upgrade(
        &self,
        cluster: &Cluster,
        cctx: &IoCtx,
        sig: &ChunkSig,
        stored: Fingerprint,
    ) -> Result<Option<Timed<(Fingerprint, u64)>>, DedupError> {
        let chunk = Self::object_name(stored);
        let Some(t) = self.read_content(cluster, cctx, &chunk)? else {
            self.index.drop_candidate(sig, stored);
            return Ok(None);
        };
        let full = Fingerprint::of(&t.value);
        self.index.memoize_full(sig, stored, full);
        Ok(Some(Timed::new((full, t.value.len() as u64), t.cost)))
    }

    /// The one walk behind the refcount histogram (`count → chunk objects
    /// with that many referrers`) and the compression report, so a torn
    /// chunk is a typed error there too.
    pub(crate) fn census(
        &self,
        cluster: &Cluster,
    ) -> Result<(BTreeMap<u64, u64>, CompressionReport), DedupError> {
        let cctx = IoCtx::new(self.pool);
        let mut refcounts = BTreeMap::new();
        let mut compression = CompressionReport::default();
        for (chunk, _) in self.chunks(cluster)? {
            let (Some(refcount), Some(stored_len)) = (
                self.refcount(cluster, &cctx, &chunk)?,
                cluster.stat(self.pool, &chunk)?,
            ) else {
                continue; // reclaimed since the listing
            };
            *refcounts.entry(refcount.value).or_insert(0) += 1;
            match self.raw_len(cluster, &cctx, &chunk)? {
                Some(raw_len) => {
                    compression.compressed_chunks += 1;
                    compression.compressed_logical_bytes += raw_len;
                    compression.compressed_stored_bytes += stored_len;
                }
                None => compression.raw_chunks += 1,
            }
        }
        Ok((refcounts, compression))
    }

    /// Walks every chunk object's back references, asking `is_live`
    /// whether the referrer's chunk map still names this chunk at that
    /// offset, and hands each chunk's verdict to `visit`. Garbage
    /// collection and the leak audit share this walk, so they cannot
    /// disagree about what is referenced.
    pub(crate) fn live_backrefs(
        &self,
        cluster: &Cluster,
        cctx: &IoCtx,
        mut is_live: impl FnMut(&BackRef, Fingerprint) -> Result<bool, DedupError>,
        mut visit: impl FnMut(ChunkRefs) -> Result<(), DedupError>,
    ) -> Result<(), DedupError> {
        for (name, fp) in self.chunks(cluster)? {
            let refs = cluster.omap_entries(cctx, &name)?;
            let mut live = 0;
            let mut stale = Vec::new();
            for key in refs.value.keys() {
                let Some(backref) = BackRef::decode_key(key) else {
                    continue;
                };
                if is_live(&backref, fp)? {
                    live += 1;
                } else {
                    stale.push(key.clone());
                }
            }
            visit(ChunkRefs {
                name,
                live,
                stale,
                cost: refs.cost,
            })?;
        }
        Ok(())
    }

    /// One garbage-collection pass over [`ChunkPool::live_backrefs`]: a
    /// chunk no live reference names is deleted; otherwise its stale back
    /// references are dropped and its count corrected.
    pub(crate) fn gc(
        &self,
        cluster: &Cluster,
        cctx: &IoCtx,
        is_live: impl FnMut(&BackRef, Fingerprint) -> Result<bool, DedupError>,
    ) -> Result<Timed<GcReport>, DedupError> {
        let mut report = GcReport::default();
        let mut costs = Vec::new();
        self.live_backrefs(cluster, cctx, is_live, |chunk| {
            report.chunks_examined += 1;
            report.stale_refs_dropped += chunk.stale.len() as u64;
            costs.push(chunk.cost);
            if chunk.live == 0 {
                costs.push(cluster.delete(cctx, &chunk.name)?.cost);
                report.chunks_reclaimed += 1;
            } else if !chunk.stale.is_empty() {
                let mut ops: Vec<TxOp> = chunk.stale.into_iter().map(TxOp::RemoveOmap).collect();
                ops.push(Self::set_refcount(chunk.live));
                costs.push(cluster.transact(cctx, &chunk.name, ops)?.cost);
                report.counts_corrected += 1;
            }
            Ok(())
        })?;
        Ok(Timed::new(report, CostExpr::seq(costs)))
    }

    /// Re-seeds the chunk index (Bloom side and, in tiered mode, the
    /// signature → candidate map) from the pool's current contents and
    /// returns the number of chunks seeded. Mandatory after WAL replay
    /// into a fresh engine: an empty filter would answer a definite
    /// "absent" for a chunk that *does* exist, and the next
    /// [`ChunkPool::store`] of that content would overwrite its refcount
    /// with 1 — a silent double-free waiting to happen. In tiered mode the
    /// signature map must likewise cover every surviving chunk (a
    /// signature miss claims uniqueness) — re-derived over the chunk's raw
    /// bytes, as the live pipeline signs them — and the weak-name sequence
    /// is resumed past the highest surviving one so a recycled name can
    /// never alias different content.
    pub(crate) fn rebuild(&self, cluster: &Cluster, cctx: &IoCtx) -> Result<usize, DedupError> {
        self.index.clear();
        self.bloom_warned.store(false, Ordering::Relaxed);
        let (mut seeded, mut max_weak) = (0, 0u64);
        for (chunk, fp) in self.chunks(cluster)? {
            let sig = if self.tiered {
                self.read_content(cluster, cctx, &chunk)?
                    .map(|t| ChunkSig::of(&t.value))
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
        Ok(seeded)
    }
}

#[cfg(test)]
mod tests {
    //! The seam on its own: a [`Cluster`] and a [`ChunkPool`], no engine.

    use dedup_obs::Registry;
    use dedup_placement::OsdId;
    use dedup_store::{ClusterBuilder, PoolConfig};

    use super::*;

    fn pool_with(config: &DedupConfig) -> (Cluster, ChunkPool, IoCtx) {
        let mut cluster = ClusterBuilder::new().nodes(4).osds_per_node(4).build();
        let id = cluster.create_pool(PoolConfig::replicated("chunks", 2));
        let metrics = EngineMetrics::new(Registry::new(), 1);
        (cluster, ChunkPool::new(id, config, metrics), IoCtx::new(id))
    }

    fn pool() -> (Cluster, ChunkPool, IoCtx) {
        pool_with(&DedupConfig::default())
    }

    fn backref(object: &str, offset: u64) -> BackRef {
        BackRef::new(PoolId(0), ObjectName::new(object), offset)
    }

    fn store(
        cluster: &Cluster,
        pool: &ChunkPool,
        cctx: &IoCtx,
        data: &'static [u8],
        referrer: &BackRef,
    ) -> ChunkStoreOutcome {
        pool.store(
            cluster,
            cctx,
            Fingerprint::of(data),
            Bytes::from(data),
            referrer,
            None,
            None,
        )
        .expect("store")
        .value
    }

    fn count(cluster: &Cluster, pool: &ChunkPool, cctx: &IoCtx, data: &[u8]) -> Option<u64> {
        let chunk = ChunkPool::object_name(Fingerprint::of(data));
        pool.refcount(cluster, cctx, &chunk)
            .expect("refcount")
            .map(|t| t.value)
    }

    #[test]
    fn store_creates_then_deduplicates_then_recognises_a_retry() {
        let (cluster, pool, cctx) = pool();
        let (a, b) = (backref("a", 0), backref("b", 4096));
        assert_eq!(
            store(&cluster, &pool, &cctx, b"payload", &a),
            ChunkStoreOutcome::Created
        );
        assert_eq!(
            store(&cluster, &pool, &cctx, b"payload", &b),
            ChunkStoreOutcome::Deduplicated
        );
        assert_eq!(
            store(&cluster, &pool, &cctx, b"payload", &b),
            ChunkStoreOutcome::AlreadyReferenced,
            "a crash retry must not count its reference twice"
        );
        assert_eq!(count(&cluster, &pool, &cctx, b"payload"), Some(2));
        let chunk = ChunkPool::object_name(Fingerprint::of(b"payload"));
        let read = pool.read_at(&cluster, &cctx, &chunk, 0, 7).expect("read");
        assert_eq!(&read.value[..], b"payload");
        assert_eq!(
            pool.extent(&cluster, &cctx, &chunk).expect("extent"),
            Some(7)
        );
    }

    #[test]
    fn deref_reclaims_at_zero_and_is_idempotent() {
        let (cluster, pool, cctx) = pool();
        let fp = Fingerprint::of(b"shared");
        let (a, b) = (backref("a", 0), backref("b", 0));
        store(&cluster, &pool, &cctx, b"shared", &a);
        store(&cluster, &pool, &cctx, b"shared", &b);
        let deref = |r: &BackRef| pool.deref(&cluster, &cctx, fp, r).expect("deref").value;
        assert!(!deref(&a), "one referrer left: the chunk stays");
        assert_eq!(count(&cluster, &pool, &cctx, b"shared"), Some(1));
        assert!(!deref(&a), "a reference already gone is a no-op");
        assert_eq!(count(&cluster, &pool, &cctx, b"shared"), Some(1));
        assert!(deref(&b), "the last reference reclaims the chunk");
        assert_eq!(count(&cluster, &pool, &cctx, b"shared"), None);
        assert!(!deref(&b), "a chunk already gone is a no-op");
        let never = Fingerprint::of(b"never stored");
        let t = pool.deref(&cluster, &cctx, never, &a).expect("deref");
        assert!(
            !t.value && t.cost.is_nop(),
            "the Bloom gate answers this one"
        );
    }

    #[test]
    fn the_index_learns_of_a_chunk_before_it_is_visible() {
        // Every OSD down: the create transaction fails, so the chunk never
        // becomes visible — yet the index must already know of it, because
        // registration comes first (a Bloom "absent" for a stored chunk
        // would let the next store reset its refcount to 1).
        let (mut cluster, pool, cctx) = pool();
        for osd in 0..cluster.map().osd_count() as u32 {
            cluster.mark_down(OsdId(osd));
        }
        let fp = Fingerprint::of(b"doomed");
        assert!(!pool.index().may_contain(&fp));
        let r = pool.store(
            &cluster,
            &cctx,
            fp,
            Bytes::from(&b"doomed"[..]),
            &backref("a", 0),
            None,
            None,
        );
        assert!(r.is_err(), "no OSD can take the write");
        assert!(pool.index().may_contain(&fp));
    }

    #[test]
    fn compressed_chunks_read_back_and_corrupt_streams_are_typed() {
        let (cluster, pool, cctx) = pool_with(&DedupConfig::default().compress());
        let raw = b"compress me, compress me, compress me. ".repeat(64);
        let store_encoded = |name: &[u8], stored: Vec<u8>| {
            let fp = Fingerprint::of(name);
            let outcome = pool.store(
                &cluster,
                &cctx,
                fp,
                Bytes::from(stored),
                &backref("a", 0),
                None,
                Some(raw.len() as u64),
            );
            assert_eq!(outcome.expect("store").value, ChunkStoreOutcome::Created);
            ChunkPool::object_name(fp)
        };
        let good = store_encoded(b"good", dedup_compress::compress(&raw));
        assert_eq!(
            pool.extent(&cluster, &cctx, &good).expect("extent"),
            Some(raw.len() as u64),
            "the extent is logical, not the stored size"
        );
        let t = pool.read_at(&cluster, &cctx, &good, 10, 100).expect("read");
        assert_eq!(&t.value[..], &raw[10..110]);
        let (_, compression) = pool.census(&cluster).expect("census");
        assert_eq!(compression.compressed_chunks, 1);
        assert_eq!(compression.compressed_logical_bytes, raw.len() as u64);

        let bad = store_encoded(b"bad", vec![0xFF; 32]);
        assert_eq!(
            pool.read_at(&cluster, &cctx, &bad, 0, 16).unwrap_err(),
            DedupError::CorruptCompressedChunk {
                chunk: bad.to_string()
            }
        );

        // A valid stream that decodes short of the recorded raw length
        // must not be served: the read path would zero-fill the gap.
        let short = store_encoded(b"short", dedup_compress::compress(&raw[..100]));
        assert_eq!(
            pool.read_at(&cluster, &cctx, &short, 0, raw.len() as u64)
                .unwrap_err(),
            DedupError::CorruptCompressedChunk {
                chunk: short.to_string()
            }
        );

        // A raw-length marker that is present but does not decode is
        // corrupt, not "stored raw": the stream must never be served as
        // user data, nor counted or sized as a raw chunk.
        let garbled = store_encoded(b"garbled", dedup_compress::compress(&raw));
        let _ = cluster
            .transact(
                &cctx,
                &garbled,
                vec![TxOp::SetXattr(COMPRESS_XATTR.into(), vec![1, 2, 3].into())],
            )
            .expect("tamper");
        let corrupt = DedupError::CorruptCompressedChunk {
            chunk: garbled.to_string(),
        };
        assert_eq!(
            pool.read_at(&cluster, &cctx, &garbled, 0, 16).unwrap_err(),
            corrupt
        );
        assert_eq!(pool.extent(&cluster, &cctx, &garbled).unwrap_err(), corrupt);
        assert_eq!(pool.census(&cluster).unwrap_err(), corrupt);
    }

    #[test]
    fn torn_and_corrupt_refcounts_are_typed_errors_everywhere() {
        let (cluster, pool, cctx) = pool();
        let fp = Fingerprint::of(b"chunk");
        let chunk = ChunkPool::object_name(fp);
        let a = backref("a", 0);
        store(&cluster, &pool, &cctx, b"chunk", &a);
        let tamper = |op: TxOp| {
            let _ = cluster.transact(&cctx, &chunk, vec![op]).expect("tamper");
        };

        tamper(TxOp::SetXattr(REFCOUNT_XATTR.into(), vec![1, 2, 3].into()));
        let corrupt = DedupError::CorruptRefcount {
            chunk: chunk.to_string(),
        };
        assert_eq!(pool.census(&cluster).unwrap_err(), corrupt);
        assert_eq!(pool.deref(&cluster, &cctx, fp, &a).unwrap_err(), corrupt);

        tamper(TxOp::RemoveXattr(REFCOUNT_XATTR.into()));
        let missing = DedupError::MissingRefcount {
            chunk: chunk.to_string(),
        };
        assert_eq!(pool.census(&cluster).unwrap_err(), missing);
        let again = pool.store(
            &cluster,
            &cctx,
            fp,
            Bytes::from(&b"chunk"[..]),
            &backref("b", 0),
            None,
            None,
        );
        assert_eq!(again.unwrap_err(), missing);
    }

    #[test]
    fn gc_and_the_leak_audit_share_one_walk() {
        let (cluster, pool, cctx) = pool();
        let (a, b, c) = (backref("a", 0), backref("b", 0), backref("c", 0));
        store(&cluster, &pool, &cctx, b"kept", &a);
        store(&cluster, &pool, &cctx, b"kept", &b);
        store(&cluster, &pool, &cctx, b"leaked", &c);
        // Only `a` still names its chunk.
        let is_live = |r: &BackRef, _: Fingerprint| Ok(r.object.as_str() == "a");
        let walk = || {
            let mut chunks = Vec::new();
            pool.live_backrefs(&cluster, &cctx, is_live, |chunk| {
                chunks.push(chunk);
                Ok(())
            })
            .expect("walk");
            chunks
        };
        let before = walk();
        let leaked: Vec<&ObjectName> = before
            .iter()
            .filter(|c| c.live == 0)
            .map(|c| &c.name)
            .collect();
        assert_eq!(
            leaked,
            [&ChunkPool::object_name(Fingerprint::of(b"leaked"))]
        );

        let gc = pool.gc(&cluster, &cctx, is_live).expect("gc").value;
        assert_eq!(gc.chunks_examined, before.len() as u64);
        assert_eq!(gc.chunks_reclaimed, leaked.len() as u64);
        assert_eq!(
            gc.stale_refs_dropped,
            before.iter().map(|c| c.stale.len() as u64).sum::<u64>()
        );
        assert_eq!(gc.counts_corrected, 1, "`kept` lost its stale reference");
        assert_eq!(count(&cluster, &pool, &cctx, b"kept"), Some(1));
        assert_eq!(count(&cluster, &pool, &cctx, b"leaked"), None);
        assert!(walk().iter().all(|c| c.live == 1 && c.stale.is_empty()));
    }

    #[test]
    fn rebuild_reseeds_the_index_and_resumes_weak_names() {
        let config = DedupConfig::default().tiered_fingerprint();
        let (cluster, pool, cctx) = pool_with(&config);
        let sig = ChunkSig::of(b"unique body");
        let weak = pool.mint_weak(&sig);
        let stored = pool.store(
            &cluster,
            &cctx,
            weak,
            Bytes::from(&b"unique body"[..]),
            &backref("a", 0),
            Some(sig),
            None,
        );
        assert_eq!(stored.expect("store").value, ChunkStoreOutcome::Created);

        // A fresh pool over the same cluster — the restart case.
        let metrics = EngineMetrics::new(Registry::new(), 1);
        let fresh = ChunkPool::new(pool.pool(), &config, metrics);
        assert!(!fresh.index().may_contain(&weak));
        assert_eq!(fresh.rebuild(&cluster, &cctx).expect("rebuild"), 1);
        assert!(fresh.index().may_contain(&weak));
        let cands = fresh.index().candidates(&sig, dedup_sim::SimTime::ZERO);
        assert_eq!(cands.len(), 1, "signature re-derived from the stored bytes");
        assert_eq!(cands[0].stored, weak);
        assert_ne!(fresh.mint_weak(&sig), weak, "weak names are never reused");

        // A collision upgrades the weak name once, then memoizes it.
        let up = fresh.upgrade(&cluster, &cctx, &sig, weak).expect("upgrade");
        let (full, hashed) = up.expect("chunk exists").value;
        assert_eq!((full, hashed), (Fingerprint::of(b"unique body"), 11));
        let cands = fresh.index().candidates(&sig, dedup_sim::SimTime::ZERO);
        assert_eq!(cands[0].full, Some(full));
    }

    #[test]
    fn compressed_weak_chunks_are_signed_and_upgraded_over_raw_bytes() {
        let config = DedupConfig::default().compress().tiered_fingerprint();
        let (cluster, pool, cctx) = pool_with(&config);
        let raw = b"weak and compressed, weak and compressed. ".repeat(64);
        let stream = dedup_compress::compress(&raw);
        assert!(stream.len() < raw.len());
        let sig = ChunkSig::of(&raw);
        let weak = pool.mint_weak(&sig);
        let stored = pool.store(
            &cluster,
            &cctx,
            weak,
            Bytes::from(stream.clone()),
            &backref("a", 0),
            Some(sig),
            Some(raw.len() as u64),
        );
        assert_eq!(stored.expect("store").value, ChunkStoreOutcome::Created);

        // The restart case: the signature is re-derived over the raw
        // bytes the live pipeline signed, never over the stored stream.
        let metrics = EngineMetrics::new(Registry::new(), 1);
        let fresh = ChunkPool::new(pool.pool(), &config, metrics);
        assert_eq!(fresh.rebuild(&cluster, &cctx).expect("rebuild"), 1);
        let now = dedup_sim::SimTime::ZERO;
        let cands = fresh.index().candidates(&sig, now);
        assert_eq!(cands.len(), 1, "rebuild seeds the raw bytes' signature");
        assert_eq!(cands[0].stored, weak);
        assert!(
            fresh
                .index()
                .candidates(&ChunkSig::of(&stream), now)
                .is_empty(),
            "the stream's signature names nothing"
        );

        let up = fresh.upgrade(&cluster, &cctx, &sig, weak).expect("upgrade");
        assert_eq!(
            up.expect("chunk exists").value,
            (Fingerprint::of(&raw), raw.len() as u64),
            "the upgrade hashes the decompressed raw bytes"
        );
    }
}
