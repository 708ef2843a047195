//! The batched **stage → fingerprint → commit** flush pipeline.
//!
//! The paper's background dedup engine (§4.4.1) reads every dirty chunk,
//! fingerprints it, and commits it to the chunk pool. A flush pass runs
//! that in three stages, each holding only the locks it needs
//! (DESIGN.md §7, §9):
//!
//! 1. **Stage**: pop a batch of admitted dirty objects and, under each
//!    object's shard *read* lock, read its dirty-chunk contents —
//!    including deferred read-modify-write merges from the previous chunk
//!    objects — and take its [`DirtyTicket`].
//! 2. **Fingerprint** (no engine lock): encode and hash every staged
//!    chunk, optionally across a scoped worker pool
//!    ([`fingerprint_batch`]).
//! 3. **Commit**: under each object's shard *write* lock, re-check the
//!    ticket, dereference old chunks, store or reference new ones, and
//!    transact the chunk-map update. A foreground mutation that landed
//!    after stage invalidates the snapshot; the object simply stays dirty
//!    for a later pass.
//!
//! Foreground ops on every object, the staged ones included, run between
//! the stages. Whole passes are serialised by the engine's flush mutex.
//!
//! **Virtual-time cost accounting is unchanged.** The timing plane still
//! charges fingerprinting to the metadata node's CPU via the engine's
//! cost model, and every staged cost is assembled into the exact
//! `CostExpr` sequence the serial implementation produced — only
//! wall-clock time improves. Figure and table outputs are bit-identical.

use bytes::Bytes;
use dedup_fingerprint::{ChunkSig, Fingerprint};
use dedup_sim::{CostExpr, SimTime};
use dedup_store::ObjectName;
use parking_lot::Mutex;

use crate::chunkmap::ChunkMapEntry;
use crate::config::CompressionConfig;
use crate::queue::DirtyTicket;

/// One dirty chunk staged for flushing: its chunk-map entry and fully
/// merged content, plus the virtual-time read costs incurred staging it.
///
/// `content` is a shared [`Bytes`] view: staging a clean-cached chunk is
/// a refcount bump on the stored replica's buffer (the snapshot detaches
/// automatically if a racing foreground write mutates the replica, via
/// the buffer's copy-on-write), so a flush batch holds no deep copies of
/// chunk data unless a deferred read-modify-write merge forced one.
#[derive(Debug)]
pub(crate) struct StagedChunk {
    pub(crate) entry: ChunkMapEntry,
    pub(crate) content: Bytes,
    pub(crate) read_costs: Vec<CostExpr>,
    pub(crate) merged: bool,
    pub(crate) fingerprint: Option<Fingerprint>,
    /// Cheap discriminator computed at stage time when the tiered
    /// fingerprint pipeline is on; `None` in classic mode. Commit takes
    /// the tiered path exactly when it is set.
    pub(crate) sig: Option<ChunkSig>,
    /// Whether stage 2 must compute the full fingerprint. Classic mode:
    /// always. Tiered mode: only when the stage-time signature probe
    /// found a candidate collision (commit re-probes the index, so a
    /// collision that appears later is still caught — this flag is purely
    /// a work-avoidance hint, never a correctness gate).
    pub(crate) fingerprint_wanted: bool,
    /// Compressed form of `content`, produced by the encode half of
    /// stage 2 when inline compression is on **and** compression paid off
    /// under the configured ratio threshold. `None` means the chunk is
    /// stored raw — the zero-copy CoW fast path keeps the original
    /// `content` view untouched.
    pub(crate) encoded: Option<Bytes>,
}

impl StagedChunk {
    /// The bytes the chunk pool will actually store: the compressed form
    /// when the encode stage kept it, the original content view otherwise.
    pub(crate) fn stored(&self) -> &Bytes {
        self.encoded.as_ref().unwrap_or(&self.content)
    }
}

/// One metadata object staged for flushing.
#[derive(Debug)]
pub(crate) struct StagedObject {
    pub(crate) name: ObjectName,
    /// The object's queue slot and write epoch at stage; commit re-checks
    /// it.
    pub(crate) ticket: DirtyTicket,
    pub(crate) meta_node: usize,
    pub(crate) keep_cached: bool,
    /// Virtual time the snapshot was staged; feeds the chunk index's
    /// hotness signal at commit.
    pub(crate) staged_at: SimTime,
    pub(crate) chunks: Vec<StagedChunk>,
}

/// A batch of staged objects plus bookkeeping about queue candidates that
/// produced no staged work.
#[derive(Debug, Default)]
pub(crate) struct StagedBatch {
    pub(crate) objects: Vec<StagedObject>,
    /// Candidates skipped because the hitset says they are hot (they were
    /// requeued at the back).
    pub(crate) skipped_hot: u64,
    /// Candidates that turned out to have no dirty chunks (their queue
    /// entries were retired).
    pub(crate) clean: u64,
}

impl StagedBatch {
    /// Whether the batch contains nothing at all — no staged objects, no
    /// hot skips, no clean retirements.
    pub(crate) fn is_empty(&self) -> bool {
        self.objects.is_empty() && self.skipped_hot == 0 && self.clean == 0
    }
}

/// Stage 2: encodes (when inline compression is on) and fingerprints
/// every staged chunk in `batch` — one pass per chunk, across one scoped
/// pool of up to `parallelism` worker threads.
///
/// Needs no engine state, so it runs with no engine lock held. The
/// virtual-time CPU cost of hashing and compressing is *not* recorded
/// here — the commit stage charges it to the metadata node exactly as the
/// serial engine did, so parallelism never perturbs simulated results;
/// each chunk's outcome depends on that chunk alone, so results are
/// bit-identical at any parallelism.
///
/// With compression enabled, every non-empty chunk is compressed; the
/// compressed form is kept only if
/// `compressed_len * 1_000_000 <= raw_len * max_ratio_ppm`, otherwise the
/// chunk stays a zero-copy view of its original content
/// ([`StagedChunk::stored`]). Fingerprints cover the raw content either
/// way. Tiered mode leaves `fingerprint_wanted` false for chunks whose
/// stage-time signature probe proved no stored chunk can match — those
/// skip hashing entirely; commit re-probes the index.
pub(crate) fn fingerprint_batch(
    batch: &mut StagedBatch,
    parallelism: usize,
    compression: &CompressionConfig,
) {
    let process = |chunk: &mut StagedChunk| {
        if compression.enabled && !chunk.content.is_empty() {
            let enc = dedup_compress::compress(&chunk.content);
            if enc.len() as u64 * 1_000_000
                <= chunk.content.len() as u64 * compression.max_ratio_ppm
            {
                chunk.encoded = Some(Bytes::from(enc));
            }
        }
        if chunk.fingerprint_wanted {
            chunk.fingerprint = Some(Fingerprint::of(&chunk.content));
        }
    };
    // Chunks with nothing to do (compression off, hash unwanted) are left
    // out, so a batch of them spawns no threads.
    let chunks: Vec<&mut StagedChunk> = batch
        .objects
        .iter_mut()
        .flat_map(|o| o.chunks.iter_mut())
        .filter(|c| compression.enabled || c.fingerprint_wanted)
        .collect();
    let workers = parallelism.max(1).min(chunks.len());
    if workers <= 1 {
        chunks.into_iter().for_each(process);
        return;
    }
    // Workers pull chunks off a shared queue, so uneven chunk sizes still
    // balance; `scope` joins them all and propagates a worker's panic.
    let queue = Mutex::new(chunks.into_iter());
    std::thread::scope(|s| {
        for _ in 0..workers {
            s.spawn(|| loop {
                let next = queue.lock().next();
                let Some(chunk) = next else { break };
                process(chunk);
            });
        }
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::queue::DirtyQueue;

    fn staged(name: &str, contents: &[&[u8]]) -> StagedObject {
        let name = ObjectName::new(name);
        let mut queue = DirtyQueue::new();
        queue.mark(&name);
        StagedObject {
            ticket: queue.ticket(&name).expect("queued"),
            name,
            meta_node: 0,
            keep_cached: false,
            staged_at: SimTime::ZERO,
            chunks: contents
                .iter()
                .enumerate()
                .map(|(i, c)| StagedChunk {
                    entry: ChunkMapEntry::new_dirty(i as u64 * 1024, c.len() as u32),
                    content: Bytes::from(*c),
                    read_costs: Vec::new(),
                    merged: false,
                    fingerprint: None,
                    sig: None,
                    fingerprint_wanted: true,
                    encoded: None,
                })
                .collect(),
        }
    }

    fn off() -> CompressionConfig {
        CompressionConfig::default()
    }

    fn on() -> CompressionConfig {
        CompressionConfig {
            enabled: true,
            ..CompressionConfig::default()
        }
    }

    #[test]
    fn fingerprints_every_chunk_positionally() {
        let mut batch = StagedBatch {
            objects: vec![
                staged("a", &[b"alpha", b"beta"]),
                staged("b", &[b"gamma"]),
                staged("c", &[]),
            ],
            ..Default::default()
        };
        for parallelism in [1, 4] {
            for obj in &mut batch.objects {
                for c in &mut obj.chunks {
                    c.fingerprint = None;
                }
            }
            fingerprint_batch(&mut batch, parallelism, &off());
            assert_eq!(
                batch.objects[0].chunks[0].fingerprint,
                Some(Fingerprint::of(b"alpha"))
            );
            assert_eq!(
                batch.objects[0].chunks[1].fingerprint,
                Some(Fingerprint::of(b"beta"))
            );
            assert_eq!(
                batch.objects[1].chunks[0].fingerprint,
                Some(Fingerprint::of(b"gamma"))
            );
        }
    }

    #[test]
    fn empty_batch_is_a_noop() {
        let mut batch = StagedBatch::default();
        fingerprint_batch(&mut batch, 8, &off());
        assert!(batch.is_empty());
    }

    #[test]
    fn unwanted_chunks_skip_hashing() {
        let mut batch = StagedBatch {
            objects: vec![staged("a", &[b"alpha", b"beta", b"gamma"])],
            ..Default::default()
        };
        batch.objects[0].chunks[1].fingerprint_wanted = false;
        fingerprint_batch(&mut batch, 2, &off());
        assert_eq!(
            batch.objects[0].chunks[0].fingerprint,
            Some(Fingerprint::of(b"alpha"))
        );
        assert_eq!(batch.objects[0].chunks[1].fingerprint, None);
        assert_eq!(
            batch.objects[0].chunks[2].fingerprint,
            Some(Fingerprint::of(b"gamma"))
        );
    }

    #[test]
    fn encode_keeps_compressible_drops_incompressible() {
        let compressible = b"the quick brown fox ".repeat(200);
        let mut state = 0xDEADu64;
        let random: Vec<u8> = (0..4096)
            .map(|_| {
                state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
                (state >> 33) as u8
            })
            .collect();
        for parallelism in [1, 4] {
            let mut batch = StagedBatch {
                objects: vec![staged("a", &[&compressible, &random, b""])],
                ..Default::default()
            };
            fingerprint_batch(&mut batch, parallelism, &on());
            let chunks = &batch.objects[0].chunks;
            assert!(chunks[0].encoded.is_some(), "compressible chunk encodes");
            assert!(
                chunks[0].stored().len() < compressible.len(),
                "encoded form is smaller"
            );
            assert!(chunks[1].encoded.is_none(), "random chunk stays raw");
            assert!(chunks[2].encoded.is_none(), "empty chunk stays raw");
            // Fingerprints still cover the raw content.
            assert_eq!(chunks[0].fingerprint, Some(Fingerprint::of(&compressible)));
            assert_eq!(chunks[1].fingerprint, Some(Fingerprint::of(&random)));
        }
    }
}
