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
//!    chunk, one job per chunk on a shared queue in batch order.
//! 3. **Commit**: under each object's shard *write* lock, re-check the
//!    ticket, dereference old chunks, store or reference new ones, and
//!    transact the chunk-map update. A foreground mutation that landed
//!    after stage invalidates the snapshot; the object simply stays dirty
//!    for a later pass.
//!
//! Stages 2 and 3 overlap inside a pass ([`stage2_and_commit`]): scoped
//! helper threads run stage-2 jobs while the calling thread commits each
//! object, in batch order, as soon as its chunks are done, and runs
//! stage-2 jobs itself while the next object is not ready. Commit stays
//! serial, so the overlap changes when work happens, never what it does.
//! The engine's `fingerprint_wall_ns` histogram is the committer's time
//! on stage 2 (work it ran or waited for: the part commit did not hide),
//! `commit_wall_ns` its time inside commit; together they are the pass's
//! wall time.
//!
//! Foreground ops on every object, the staged ones included, run between
//! the stages. Whole passes are serialised by the engine's flush mutex.
//!
//! **Virtual-time cost accounting is unchanged.** The timing plane still
//! charges fingerprinting to the metadata node's CPU via the engine's
//! cost model, and every staged cost is assembled into the exact
//! `CostExpr` sequence the serial implementation produced — only
//! wall-clock time improves. Figure and table outputs are bit-identical.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::mpsc;

use bytes::Bytes;
use dedup_fingerprint::{ChunkSig, Fingerprint};
use dedup_sim::{CostExpr, SimTime};
use dedup_store::ObjectName;

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
    /// Virtual time the snapshot was staged; passed as the chunk index
    /// probe's `now`, which the index does not read.
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

/// What stage 2 made of one chunk: the kept compressed form and the full
/// fingerprint, each `None` when not produced.
type Stage2Out = (Option<Bytes>, Option<Fingerprint>);

/// Stage 2 of one chunk: the encode attempt (when inline compression is
/// on) and the full fingerprint (when wanted).
///
/// With compression enabled, every non-empty chunk is compressed; the
/// compressed form is kept only if
/// `compressed_len * 1_000_000 <= raw_len * max_ratio_ppm`, otherwise the
/// chunk stays a zero-copy view of its original content
/// ([`StagedChunk::stored`]). Fingerprints cover the raw content either
/// way. Tiered mode leaves `fingerprint_wanted` false for chunks whose
/// stage-time signature probe proved no stored chunk can match — those
/// skip hashing entirely; commit re-probes the index.
fn stage2(content: &Bytes, fingerprint_wanted: bool, compression: &CompressionConfig) -> Stage2Out {
    let encoded = (compression.enabled && !content.is_empty())
        .then(|| dedup_compress::compress(content))
        .filter(|enc| {
            enc.len() as u64 * 1_000_000 <= content.len() as u64 * compression.max_ratio_ppm
        })
        .map(Bytes::from);
    (
        encoded,
        fingerprint_wanted.then(|| Fingerprint::of(content)),
    )
}

impl StagedChunk {
    /// Whether stage 2 has anything to do for this chunk. Chunks with
    /// nothing to do (compression off, hash unwanted) make no job, so a
    /// batch of them starts no thread.
    fn has_stage2_work(&self, compression: &CompressionConfig) -> bool {
        compression.enabled || self.fingerprint_wanted
    }

    fn set_stage2(&mut self, (encoded, fingerprint): Stage2Out) {
        self.encoded = encoded;
        self.fingerprint = fingerprint;
    }
}

/// One stage-2 job for a helper thread: a chunk's position in the batch
/// and a shared view of its content.
struct Job {
    object: usize,
    chunk: usize,
    content: Bytes,
    fingerprint_wanted: bool,
}

/// The committer's side of a helped pass: the shared job queue (`jobs`
/// in batch order, `next` the first unclaimed one), the helpers' results,
/// and how many of each object's jobs are not yet applied.
struct Helped<'a> {
    jobs: &'a [Job],
    next: &'a AtomicUsize,
    done: mpsc::Receiver<(usize, Stage2Out)>,
    pending: Vec<usize>,
}

/// Claims the next stage-2 job off the shared queue.
fn claim(jobs: &[Job], next: &AtomicUsize) -> Option<usize> {
    let k = next.fetch_add(1, Ordering::Relaxed);
    (k < jobs.len()).then_some(k)
}

/// How the committer gets an object's stage 2 done: alone, in place, or
/// with helper threads pulling from the same queue.
enum Lane<'a> {
    Serial,
    Helped(Helped<'a>),
}

impl Lane<'_> {
    /// Returns once every chunk of `objects[i]` has its stage-2 result.
    /// Helped, the committer applies finished results and, while the
    /// object is still waiting, runs the next queued job itself — for
    /// this object or a later one — and blocks only when every job is
    /// claimed.
    fn finish(&mut self, objects: &mut [StagedObject], i: usize, compression: &CompressionConfig) {
        let h = match self {
            Lane::Serial => {
                for c in &mut objects[i].chunks {
                    if c.has_stage2_work(compression) {
                        c.set_stage2(stage2(&c.content, c.fingerprint_wanted, compression));
                    }
                }
                return;
            }
            Lane::Helped(h) => h,
        };
        while h.pending[i] > 0 {
            let (k, out) = match h.done.try_recv() {
                Ok(result) => result,
                Err(_) => match claim(h.jobs, h.next) {
                    Some(k) => {
                        let job = &h.jobs[k];
                        (k, stage2(&job.content, job.fingerprint_wanted, compression))
                    }
                    None => h.done.recv().expect("a stage-2 helper panicked"),
                },
            };
            let job = &h.jobs[k];
            h.pending[job.object] -= 1;
            objects[job.object].chunks[job.chunk].set_stage2(out);
        }
    }
}

/// Pipeline stages 2 and 3 of one pass, overlapped: runs stage 2 over
/// every staged chunk of `objects` and calls `commit` on each object in
/// batch order as soon as all of its chunks are done.
///
/// Stage 2 needs no engine state, so it runs with no engine lock held.
/// Its jobs — one per chunk with work, in batch order — sit on one shared
/// queue. `parallelism − 1` scoped helper threads pull from it while the
/// calling thread commits; whenever the next object in order is not ready
/// the committer pulls a job itself instead of blocking, so stage 2 gets
/// every thread while nothing can commit, and a one-object pass keeps
/// chunk-level parallelism. At parallelism 1 (or with at most one job)
/// the pass is serial: no thread, no channel, no allocation.
///
/// Commit stays serial and in batch order whatever the width, and each
/// chunk's stage-2 outcome depends on that chunk alone, so what a pass
/// does and what it costs in virtual time are identical at any
/// parallelism. The CPU cost of hashing and compressing is *not*
/// recorded here: commit charges it to the metadata node exactly as the
/// serial engine did.
///
/// An `Err` from `commit` ends the pass there and is returned; every
/// helper is joined before this returns, and the objects after the failed
/// one are left as staged.
pub(crate) fn stage2_and_commit<E>(
    objects: &mut [StagedObject],
    parallelism: usize,
    compression: &CompressionConfig,
    mut commit: impl FnMut(&mut StagedObject) -> Result<(), E>,
) -> Result<(), E> {
    let mut commit_in_order = |objects: &mut [StagedObject], lane: &mut Lane| {
        for i in 0..objects.len() {
            lane.finish(objects, i, compression);
            commit(&mut objects[i])?;
        }
        Ok(())
    };
    let work = objects
        .iter()
        .flat_map(|o| &o.chunks)
        .filter(|c| c.has_stage2_work(compression))
        .count();
    let helpers = parallelism.saturating_sub(1).min(work.saturating_sub(1));
    if helpers == 0 {
        return commit_in_order(objects, &mut Lane::Serial);
    }
    let mut pending = vec![0; objects.len()];
    let mut jobs = Vec::with_capacity(work);
    for (object, o) in objects.iter().enumerate() {
        for (chunk, c) in o.chunks.iter().enumerate() {
            if c.has_stage2_work(compression) {
                pending[object] += 1;
                jobs.push(Job {
                    object,
                    chunk,
                    content: c.content.clone(),
                    fingerprint_wanted: c.fingerprint_wanted,
                });
            }
        }
    }
    let (jobs, next) = (&jobs[..], &AtomicUsize::new(0));
    let (tx, done) = mpsc::channel();
    // `scope` joins every helper before returning, on every exit path,
    // and propagates a helper's panic.
    std::thread::scope(|s| {
        for _ in 0..helpers {
            let tx = tx.clone();
            s.spawn(move || {
                while let Some(k) = claim(jobs, next) {
                    let job = &jobs[k];
                    let out = stage2(&job.content, job.fingerprint_wanted, compression);
                    if tx.send((k, out)).is_err() {
                        break;
                    }
                }
            });
        }
        drop(tx);
        let mut lane = Lane::Helped(Helped {
            jobs,
            next,
            done,
            pending,
        });
        let result = commit_in_order(objects, &mut lane);
        // A pass that ended early leaves the rest of the queue unclaimed.
        next.store(jobs.len(), Ordering::Relaxed);
        result
    })
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

    /// Each committed object's name and its chunks' stage-2 results.
    type Committed = Vec<(String, Vec<(Option<Fingerprint>, Option<Bytes>)>)>;

    /// Runs stages 2 and 3 over `objects`, committing by recording each
    /// object in commit order.
    fn run(
        objects: &mut [StagedObject],
        parallelism: usize,
        compression: &CompressionConfig,
    ) -> Committed {
        let mut committed = Vec::new();
        stage2_and_commit::<()>(objects, parallelism, compression, |o| {
            let results = o.chunks.iter().map(|c| (c.fingerprint, c.encoded.clone()));
            committed.push((o.name.as_str().to_string(), results.collect()));
            Ok(())
        })
        .expect("commit");
        committed
    }

    #[test]
    fn fingerprints_every_chunk_positionally() {
        for parallelism in [1, 2, 4] {
            let mut objects = vec![
                staged("a", &[b"alpha", b"beta"]),
                staged("b", &[b"gamma"]),
                staged("c", &[]),
            ];
            let fp = |c: &[u8]| (Some(Fingerprint::of(c)), None);
            assert_eq!(
                run(&mut objects, parallelism, &off()),
                vec![
                    ("a".to_string(), vec![fp(b"alpha"), fp(b"beta")]),
                    ("b".to_string(), vec![fp(b"gamma")]),
                    ("c".to_string(), vec![]),
                ],
                "parallelism {parallelism}"
            );
        }
    }

    #[test]
    fn empty_batch_is_a_noop() {
        assert!(run(&mut [], 8, &off()).is_empty());
    }

    #[test]
    fn unwanted_chunks_skip_hashing() {
        for parallelism in [1, 2] {
            let mut objects = [staged("a", &[b"alpha", b"beta", b"gamma"])];
            objects[0].chunks[1].fingerprint_wanted = false;
            let committed = run(&mut objects, parallelism, &off());
            let fps: Vec<_> = committed[0].1.iter().map(|(fp, _)| *fp).collect();
            assert_eq!(
                fps,
                [
                    Some(Fingerprint::of(b"alpha")),
                    None,
                    Some(Fingerprint::of(b"gamma"))
                ]
            );
        }
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
            let mut objects = [staged("a", &[&compressible, &random, b""])];
            let _ = run(&mut objects, parallelism, &on());
            let chunks = &objects[0].chunks;
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

    /// Commit sees the objects in batch order whatever the width, an error
    /// ends the pass there, and each object is complete when committed
    /// even though later ones are still being worked on.
    #[test]
    fn commit_runs_in_batch_order_and_ends_where_asked() {
        let contents: Vec<Vec<u8>> = (0..24u8).map(|i| vec![i; 4096]).collect();
        let objects = || -> Vec<StagedObject> {
            (0..8)
                .map(|o| {
                    let chunks: Vec<&[u8]> =
                        contents[o * 3..o * 3 + 3].iter().map(|c| &c[..]).collect();
                    staged(&format!("o{o}"), &chunks)
                })
                .collect()
        };
        for parallelism in [1, 2, 4] {
            let mut seen = Vec::new();
            let mut batch = objects();
            let result = stage2_and_commit(&mut batch, parallelism, &off(), |o| {
                assert!(o.chunks.iter().all(|c| c.fingerprint.is_some()), "complete");
                seen.push(o.name.as_str().to_string());
                match o.name.as_str() {
                    "o5" => Err("commit failed"),
                    _ => Ok(()),
                }
            });
            assert_eq!(result, Err("commit failed"));
            assert_eq!(
                seen,
                ["o0", "o1", "o2", "o3", "o4", "o5"],
                "parallelism {parallelism}"
            );
        }
    }
}
