//! Observational-equivalence conformance suite for the chunk index.
//!
//! Two layers:
//!
//! 1. **Op-level**: drive the reference model below ([`FlatChunkIndex`],
//!    a Bloom gate plus one unbounded candidate map) and a
//!    [`TieredIndex`] (with a tiny hot capacity so demotion, re-stores
//!    of cold signatures, and the Bloom interaction all fire constantly) through
//!    arbitrary interleavings of `note_stored` / `candidates` /
//!    `memoize_full` / `drop_candidate` / `clear`, asserting the answers
//!    are identical at every step, and that the two tiers together hold
//!    exactly the model's live candidates. The tiered index is free to
//!    *order* work differently (hot vs cold) but must never answer
//!    differently.
//! 2. **Store-level**: run the same random write / overwrite / delete /
//!    flush / GC workload against a classic engine over the default
//!    unbounded index and a tiered-pipeline engine over a 4-candidate
//!    hot tier, and assert reads, space accounting, and reference
//!    integrity agree — the tiered pipeline is a pure work-avoidance
//!    optimisation, invisible in what is stored.

use std::collections::HashMap;
use std::sync::{Mutex, MutexGuard};

use proptest::collection::vec;
use proptest::prelude::*;

use dedup_core::bloom::BloomFilter;
use dedup_core::{
    BloomConfig, CandidateRef, ChunkIndex, DedupConfig, DedupStore, IndexStats, TieredIndex,
    TieredIndexConfig,
};
use dedup_fingerprint::{ChunkSig, Fingerprint};
use dedup_sim::SimTime;
use dedup_store::{ClientId, ClusterBuilder, ObjectName};

// ---------------------------------------------------------------------
// Reference model
// ---------------------------------------------------------------------

/// The oracle: the Bloom gate plus one unbounded signature → candidates
/// map, with nothing to migrate between tiers. Every
/// [`ChunkIndex`] answer the production index gives must equal this
/// one's.
#[derive(Debug)]
struct FlatChunkIndex {
    bloom: BloomFilter,
    candidates: Mutex<HashMap<ChunkSig, Vec<CandidateRef>>>,
}

impl FlatChunkIndex {
    fn new(bloom: BloomConfig) -> Self {
        FlatChunkIndex {
            bloom: BloomFilter::with_config(bloom),
            candidates: Mutex::new(HashMap::new()),
        }
    }

    fn map(&self) -> MutexGuard<'_, HashMap<ChunkSig, Vec<CandidateRef>>> {
        self.candidates.lock().expect("reference index lock")
    }
}

impl ChunkIndex for FlatChunkIndex {
    fn may_contain(&self, fp: &Fingerprint) -> bool {
        self.bloom.may_contain(fp)
    }

    fn note_stored(&self, stored: Fingerprint, sig: Option<ChunkSig>) {
        self.bloom.insert(&stored);
        let Some(sig) = sig else { return };
        let mut map = self.map();
        let cands = map.entry(sig).or_default();
        if cands.iter().all(|c| c.stored != stored) {
            // A content-named chunk is its own full fingerprint.
            let full = (!stored.is_weak()).then_some(stored);
            cands.push(CandidateRef { stored, full });
        }
    }

    fn candidates(&self, sig: &ChunkSig, _now: SimTime) -> Vec<CandidateRef> {
        self.map().get(sig).cloned().unwrap_or_default()
    }

    fn memoize_full(&self, sig: &ChunkSig, stored: Fingerprint, full: Fingerprint) {
        if let Some(cands) = self.map().get_mut(sig) {
            for c in cands.iter_mut().filter(|c| c.stored == stored) {
                c.full = Some(full);
            }
        }
    }

    fn drop_candidate(&self, sig: &ChunkSig, stored: Fingerprint) {
        let mut map = self.map();
        if let Some(cands) = map.get_mut(sig) {
            cands.retain(|c| c.stored != stored);
            if cands.is_empty() {
                map.remove(sig);
            }
        }
    }

    fn clear(&self) {
        self.bloom.clear();
        self.map().clear();
    }

    fn resident_bytes(&self) -> u64 {
        let cands: usize = self.map().values().map(Vec::len).sum();
        self.bloom.resident_bytes() + (cands * std::mem::size_of::<CandidateRef>()) as u64
    }

    fn bloom_fill_ratio(&self) -> f64 {
        self.bloom.fill_ratio()
    }

    fn stats(&self) -> IndexStats {
        IndexStats {
            hot_candidates: self.map().values().map(|v| v.len() as u64).sum(),
            ..IndexStats::default()
        }
    }
}

// ---------------------------------------------------------------------
// Op-level conformance
// ---------------------------------------------------------------------

/// One index operation over a deliberately tiny key space (signatures and
/// chunk names collide often, exercising multi-candidate sets).
#[derive(Debug, Clone, Copy)]
enum IndexOp {
    /// Store chunk `chunk` under signature `sig` (weak or content name).
    Store { sig: u8, chunk: u8, weak: bool },
    /// Probe signature `sig` at a time driven by `tick`.
    Probe { sig: u8 },
    /// Memoize chunk `chunk`'s full fingerprint under `sig`.
    Memoize { sig: u8, chunk: u8 },
    /// Drop chunk `chunk` from `sig`'s candidate set.
    Drop { sig: u8, chunk: u8 },
    /// Reset both indexes.
    Clear,
}

fn sig(n: u8) -> ChunkSig {
    ChunkSig::of(&[n, n ^ 0x5a, n.wrapping_mul(3)])
}

/// A content-named chunk fingerprint.
fn full_fp(n: u8) -> Fingerprint {
    Fingerprint::of(&[n, 0xaa, n])
}

/// A weak-named chunk for signature `s` with sequence `n`.
fn weak_fp(s: u8, n: u8) -> Fingerprint {
    Fingerprint::mint_weak(&sig(s), n as u64)
}

fn chunk_name(op_weak: bool, s: u8, chunk: u8) -> Fingerprint {
    if op_weak {
        weak_fp(s, chunk)
    } else {
        full_fp(chunk)
    }
}

fn tiny_tiered(hot_capacity: usize) -> TieredIndex {
    TieredIndex::new(
        BloomConfig {
            bits: 1 << 12,
            probes: 4,
        },
        TieredIndexConfig { hot_capacity },
    )
}

fn tiny_flat() -> FlatChunkIndex {
    FlatChunkIndex::new(BloomConfig {
        bits: 1 << 12,
        probes: 4,
    })
}

/// Sorts a candidate set into a comparable form.
fn canon(mut cands: Vec<CandidateRef>) -> Vec<(Fingerprint, Option<Fingerprint>)> {
    cands.sort_by_key(|c| c.stored);
    cands.into_iter().map(|c| (c.stored, c.full)).collect()
}

fn arb_index_op() -> impl Strategy<Value = IndexOp> {
    let s = 0u8..6;
    let c = 0u8..5;
    prop_oneof![
        4 => (0u8..6, 0u8..5, any::<bool>())
            .prop_map(|(sig, chunk, weak)| IndexOp::Store { sig, chunk, weak }),
        4 => s.clone().prop_map(|sig| IndexOp::Probe { sig }),
        2 => (0u8..6, c.clone()).prop_map(|(sig, chunk)| IndexOp::Memoize { sig, chunk }),
        2 => (0u8..6, c).prop_map(|(sig, chunk)| IndexOp::Drop { sig, chunk }),
        1 => Just(IndexOp::Clear),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// The tiered index answers every operation exactly like the flat
    /// reference model, under any interleaving — with a 3-candidate hot
    /// tier (mid-sequence migrations between hot and cold tiers, drops
    /// and memoizations on cold candidates) and with the unbounded hot
    /// tier the engine defaults to.
    #[test]
    fn tiered_index_is_observationally_flat(ops in vec(arb_index_op(), 0..60)) {
        for hot_capacity in [3, usize::MAX] {
            let flat = tiny_flat();
            let tiered = tiny_tiered(hot_capacity);
            // Track everything ever stored so the Bloom side can be compared
            // for inserted keys (no false negatives in either impl).
            let mut stored: Vec<Fingerprint> = Vec::new();
            for (tick, op) in ops.iter().enumerate() {
                let now = SimTime::from_secs(tick as u64);
                match *op {
                    IndexOp::Store { sig: s, chunk, weak } => {
                        let fp = chunk_name(weak, s, chunk);
                        flat.note_stored(fp, Some(sig(s)));
                        tiered.note_stored(fp, Some(sig(s)));
                        stored.push(fp);
                    }
                    IndexOp::Probe { sig: s } => {
                        let f = canon(flat.candidates(&sig(s), now));
                        let t = canon(tiered.candidates(&sig(s), now));
                        prop_assert_eq!(f, t, "probe diverged at tick {}", tick);
                    }
                    IndexOp::Memoize { sig: s, chunk } => {
                        // Memoize against whichever stored name matches; the
                        // call is a no-op for absent candidates in both impls.
                        for name in [full_fp(chunk), weak_fp(s, chunk)] {
                            flat.memoize_full(&sig(s), name, full_fp(chunk));
                            tiered.memoize_full(&sig(s), name, full_fp(chunk));
                        }
                    }
                    IndexOp::Drop { sig: s, chunk } => {
                        for name in [full_fp(chunk), weak_fp(s, chunk)] {
                            flat.drop_candidate(&sig(s), name);
                            tiered.drop_candidate(&sig(s), name);
                        }
                    }
                    IndexOp::Clear => {
                        flat.clear();
                        tiered.clear();
                        stored.clear();
                    }
                }
                // Bloom interaction: both gates agree on every stored chunk
                // (never a false negative), regardless of tier migration.
                for fp in &stored {
                    prop_assert!(flat.may_contain(fp));
                    prop_assert!(tiered.may_contain(fp));
                }
                // Population: the tiers are disjoint and hold only live
                // candidates, so together they count what the model holds.
                let t = tiered.stats();
                prop_assert_eq!(
                    t.hot_candidates + t.cold_records,
                    flat.stats().hot_candidates,
                    "population diverged at tick {}",
                    tick
                );
            }
            // Final sweep: every signature answers identically.
            let end = SimTime::from_secs(ops.len() as u64 + 10);
            for s in 0u8..6 {
                let f = canon(flat.candidates(&sig(s), end));
                let t = canon(tiered.candidates(&sig(s), end));
                prop_assert_eq!(f, t, "final probe diverged for sig {}", s);
            }
        }
    }
}

// ---------------------------------------------------------------------
// Store-level equivalence
// ---------------------------------------------------------------------

/// One engine-level operation over a small object namespace.
#[derive(Debug, Clone, Copy)]
enum StoreOp {
    /// Write `chunks` chunk-sized pieces of patterned content at a
    /// chunk-aligned offset. Small `seed` space forces duplicates.
    Write {
        obj: u8,
        chunk_off: u8,
        seed: u8,
    },
    Delete {
        obj: u8,
    },
    Flush,
    Gc,
}

fn arb_store_op() -> impl Strategy<Value = StoreOp> {
    prop_oneof![
        6 => (0u8..3, 0u8..4, 0u8..6)
            .prop_map(|(obj, chunk_off, seed)| StoreOp::Write { obj, chunk_off, seed }),
        1 => (0u8..3).prop_map(|obj| StoreOp::Delete { obj }),
        3 => Just(StoreOp::Flush),
        1 => Just(StoreOp::Gc),
    ]
}

const CS: u32 = 4 * 1024;

fn store_with(config: DedupConfig) -> DedupStore {
    let cluster = ClusterBuilder::new().nodes(4).osds_per_node(2).build();
    DedupStore::with_default_pools(cluster, config)
}

fn patterned(seed: u8) -> Vec<u8> {
    (0..CS as usize)
        .map(|i| seed.wrapping_mul(31).wrapping_add((i % 251) as u8))
        .collect()
}

fn apply(s: &mut DedupStore, op: StoreOp, now: SimTime) {
    match op {
        StoreOp::Write {
            obj,
            chunk_off,
            seed,
        } => {
            let name = ObjectName::new(format!("o{obj}"));
            let _ = s
                .write(
                    ClientId(0),
                    &name,
                    chunk_off as u64 * CS as u64,
                    patterned(seed),
                    now,
                )
                .expect("write");
        }
        StoreOp::Delete { obj } => {
            let name = ObjectName::new(format!("o{obj}"));
            let _ = s.delete(ClientId(0), &name);
        }
        StoreOp::Flush => {
            let _ = s.flush_all(now).expect("flush");
        }
        StoreOp::Gc => {
            let _ = s.gc_chunk_pool().expect("gc");
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The tiered fingerprint pipeline over a 4-candidate hot tier
    /// stores *exactly* the same logical data and achieves *exactly* the
    /// same dedup outcome as the classic engine over the default
    /// unbounded index: same readable contents,
    /// same logical/chunk/cached byte accounting, same chunk-object
    /// count, clean references in both.
    #[test]
    fn tiered_engine_matches_flat_engine(ops in vec(arb_store_op(), 1..24)) {
        let mut classic = store_with(DedupConfig::with_chunk_size(CS));
        let mut tiered = store_with(
            DedupConfig::with_chunk_size(CS)
                .tiered_fingerprint()
                .tiered_index(TieredIndexConfig {
                    hot_capacity: 4, // force constant demotion
                }),
        );
        for (i, &op) in ops.iter().enumerate() {
            let now = SimTime::from_secs((i as u64 + 1) * 10);
            apply(&mut classic, op, now);
            apply(&mut tiered, op, now);
        }
        let end = SimTime::from_secs(10_000);
        let _ = classic.flush_all(end).expect("classic flush");
        let _ = tiered.flush_all(end).expect("tiered flush");

        // Same readable bytes everywhere.
        for obj in 0u8..3 {
            let name = ObjectName::new(format!("o{obj}"));
            let len_c = classic.stat_len(&name).expect("stat");
            let len_t = tiered.stat_len(&name).expect("stat");
            prop_assert_eq!(len_c, len_t, "length diverged for o{}", obj);
            if let Some(len) = len_c {
                if len > 0 {
                    let rc = classic.read(ClientId(0), &name, 0, len, end).expect("read");
                    let rt = tiered.read(ClientId(0), &name, 0, len, end).expect("read");
                    prop_assert_eq!(&rc.value[..], &rt.value[..], "contents diverged");
                }
            }
        }

        // Same dedup outcome: identical logical bytes, identical unique
        // chunk bytes and object counts (weak naming changes *names*,
        // never *what* is stored), identical cached footprint.
        let sc = classic.space_report().expect("space");
        let st = tiered.space_report().expect("space");
        prop_assert_eq!(sc.logical_bytes, st.logical_bytes);
        prop_assert_eq!(sc.chunk_bytes, st.chunk_bytes);
        prop_assert_eq!(sc.chunk_objects, st.chunk_objects);
        prop_assert_eq!(sc.cached_bytes, st.cached_bytes);
        prop_assert_eq!(sc.metadata_objects, st.metadata_objects);

        // Both reference graphs are intact.
        prop_assert!(classic.verify_references().expect("verify").is_empty());
        prop_assert!(tiered.verify_references().expect("verify").is_empty());
    }
}

// ---------------------------------------------------------------------
// Scripted pins
// ---------------------------------------------------------------------

/// A scripted [`TieredIndex`] run at hot capacity 4 that pins the sorted
/// candidate answers (and the hot tier's population) after each step that
/// moves candidates between the tiers: a demotion, a re-store of a demoted
/// signature under a new name, a memoize and a drop on cold candidates, a
/// re-store of the dropped pair, and a clear. Every probe runs at time
/// zero, so the answers depend on the tiers alone.
mod pins {
    use super::*;

    type Answer = Vec<(Fingerprint, Option<Fingerprint>)>;

    fn s(n: u8) -> ChunkSig {
        ChunkSig::of(&[b'p', b'i', b'n', n])
    }

    fn named(tag: &str) -> Fingerprint {
        Fingerprint::of(tag.as_bytes())
    }

    fn answer(idx: &TieredIndex, n: u8) -> Answer {
        canon(idx.candidates(&s(n), SimTime::ZERO))
    }

    /// The expected answer: content-named chunks carry their own name as
    /// the full fingerprint; `weak` lists the weak ones and what they were
    /// memoized to.
    fn expect(content: &[Fingerprint], weak: &[(Fingerprint, Option<Fingerprint>)]) -> Answer {
        let mut out: Answer = content.iter().map(|&f| (f, Some(f))).collect();
        out.extend_from_slice(weak);
        out.sort_by_key(|&(stored, _)| stored);
        out
    }

    #[test]
    fn scripted_tier_moves_pin_sorted_answers() {
        let mut config = TieredIndexConfig::unbounded();
        config.hot_capacity = 4;
        let idx = TieredIndex::new(
            BloomConfig {
                bits: 1 << 12,
                probes: 4,
            },
            config,
        );
        let (a, b, c, d) = (named("a"), named("b"), named("c"), named("d"));
        let w = Fingerprint::mint_weak(&s(0), 7);
        let hot = |idx: &TieredIndex| idx.stats().hot_candidates;

        // 1. Demotion: the fifth candidate pushes the least recently
        //    stamped signature (s0, two candidates) into the cold tier.
        idx.note_stored(a, Some(s(0)));
        idx.note_stored(w, Some(s(0)));
        idx.note_stored(b, Some(s(1)));
        idx.note_stored(c, Some(s(2)));
        assert_eq!(hot(&idx), 4);
        idx.note_stored(d, Some(s(3)));
        assert_eq!(hot(&idx), 3);
        assert_eq!(idx.stats().demotions, 2);
        assert_eq!(answer(&idx, 0), expect(&[a], &[(w, None)]));
        assert_eq!(answer(&idx, 1), expect(&[b], &[]));
        assert_eq!(answer(&idx, 2), expect(&[c], &[]));
        assert_eq!(answer(&idx, 3), expect(&[d], &[]));
        assert_eq!(answer(&idx, 9), expect(&[], &[]));

        // 2. Re-store of the demoted s0 under a new name: s0 comes back
        //    hot with all three candidates, and the two oldest entries
        //    (s1, s2) are demoted to make room.
        let x = named("x");
        idx.note_stored(x, Some(s(0)));
        assert_eq!(hot(&idx), 4);
        assert_eq!(idx.stats().demotions, 4);
        assert_eq!(answer(&idx, 0), expect(&[a, x], &[(w, None)]));
        assert_eq!(answer(&idx, 1), expect(&[b], &[]));
        assert_eq!(answer(&idx, 2), expect(&[c], &[]));
        assert_eq!(answer(&idx, 3), expect(&[d], &[]));

        // The probes above stamped s0 before s3, so the next fresh
        // signature pushes s0 back to the cold tier.
        let (e, f) = (named("e"), named("f"));
        idx.note_stored(e, Some(s(4)));
        assert_eq!(hot(&idx), 2);
        idx.note_stored(f, Some(s(5)));
        assert_eq!(hot(&idx), 3);
        assert_eq!(answer(&idx, 0), expect(&[a, x], &[(w, None)]));
        assert_eq!(hot(&idx), 3, "probing a cold signature moves nothing");

        // 3. Memoize the cold weak candidate, drop a cold content-named one.
        let full_w = named("w's content");
        idx.memoize_full(&s(0), w, full_w);
        idx.drop_candidate(&s(0), a);
        assert_eq!(answer(&idx, 0), expect(&[x], &[(w, Some(full_w))]));
        assert_eq!(hot(&idx), 3);
        // Dropping an absent pair changes nothing.
        idx.drop_candidate(&s(0), named("never stored"));
        assert_eq!(answer(&idx, 0), expect(&[x], &[(w, Some(full_w))]));

        // 4. Re-store of the dropped pair: s0 comes back hot, memo intact.
        idx.note_stored(a, Some(s(0)));
        assert_eq!(hot(&idx), 4, "s3 and s4 demoted to make room");
        assert_eq!(idx.stats().demotions, 9);
        assert_eq!(answer(&idx, 0), expect(&[a, x], &[(w, Some(full_w))]));
        assert_eq!(answer(&idx, 1), expect(&[b], &[]));
        assert_eq!(answer(&idx, 3), expect(&[d], &[]));
        assert_eq!(answer(&idx, 4), expect(&[e], &[]));
        assert_eq!(answer(&idx, 5), expect(&[f], &[]));

        // 5. Clear empties both tiers and the gate.
        idx.clear();
        assert_eq!(hot(&idx), 0);
        assert_eq!(idx.stats().cold_records, 0);
        for n in 0..6 {
            assert_eq!(answer(&idx, n), expect(&[], &[]), "s{n} after clear");
        }
        assert!(!idx.may_contain(&a));
    }
}
