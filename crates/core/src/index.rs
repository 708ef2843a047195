//! The chunk index: the engine's in-memory view of "which chunks exist",
//! extracted behind the [`ChunkIndex`] trait.
//!
//! The index answers two questions on the flush hot path:
//!
//! 1. **Existence gate** ([`ChunkIndex::may_contain`]) — the Bloom-filter
//!    negative-lookup fast path in front of chunk-pool existence probes,
//!    exactly as before the extraction.
//! 2. **Candidate sets** ([`ChunkIndex::candidates`]) — given a cheap
//!    [`ChunkSig`] (length class + sparse-sample hash), which stored
//!    chunks *could* be content-equal? An **empty answer proves global
//!    uniqueness**: every chunk creation registers its signature via
//!    [`ChunkIndex::note_stored`] before the chunk becomes visible, and
//!    equal content always yields an equal signature, so a signature miss
//!    means no stored chunk can match. That proof is what lets the tiered
//!    fingerprint pipeline skip the full hash for unique chunks entirely.
//!
//! One implementation, [`TieredIndex`] — hot/cold tiers behind the Bloom
//! gate. A hot `HashMap` holds recently touched signatures (bounded by
//! `hot_capacity` candidates); overflow is demoted — least recently
//! stamped first — into **cold sorted runs**: packed fixed-width records
//! in on-disk format (sorted by signature, binary-searched through fence
//! pointers), merged by compaction when runs pile up. Cold hits that turn
//! hot (per the same `HitSet` machinery the cache manager uses) are
//! promoted back. The key invariant: **a signature present in the hot
//! tier carries its complete live candidate set** (inserts and promotions
//! pull cold matches up first), so a probe reads either one hot entry or
//! the cold runs, never a merge of both. With the default unbounded
//! `hot_capacity` nothing is ever demoted and the index is one flat
//! in-memory map (`tests/index_conformance.rs` holds it to a flat
//! reference model under every op interleaving).
//!
//! Deletions are lazy, matching the Bloom filter's semantics: nothing is
//! eagerly removed when a chunk dies; a stale candidate is detected when
//! its upgrade read misses and is then dropped via
//! [`ChunkIndex::drop_candidate`] (hot removal + cold tombstone, applied
//! at compaction). Stale candidates cost a wasted probe, never a wrong
//! answer — chunk names are never reused for different content.

use std::collections::{HashMap, HashSet};
use std::fmt;

use dedup_fingerprint::{ChunkSig, Fingerprint};
use dedup_sim::SimTime;
use parking_lot::Mutex;

use crate::bloom::{BloomConfig, BloomFilter};
use crate::config::TieredIndexConfig;
use crate::hitset::HitSet;

/// One stored chunk that a signature probe surfaced.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CandidateRef {
    /// The chunk-pool name the chunk is stored under (a content hash, or
    /// a weak minted name).
    pub stored: Fingerprint,
    /// The chunk's full content fingerprint, when known. `None` for a
    /// weak-named chunk that has not been upgraded yet; the flush path
    /// reads the chunk back, hashes it, and memoizes the result here via
    /// [`ChunkIndex::memoize_full`] (at most once per stored chunk).
    pub full: Option<Fingerprint>,
}

/// Counters describing an index's current shape and lifetime activity.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct IndexStats {
    /// Candidate entries resident in the hot tier.
    pub hot_candidates: u64,
    /// Records across all cold sorted runs.
    pub cold_records: u64,
    /// Cold sorted runs currently live.
    pub cold_runs: u64,
    /// Lifetime cold→hot promotions.
    pub promotions: u64,
    /// Lifetime hot→cold demotions (candidates moved).
    pub demotions: u64,
    /// Lifetime run-merge compactions.
    pub compactions: u64,
    /// Probes answered from the hot tier.
    pub hot_hits: u64,
    /// Probes that had to scan cold runs.
    pub cold_hits: u64,
    /// Tombstones awaiting compaction.
    pub tombstones: u64,
}

/// The engine's chunk-lookup state. All methods take `&self`: the Bloom
/// gate is lock-free atomics and candidate state sits behind internal
/// mutexes, because the foreground store path holds only a shard lock.
pub trait ChunkIndex: fmt::Debug + Send + Sync {
    /// Bloom gate: `false` proves the fingerprint was never stored.
    fn may_contain(&self, fp: &Fingerprint) -> bool;

    /// Registers a chunk at creation, *before* it becomes visible in the
    /// chunk pool (the no-false-negative discipline). `sig` is `None`
    /// when the tiered pipeline is off — only the Bloom gate is fed.
    fn note_stored(&self, stored: Fingerprint, sig: Option<ChunkSig>);

    /// All stored chunks whose signature equals `sig`. An empty result
    /// proves no stored chunk has content with this signature — the
    /// caller's chunk is globally unique. `now` feeds the hotness signal
    /// driving cold→hot promotion.
    fn candidates(&self, sig: &ChunkSig, now: SimTime) -> Vec<CandidateRef>;

    /// Records the full content fingerprint learned for a stored chunk
    /// (an upgrade read), so later collisions on `sig` resolve without
    /// re-reading it.
    fn memoize_full(&self, sig: &ChunkSig, stored: Fingerprint, full: Fingerprint);

    /// Drops a candidate discovered stale (its chunk object no longer
    /// exists). Lazy-deletion cleanup, not a correctness requirement.
    fn drop_candidate(&self, sig: &ChunkSig, stored: Fingerprint);

    /// Empties the index (recovery rebuilds it from the chunk pool).
    fn clear(&self);

    /// Estimated resident memory, in bytes, of the index's data
    /// structures (bit array, hot map, packed runs, fences, tombstones).
    fn resident_bytes(&self) -> u64;

    /// Fill ratio of the Bloom gate, in `[0, 1]`.
    fn bloom_fill_ratio(&self) -> f64;

    /// Shape and activity counters.
    fn stats(&self) -> IndexStats;

    /// The configuration's declared upper bound on
    /// [`ChunkIndex::resident_bytes`] at the current population, when the
    /// implementation promises one (`None` for an unbounded hot tier).
    /// Health checks compare the measured footprint against this.
    fn declared_memory_bound(&self) -> Option<u64> {
        None
    }
}

/// Estimated bytes one candidate costs inside a `HashMap`-of-`Vec`s hot
/// tier: the 44-byte `CandidateRef` plus map/vec bookkeeping.
const HOT_CANDIDATE_BYTES: u64 = 112;
/// Estimated per-signature entry overhead in the hot map.
const HOT_ENTRY_BYTES: u64 = 48;
/// Packed cold-record width: sig(12) + stored(32) + full flag(1) +
/// full(32).
const RECORD_BYTES: usize = 77;
/// Estimated bytes per fence pointer (key + offset).
const FENCE_BYTES: u64 = 24;
/// Estimated bytes per tombstone in the hash set.
const TOMBSTONE_BYTES: u64 = 56;

fn push_candidate(cands: &mut Vec<CandidateRef>, stored: Fingerprint) {
    if cands.iter().any(|c| c.stored == stored) {
        return;
    }
    // A chunk stored under its content hash *is* its own full
    // fingerprint; only weak-named chunks need a later upgrade.
    let full = (!stored.is_weak()).then_some(stored);
    cands.push(CandidateRef { stored, full });
}

/// One hot-tier entry: the complete live candidate set for a signature,
/// plus the LRU stamp demotion sorts by.
#[derive(Debug, Clone)]
struct HotEntry {
    cands: Vec<CandidateRef>,
    stamp: u64,
}

/// One cold sorted run: packed fixed-width records in on-disk format,
/// sorted by `(sample, len, stored)`, with a fence pointer every
/// `fence_every` records for block-skipping lookups.
#[derive(Debug)]
struct Run {
    records: Vec<u8>,
    /// `(first key of block, record index)` per fence block.
    fences: Vec<(ChunkSig, usize)>,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Record {
    sig: ChunkSig,
    stored: Fingerprint,
    full: Option<Fingerprint>,
}

impl Record {
    fn encode(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(&self.sig.sample.to_le_bytes());
        out.extend_from_slice(&self.sig.len.to_le_bytes());
        for lane in self.stored.0 {
            out.extend_from_slice(&lane.to_le_bytes());
        }
        out.push(self.full.is_some() as u8);
        for lane in self.full.unwrap_or(Fingerprint([0; 4])).0 {
            out.extend_from_slice(&lane.to_le_bytes());
        }
    }

    fn decode(buf: &[u8]) -> Record {
        let u64at = |o: usize| u64::from_le_bytes(buf[o..o + 8].try_into().unwrap());
        let lanes = |o: usize| Fingerprint([u64at(o), u64at(o + 8), u64at(o + 16), u64at(o + 24)]);
        Record {
            sig: ChunkSig {
                sample: u64at(0),
                len: u32::from_le_bytes(buf[8..12].try_into().unwrap()),
            },
            stored: lanes(12),
            full: (buf[44] != 0).then(|| lanes(45)),
        }
    }

    /// Sort key: signature first (probe order), then stored name for a
    /// total order within equal signatures.
    fn key(&self) -> (ChunkSig, Fingerprint) {
        (self.sig, self.stored)
    }
}

impl Run {
    fn build(mut records: Vec<Record>, fence_every: usize) -> Run {
        records.sort_unstable_by_key(Record::key);
        let fence_every = fence_every.max(1);
        let mut packed = Vec::with_capacity(records.len() * RECORD_BYTES);
        let mut fences = Vec::new();
        for (i, r) in records.iter().enumerate() {
            if i % fence_every == 0 {
                fences.push((r.sig, i));
            }
            r.encode(&mut packed);
        }
        Run {
            records: packed,
            fences,
        }
    }

    fn len(&self) -> usize {
        self.records.len() / RECORD_BYTES
    }

    fn record(&self, i: usize) -> Record {
        Record::decode(&self.records[i * RECORD_BYTES..(i + 1) * RECORD_BYTES])
    }

    fn sig_at(&self, i: usize) -> ChunkSig {
        let buf = &self.records[i * RECORD_BYTES..];
        ChunkSig {
            sample: u64::from_le_bytes(buf[..8].try_into().unwrap()),
            len: u32::from_le_bytes(buf[8..12].try_into().unwrap()),
        }
    }

    /// Indexes of every record whose signature equals `sig`: fence
    /// pointers narrow the search to the covering blocks (conservative
    /// bounds, since equal keys may span fence boundaries), then a binary
    /// search over the fixed-width records pins the exact range.
    fn find(&self, sig: &ChunkSig) -> std::ops::Range<usize> {
        let n = self.len();
        if n == 0 {
            return 0..0;
        }
        // Matches start at or after the block preceding the first fence
        // key >= sig, and end before the first fence key > sig.
        let fb = self.fences.partition_point(|(k, _)| k < sig);
        let lo_bound = if fb == 0 { 0 } else { self.fences[fb - 1].1 };
        let fe = self.fences.partition_point(|(k, _)| k <= sig);
        let hi_bound = self.fences.get(fe).map_or(n, |&(_, i)| i);
        let search = |strict: bool| {
            let (mut a, mut b) = (lo_bound, hi_bound);
            while a < b {
                let m = (a + b) / 2;
                let at = self.sig_at(m);
                if at < *sig || (!strict && at == *sig) {
                    a = m + 1;
                } else {
                    b = m;
                }
            }
            a
        };
        search(true)..search(false)
    }

    /// Rewrites record `i`'s full-fingerprint field in place.
    fn memoize_at(&mut self, i: usize, full: Fingerprint) {
        let base = i * RECORD_BYTES + 44;
        self.records[base] = 1;
        for (j, lane) in full.0.iter().enumerate() {
            self.records[base + 1 + j * 8..base + 9 + j * 8].copy_from_slice(&lane.to_le_bytes());
        }
    }
}

/// Mutable tier state behind one mutex (probe paths touch hot, cold, and
/// the promotion clock together).
#[derive(Debug, Default)]
struct TieredInner {
    hot: HashMap<ChunkSig, HotEntry>,
    /// Total candidates across hot entries (the capacity bound).
    hot_candidates: usize,
    /// Monotonic stamp source for LRU demotion.
    clock: u64,
    /// Cold runs, oldest first; lookups scan newest first.
    runs: Vec<Run>,
    /// `(sig, stored)` pairs dropped while cold; applied at compaction.
    tombstones: HashSet<(ChunkSig, Fingerprint)>,
    stats: IndexStats,
}

/// Memory-bounded hot/cold chunk index (see module docs).
#[derive(Debug)]
pub struct TieredIndex {
    bloom: BloomFilter,
    heat: HitSet,
    inner: Mutex<TieredInner>,
    config: TieredIndexConfig,
}

impl TieredIndex {
    /// Builds the tiered index.
    pub fn new(bloom: BloomConfig, config: TieredIndexConfig) -> Self {
        TieredIndex {
            bloom: BloomFilter::with_config(bloom),
            heat: HitSet::new(config.heat),
            inner: Mutex::new(TieredInner::default()),
            config,
        }
    }

    /// An upper bound on what [`ChunkIndex::resident_bytes`] may report
    /// for this configuration holding `total_candidates` live candidates:
    /// a full hot tier, every candidate additionally cold-resident across
    /// `max_runs` un-compacted runs' worth of duplication headroom, plus
    /// fences, tombstone slack, the Bloom array, and the heat rings.
    /// `resident_memory_stays_under_bound_at_scale` asserts the measured
    /// footprint stays under this. Saturates for an unbounded hot tier,
    /// which declares no bound ([`ChunkIndex::declared_memory_bound`]).
    pub fn memory_bound(&self, total_candidates: u64) -> u64 {
        let hot =
            (self.config.hot_capacity as u64).saturating_mul(HOT_CANDIDATE_BYTES + HOT_ENTRY_BYTES);
        // Worst case before compaction: each candidate duplicated once
        // across runs (a demoted re-promotion), plus one record each.
        let cold_records = total_candidates * 2 * RECORD_BYTES as u64;
        let fences = (cold_records / RECORD_BYTES as u64 / self.config.fence_every.max(1) as u64
            + self.config.max_runs as u64
            + 1)
            * FENCE_BYTES;
        let tombstones = total_candidates * TOMBSTONE_BYTES / 4;
        (self.bloom.resident_bytes()
            + cold_records
            + fences
            + tombstones
            + self.heat_bytes()
            + 4096)
            .saturating_add(hot)
    }

    /// Footprint of the heat ring: one Bloom array plus slack per
    /// interval, with one interval of headroom.
    fn heat_bytes(&self) -> u64 {
        (self.config.heat.bloom_bits as u64 / 8 + 64) * (self.config.heat.intervals as u64 + 1)
    }

    /// Demotes least-recently-stamped hot entries until the hot tier is
    /// within capacity, freezing them into one new cold run; compacts
    /// when runs pile past `max_runs`. Demotion overshoots to 7/8 of
    /// capacity (hysteresis): evicting a batch per overflow instead of
    /// one entry per insert keeps sustained insert churn amortized —
    /// without it, every insert at steady state would cut a 1-record run
    /// and trigger a near-full compaction every `max_runs` inserts.
    fn enforce_capacity(&self, inner: &mut TieredInner) {
        if inner.hot_candidates <= self.config.hot_capacity {
            return;
        }
        let target = self.config.hot_capacity - self.config.hot_capacity / 8;
        let mut by_age: Vec<(u64, ChunkSig)> =
            inner.hot.iter().map(|(sig, e)| (e.stamp, *sig)).collect();
        by_age.sort_unstable();
        let mut evicted: Vec<Record> = Vec::new();
        for (_, sig) in by_age {
            if inner.hot_candidates <= target {
                break;
            }
            let entry = inner.hot.remove(&sig).expect("listed hot entry");
            inner.hot_candidates -= entry.cands.len();
            inner.stats.demotions += entry.cands.len() as u64;
            evicted.extend(entry.cands.into_iter().map(|c| Record {
                sig,
                stored: c.stored,
                full: c.full,
            }));
        }
        if !evicted.is_empty() {
            let run = Run::build(evicted, self.config.fence_every);
            inner.stats.cold_records += run.len() as u64;
            inner.runs.push(run);
        }
        if inner.runs.len() > self.config.max_runs.max(1) {
            self.compact(inner);
        }
    }

    /// Merges every run into one, newest data winning: keeps the newest
    /// record per `(sig, stored)`, drops tombstoned pairs and records
    /// shadowed by a hot entry (the hot entry is the complete live set
    /// for its signature).
    fn compact(&self, inner: &mut TieredInner) {
        let mut seen: HashSet<(ChunkSig, Fingerprint)> = HashSet::new();
        let mut kept: Vec<Record> = Vec::new();
        for run in inner.runs.iter().rev() {
            for i in 0..run.len() {
                let r = run.record(i);
                let pair = (r.sig, r.stored);
                if inner.hot.contains_key(&r.sig)
                    || inner.tombstones.contains(&pair)
                    || !seen.insert(pair)
                {
                    continue;
                }
                kept.push(r);
            }
        }
        inner.tombstones.clear();
        let run = Run::build(kept, self.config.fence_every);
        inner.stats.cold_records = run.len() as u64;
        inner.stats.compactions += 1;
        inner.runs = if run.len() == 0 {
            Vec::new()
        } else {
            vec![run]
        };
    }

    /// Collects the live cold candidates for `sig`, newest run first,
    /// deduplicated by stored name.
    fn cold_lookup(&self, inner: &TieredInner, sig: &ChunkSig) -> Vec<CandidateRef> {
        let mut out: Vec<CandidateRef> = Vec::new();
        for run in inner.runs.iter().rev() {
            for i in run.find(sig) {
                let r = run.record(i);
                if inner.tombstones.contains(&(r.sig, r.stored))
                    || out.iter().any(|c| c.stored == r.stored)
                {
                    continue;
                }
                out.push(CandidateRef {
                    stored: r.stored,
                    full: r.full,
                });
            }
        }
        out
    }
}

impl ChunkIndex for TieredIndex {
    fn may_contain(&self, fp: &Fingerprint) -> bool {
        self.bloom.may_contain(fp)
    }

    fn note_stored(&self, stored: Fingerprint, sig: Option<ChunkSig>) {
        self.bloom.insert(&stored);
        let Some(sig) = sig else { return };
        let mut inner = self.inner.lock();
        inner.clock += 1;
        let stamp = inner.clock;
        // A re-store of a previously dropped candidate revives it: the
        // tombstone must not outlive the new chunk object. (Safe even
        // against stale cold records of the same pair — weak names bind
        // to one content forever and full names are content-addressed,
        // so any surviving memoized `full` is still correct.)
        if inner.tombstones.remove(&(sig, stored)) {
            inner.stats.tombstones = inner.tombstones.len() as u64;
        }
        // Keep the hot-completeness invariant: a signature entering the
        // hot tier pulls its cold candidates up with it.
        let mut entry = match inner.hot.remove(&sig) {
            Some(e) => {
                inner.hot_candidates -= e.cands.len();
                e
            }
            None => HotEntry {
                cands: self.cold_lookup(&inner, &sig),
                stamp,
            },
        };
        push_candidate(&mut entry.cands, stored);
        entry.stamp = stamp;
        inner.hot_candidates += entry.cands.len();
        inner.hot.insert(sig, entry);
        self.enforce_capacity(&mut inner);
    }

    fn candidates(&self, sig: &ChunkSig, now: SimTime) -> Vec<CandidateRef> {
        let key = sig.key_bytes();
        self.heat.access(&key, now);
        let hot_now = self.heat.is_hot(&key, now);
        let mut inner = self.inner.lock();
        inner.clock += 1;
        let stamp = inner.clock;
        if let Some(e) = inner.hot.get_mut(sig) {
            e.stamp = stamp;
            let out = e.cands.clone();
            inner.stats.hot_hits += 1;
            return out;
        }
        let out = self.cold_lookup(&inner, sig);
        if out.is_empty() {
            return out;
        }
        inner.stats.cold_hits += 1;
        if hot_now {
            // Promote the whole candidate set; its cold records become
            // shadowed and die at the next compaction.
            inner.stats.promotions += out.len() as u64;
            inner.hot_candidates += out.len();
            inner.hot.insert(
                *sig,
                HotEntry {
                    cands: out.clone(),
                    stamp,
                },
            );
            self.enforce_capacity(&mut inner);
        }
        out
    }

    fn memoize_full(&self, sig: &ChunkSig, stored: Fingerprint, full: Fingerprint) {
        let mut inner = self.inner.lock();
        if let Some(e) = inner.hot.get_mut(sig) {
            for c in e.cands.iter_mut().filter(|c| c.stored == stored) {
                c.full = Some(full);
            }
            return;
        }
        // Patch the packed records in place, newest run first.
        for run in inner.runs.iter_mut().rev() {
            let range = run.find(sig);
            let mut patched = false;
            for i in range {
                if run.record(i).stored == stored {
                    run.memoize_at(i, full);
                    patched = true;
                }
            }
            if patched {
                return;
            }
        }
    }

    fn drop_candidate(&self, sig: &ChunkSig, stored: Fingerprint) {
        let mut inner = self.inner.lock();
        if let Some(e) = inner.hot.get_mut(sig) {
            let before = e.cands.len();
            e.cands.retain(|c| c.stored != stored);
            let removed = before - e.cands.len();
            let now_empty = e.cands.is_empty();
            inner.hot_candidates -= removed;
            if now_empty {
                inner.hot.remove(sig);
            }
        }
        // Tombstone unconditionally: older cold copies of a dropped
        // candidate must not resurface after the hot entry is demoted.
        inner.tombstones.insert((*sig, stored));
        inner.stats.tombstones = inner.tombstones.len() as u64;
    }

    fn clear(&self) {
        self.bloom.clear();
        let mut inner = self.inner.lock();
        *inner = TieredInner::default();
        self.heat.clear();
    }

    fn resident_bytes(&self) -> u64 {
        let inner = self.inner.lock();
        let hot = inner.hot.len() as u64 * HOT_ENTRY_BYTES
            + inner.hot_candidates as u64 * HOT_CANDIDATE_BYTES;
        let cold: u64 = inner
            .runs
            .iter()
            .map(|r| r.records.len() as u64 + r.fences.len() as u64 * FENCE_BYTES)
            .sum();
        let tombs = inner.tombstones.len() as u64 * TOMBSTONE_BYTES;
        self.bloom.resident_bytes() + hot + cold + tombs + self.heat_bytes()
    }

    fn bloom_fill_ratio(&self) -> f64 {
        self.bloom.fill_ratio()
    }

    fn stats(&self) -> IndexStats {
        let inner = self.inner.lock();
        IndexStats {
            hot_candidates: inner.hot_candidates as u64,
            cold_records: inner.runs.iter().map(|r| r.len() as u64).sum(),
            cold_runs: inner.runs.len() as u64,
            ..inner.stats
        }
    }

    fn declared_memory_bound(&self) -> Option<u64> {
        if self.config.hot_capacity == usize::MAX {
            return None;
        }
        let stats = self.stats();
        Some(self.memory_bound(stats.hot_candidates + stats.cold_records))
    }
}

/// Builds the index an engine configuration asks for.
pub fn build_index(bloom: BloomConfig, config: &TieredIndexConfig) -> Box<dyn ChunkIndex> {
    Box::new(TieredIndex::new(bloom, *config))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sig(n: u64) -> ChunkSig {
        ChunkSig {
            sample: n.wrapping_mul(0x9E37_79B9_7F4A_7C15),
            len: 4096,
        }
    }

    fn fp(n: u64) -> Fingerprint {
        Fingerprint::of(&n.to_le_bytes())
    }

    fn tiny_tiered(hot_capacity: usize) -> TieredIndex {
        TieredIndex::new(
            BloomConfig {
                bits: 1 << 12,
                probes: 4,
            },
            TieredIndexConfig {
                hot_capacity,
                max_runs: 2,
                fence_every: 4,
                ..TieredIndexConfig::default()
            },
        )
    }

    #[test]
    fn empty_sig_probe_proves_uniqueness() {
        let idx = tiny_tiered(8);
        assert!(idx.candidates(&sig(1), SimTime::ZERO).is_empty());
        idx.note_stored(fp(1), Some(sig(1)));
        assert!(!idx.candidates(&sig(1), SimTime::ZERO).is_empty());
        assert!(idx.candidates(&sig(2), SimTime::ZERO).is_empty());
    }

    #[test]
    fn full_known_for_content_named_candidates() {
        let idx = tiny_tiered(8);
        idx.note_stored(fp(9), Some(sig(9)));
        let c = idx.candidates(&sig(9), SimTime::ZERO);
        assert_eq!(
            c,
            vec![CandidateRef {
                stored: fp(9),
                full: Some(fp(9))
            }]
        );
        let weak = Fingerprint::mint_weak(&sig(10), 0);
        idx.note_stored(weak, Some(sig(10)));
        let c = idx.candidates(&sig(10), SimTime::ZERO);
        assert_eq!(
            c,
            vec![CandidateRef {
                stored: weak,
                full: None
            }]
        );
    }

    #[test]
    fn demotion_keeps_hot_within_capacity_and_cold_still_answers() {
        let idx = tiny_tiered(8);
        for n in 0..64 {
            idx.note_stored(fp(n), Some(sig(n)));
        }
        let st = idx.stats();
        assert!(st.hot_candidates <= 8, "hot over capacity: {st:?}");
        assert!(st.demotions > 0);
        assert_eq!(st.hot_candidates + st.cold_records, 64, "{st:?}");
        // Every signature still answers, hot or cold.
        for n in 0..64 {
            let c = idx.candidates(&sig(n), SimTime::ZERO);
            assert_eq!(c.len(), 1, "sig {n} lost");
            assert_eq!(c[0].stored, fp(n));
        }
    }

    #[test]
    fn repeated_cold_probes_promote() {
        let idx = tiny_tiered(4);
        for n in 0..32 {
            idx.note_stored(fp(n), Some(sig(n)));
        }
        // Default heat needs hits in 2 distinct intervals within the
        // window (the HitSet counts intervals, not accesses).
        idx.candidates(&sig(0), SimTime::from_secs(100));
        let before = idx.stats().promotions;
        idx.candidates(&sig(0), SimTime::from_secs(101));
        assert!(idx.stats().promotions > before, "second probe promotes");
        assert!(idx.stats().hot_candidates <= 4);
    }

    #[test]
    fn memoize_patches_hot_and_cold() {
        let idx = tiny_tiered(4);
        let w = |n: u64| Fingerprint::mint_weak(&sig(n), n);
        for n in 0..16 {
            idx.note_stored(w(n), Some(sig(n)));
        }
        // Some signatures are hot, some demoted cold; memoize both kinds.
        for n in 0..16 {
            idx.memoize_full(&sig(n), w(n), fp(n));
        }
        for n in 0..16 {
            let c = idx.candidates(&sig(n), SimTime::ZERO);
            assert_eq!(c[0].full, Some(fp(n)), "sig {n} not memoized");
        }
    }

    #[test]
    fn drop_candidate_tombstones_cold_copies() {
        let idx = tiny_tiered(2);
        for n in 0..16 {
            idx.note_stored(fp(n), Some(sig(n)));
        }
        idx.drop_candidate(&sig(3), fp(3));
        assert!(idx.candidates(&sig(3), SimTime::ZERO).is_empty());
        // Force compactions; the tombstone must hold.
        for n in 100..140 {
            idx.note_stored(fp(n), Some(sig(n)));
        }
        assert!(idx.candidates(&sig(3), SimTime::ZERO).is_empty());
        assert_eq!(idx.candidates(&sig(4), SimTime::ZERO).len(), 1);
    }

    #[test]
    fn compaction_dedupes_and_bounds_runs() {
        let idx = tiny_tiered(2);
        for _round in 0..8 {
            for n in 0..12 {
                idx.note_stored(fp(n), Some(sig(n)));
            }
        }
        let st = idx.stats();
        assert!(st.cold_runs <= 3, "runs unbounded: {st:?}");
        assert!(st.compactions > 0);
        for n in 0..12 {
            assert_eq!(idx.candidates(&sig(n), SimTime::ZERO).len(), 1);
        }
    }

    #[test]
    fn resident_memory_stays_under_bound_at_scale() {
        let idx = tiny_tiered(64);
        let total = 64 * 10u64; // 10x hot capacity
        for n in 0..total {
            idx.note_stored(fp(n), Some(sig(n)));
        }
        let bound = idx.memory_bound(total);
        let resident = idx.resident_bytes();
        assert!(
            resident <= bound,
            "resident {resident} exceeds bound {bound}"
        );
        // And the compact cold format beats an all-hot map at equal load.
        let flat = tiny_tiered(usize::MAX);
        for n in 0..total {
            flat.note_stored(fp(n), Some(sig(n)));
        }
        assert!(resident < flat.resident_bytes());
    }

    #[test]
    fn only_a_finite_hot_tier_declares_a_bound() {
        let bounded = tiny_tiered(64);
        let unbounded = tiny_tiered(usize::MAX);
        for n in 0..256 {
            bounded.note_stored(fp(n), Some(sig(n)));
            unbounded.note_stored(fp(n), Some(sig(n)));
        }
        assert_eq!(
            bounded.declared_memory_bound(),
            Some(bounded.memory_bound(256)),
            "finite capacity keeps the population-scaled bound"
        );
        assert_eq!(unbounded.declared_memory_bound(), None);
        // Nothing was demoted, and the bound arithmetic saturates
        // instead of overflowing.
        assert_eq!(unbounded.stats().cold_records, 0);
        assert_eq!(unbounded.memory_bound(256), u64::MAX);
    }

    #[test]
    fn clear_resets_everything() {
        let idx = tiny_tiered(4);
        for n in 0..32 {
            idx.note_stored(fp(n), Some(sig(n)));
        }
        idx.clear();
        assert_eq!(idx.stats(), IndexStats::default());
        assert!(!idx.may_contain(&fp(0)));
        assert!(idx.candidates(&sig(0), SimTime::ZERO).is_empty());
    }

    #[test]
    fn fence_lookup_matches_linear_scan() {
        // Dense duplicate keys across fence boundaries.
        let mut records = Vec::new();
        for n in 0..40u64 {
            for dup in 0..(n % 3 + 1) {
                records.push(Record {
                    sig: sig(n / 2), // collide adjacent n onto one sig
                    stored: fp(n * 100 + dup),
                    full: None,
                });
            }
        }
        let run = Run::build(records.clone(), 4);
        for probe in 0..25u64 {
            let key = sig(probe);
            let expect = records.iter().filter(|r| r.sig == key).count();
            let got = run.find(&key).len();
            assert_eq!(got, expect, "probe {probe}");
        }
        assert!(run.find(&sig(10_000)).is_empty());
    }
}
