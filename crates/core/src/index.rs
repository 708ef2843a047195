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
//! stamped first — into the **cold tier**: one vector of records sorted
//! by `(signature, stored name)`, probed with one binary-searched range.
//! The tiers are **disjoint by signature**: a signature's whole live
//! candidate set sits in exactly one of them. A store on a cold signature
//! moves its records up into the new hot entry; a demotion merges an
//! entry's candidates into the vector; memoize and drop patch whichever
//! tier holds the signature. So a probe reads one hot entry or one cold
//! range, and no record is ever shadowed or duplicated. Cold probes move
//! nothing: the only way back into the hot tier is a store. With the
//! default unbounded `hot_capacity` nothing is ever demoted and the index
//! is one flat in-memory map (`tests/index_conformance.rs` holds it to a
//! flat reference model under every op interleaving).
//!
//! Deletions are lazy, matching the Bloom filter's semantics: nothing is
//! eagerly removed when a chunk dies; a stale candidate is detected when
//! its upgrade read misses and is then dropped via
//! [`ChunkIndex::drop_candidate`]. Stale candidates cost a wasted probe,
//! never a wrong answer — chunk names are never reused for different
//! content.

use std::collections::HashMap;
use std::fmt;

use dedup_fingerprint::{ChunkSig, Fingerprint};
use dedup_sim::SimTime;
use parking_lot::Mutex;

use crate::bloom::{BloomConfig, BloomFilter};
use crate::config::TieredIndexConfig;

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
    /// Records in the cold tier.
    pub cold_records: u64,
    /// Lifetime hot→cold demotions (candidates moved).
    pub demotions: u64,
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
    /// caller's chunk is globally unique. `now` is the probe's virtual
    /// time; the index does not read it, and keeps it so the trait's
    /// callers are unchanged.
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
    /// structures (bit array, hot map, cold records).
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
/// tier: the 72-byte `CandidateRef` plus map/vec bookkeeping.
const HOT_CANDIDATE_BYTES: u64 = 112;
/// Estimated per-signature entry overhead in the hot map.
const HOT_ENTRY_BYTES: u64 = 48;
/// Bytes one cold record occupies in the cold vector.
const RECORD_BYTES: u64 = std::mem::size_of::<Record>() as u64;

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

/// One cold-tier candidate.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Record {
    sig: ChunkSig,
    stored: Fingerprint,
    full: Option<Fingerprint>,
}

impl Record {
    /// Sort key: signature first (probe order), then stored name for a
    /// total order within equal signatures.
    fn key(&self) -> (ChunkSig, Fingerprint) {
        (self.sig, self.stored)
    }

    fn candidate(&self) -> CandidateRef {
        CandidateRef {
            stored: self.stored,
            full: self.full,
        }
    }
}

/// Mutable tier state behind one mutex (probe paths touch the hot map,
/// the cold vector and the LRU clock together).
#[derive(Debug, Default)]
struct TieredInner {
    hot: HashMap<ChunkSig, HotEntry>,
    /// Total candidates across hot entries (the capacity bound).
    hot_candidates: usize,
    /// Monotonic stamp source for LRU demotion.
    clock: u64,
    /// Demoted candidates sorted by [`Record::key`]; no signature here
    /// has a hot entry.
    cold: Vec<Record>,
    stats: IndexStats,
}

impl TieredInner {
    /// The cold records carrying `sig`.
    fn cold_range(&self, sig: &ChunkSig) -> std::ops::Range<usize> {
        let lo = self.cold.partition_point(|r| r.sig < *sig);
        lo..lo + self.cold[lo..].partition_point(|r| r.sig == *sig)
    }

    /// Where the cold record of `(sig, stored)` sits, if there is one.
    fn cold_slot(&self, sig: &ChunkSig, stored: Fingerprint) -> Option<usize> {
        self.cold
            .binary_search_by_key(&(*sig, stored), Record::key)
            .ok()
    }
}

/// Memory-bounded hot/cold chunk index (see module docs).
#[derive(Debug)]
pub struct TieredIndex {
    bloom: BloomFilter,
    inner: Mutex<TieredInner>,
    config: TieredIndexConfig,
}

impl TieredIndex {
    /// Builds the tiered index.
    pub fn new(bloom: BloomConfig, config: TieredIndexConfig) -> Self {
        TieredIndex {
            bloom: BloomFilter::with_config(bloom),
            inner: Mutex::new(TieredInner::default()),
            config,
        }
    }

    /// An upper bound on what [`ChunkIndex::resident_bytes`] may report
    /// for this configuration holding `total_candidates` live candidates:
    /// a full hot tier, every candidate additionally a cold record, the
    /// Bloom array, and fixed slack.
    /// `resident_memory_stays_under_bound_at_scale` asserts the measured
    /// footprint stays under this. Saturates for an unbounded hot tier,
    /// which declares no bound ([`ChunkIndex::declared_memory_bound`]).
    pub fn memory_bound(&self, total_candidates: u64) -> u64 {
        let hot =
            (self.config.hot_capacity as u64).saturating_mul(HOT_CANDIDATE_BYTES + HOT_ENTRY_BYTES);
        (self.bloom.resident_bytes() + total_candidates * RECORD_BYTES + 4096).saturating_add(hot)
    }

    /// Demotes least-recently-stamped hot entries until the hot tier is
    /// within capacity, merging their candidates into the cold vector.
    /// Demotion overshoots to 7/8 of capacity (hysteresis): evicting a
    /// batch per overflow instead of one entry per insert keeps sustained
    /// insert churn amortized — without it, every insert at steady state
    /// would re-merge the whole cold vector for one record.
    fn enforce_capacity(&self, inner: &mut TieredInner) {
        if inner.hot_candidates <= self.config.hot_capacity {
            return;
        }
        let target = self.config.hot_capacity - self.config.hot_capacity / 8;
        let mut by_age: Vec<(u64, ChunkSig)> =
            inner.hot.iter().map(|(sig, e)| (e.stamp, *sig)).collect();
        by_age.sort_unstable();
        for (_, sig) in by_age {
            if inner.hot_candidates <= target {
                break;
            }
            let entry = inner.hot.remove(&sig).expect("listed hot entry");
            inner.hot_candidates -= entry.cands.len();
            inner.stats.demotions += entry.cands.len() as u64;
            inner.cold.extend(entry.cands.into_iter().map(|c| Record {
                sig,
                stored: c.stored,
                full: c.full,
            }));
        }
        // The sorted prefix is one run: the stable sort merges the
        // demoted tail into it.
        inner.cold.sort_by_key(Record::key);
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
        // A signature entering the hot tier takes its cold records with
        // it, so the tiers stay disjoint.
        let mut entry = match inner.hot.remove(&sig) {
            Some(e) => {
                inner.hot_candidates -= e.cands.len();
                e
            }
            None => {
                let range = inner.cold_range(&sig);
                HotEntry {
                    cands: inner.cold.drain(range).map(|r| r.candidate()).collect(),
                    stamp,
                }
            }
        };
        push_candidate(&mut entry.cands, stored);
        entry.stamp = stamp;
        inner.hot_candidates += entry.cands.len();
        inner.hot.insert(sig, entry);
        self.enforce_capacity(&mut inner);
    }

    fn candidates(&self, sig: &ChunkSig, _now: SimTime) -> Vec<CandidateRef> {
        let mut inner = self.inner.lock();
        inner.clock += 1;
        let stamp = inner.clock;
        if let Some(e) = inner.hot.get_mut(sig) {
            e.stamp = stamp;
            return e.cands.clone();
        }
        inner.cold[inner.cold_range(sig)]
            .iter()
            .map(Record::candidate)
            .collect()
    }

    fn memoize_full(&self, sig: &ChunkSig, stored: Fingerprint, full: Fingerprint) {
        let mut inner = self.inner.lock();
        if let Some(e) = inner.hot.get_mut(sig) {
            for c in e.cands.iter_mut().filter(|c| c.stored == stored) {
                c.full = Some(full);
            }
        } else if let Some(i) = inner.cold_slot(sig, stored) {
            inner.cold[i].full = Some(full);
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
        } else if let Some(i) = inner.cold_slot(sig, stored) {
            inner.cold.remove(i);
        }
    }

    fn clear(&self) {
        self.bloom.clear();
        *self.inner.lock() = TieredInner::default();
    }

    fn resident_bytes(&self) -> u64 {
        let inner = self.inner.lock();
        let hot = inner.hot.len() as u64 * HOT_ENTRY_BYTES
            + inner.hot_candidates as u64 * HOT_CANDIDATE_BYTES;
        self.bloom.resident_bytes() + hot + inner.cold.len() as u64 * RECORD_BYTES
    }

    fn bloom_fill_ratio(&self) -> f64 {
        self.bloom.fill_ratio()
    }

    fn stats(&self) -> IndexStats {
        let inner = self.inner.lock();
        IndexStats {
            hot_candidates: inner.hot_candidates as u64,
            cold_records: inner.cold.len() as u64,
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
            TieredIndexConfig { hot_capacity },
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
    fn drop_candidate_removes_cold_copies() {
        let idx = tiny_tiered(2);
        for n in 0..16 {
            idx.note_stored(fp(n), Some(sig(n)));
        }
        idx.drop_candidate(&sig(3), fp(3));
        assert!(idx.candidates(&sig(3), SimTime::ZERO).is_empty());
        assert_eq!(idx.stats().cold_records, 13, "the cold record is gone");
        // Further demotions must not bring it back.
        for n in 100..140 {
            idx.note_stored(fp(n), Some(sig(n)));
        }
        assert!(idx.candidates(&sig(3), SimTime::ZERO).is_empty());
        assert_eq!(idx.candidates(&sig(4), SimTime::ZERO).len(), 1);
    }

    #[test]
    fn restores_through_the_tiers_never_duplicate() {
        let idx = tiny_tiered(2);
        for _round in 0..8 {
            for n in 0..12 {
                idx.note_stored(fp(n), Some(sig(n)));
            }
        }
        let st = idx.stats();
        assert_eq!(st.hot_candidates + st.cold_records, 12, "{st:?}");
        assert!(st.demotions > 12, "signatures cycled through the cold tier");
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
}
