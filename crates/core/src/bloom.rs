//! The workspace's one Bloom filter. It has two users:
//!
//! - **The chunk index's existence gate.** Storing or dereferencing a
//!   chunk starts with "does this fingerprint already name a chunk
//!   object?" — a cluster metadata read whose answer is *no* for every
//!   unique chunk the system has ever seen. The filter answers definite
//!   negatives from memory, so the common miss skips the probe entirely; a
//!   "maybe" falls through to the real lookup. Safe only because every
//!   chunk-object creation flows through the chunk pool's one `store` call
//!   (`chunkpool.rs`), which inserts into the filter before the chunk
//!   becomes visible: the filter can yield false positives (harmless — the
//!   probe runs and misses) but never false negatives.
//! - **The HitSet's per-interval filters** ([`crate::hitset`]), keyed by
//!   object name. The ring derives four probe positions from the name and
//!   hands them over as the four lanes of the key.
//!
//! The bit array is a plain `AtomicU64` word vector touched with relaxed
//! loads and `fetch_or`s: foreground shards and background flushes query
//! it concurrently without any lock, and concurrent inserts set the same
//! bits in any interleaving. The first four probe positions come straight
//! from the key's four 64-bit lanes — a fingerprint is already a uniform
//! hash, so no rehashing is needed; probes beyond four remix the lanes.
//! The chunk index's sizing is configurable via [`BloomConfig`]
//! ([`crate::DedupConfig::bloom`]); the filter also counts its set bits so
//! the engine can export a fill-ratio gauge and warn before the
//! false-positive rate silently blows up.

use std::sync::atomic::{AtomicU64, Ordering};

use dedup_fingerprint::Fingerprint;
use serde::{Deserialize, Serialize};

/// Bloom filter sizing: bit count and probes per key.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct BloomConfig {
    /// Bits in the filter (rounded up to a power of two, minimum 64).
    pub bits: usize,
    /// Probe positions per key (clamped to 1..=16). The default of 4 uses
    /// the fingerprint lanes directly and reproduces the historical
    /// hard-coded filter bit-for-bit.
    pub probes: usize,
}

impl Default for BloomConfig {
    /// The historical sizing: 2^21 bits (256 KiB) keeps the
    /// false-positive rate under ~1% up to roughly 250k distinct chunks
    /// at 4 probes.
    fn default() -> Self {
        BloomConfig {
            bits: 1 << 21,
            probes: 4,
        }
    }
}

/// Lock-free Bloom filter keyed by the four lanes of a [`Fingerprint`].
#[derive(Debug)]
pub struct BloomFilter {
    words: Vec<AtomicU64>,
    /// Bit-index mask; the bit count is a power of two.
    mask: u64,
    probes: usize,
    /// Bits currently set, maintained from `fetch_or` results; drives the
    /// fill-ratio gauge.
    set_bits: AtomicU64,
}

impl BloomFilter {
    /// Creates a filter sized by `config`.
    pub fn with_config(config: BloomConfig) -> Self {
        let bits = config.bits.next_power_of_two().max(64);
        BloomFilter {
            words: (0..bits / 64).map(|_| AtomicU64::new(0)).collect(),
            mask: bits as u64 - 1,
            probes: config.probes.clamp(1, 16),
            set_bits: AtomicU64::new(0),
        }
    }

    /// Probe `i`'s bit index. The first four probes are the raw
    /// fingerprint lanes masked — exactly the historical positions —
    /// and further probes remix a lane with the probe number so extra
    /// probes stay pairwise independent.
    fn bit_index(&self, fp: &Fingerprint, i: usize) -> u64 {
        let lane = fp.0[i & 3];
        let h = if i < 4 {
            lane
        } else {
            lane.wrapping_mul(0x9E37_79B9_7F4A_7C15)
                .rotate_left(i as u32 * 13 + 7)
                ^ (i as u64).wrapping_mul(0xC2B2_AE3D_27D4_EB4F)
        };
        h & self.mask
    }

    /// Marks `fp` as present.
    pub fn insert(&self, fp: &Fingerprint) {
        let mut newly_set = 0u64;
        for i in 0..self.probes {
            let bit = self.bit_index(fp, i);
            let (word, mask) = ((bit / 64) as usize, 1u64 << (bit % 64));
            let prev = self.words[word].fetch_or(mask, Ordering::Relaxed);
            if prev & mask == 0 {
                newly_set += 1;
            }
        }
        if newly_set > 0 {
            self.set_bits.fetch_add(newly_set, Ordering::Relaxed);
        }
    }

    /// `false` means `fp` was definitely never inserted; `true` means it
    /// may have been.
    pub fn may_contain(&self, fp: &Fingerprint) -> bool {
        (0..self.probes).all(|i| {
            let bit = self.bit_index(fp, i);
            self.words[bit as usize / 64].load(Ordering::Relaxed) & (1u64 << (bit % 64)) != 0
        })
    }

    /// Resets the filter to empty.
    pub fn clear(&self) {
        for w in &self.words {
            w.store(0, Ordering::Relaxed);
        }
        self.set_bits.store(0, Ordering::Relaxed);
    }

    /// Total bits in the filter.
    pub fn bits(&self) -> u64 {
        self.mask + 1
    }

    /// Fraction of bits set, in `[0, 1]`. Past ~0.5 the false-positive
    /// rate climbs steeply (≈ `fill^probes`), which is why the engine
    /// exports this as a gauge and warns on crossing one half.
    pub fn fill_ratio(&self) -> f64 {
        self.set_bits.load(Ordering::Relaxed) as f64 / self.bits() as f64
    }

    /// Resident memory of the bit array in bytes.
    pub fn resident_bytes(&self) -> u64 {
        self.words.len() as u64 * 8
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fp(seed: u64) -> Fingerprint {
        Fingerprint::of(&seed.to_le_bytes())
    }

    fn sized(bits: usize) -> BloomFilter {
        BloomFilter::with_config(BloomConfig {
            bits,
            ..BloomConfig::default()
        })
    }

    #[test]
    fn empty_filter_rejects_everything() {
        let f = sized(1 << 12);
        for s in 0..1000 {
            assert!(!f.may_contain(&fp(s)));
        }
    }

    #[test]
    fn inserted_fingerprints_are_always_found() {
        let f = sized(1 << 12);
        for s in 0..500 {
            f.insert(&fp(s));
        }
        for s in 0..500 {
            assert!(f.may_contain(&fp(s)), "no false negatives allowed");
        }
    }

    #[test]
    fn no_false_negatives_at_any_probe_count() {
        for probes in [1, 2, 4, 7, 16] {
            let f = BloomFilter::with_config(BloomConfig {
                bits: 1 << 14,
                probes,
            });
            for s in 0..400 {
                f.insert(&fp(s));
            }
            for s in 0..400 {
                assert!(f.may_contain(&fp(s)), "false negative at {probes} probes");
            }
        }
    }

    #[test]
    fn false_positive_rate_is_low_at_design_load() {
        let f = sized(1 << 16);
        // ~6.5k entries in 64k bits ≈ 10 bits/entry → well under 2% FPR.
        for s in 0..6_500 {
            f.insert(&fp(s));
        }
        let fps = (100_000..110_000)
            .filter(|&s| f.may_contain(&fp(s)))
            .count();
        assert!(fps < 300, "false-positive rate too high: {fps}/10000");
    }

    #[test]
    fn more_probes_cut_false_positives_at_equal_load() {
        let fpr = |probes: usize| {
            let f = BloomFilter::with_config(BloomConfig {
                bits: 1 << 14,
                probes,
            });
            for s in 0..1_500 {
                f.insert(&fp(s));
            }
            (100_000..120_000)
                .filter(|&s| f.may_contain(&fp(s)))
                .count()
        };
        assert!(fpr(8) < fpr(1), "8 probes should beat 1 at this load");
    }

    #[test]
    fn rounds_bit_count_up_to_power_of_two() {
        let f = sized(100);
        assert_eq!(f.words.len(), 2); // 128 bits
        assert_eq!(f.mask, 127);
    }

    #[test]
    fn fill_ratio_tracks_set_bits_and_clear_resets() {
        let f = BloomFilter::with_config(BloomConfig {
            bits: 256,
            probes: 4,
        });
        assert_eq!(f.fill_ratio(), 0.0);
        f.insert(&fp(1));
        let r1 = f.fill_ratio();
        assert!(r1 > 0.0 && r1 <= 4.0 / 256.0);
        // Re-inserting the same key sets nothing new.
        f.insert(&fp(1));
        assert_eq!(f.fill_ratio(), r1);
        for s in 0..200 {
            f.insert(&fp(s));
        }
        assert!(f.fill_ratio() > 0.5, "small filter should saturate");
        f.clear();
        assert_eq!(f.fill_ratio(), 0.0);
        assert!(!f.may_contain(&fp(1)));
    }

    #[test]
    fn default_config_matches_historical_sizing() {
        let c = BloomConfig::default();
        assert_eq!(c.bits, 1 << 21);
        assert_eq!(c.probes, 4);
        let f = BloomFilter::with_config(c);
        assert_eq!(f.bits(), 1 << 21);
        assert_eq!(f.resident_bytes(), 256 * 1024);
    }

    #[test]
    fn concurrent_inserts_lose_nothing() {
        let f = std::sync::Arc::new(sized(1 << 14));
        let handles: Vec<_> = (0..4u64)
            .map(|t| {
                let f = f.clone();
                std::thread::spawn(move || {
                    for i in 0..250u64 {
                        f.insert(&fp(t * 1000 + i));
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().expect("inserter");
        }
        for t in 0..4u64 {
            for i in 0..250u64 {
                assert!(f.may_contain(&fp(t * 1000 + i)), "lost {t}/{i}");
            }
        }
        // Each newly set bit was counted exactly once across threads.
        let set: u64 = f
            .words
            .iter()
            .map(|w| u64::from(w.load(Ordering::Relaxed).count_ones()))
            .sum();
        assert_eq!(f.set_bits.load(Ordering::Relaxed), set);
    }
}
