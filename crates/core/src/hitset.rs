//! Hotness tracking: per-interval bloom filters (Ceph's HitSet, paper §5).
//!
//! The cache manager asks "has this object been accessed in at least
//! `hit_count` recent intervals?" — if so it is *hot* and is kept cached in
//! the metadata pool instead of being deduplicated away.
//!
//! Concurrency: every cached foreground read records an access, so the
//! hitset must not serialize the read path. [`BloomFilter`] stores its bit
//! array as `AtomicU64` words — `insert`/`contains` take `&self` and set or
//! test exactly the same bits as the pre-atomic version (`fetch_or` per
//! word), so hotness decisions are bit-identical to the old
//! `Mutex<HitSet>` form. [`SharedHitSet`] wraps the ring in a `RwLock`:
//! recording into (or counting against) the *current* interval needs only
//! a read lock; the write lock is taken only to roll the ring forward when
//! an access lands in a new interval — once per `interval_secs` of virtual
//! time, not per op.

use std::sync::atomic::{AtomicU64, Ordering};

use dedup_placement::hash::xxh64;
use dedup_sim::SimTime;
use parking_lot::RwLock;

use crate::config::HitSetConfig;

/// A fixed-size bloom filter keyed by object names.
///
/// Bits live in `AtomicU64` words so concurrent readers can record
/// accesses without exclusive locking; `clear` still needs `&mut self`.
#[derive(Debug)]
pub struct BloomFilter {
    bits: Vec<AtomicU64>,
    mask: usize,
    hashes: u32,
    insertions: AtomicU64,
}

impl Clone for BloomFilter {
    fn clone(&self) -> Self {
        BloomFilter {
            bits: self
                .bits
                .iter()
                .map(|w| AtomicU64::new(w.load(Ordering::Relaxed)))
                .collect(),
            mask: self.mask,
            hashes: self.hashes,
            insertions: AtomicU64::new(self.insertions.load(Ordering::Relaxed)),
        }
    }
}

impl BloomFilter {
    /// Creates a filter with `bits` bits (rounded up to a power of two) and
    /// `hashes` hash functions.
    ///
    /// # Panics
    ///
    /// Panics if `bits` or `hashes` is zero.
    pub fn new(bits: usize, hashes: u32) -> Self {
        assert!(bits > 0 && hashes > 0, "bloom parameters must be positive");
        let bits = bits.next_power_of_two();
        BloomFilter {
            bits: (0..bits / 64 + 1).map(|_| AtomicU64::new(0)).collect(),
            mask: bits - 1,
            hashes,
            insertions: AtomicU64::new(0),
        }
    }

    fn positions(&self, key: &[u8]) -> impl Iterator<Item = usize> + '_ {
        // Double hashing: h1 + i*h2 over the bit space.
        let h1 = xxh64(key, 0x9E3779B97F4A7C15);
        let h2 = xxh64(key, 0xC2B2AE3D27D4EB4F) | 1;
        let mask = self.mask as u64;
        (0..self.hashes).map(move |i| (h1.wrapping_add(h2.wrapping_mul(i as u64)) & mask) as usize)
    }

    /// Inserts a key. Safe under concurrent inserts/lookups: each probe
    /// bit is set with one atomic OR, so the final bit pattern is the
    /// same regardless of interleaving.
    pub fn insert(&self, key: &[u8]) {
        for p in self.positions(key) {
            self.bits[p / 64].fetch_or(1 << (p % 64), Ordering::Relaxed);
        }
        self.insertions.fetch_add(1, Ordering::Relaxed);
    }

    /// Whether the key *may* have been inserted (false positives possible,
    /// false negatives impossible).
    pub fn contains(&self, key: &[u8]) -> bool {
        self.positions(key)
            .all(|p| self.bits[p / 64].load(Ordering::Relaxed) & (1 << (p % 64)) != 0)
    }

    /// Number of insert calls.
    pub fn insertions(&self) -> u64 {
        self.insertions.load(Ordering::Relaxed)
    }

    /// Clears the filter.
    pub fn clear(&mut self) {
        for w in &mut self.bits {
            *w.get_mut() = 0;
        }
        *self.insertions.get_mut() = 0;
    }
}

/// Rolling window of per-interval bloom filters.
#[derive(Debug, Clone)]
pub struct HitSet {
    config: HitSetConfig,
    /// Ring buffer of (interval index, filter).
    ring: Vec<(u64, BloomFilter)>,
    head_interval: u64,
}

impl HitSet {
    /// Creates a hitset from configuration.
    pub fn new(config: HitSetConfig) -> Self {
        let ring = (0..config.intervals)
            .map(|i| (i as u64, BloomFilter::new(config.bloom_bits, 4)))
            .collect();
        HitSet {
            config,
            ring,
            head_interval: 0,
        }
    }

    fn interval_of(&self, now: SimTime) -> u64 {
        now.as_nanos() / (self.config.interval_secs * 1_000_000_000)
    }

    fn roll_to(&mut self, interval: u64) {
        while self.head_interval < interval {
            self.head_interval += 1;
            let slot = (self.head_interval as usize) % self.ring.len();
            self.ring[slot].0 = self.head_interval;
            self.ring[slot].1.clear();
        }
    }

    /// Records an access without rolling the ring: succeeds (and returns
    /// `true`) only when `now` falls at or before the head interval.
    /// Returns `false` when the ring must first roll forward — the caller
    /// then needs exclusive access and [`HitSet::access`].
    fn record_current(&self, key: &[u8], now: SimTime) -> bool {
        let interval = self.interval_of(now);
        if interval > self.head_interval {
            return false;
        }
        // An interval that rolled out of the ring is dropped: its slot now
        // holds a newer interval, which a late access must not count in.
        let (held, filter) = &self.ring[(interval as usize) % self.ring.len()];
        if *held == interval {
            filter.insert(key);
        }
        true
    }

    /// Counts retained-interval hits without rolling the ring; `None`
    /// when the ring must first roll forward.
    fn count_current(&self, key: &[u8], now: SimTime) -> Option<u32> {
        let interval = self.interval_of(now);
        if interval > self.head_interval {
            return None;
        }
        let oldest = interval.saturating_sub(self.ring.len() as u64 - 1);
        Some(
            self.ring
                .iter()
                .filter(|(i, f)| *i >= oldest && *i <= interval && f.contains(key))
                .count() as u32,
        )
    }

    /// Records an access to `key` at `now`.
    pub fn access(&mut self, key: &[u8], now: SimTime) {
        self.roll_to(self.interval_of(now));
        self.record_current(key, now);
    }

    /// Number of retained intervals in which `key` was (probably) accessed.
    pub fn hit_count(&mut self, key: &[u8], now: SimTime) -> u32 {
        let interval = self.interval_of(now);
        self.roll_to(interval);
        self.count_current(key, now)
            .expect("ring rolled to the access interval")
    }

    /// Whether `key` is hot at `now` per the configured threshold.
    pub fn is_hot(&mut self, key: &[u8], now: SimTime) -> bool {
        self.hit_count(key, now) >= self.config.hit_count
    }
}

/// A [`HitSet`] shared between concurrent foreground readers.
///
/// The fast path (`now` within the already-current interval — every op
/// but the first of each interval) runs under a read lock and records via
/// atomic bloom bits, so cached reads on the same shard never serialize
/// on hotness sampling. Only an interval roll escalates to the write
/// lock, and the rolled state is re-checked under that lock, so races
/// between a roller and fast-path recorders resolve exactly as some
/// sequential order of the same calls would.
#[derive(Debug)]
pub struct SharedHitSet {
    inner: RwLock<HitSet>,
}

impl SharedHitSet {
    /// Creates a shared hitset from configuration.
    pub fn new(config: HitSetConfig) -> Self {
        SharedHitSet {
            inner: RwLock::new(HitSet::new(config)),
        }
    }

    /// Records an access to `key` at `now`.
    pub fn access(&self, key: &[u8], now: SimTime) {
        if self.inner.read().record_current(key, now) {
            return;
        }
        self.inner.write().access(key, now);
    }

    /// Number of retained intervals in which `key` was (probably) accessed.
    pub fn hit_count(&self, key: &[u8], now: SimTime) -> u32 {
        if let Some(count) = self.inner.read().count_current(key, now) {
            return count;
        }
        self.inner.write().hit_count(key, now)
    }

    /// Whether `key` is hot at `now` per the configured threshold.
    pub fn is_hot(&self, key: &[u8], now: SimTime) -> bool {
        let threshold = self.inner.read().config.hit_count;
        self.hit_count(key, now) >= threshold
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn config() -> HitSetConfig {
        HitSetConfig {
            interval_secs: 1,
            intervals: 4,
            hit_count: 2,
            bloom_bits: 1 << 12,
        }
    }

    #[test]
    fn bloom_no_false_negatives() {
        let f = BloomFilter::new(1 << 12, 4);
        for i in 0..100u32 {
            f.insert(&i.to_le_bytes());
        }
        for i in 0..100u32 {
            assert!(f.contains(&i.to_le_bytes()), "lost {i}");
        }
    }

    #[test]
    fn bloom_few_false_positives_when_sized_right() {
        let f = BloomFilter::new(1 << 14, 4);
        for i in 0..500u32 {
            f.insert(&i.to_le_bytes());
        }
        let fp = (10_000..20_000u32)
            .filter(|i| f.contains(&i.to_le_bytes()))
            .count();
        assert!(fp < 100, "false positive rate too high: {fp}/10000");
    }

    #[test]
    fn bloom_clear_resets() {
        let mut f = BloomFilter::new(1 << 10, 3);
        f.insert(b"x");
        f.clear();
        assert!(!f.contains(b"x"));
        assert_eq!(f.insertions(), 0);
    }

    #[test]
    fn bloom_concurrent_inserts_lose_nothing() {
        let f = std::sync::Arc::new(BloomFilter::new(1 << 14, 4));
        let handles: Vec<_> = (0..4u32)
            .map(|t| {
                let f = f.clone();
                std::thread::spawn(move || {
                    for i in 0..250u32 {
                        f.insert(&(t * 1000 + i).to_le_bytes());
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().expect("inserter");
        }
        for t in 0..4u32 {
            for i in 0..250u32 {
                assert!(f.contains(&(t * 1000 + i).to_le_bytes()), "lost {t}/{i}");
            }
        }
        assert_eq!(f.insertions(), 1000);
    }

    #[test]
    fn single_access_is_not_hot() {
        let mut h = HitSet::new(config());
        h.access(b"obj", SimTime::from_secs(0));
        assert!(!h.is_hot(b"obj", SimTime::from_secs(0)));
        assert_eq!(h.hit_count(b"obj", SimTime::from_secs(0)), 1);
    }

    #[test]
    fn repeated_access_across_intervals_is_hot() {
        let mut h = HitSet::new(config());
        h.access(b"obj", SimTime::from_secs(0));
        h.access(b"obj", SimTime::from_secs(1));
        assert!(h.is_hot(b"obj", SimTime::from_secs(1)));
    }

    #[test]
    fn heat_decays_as_intervals_roll_out() {
        let mut h = HitSet::new(config());
        h.access(b"obj", SimTime::from_secs(0));
        h.access(b"obj", SimTime::from_secs(1));
        assert!(h.is_hot(b"obj", SimTime::from_secs(2)));
        // 4 retained intervals: by t=10 both hits rolled out.
        assert!(!h.is_hot(b"obj", SimTime::from_secs(10)));
        assert_eq!(h.hit_count(b"obj", SimTime::from_secs(10)), 0);
    }

    #[test]
    fn accesses_within_one_interval_count_once() {
        let mut h = HitSet::new(config());
        for _ in 0..50 {
            h.access(b"obj", SimTime::from_nanos(100));
        }
        assert_eq!(h.hit_count(b"obj", SimTime::from_nanos(200)), 1);
    }

    #[test]
    fn late_access_to_a_rolled_out_interval_is_dropped() {
        // 90 s shares a ring slot with 98 s once the head reaches 100 s;
        // the late access must not count as a hit in the newer interval.
        let mut h = HitSet::new(config());
        h.access(b"obj", SimTime::from_secs(100));
        h.access(b"obj", SimTime::from_secs(90));
        assert_eq!(h.hit_count(b"obj", SimTime::from_secs(100)), 1);
        assert!(!h.is_hot(b"obj", SimTime::from_secs(100)));

        let s = SharedHitSet::new(config());
        s.access(b"obj", SimTime::from_secs(100));
        s.access(b"obj", SimTime::from_secs(90));
        assert_eq!(s.hit_count(b"obj", SimTime::from_secs(100)), 1);
        assert!(!s.is_hot(b"obj", SimTime::from_secs(100)));
    }

    #[test]
    fn distinct_objects_do_not_interfere() {
        let mut h = HitSet::new(config());
        h.access(b"a", SimTime::from_secs(0));
        h.access(b"a", SimTime::from_secs(1));
        assert!(h.is_hot(b"a", SimTime::from_secs(1)));
        assert!(!h.is_hot(b"b", SimTime::from_secs(1)));
    }

    #[test]
    fn shared_hitset_matches_exclusive_semantics() {
        let s = SharedHitSet::new(config());
        s.access(b"obj", SimTime::from_secs(0));
        assert_eq!(s.hit_count(b"obj", SimTime::from_secs(0)), 1);
        assert!(!s.is_hot(b"obj", SimTime::from_secs(0)));
        s.access(b"obj", SimTime::from_secs(1));
        assert!(s.is_hot(b"obj", SimTime::from_secs(1)));
        // Querying a future interval rolls the ring exactly like HitSet.
        assert!(!s.is_hot(b"obj", SimTime::from_secs(10)));
        assert_eq!(s.hit_count(b"obj", SimTime::from_secs(10)), 0);
    }

    #[test]
    fn shared_hitset_concurrent_accesses_all_land() {
        let s = std::sync::Arc::new(SharedHitSet::new(HitSetConfig {
            interval_secs: 1,
            intervals: 4,
            hit_count: 2,
            bloom_bits: 1 << 14,
        }));
        let handles: Vec<_> = (0..4u32)
            .map(|t| {
                let s = s.clone();
                std::thread::spawn(move || {
                    for i in 0..200u32 {
                        let key = (t * 1000 + i).to_le_bytes();
                        s.access(&key, SimTime::from_secs(0));
                        s.access(&key, SimTime::from_secs(1));
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().expect("recorder");
        }
        for t in 0..4u32 {
            for i in 0..200u32 {
                let key = (t * 1000 + i).to_le_bytes();
                assert!(s.is_hot(&key, SimTime::from_secs(1)), "lost heat {t}/{i}");
            }
        }
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        /// Bloom filters never produce false negatives for any key set.
        #[test]
        fn bloom_no_false_negatives_prop(
            keys in proptest::collection::vec(proptest::collection::vec(any::<u8>(), 1..32), 1..64),
        ) {
            let f = BloomFilter::new(1 << 12, 4);
            for k in &keys {
                f.insert(k);
            }
            for k in &keys {
                prop_assert!(f.contains(k));
            }
        }

        /// HitSet counts never exceed the retained-interval budget and
        /// decay to zero once the window rolls past.
        #[test]
        fn hit_counts_bounded_and_decaying(
            accesses in proptest::collection::vec(0u64..12, 0..40),
        ) {
            let config = HitSetConfig {
                interval_secs: 1,
                intervals: 4,
                hit_count: 2,
                bloom_bits: 1 << 12,
            };
            let mut h = HitSet::new(config);
            let mut last = 0u64;
            for t in accesses {
                let t = last.max(t); // time moves forward
                h.access(b"k", SimTime::from_secs(t));
                last = t;
                let c = h.hit_count(b"k", SimTime::from_secs(t));
                prop_assert!(c >= 1, "just accessed");
                prop_assert!(c <= 4, "count exceeds retained intervals");
            }
            prop_assert_eq!(h.hit_count(b"k", SimTime::from_secs(last + 100)), 0);
        }

        /// The shared wrapper and the exclusive HitSet agree on every
        /// hit count over an arbitrary forward-moving access trace.
        #[test]
        fn shared_matches_exclusive_prop(
            accesses in proptest::collection::vec((0u64..12, 0u8..4), 0..60),
        ) {
            let config = HitSetConfig {
                interval_secs: 1,
                intervals: 4,
                hit_count: 2,
                bloom_bits: 1 << 12,
            };
            let mut exclusive = HitSet::new(config);
            let shared = SharedHitSet::new(config);
            let mut last = 0u64;
            for (t, k) in accesses {
                let t = last.max(t);
                last = t;
                let key = [k];
                let now = SimTime::from_secs(t);
                exclusive.access(&key, now);
                shared.access(&key, now);
                prop_assert_eq!(
                    exclusive.hit_count(&key, now),
                    shared.hit_count(&key, now),
                );
            }
        }
    }
}
