//! Hotness tracking: per-interval Bloom filters (Ceph's HitSet, paper §5).
//!
//! The cache manager asks "has this object been accessed in at least
//! `hit_count` recent intervals?" — if so it is *hot* and is kept cached in
//! the metadata pool instead of being deduplicated away.
//!
//! Each interval of the ring is one [`BloomFilter`], the same lock-free
//! filter that gates the chunk index. The ring feeds it its own probe
//! positions: xxh64 double hashing of the object name (`h1 + i·h2`), four
//! probes under the filter's power-of-two mask.
//!
//! Concurrency: every cached foreground read records an access, so the
//! hitset must not serialize the read path. The ring sits behind a
//! `RwLock`: recording into (or counting against) an interval the ring
//! already holds needs only the read lock, since the filter sets its bits
//! with atomic ORs. The write lock is taken only to roll the ring forward
//! when an access lands in a new interval — once per `interval_secs` of
//! virtual time, not per op — and the roll is re-checked under it, so
//! racing calls resolve exactly as some sequential order of them would.

use dedup_fingerprint::Fingerprint;
use dedup_placement::hash::xxh64;
use dedup_sim::SimTime;
use parking_lot::RwLock;

use crate::bloom::{BloomConfig, BloomFilter};
use crate::config::HitSetConfig;

/// The ring of per-interval filters.
#[derive(Debug)]
struct Ring {
    /// `(interval index, filter)` per slot.
    slots: Vec<(u64, BloomFilter)>,
    head_interval: u64,
}

impl Ring {
    fn new(config: &HitSetConfig) -> Self {
        let filter = BloomConfig {
            bits: config.bloom_bits,
            probes: 4,
        };
        Ring {
            slots: (0..config.intervals)
                .map(|i| (i as u64, BloomFilter::with_config(filter)))
                .collect(),
            head_interval: 0,
        }
    }

    /// Moves the head to `interval`, clearing and relabelling the slot of
    /// each interval passed. A roll of more than one lap of the ring ends
    /// the same as one lap does, so at most one lap is rolled.
    fn roll_to(&mut self, interval: u64) {
        let len = self.slots.len() as u64;
        for i in self.head_interval.max(interval.saturating_sub(len)) + 1..=interval {
            let slot = &mut self.slots[(i % len) as usize];
            slot.0 = i;
            slot.1.clear();
        }
        self.head_interval = self.head_interval.max(interval);
    }

    /// Records `probes` in `interval` without rolling; `false` when the
    /// ring must first roll forward.
    fn record(&self, probes: &Fingerprint, interval: u64) -> bool {
        if interval > self.head_interval {
            return false;
        }
        // An interval that rolled out of the ring is dropped: its slot now
        // holds a newer interval, which a late access must not count in.
        let (held, filter) = &self.slots[(interval as usize) % self.slots.len()];
        if *held == interval {
            filter.insert(probes);
        }
        true
    }

    /// Counts retained intervals up to `interval` that hold `probes`;
    /// `None` when the ring must first roll forward.
    fn count(&self, probes: &Fingerprint, interval: u64) -> Option<u32> {
        if interval > self.head_interval {
            return None;
        }
        let oldest = interval.saturating_sub(self.slots.len() as u64 - 1);
        Some(
            self.slots
                .iter()
                .filter(|(i, f)| *i >= oldest && *i <= interval && f.may_contain(probes))
                .count() as u32,
        )
    }
}

/// Rolling window of per-interval Bloom filters, shared by concurrent
/// callers (see the module docs).
#[derive(Debug)]
pub struct HitSet {
    config: HitSetConfig,
    ring: RwLock<Ring>,
}

impl HitSet {
    /// Creates a hitset from configuration.
    ///
    /// # Panics
    ///
    /// Panics if `config.interval_secs` or `config.intervals` is zero: a
    /// zero-width interval has no index and an empty ring has no slot.
    pub fn new(config: HitSetConfig) -> Self {
        assert!(
            config.interval_secs > 0,
            "hitset interval_secs must be positive"
        );
        assert!(config.intervals > 0, "hitset intervals must be positive");
        HitSet {
            ring: RwLock::new(Ring::new(&config)),
            config,
        }
    }

    fn interval_of(&self, now: SimTime) -> u64 {
        now.as_nanos() / (self.config.interval_secs * 1_000_000_000)
    }

    /// The four probe positions of `key`, as the filter's four lanes.
    fn probes(key: &[u8]) -> Fingerprint {
        let h1 = xxh64(key, 0x9E37_79B9_7F4A_7C15);
        let h2 = xxh64(key, 0xC2B2_AE3D_27D4_EB4F) | 1;
        Fingerprint(std::array::from_fn(|i| {
            h1.wrapping_add(h2.wrapping_mul(i as u64))
        }))
    }

    /// Records an access to `key` at `now`.
    pub fn access(&self, key: &[u8], now: SimTime) {
        let (probes, interval) = (Self::probes(key), self.interval_of(now));
        if self.ring.read().record(&probes, interval) {
            return;
        }
        let mut ring = self.ring.write();
        ring.roll_to(interval);
        ring.record(&probes, interval);
    }

    /// Number of retained intervals in which `key` was (probably) accessed.
    pub fn hit_count(&self, key: &[u8], now: SimTime) -> u32 {
        let (probes, interval) = (Self::probes(key), self.interval_of(now));
        if let Some(count) = self.ring.read().count(&probes, interval) {
            return count;
        }
        let mut ring = self.ring.write();
        ring.roll_to(interval);
        ring.count(&probes, interval)
            .expect("ring rolled to the access interval")
    }

    /// Whether `key` is hot at `now` per the configured threshold.
    pub fn is_hot(&self, key: &[u8], now: SimTime) -> bool {
        self.hit_count(key, now) >= self.config.hit_count
    }

    /// Forgets every access: the ring returns to its state at
    /// construction.
    pub fn clear(&self) {
        *self.ring.write() = Ring::new(&self.config);
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
    #[should_panic(expected = "hitset interval_secs must be positive")]
    fn zero_width_interval_is_refused_when_the_store_is_built() {
        use crate::config::DedupConfig;
        use crate::engine::DedupStore;
        let config = DedupConfig {
            hitset: HitSetConfig {
                interval_secs: 0,
                ..HitSetConfig::default()
            },
            ..DedupConfig::default()
        };
        let _ = DedupStore::with_default_pools(dedup_store::ClusterBuilder::new().build(), config);
    }

    #[test]
    #[should_panic(expected = "hitset intervals must be positive")]
    fn empty_ring_is_refused_when_the_store_is_built() {
        use crate::config::DedupConfig;
        use crate::engine::DedupStore;
        let config = DedupConfig {
            hitset: HitSetConfig {
                intervals: 0,
                ..HitSetConfig::default()
            },
            ..DedupConfig::default()
        };
        let _ = DedupStore::with_default_pools(dedup_store::ClusterBuilder::new().build(), config);
    }

    #[test]
    fn single_access_is_not_hot() {
        let h = HitSet::new(config());
        h.access(b"obj", SimTime::from_secs(0));
        assert!(!h.is_hot(b"obj", SimTime::from_secs(0)));
        assert_eq!(h.hit_count(b"obj", SimTime::from_secs(0)), 1);
    }

    #[test]
    fn repeated_access_across_intervals_is_hot() {
        let h = HitSet::new(config());
        h.access(b"obj", SimTime::from_secs(0));
        h.access(b"obj", SimTime::from_secs(1));
        assert!(h.is_hot(b"obj", SimTime::from_secs(1)));
    }

    #[test]
    fn heat_decays_as_intervals_roll_out() {
        let h = HitSet::new(config());
        h.access(b"obj", SimTime::from_secs(0));
        h.access(b"obj", SimTime::from_secs(1));
        assert!(h.is_hot(b"obj", SimTime::from_secs(2)));
        // 4 retained intervals: by t=10 both hits rolled out.
        assert!(!h.is_hot(b"obj", SimTime::from_secs(10)));
        assert_eq!(h.hit_count(b"obj", SimTime::from_secs(10)), 0);
    }

    #[test]
    fn accesses_within_one_interval_count_once() {
        let h = HitSet::new(config());
        for _ in 0..50 {
            h.access(b"obj", SimTime::from_nanos(100));
        }
        assert_eq!(h.hit_count(b"obj", SimTime::from_nanos(200)), 1);
    }

    #[test]
    fn late_access_to_a_rolled_out_interval_is_dropped() {
        // 90 s shares a ring slot with 98 s once the head reaches 100 s;
        // the late access must not count as a hit in the newer interval.
        let h = HitSet::new(config());
        h.access(b"obj", SimTime::from_secs(100));
        h.access(b"obj", SimTime::from_secs(90));
        assert_eq!(h.hit_count(b"obj", SimTime::from_secs(100)), 1);
        assert!(!h.is_hot(b"obj", SimTime::from_secs(100)));
    }

    /// The first access stamped far ahead (a Unix-epoch clock, say) rolls
    /// one lap of the ring, not one step per elapsed interval.
    #[test]
    fn a_far_jump_rolls_one_lap() {
        let h = HitSet::new(HitSetConfig::default());
        h.access(b"obj", SimTime::ZERO);
        let start = std::time::Instant::now();
        assert_eq!(h.hit_count(b"obj", SimTime::from_secs(1 << 24)), 0);
        assert!(
            start.elapsed() < std::time::Duration::from_secs(1),
            "rolled for {:?}",
            start.elapsed()
        );
        h.access(b"obj", SimTime::from_secs(1 << 24));
        h.access(b"obj", SimTime::from_secs((1 << 24) + 1));
        assert_eq!(h.hit_count(b"obj", SimTime::from_secs((1 << 24) + 1)), 2);
    }

    #[test]
    fn distinct_objects_do_not_interfere() {
        let h = HitSet::new(config());
        h.access(b"a", SimTime::from_secs(0));
        h.access(b"a", SimTime::from_secs(1));
        assert!(h.is_hot(b"a", SimTime::from_secs(1)));
        assert!(!h.is_hot(b"b", SimTime::from_secs(1)));
    }

    #[test]
    fn clear_forgets_every_access() {
        let h = HitSet::new(config());
        h.access(b"obj", SimTime::from_secs(5));
        h.access(b"obj", SimTime::from_secs(6));
        h.clear();
        // The head is back at interval 0: an access at 0 s counts again.
        h.access(b"obj", SimTime::from_secs(0));
        assert_eq!(h.hit_count(b"obj", SimTime::from_secs(0)), 1);
        assert_eq!(h.hit_count(b"obj", SimTime::from_secs(6)), 0);
    }

    #[test]
    fn concurrent_accesses_all_land() {
        let s = std::sync::Arc::new(HitSet::new(HitSetConfig {
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
            let h = HitSet::new(config);
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
    }
}
