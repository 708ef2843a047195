//! Pins the exact bits the two Bloom-keyed structures set and the exact
//! answers the HitSet gives, so a refactor of either can prove it changed
//! no bit.
//!
//! - The chunk-index gate ([`BloomFilter`]) is read bit by bit: a
//!   fingerprint whose four lanes are all `b` probes bit `b` alone.
//! - The HitSet's per-interval filter is keyed by object name with xxh64
//!   double hashing. Its set bits are computed here from that formula,
//!   pinned as literals, and checked against the HitSet's own membership
//!   answers for thousands of probe names.
//! - A scripted access sequence that crosses interval rolls, a late access
//!   still inside the ring and a late access that rolled out pins every
//!   hit count and hot/cold answer along the way.

use dedup_core::bloom::{BloomConfig, BloomFilter};
use dedup_core::{HitSet, HitSetConfig};
use dedup_fingerprint::Fingerprint;
use dedup_placement::hash::xxh64;
use dedup_sim::SimTime;

/// Every bit of `f` that is set, read through single-bit probes.
fn set_bits(f: &BloomFilter) -> Vec<u64> {
    (0..f.bits())
        .filter(|&b| f.may_contain(&Fingerprint([b; 4])))
        .collect()
}

#[test]
fn fingerprint_filter_sets_pinned_bits() {
    let f = BloomFilter::with_config(BloomConfig {
        bits: 256,
        probes: 4,
    });
    assert!(set_bits(&f).is_empty());
    for i in 0..6u32 {
        f.insert(&Fingerprint::of(format!("pin-{i}").as_bytes()));
    }
    assert_eq!(
        set_bits(&f),
        vec![
            29, 38, 39, 46, 71, 82, 99, 109, 124, 134, 140, 153, 155, 165, 170, 181, 188, 189, 190,
            205, 208, 215, 223
        ]
    );
}

#[test]
fn fingerprint_filter_pins_the_default_sizing() {
    let f = BloomFilter::with_config(BloomConfig::default());
    let fp = Fingerprint::of(b"default-pin");
    f.insert(&fp);
    assert_eq!(f.bits(), 1 << 21);
    let lanes: Vec<u64> = fp.0.iter().map(|l| l & ((1 << 21) - 1)).collect();
    assert_eq!(lanes, vec![1_380_439, 1_083_669, 67_412, 1_055_429]);
    for &b in &lanes {
        assert!(f.may_contain(&Fingerprint([b; 4])), "bit {b} not set");
    }
    assert!(f.may_contain(&fp));
}

/// The HitSet's four probe positions for `key` in a `bits`-bit filter:
/// xxh64 double hashing, `h1 + i*h2` under the power-of-two mask.
fn name_positions(key: &[u8], bits: u64) -> Vec<u64> {
    let h1 = xxh64(key, 0x9E37_79B9_7F4A_7C15);
    let h2 = xxh64(key, 0xC2B2_AE3D_27D4_EB4F) | 1;
    (0..4u64)
        .map(|i| h1.wrapping_add(h2.wrapping_mul(i)) & (bits - 1))
        .collect()
}

#[test]
fn name_filter_sets_pinned_bits() {
    const BITS: u64 = 64;
    // One retained interval: a hit count of 1 is filter membership.
    let h = &mut HitSet::new(HitSetConfig {
        interval_secs: 1,
        intervals: 1,
        hit_count: 1,
        bloom_bits: BITS as usize,
    });
    let now = SimTime::ZERO;
    let names: Vec<String> = (0..3).map(|i| format!("obj-{i}")).collect();
    for n in &names {
        h.access(n.as_bytes(), now);
    }
    let mut set: Vec<u64> = names
        .iter()
        .flat_map(|n| name_positions(n.as_bytes(), BITS))
        .collect();
    set.sort_unstable();
    set.dedup();
    assert_eq!(set, vec![3, 8, 15, 19, 29, 34, 41, 46, 56, 57, 60, 62]);
    let mut hits = 0;
    for j in 0..8192 {
        let probe = format!("probe-{j}");
        let expect = name_positions(probe.as_bytes(), BITS)
            .iter()
            .all(|p| set.contains(p));
        assert_eq!(
            h.hit_count(probe.as_bytes(), now),
            u32::from(expect),
            "probe {probe}"
        );
        hits += u32::from(expect);
    }
    assert_eq!(hits, 21);
    for n in &names {
        assert!(h.is_hot(n.as_bytes(), now));
    }
}

enum Step {
    Access(&'static str, u64),
    Query(&'static str, u64),
}

/// Runs `script` (times in milliseconds) and returns `(hit_count, is_hot)`
/// for every query.
fn run(h: &mut HitSet, script: &[Step]) -> Vec<(u32, bool)> {
    let at = |ms: u64| SimTime::from_nanos(ms * 1_000_000);
    let mut out = Vec::new();
    for step in script {
        match *step {
            Step::Access(key, ms) => h.access(key.as_bytes(), at(ms)),
            Step::Query(key, ms) => out.push((
                h.hit_count(key.as_bytes(), at(ms)),
                h.is_hot(key.as_bytes(), at(ms)),
            )),
        }
    }
    out
}

#[test]
fn scripted_accesses_pin_hit_counts_and_heat() {
    use Step::{Access, Query};
    let mut h = HitSet::new(HitSetConfig {
        interval_secs: 1,
        intervals: 4,
        hit_count: 2,
        bloom_bits: 1 << 12,
    });
    let script = [
        Access("a", 0),
        Query("a", 0),
        Access("a", 500),
        Query("a", 999),
        // First roll.
        Access("a", 1_000),
        Query("a", 1_000),
        Access("b", 1_500),
        Query("b", 1_500),
        // Late, but interval 0 is still in the ring.
        Access("b", 200),
        Query("b", 1_500),
        // A query alone rolls the ring two intervals on.
        Query("a", 3_000),
        Access("c", 3_000),
        Access("a", 6_500),
        Query("a", 6_500),
        // Late: interval 2 rolled out, its slot holds interval 6.
        Access("c", 2_000),
        Query("c", 6_500),
        Access("b", 4_000),
        Query("b", 6_500),
        Access("c", 5_999),
        Query("c", 6_500),
        Query("a", 20_000),
        // Behind the head: nothing of intervals 3..=6 is retained.
        Query("a", 6_500),
        Access("d", 20_000),
        Access("d", 19_000),
        Query("d", 20_000),
        Query("unseen", 20_000),
    ];
    assert_eq!(
        run(&mut h, &script),
        vec![
            (1, false),
            (1, false),
            (2, true),
            (1, false),
            (2, true),
            (2, true),
            (1, false),
            (1, false),
            (1, false),
            (2, true),
            (0, false),
            (0, false),
            (2, true),
            (0, false),
        ]
    );
}
