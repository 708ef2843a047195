//! Property-based integration tests: the dedup store must behave exactly
//! like a plain byte-array model under arbitrary write/flush/read
//! interleavings, and core codecs must round-trip arbitrary data.

use std::collections::HashMap;

use global_dedup::core::{CachePolicy, DedupConfig, DedupStore};
use global_dedup::sim::SimTime;
use global_dedup::store::{ClientId, ClusterBuilder, ObjectName};
use proptest::prelude::*;

const CS: u32 = 4 * 1024;
const OBJECTS: usize = 4;
const MAX_OBJECT: usize = 32 * 1024;

/// One step of the randomized scenario.
#[derive(Debug, Clone)]
enum Step {
    Write {
        obj: usize,
        offset: usize,
        len: usize,
        fill: u8,
    },
    FlushAll,
    FlushOne {
        obj: usize,
    },
    Read {
        obj: usize,
        offset: usize,
        len: usize,
    },
    Delete {
        obj: usize,
    },
}

fn step_strategy() -> impl Strategy<Value = Step> {
    prop_oneof![
        4 => (0..OBJECTS, 0..MAX_OBJECT - 1, 1..8 * 1024usize, any::<u8>()).prop_map(
            |(obj, offset, len, fill)| Step::Write {
                obj,
                offset,
                len: len.min(MAX_OBJECT - offset),
                fill,
            }
        ),
        1 => Just(Step::FlushAll),
        1 => (0..OBJECTS).prop_map(|obj| Step::FlushOne { obj }),
        3 => (0..OBJECTS, 0..MAX_OBJECT - 1, 1..8 * 1024usize).prop_map(
            |(obj, offset, len)| Step::Read {
                obj,
                offset,
                len: len.min(MAX_OBJECT - offset),
            }
        ),
        1 => (0..OBJECTS).prop_map(|obj| Step::Delete { obj }),
    ]
}

fn name(obj: usize) -> ObjectName {
    ObjectName::new(format!("prop-{obj}"))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// The dedup store agrees with a plain in-memory model through any
    /// sequence of writes, flushes, reads, and deletes.
    #[test]
    fn store_matches_reference_model(steps in proptest::collection::vec(step_strategy(), 1..60)) {
        let cluster = ClusterBuilder::new().nodes(4).osds_per_node(2).build();
        let store = DedupStore::with_default_pools(
            cluster,
            DedupConfig::with_chunk_size(CS).cache_policy(CachePolicy::EvictAll),
        );
        let mut model: HashMap<usize, Vec<u8>> = HashMap::new();
        let mut now = 0u64;
        for step in steps {
            now += 10; // keep hitset heat decaying so flushes proceed
            let t = SimTime::from_secs(now);
            match step {
                Step::Write { obj, offset, len, fill } => {
                    let data = vec![fill; len];
                    let _ = store.write(ClientId(0), &name(obj), offset as u64, &data, t)
                        .expect("write");
                    let m = model.entry(obj).or_default();
                    if m.len() < offset + len {
                        m.resize(offset + len, 0);
                    }
                    m[offset..offset + len].copy_from_slice(&data);
                }
                Step::FlushAll => {
                    let _ = store.flush_all(t).expect("flush");
                }
                Step::FlushOne { obj } => {
                    if model.contains_key(&obj) {
                        let _ = store.flush_object(&name(obj), t).expect("flush one");
                    }
                }
                Step::Read { obj, offset, len } => {
                    match model.get(&obj) {
                        Some(m) if offset + len <= m.len() => {
                            let r = store
                                .read(ClientId(0), &name(obj), offset as u64, len as u64, t)
                                .expect("read");
                            prop_assert_eq!(&r.value, &m[offset..offset + len]);
                        }
                        _ => {
                            // Out of range or missing: the store must refuse.
                            prop_assert!(store
                                .read(ClientId(0), &name(obj), offset as u64, len as u64, t)
                                .is_err());
                        }
                    }
                }
                Step::Delete { obj } => {
                    let _ = store.delete(ClientId(0), &name(obj)).expect("delete");
                    model.remove(&obj);
                }
            }
        }
        // Converge and verify everything end-state.
        let _ = store.flush_all(SimTime::from_secs(now + 100)).expect("final flush");
        for (obj, m) in &model {
            let r = store
                .read(ClientId(0), &name(*obj), 0, m.len() as u64, SimTime::from_secs(now + 200))
                .expect("final read");
            prop_assert_eq!(&r.value, m);
        }
        // No dangling chunks: delete everything, chunk pool must empty.
        for obj in model.keys().copied().collect::<Vec<_>>() {
            let _ = store.delete(ClientId(0), &name(obj)).expect("cleanup");
        }
        prop_assert_eq!(store.space_report().expect("report").chunk_objects, 0);
    }

    /// Erasure round trip for arbitrary data and any recoverable erasure
    /// pattern.
    #[test]
    fn erasure_round_trips(
        data in proptest::collection::vec(any::<u8>(), 1..4096),
        k in 1usize..5,
        m in 1usize..4,
        kill in proptest::collection::vec(any::<u16>(), 0..3),
    ) {
        let rs = global_dedup::erasure::ReedSolomon::new(k, m).expect("codec");
        let shards = rs.encode_object(&data).expect("encode");
        let mut partial: Vec<Option<Vec<u8>>> = shards.into_iter().map(Some).collect();
        let mut killed = 0usize;
        for k_idx in kill {
            let idx = k_idx as usize % partial.len();
            if partial[idx].is_some() && killed < m {
                partial[idx] = None;
                killed += 1;
            }
        }
        let got = rs.decode_object(partial, data.len()).expect("decode");
        prop_assert_eq!(got, data);
    }

    /// Compression round trip for arbitrary bytes.
    #[test]
    fn compression_round_trips(data in proptest::collection::vec(any::<u8>(), 0..16384)) {
        let packed = global_dedup::compress::compress(&data);
        let got = global_dedup::compress::decompress(&packed).expect("decompress");
        prop_assert_eq!(got, data);
    }

    /// Fixed chunking exactly tiles any input.
    #[test]
    fn chunking_tiles(len in 0usize..100_000, cs in 1u32..65536) {
        use global_dedup::chunk::{Chunker, FixedChunker};
        let data = vec![0u8; len];
        let spans = FixedChunker::new(cs).chunks(&data);
        let mut expect = 0u64;
        for s in &spans {
            prop_assert_eq!(s.offset, expect);
            prop_assert!(s.len > 0);
            expect = s.end();
        }
        prop_assert_eq!(expect, len as u64);
    }

    /// Placement always returns distinct devices and is deterministic.
    #[test]
    fn placement_is_sane(names in proptest::collection::vec("[a-z0-9]{1,20}", 1..50)) {
        use global_dedup::placement::{ClusterMap, PgMap, PlacementRule, PoolId};
        let mut map = ClusterMap::new();
        for _ in 0..4 {
            let n = map.add_node();
            for _ in 0..4 {
                map.add_osd(n, 1.0);
            }
        }
        let pgs = PgMap::new(PoolId(1), 64);
        let rule = PlacementRule::spread_nodes(3);
        for name in &names {
            let pg = pgs.pg_of(name.as_bytes());
            let a = map.acting_set(pg, &rule);
            let b = map.acting_set(pg, &rule);
            prop_assert_eq!(&a, &b);
            let mut uniq = a.clone();
            uniq.sort();
            uniq.dedup();
            prop_assert_eq!(uniq.len(), a.len());
        }
    }
}
