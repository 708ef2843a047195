//! Multi-threaded stress test for [`DedupService`]: writer threads,
//! reader threads, a delete/truncate churn mix, and the background flush
//! worker race across the sharded foreground data plane. The worker's
//! passes take the store lock's read side like foreground ops, and each
//! pass stages and commits an object under that object's shard lock only.
//! The invariants:
//!
//! - no deadlock or worker livelock (the test terminates),
//! - read-your-writes holds for objects a thread owns exclusively —
//!   including immediately after truncate and delete,
//! - concurrent whole-object overwrites are atomic (readers only ever see
//!   one writer's fill pattern, never a mix),
//! - the background worker hits no engine errors, and
//! - after settling, every chunk reference resolves
//!   ([`DedupStore::verify_references`] is clean) and nothing is dirty.
//!
//! Shard routing itself is covered by a proptest below: it must be a pure
//! function of the object name.
//!
//! A second regime hammers ONE object — the worst case for the
//! reader-writer shard plane, where every op maps to the same lock — with
//! eight concurrent readers, one writer, and racing background ticks:
//! reads must be torn-free and the writer keeps read-your-writes even
//! while sharing its shard's lock with readers. A proptest additionally
//! checks that concurrent same-shard readers all see identical bytes.
//!
//! A third regime races two `&self` flushers on one store whose objects
//! share content, classic and tiered: reads stay byte-exact, nothing
//! dangles or leaks, and the store ends with as many chunk objects as one
//! serial `flush_all` leaves — the flush mutex keeps a tiered signature
//! miss a proof of uniqueness.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use global_dedup::core::{shard_index, CachePolicy, DedupConfig, DedupService, DedupStore};
use global_dedup::sim::SimTime;
use global_dedup::store::{ClientId, ClusterBuilder, ObjectName};
use proptest::prelude::*;

const CS: u32 = 8 * 1024;
const OBJECT_BYTES: usize = 2 * CS as usize;
const WRITERS: u32 = 8;
const ROUNDS: usize = 12;
const SHARED_OBJECTS: usize = 3;
const SHARDS: usize = 4;

fn patterned(len: usize, seed: u64) -> Vec<u8> {
    let mut state = seed | 1;
    (0..len)
        .map(|_| {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
            (state >> 33) as u8
        })
        .collect()
}

#[test]
fn writers_readers_and_flusher_race_without_corruption() {
    let cluster = ClusterBuilder::new().nodes(4).osds_per_node(2).build();
    // Hotness-aware policy + small batches + a 2-wide fingerprint pool:
    // the worker keeps skipping the hammered shared objects (exercising
    // the no-progress tick break) while cold private objects flush
    // through the staged pipeline under racing foreground mutations.
    // Four namespace shards force eight writers to collide pairwise on
    // shard locks while distinct shards proceed in parallel.
    let config = DedupConfig::with_chunk_size(CS)
        .flush_batch_size(4)
        .flush_parallelism(2)
        .foreground_shards(SHARDS);
    let svc = Arc::new(DedupService::start(DedupStore::with_default_pools(
        cluster, config,
    )));

    let mut handles = Vec::new();

    // Writers: exclusive objects (read-your-writes asserted inline) plus
    // shared objects everyone overwrites with their own uniform fill,
    // plus an exclusively-owned churn object cycling through
    // write → truncate-shrink → zero-extend → delete.
    for t in 0..WRITERS {
        let svc = Arc::clone(&svc);
        handles.push(std::thread::spawn(move || {
            for round in 0..ROUNDS {
                let now = SimTime::from_secs((round * WRITERS as usize + t as usize) as u64);
                let private = ObjectName::new(format!("private-{t}-{}", round % 3));
                let data = patterned(OBJECT_BYTES, (t as u64) << 32 | round as u64);
                let _ = svc
                    .write(ClientId(t), &private, 0, &data, now)
                    .expect("private write");
                let r = svc
                    .read(ClientId(t), &private, 0, OBJECT_BYTES as u64, now)
                    .expect("read own write");
                assert_eq!(r.value, data, "read-your-writes violated");

                // Churn object: truncate and delete race the background
                // ticks and other shards' foreground ops.
                let churn = ObjectName::new(format!("churn-{t}"));
                let _ = svc
                    .write(ClientId(t), &churn, 0, &data, now)
                    .expect("churn write");
                match round % 4 {
                    1 => {
                        let _ = svc
                            .truncate(ClientId(t), &churn, CS as u64, now)
                            .expect("churn shrink");
                        let r = svc
                            .read(ClientId(t), &churn, 0, CS as u64, now)
                            .expect("read after shrink");
                        assert_eq!(r.value, data[..CS as usize], "shrink lost the prefix");
                    }
                    2 => {
                        let _ = svc
                            .truncate(
                                ClientId(t),
                                &churn,
                                (OBJECT_BYTES + CS as usize) as u64,
                                now,
                            )
                            .expect("churn zero-extend");
                        let r = svc
                            .read(ClientId(t), &churn, OBJECT_BYTES as u64, CS as u64, now)
                            .expect("read extended tail");
                        assert_eq!(r.value, vec![0u8; CS as usize], "extension tail not zero");
                    }
                    3 => {
                        let _ = svc.delete(ClientId(t), &churn).expect("churn delete");
                        assert!(
                            svc.read(ClientId(t), &churn, 0, 1, now).is_err(),
                            "deleted object still readable"
                        );
                    }
                    _ => {}
                }

                let shared = ObjectName::new(format!("shared-{}", round % SHARED_OBJECTS));
                let fill = vec![t as u8 + 1; OBJECT_BYTES];
                let _ = svc
                    .write(ClientId(t), &shared, 0, &fill, now)
                    .expect("shared write");
            }
        }));
    }

    // Readers: shared objects must always read as one uniform fill —
    // whole-object writes are atomic under their shard lock, and a flush
    // committing a stale staged snapshot would tear that.
    for t in 0..2u32 {
        let svc = Arc::clone(&svc);
        handles.push(std::thread::spawn(move || {
            for round in 0..ROUNDS * 2 {
                let name = ObjectName::new(format!("shared-{}", round % SHARED_OBJECTS));
                let now = SimTime::from_secs(100 + round as u64);
                match svc.read(ClientId(100 + t), &name, 0, OBJECT_BYTES as u64, now) {
                    Ok(r) => {
                        let first = r.value[0];
                        assert!(
                            r.value.iter().all(|&b| b == first),
                            "torn read: mixed fills in one object"
                        );
                        assert!(
                            (1..=WRITERS as u8).contains(&first),
                            "fill byte from no known writer"
                        );
                    }
                    Err(_) => {
                        // Not written yet; fine.
                    }
                }
            }
        }));
    }

    // The background worker races everything above.
    for round in 0..ROUNDS * 4 {
        svc.tick(SimTime::from_secs(round as u64));
    }

    for h in handles {
        h.join().expect("stress thread");
    }
    svc.tick(SimTime::from_secs(10_000));
    svc.drain();
    assert_eq!(svc.worker_errors(), 0, "background worker hit errors");

    // Settle: flush everything (hotness ignored), then audit.
    svc.with_store(|s| {
        let _ = s.flush_all(SimTime::from_secs(20_000)).expect("settle");
        assert_eq!(s.dirty_len(), 0, "queue drained");
        assert!(
            s.verify_references().expect("scrub").is_empty(),
            "dangling chunk references after the race"
        );
    });

    // Every object still reads back whole and uniform/consistent.
    for t in 0..WRITERS {
        for slot in 0..3 {
            let name = ObjectName::new(format!("private-{t}-{slot}"));
            let r = svc
                .read(
                    ClientId(t),
                    &name,
                    0,
                    OBJECT_BYTES as u64,
                    SimTime::from_secs(30_000),
                )
                .expect("read after settle");
            assert_eq!(r.value.len(), OBJECT_BYTES);
        }
    }
    // Every foreground op went through one of the configured shards, and
    // their per-shard counters account for all of them.
    svc.with_store(|s| {
        assert_eq!(s.shard_count(), SHARDS);
        let total: u64 = (0..SHARDS)
            .map(|i| {
                s.registry()
                    .counter_with("service.shard.ops", &[("shard", &i.to_string())])
                    .get()
            })
            .sum();
        assert!(total > 0, "shard op counters never moved");
    });
    let store = Arc::try_unwrap(svc)
        .unwrap_or_else(|_| panic!("handles leaked"))
        .shutdown();
    assert_eq!(
        store.stats().writes as usize,
        WRITERS as usize * ROUNDS * 3,
        "every write accounted for"
    );
}

/// The skewed-serving worst case: every op lands on ONE object, so the
/// entire load funnels through a single shard lock. Eight readers spin on
/// the hot object while one writer overwrites it with successive uniform
/// fills and the main thread races background ticks. Shared-mode reads
/// must never observe a torn fill, the writer must read its own writes
/// back, and the settled store must audit clean.
#[test]
fn hot_object_readers_race_one_writer() {
    const READERS: u32 = 8;
    const HOT_ROUNDS: usize = 48;

    let cluster = ClusterBuilder::new().nodes(4).osds_per_node(2).build();
    let config = DedupConfig::with_chunk_size(CS)
        .flush_batch_size(4)
        .flush_parallelism(2)
        .foreground_shards(SHARDS);
    let svc = Arc::new(DedupService::start(DedupStore::with_default_pools(
        cluster, config,
    )));
    let hot = ObjectName::new("hot");
    let _ = svc
        .write(ClientId(0), &hot, 0, [1u8; OBJECT_BYTES], SimTime::ZERO)
        .expect("seed the hot object");

    let stop = Arc::new(AtomicBool::new(false));
    let mut handles = Vec::new();
    for t in 0..READERS {
        let svc = Arc::clone(&svc);
        let stop = Arc::clone(&stop);
        handles.push(std::thread::spawn(move || {
            let mut reads = 0u64;
            while !stop.load(Ordering::Relaxed) {
                let r = svc
                    .read(
                        ClientId(10 + t),
                        &ObjectName::new("hot"),
                        0,
                        OBJECT_BYTES as u64,
                        SimTime::from_secs(reads),
                    )
                    .expect("hot read");
                let first = r.value[0];
                assert!(
                    r.value.iter().all(|&b| b == first),
                    "torn read on the hot object"
                );
                assert!(first >= 1, "fill byte from no known writer");
                reads += 1;
            }
            reads
        }));
    }

    let writer = {
        let svc = Arc::clone(&svc);
        let stop = Arc::clone(&stop);
        std::thread::spawn(move || {
            let hot = ObjectName::new("hot");
            for round in 0..HOT_ROUNDS {
                let fill = vec![(round % 250) as u8 + 1; OBJECT_BYTES];
                let now = SimTime::from_secs(round as u64);
                let _ = svc
                    .write(ClientId(0), &hot, 0, &fill, now)
                    .expect("hot write");
                let r = svc
                    .read(ClientId(0), &hot, 0, OBJECT_BYTES as u64, now)
                    .expect("writer read-back");
                assert_eq!(r.value, fill, "writer lost read-your-writes");
            }
            stop.store(true, Ordering::Relaxed);
        })
    };

    // Background ticks race the hot-object storm.
    for round in 0..HOT_ROUNDS {
        svc.tick(SimTime::from_secs(round as u64));
    }

    writer.join().expect("writer thread");
    let total_reads: u64 = handles
        .into_iter()
        .map(|h| h.join().expect("reader thread"))
        .sum();
    assert!(total_reads > 0, "readers never ran");

    svc.tick(SimTime::from_secs(10_000));
    svc.drain();
    assert_eq!(svc.worker_errors(), 0, "background worker hit errors");
    svc.with_store(|s| {
        let _ = s.flush_all(SimTime::from_secs(20_000)).expect("settle");
        assert_eq!(s.dirty_len(), 0, "queue drained");
        assert!(
            s.verify_references().expect("scrub").is_empty(),
            "dangling chunk references after the hot-object race"
        );
    });
    let r = svc
        .read(
            ClientId(0),
            &hot,
            0,
            OBJECT_BYTES as u64,
            SimTime::from_secs(30_000),
        )
        .expect("read after settle");
    assert_eq!(
        r.value,
        vec![(HOT_ROUNDS - 1) as u8 % 250 + 1; OBJECT_BYTES],
        "last write did not win"
    );
}

/// Sharding is a wall-clock device only: one op list — every object
/// owned by one client, duplicates across owners — replayed from a single
/// thread and from four concurrent threads must leave the same engine
/// counters and the same stored space once flushed. Threads start on a
/// barrier so the four-way run really overlaps.
#[test]
fn thread_count_changes_neither_stats_nor_space() {
    const CLIENTS: usize = 4;
    const OBJECTS_PER_CLIENT: usize = 6;
    const PASSES: usize = 3;

    // One client's ops, in order: write a block drawn from a small seed
    // space (so chunks dedup across owners), read it back.
    fn client_ops(svc: &DedupService, client: usize) {
        for pass in 0..PASSES {
            for obj in 0..OBJECTS_PER_CLIENT {
                let name = ObjectName::new(format!("c{client}-o{obj}"));
                let data = patterned(OBJECT_BYTES, ((client + obj + pass) % 5) as u64);
                let id = ClientId(client as u32);
                let _ = svc
                    .write(id, &name, 0, &data, SimTime::ZERO)
                    .expect("write");
                let r = svc
                    .read(id, &name, 0, OBJECT_BYTES as u64, SimTime::ZERO)
                    .expect("read back");
                assert_eq!(r.value, data);
            }
        }
    }

    let run = |threads: usize| {
        let cluster = ClusterBuilder::new().nodes(4).osds_per_node(2).build();
        let config = DedupConfig::with_chunk_size(CS)
            .cache_policy(CachePolicy::EvictAll)
            .foreground_shards(SHARDS);
        let svc = DedupService::start(DedupStore::with_default_pools(cluster, config));
        let barrier = std::sync::Barrier::new(threads);
        std::thread::scope(|scope| {
            for t in 0..threads {
                let (svc, barrier) = (&svc, &barrier);
                scope.spawn(move || {
                    barrier.wait();
                    for client in (t..CLIENTS).step_by(threads) {
                        client_ops(svc, client);
                    }
                });
            }
        });
        assert_eq!(svc.worker_errors(), 0);
        let store = svc.shutdown();
        let _ = store.flush_all(SimTime::from_secs(3600)).expect("flush");
        assert!(store.verify_references().expect("scrub").is_empty());
        (store.stats(), store.space_report().expect("space report"))
    };

    let (serial, parallel) = (run(1), run(CLIENTS));
    assert_eq!(
        serial.0.writes as usize,
        CLIENTS * OBJECTS_PER_CLIENT * PASSES
    );
    assert!(serial.1.chunk_objects > 0 && serial.1.chunk_bytes < serial.1.logical_bytes);
    assert_eq!(serial, parallel);
}

/// Two flushers — one ticking, one flushing everything — race a reader on
/// one store, in several fresh rounds. Adjacent objects hold the same
/// content, unique to the pair, so the two flushers keep committing the
/// first copy of a content side by side: the flush mutex must serialise
/// their passes so that no content is stored twice.
#[test]
fn racing_flushers_store_each_content_once() {
    const OBJECTS: usize = 64;
    const CHUNKS: usize = 2;
    const RACES: usize = 8;
    // `patterned` ignores the seed's low bit, hence the shift.
    let content = |obj: usize| -> Vec<u8> {
        (0..CHUNKS)
            .flat_map(|c| patterned(CS as usize, ((obj / 2 * CHUNKS + c) as u64) << 1))
            .collect()
    };
    let name = |obj: usize| ObjectName::new(format!("obj-{obj}"));
    let now = SimTime::from_secs(3600);
    let assert_reads = |s: &DedupStore| {
        for obj in 0..OBJECTS {
            let r = s
                .read(ClientId(9), &name(obj), 0, (CHUNKS as u64) * CS as u64, now)
                .expect("read");
            assert_eq!(r.value, content(obj), "obj-{obj} not byte-exact");
        }
    };
    for tiered in [false, true] {
        let build = || {
            let cluster = ClusterBuilder::new().nodes(4).osds_per_node(2).build();
            let mut config = DedupConfig::with_chunk_size(CS)
                .cache_policy(CachePolicy::EvictAll)
                .foreground_shards(SHARDS);
            if tiered {
                config = config.tiered_fingerprint();
            }
            let s = DedupStore::with_default_pools(cluster, config);
            for obj in 0..OBJECTS {
                let _ = s
                    .write(ClientId(0), &name(obj), 0, content(obj), SimTime::ZERO)
                    .expect("write");
            }
            s
        };

        let serial = build();
        let _ = serial.flush_all(now).expect("serial flush");
        let serial_chunks = serial.space_report().expect("report").chunk_objects;
        assert_eq!(serial_chunks, (OBJECTS / 2 * CHUNKS) as u64);

        for race in 0..RACES {
            let mut raced = build();
            let barrier = std::sync::Barrier::new(3);
            std::thread::scope(|scope| {
                let (s, barrier) = (&raced, &barrier);
                scope.spawn(move || {
                    barrier.wait();
                    while s.dedup_tick(now).expect("tick").is_some() {}
                    let _ = s.flush_all(now).expect("flush after ticks");
                });
                scope.spawn(move || {
                    barrier.wait();
                    let _ = s.flush_all(now).expect("flush");
                });
                scope.spawn(move || {
                    barrier.wait();
                    assert_reads(s);
                });
            });
            let label = format!("tiered={tiered} race={race}");
            assert_eq!(raced.dirty_len(), 0, "{label}: queue drained");
            assert_reads(&raced);
            assert!(
                raced.verify_references().expect("scrub").is_empty(),
                "{label}: dangling chunk references"
            );
            let _ = raced.gc_chunk_pool().expect("gc");
            assert!(
                raced.find_leaked_chunks().expect("leaks").is_empty(),
                "{label}: leaked chunks"
            );
            assert_eq!(
                raced.space_report().expect("report").chunk_objects,
                serial_chunks,
                "{label}: racing flushers stored a content twice"
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Concurrent readers of one (same-shard, by construction) object all
    /// return bit-identical bytes: the shared read path — shard read
    /// lock, atomic hitset recording, chunk-stripe lookups — must not let
    /// read concurrency perturb the returned data.
    #[test]
    fn concurrent_same_shard_reads_are_identical(seed in any::<u64>()) {
        let cluster = ClusterBuilder::new().nodes(4).osds_per_node(2).build();
        let svc = Arc::new(DedupService::start(DedupStore::with_default_pools(
            cluster,
            DedupConfig::with_chunk_size(CS).foreground_shards(SHARDS),
        )));
        let data = patterned(OBJECT_BYTES, seed);
        let _ = svc
            .write(ClientId(0), &ObjectName::new("probe"), 0, &data, SimTime::ZERO)
            .expect("probe write");
        let results: Vec<Vec<u8>> = (0..4u32)
            .map(|t| {
                let svc = Arc::clone(&svc);
                std::thread::spawn(move || {
                    let mut last = Vec::new();
                    for k in 0..4u64 {
                        last = svc
                            .read(
                                ClientId(t),
                                &ObjectName::new("probe"),
                                0,
                                OBJECT_BYTES as u64,
                                SimTime::from_secs(k),
                            )
                            .expect("concurrent read")
                            .value
                            .to_vec();
                    }
                    last
                })
            })
            .collect::<Vec<_>>()
            .into_iter()
            .map(|h| h.join().expect("reader"))
            .collect();
        for r in &results {
            prop_assert_eq!(r, &data, "concurrent read diverged from the written bytes");
        }
        svc.drain();
    }

    /// Shard routing is a pure function of the object name: stable across
    /// calls and across `ObjectName` instances, always within range, and
    /// independent of any store state.
    #[test]
    fn shard_routing_is_pure(name in ".{1,64}", shards in 1usize..64) {
        let a = ObjectName::new(name.clone());
        let b = ObjectName::new(name);
        let idx = shard_index(&a, shards);
        prop_assert!(idx < shards, "index out of range");
        prop_assert_eq!(idx, shard_index(&a, shards), "unstable across calls");
        prop_assert_eq!(idx, shard_index(&b, shards), "depends on instance identity");
    }

    /// A store's `shard_of` agrees with the free function at its
    /// configured shard count.
    #[test]
    fn store_routing_matches_free_function(name in "[a-z]{1,16}", shards in 1usize..16) {
        let cluster = ClusterBuilder::new().build();
        let store = DedupStore::with_default_pools(
            cluster,
            DedupConfig::default().foreground_shards(shards),
        );
        let n = ObjectName::new(name);
        prop_assert_eq!(store.shard_of(&n), shard_index(&n, shards));
        prop_assert_eq!(store.shard_count(), shards);
    }
}
