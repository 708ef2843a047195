//! Crash-at-every-point recovery harness for the durability plane.
//!
//! Methodology (see `dedup_core::crashpoint`): run a workload once over an
//! intact WAL backend and enumerate every durable write it performed; then
//! for each point — clean kill and, where a half-written record is
//! physically possible, torn kill — re-run the same deterministic workload
//! into a fresh cluster, crash at exactly that write, rebuild, recover,
//! and assert:
//!
//! * `verify_references` is clean (no chunk-map entry names a missing
//!   chunk — the "deleted a chunk the map still references" failure);
//! * `find_leaked_chunks` is empty (no chunk survives with only stale
//!   back references — the "committed the chunk, lost the map update"
//!   failure, repaired by GC);
//! * every op that completed before the crash is readable with exactly
//!   the bytes it wrote (read-your-committed-writes); the one op in
//!   flight at the crash may land either way (its transaction is atomic),
//!   so both the pre-op and post-op images are accepted;
//! * the recovered dirty queue drains: the flush stage of recovery
//!   leaves nothing behind that `recover_dirty_queue` can find.

use std::collections::BTreeMap;

use dedup_core::crashpoint::{
    enumerate_crash_points, plan_for, rebuilt_store, wal_store, CrashTopology,
};
use dedup_core::{DedupConfig, DedupMode, DedupStore};
use dedup_sim::SimTime;
use dedup_store::{ClientId, CrashPlan, ObjectName};

const CS: u32 = 8 * 1024;

fn t(secs: u64) -> SimTime {
    SimTime::from_secs(secs)
}

/// One step of the workload. Offsets/lengths are in bytes; content is a
/// deterministic pattern from `seed` so reads can be checked exactly.
#[derive(Debug, Clone, Copy)]
enum Op {
    Write {
        obj: u8,
        offset: u64,
        len: usize,
        seed: u64,
    },
    Truncate {
        obj: u8,
        new_len: u64,
    },
    Delete {
        obj: u8,
    },
    Flush {
        at: u64,
    },
    Gc,
}

fn obj_name(obj: u8) -> ObjectName {
    ObjectName::new(format!("obj-{obj}"))
}

/// Seed flag selecting highly compressible content, so the compression
/// audits exercise both stored forms (kept-compressed and raw-fallback
/// chunks) from the same `Op::Write` vocabulary.
const COMPRESSIBLE: u64 = 1 << 63;

fn patterned(len: usize, seed: u64) -> Vec<u8> {
    if seed & COMPRESSIBLE != 0 {
        // Long runs with a sparse marker: compresses far below the
        // keep-threshold while still being seed-distinct.
        let b = ((seed >> 8) as u8) | 1;
        return (0..len)
            .map(|i| if i % 64 < 56 { b } else { (i % 7) as u8 })
            .collect();
    }
    let mut state = seed | 1;
    (0..len)
        .map(|_| {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (state >> 33) as u8
        })
        .collect()
}

/// The committed-state model: object name → full expected contents.
type Model = BTreeMap<u8, Vec<u8>>;

fn apply_model(model: &mut Model, op: Op) {
    match op {
        Op::Write {
            obj,
            offset,
            len,
            seed,
        } => {
            let data = patterned(len, seed);
            let buf = model.entry(obj).or_default();
            let end = offset as usize + len;
            if buf.len() < end {
                buf.resize(end, 0);
            }
            buf[offset as usize..end].copy_from_slice(&data);
        }
        Op::Truncate { obj, new_len } => {
            if let Some(buf) = model.get_mut(&obj) {
                buf.resize(new_len as usize, 0);
            }
        }
        Op::Delete { obj } => {
            model.remove(&obj);
        }
        Op::Flush { .. } | Op::Gc => {}
    }
}

fn apply_store(s: &mut DedupStore, op: Op, now: u64) -> Result<(), dedup_core::DedupError> {
    match op {
        Op::Write {
            obj,
            offset,
            len,
            seed,
        } => {
            let data = patterned(len, seed);
            s.write(ClientId(0), &obj_name(obj), offset, data, t(now))
                .map(|_| ())
        }
        Op::Truncate { obj, new_len } => s
            .truncate(ClientId(0), &obj_name(obj), new_len, t(now))
            .map(|_| ()),
        Op::Delete { obj } => s.delete(ClientId(0), &obj_name(obj)).map(|_| ()),
        Op::Flush { at } => s.flush_all(t(at)).map(|_| ()),
        Op::Gc => s.gc_chunk_pool().map(|_| ()),
    }
}

/// A deterministic mixed workload: overlapping writes (dedup + RMW),
/// flushes between mutations (so old chunks exist to dereference),
/// truncate across a chunk boundary, delete of a flushed object, GC.
fn mixed_workload() -> Vec<Op> {
    let c = CS as u64;
    vec![
        Op::Write {
            obj: 0,
            offset: 0,
            len: 3 * CS as usize,
            seed: 1,
        },
        Op::Write {
            obj: 1,
            offset: 0,
            len: 2 * CS as usize,
            seed: 1, // duplicate content: cross-object dedup
        },
        Op::Flush { at: 1000 },
        // Rewrite a middle chunk (old chunk must be dereferenced at the
        // next flush) and patch a partial range (deferred RMW).
        Op::Write {
            obj: 0,
            offset: c,
            len: CS as usize,
            seed: 2,
        },
        Op::Write {
            obj: 1,
            offset: c / 2,
            len: 100,
            seed: 3,
        },
        Op::Flush { at: 3000 },
        Op::Truncate {
            obj: 0,
            new_len: c + c / 2, // drops chunk 2, dirties the boundary chunk
        },
        Op::Delete { obj: 1 },
        Op::Write {
            obj: 2,
            offset: 0,
            len: CS as usize,
            seed: 2, // re-reference content deleted objects once held
        },
        Op::Flush { at: 6000 },
        Op::Gc,
    ]
}

/// Runs `ops` against a fresh WAL-attached store until an op fails
/// (crash) or the workload completes. Returns the committed model, the
/// model as it would look had the in-flight op committed (`None` when no
/// op was in flight), and the store.
struct RunOutcome {
    committed: Model,
    in_flight: Option<Model>,
    crashed: bool,
}

fn run_workload(s: &mut DedupStore, ops: &[Op], config_label: &str) -> RunOutcome {
    let mut committed = Model::new();
    for (i, &op) in ops.iter().enumerate() {
        let now = 10 * (i as u64 + 1) * 1000;
        match apply_store(s, op, now) {
            Ok(()) => apply_model(&mut committed, op),
            Err(e) => {
                // The failing op's transaction is atomic: it either never
                // logged (not applied) or logged-but-unacknowledged
                // (replay applies it). Accept both images.
                let mut with_op = committed.clone();
                apply_model(&mut with_op, op);
                assert!(
                    matches!(
                        e,
                        dedup_core::DedupError::Store(dedup_store::StoreError::Wal { .. })
                    ),
                    "[{config_label}] op {i} failed with a non-crash error: {e}"
                );
                return RunOutcome {
                    committed,
                    in_flight: Some(with_op),
                    crashed: true,
                };
            }
        }
    }
    RunOutcome {
        committed,
        in_flight: None,
        crashed: false,
    }
}

/// Asserts the recovered store serves exactly one of the accepted models.
fn assert_recovered(s: &DedupStore, outcome: &RunOutcome, label: &str) {
    let missing = s.verify_references().expect("verify_references");
    assert!(
        missing.is_empty(),
        "[{label}] dangling chunk references after recovery: {missing:?}"
    );
    let leaked = s.find_leaked_chunks().expect("find_leaked_chunks");
    assert!(
        leaked.is_empty(),
        "[{label}] leaked chunks after recovery: {leaked:?}"
    );

    let models: Vec<&Model> = std::iter::once(&outcome.committed)
        .chain(outcome.in_flight.as_ref())
        .collect();
    let matched = models.iter().any(|model| model_matches(s, model));
    assert!(
        matched,
        "[{label}] recovered contents match neither the committed prefix \
         nor the committed-prefix-plus-in-flight-op image"
    );
}

fn model_matches(s: &DedupStore, model: &Model) -> bool {
    for obj in 0u8..4 {
        let name = obj_name(obj);
        let stored = s.stat_len(&name).expect("stat_len");
        match model.get(&obj) {
            None => {
                if stored.is_some() {
                    return false;
                }
            }
            Some(expect) => {
                if stored != Some(expect.len() as u64) {
                    return false;
                }
                if expect.is_empty() {
                    continue;
                }
                let r = s
                    .read(ClientId(0), &name, 0, expect.len() as u64, t(1_000_000))
                    .expect("read after recovery");
                if r.value != expect[..] {
                    return false;
                }
            }
        }
    }
    true
}

/// The full audit for one engine configuration: reference run, enumerate,
/// crash everywhere, recover, verify.
fn audit_config(config: DedupConfig, config_label: &str) {
    audit_config_with(config, config_label, mixed_workload());
}

fn audit_config_with(config: DedupConfig, config_label: &str, ops: Vec<Op>) {
    let topology = CrashTopology::default();

    // Reference run: no crash plan, complete workload, journal filled.
    let (mut s, backend) = wal_store(topology, config.clone());
    let reference = run_workload(&mut s, &ops, config_label);
    assert!(!reference.crashed, "[{config_label}] reference run crashed");
    assert!(
        model_matches(&s, &reference.committed),
        "[{config_label}] reference run contents wrong before any crash"
    );
    let points = enumerate_crash_points(&backend);
    assert!(
        points.len() >= 20,
        "[{config_label}] workload too small to be interesting: \
         {} crash points",
        points.len()
    );

    for point in points {
        let label = format!(
            "{config_label} ticket={} {} torn={}",
            point.ticket, point.label, point.torn
        );
        let (mut s, backend) = wal_store(topology, config.clone());
        backend.set_crash_plan(Some(plan_for(point)));
        let outcome = run_workload(&mut s, &ops, &label);
        assert!(
            outcome.crashed && backend.crashed(),
            "[{label}] enumerated point did not fire on the rerun"
        );
        drop(s); // the crashed process

        let mut s2 = rebuilt_store(topology, config.clone(), backend);
        let report = s2
            .recover_after_crash(t(500_000))
            .expect("recover_after_crash");
        assert_eq!(
            report.wal.replay_errors, 0,
            "[{label}] replay errors: {report:?}"
        );
        if point.torn && point.label == "wal.append" {
            assert_eq!(
                report.wal.torn_tails_dropped, 1,
                "[{label}] torn append must be dropped by CRC"
            );
        }
        assert_recovered(&s2, &outcome, &label);
        // Recovery's flush stage drained the replayed dirty queue; a
        // fresh scan agrees nothing is left.
        assert_eq!(s2.dirty_len(), 0, "[{label}] dirty queue not drained");
        let requeued = s2.recover_dirty_queue().expect("recover_dirty_queue");
        assert_eq!(
            requeued, 0,
            "[{label}] recover_dirty_queue found residue after recovery"
        );
    }
}

#[test]
fn every_crash_point_recovers_post_process() {
    audit_config(DedupConfig::with_chunk_size(CS), "post-process");
}

#[test]
fn every_crash_point_recovers_inline() {
    let mut config = DedupConfig::with_chunk_size(CS);
    config.mode = DedupMode::Inline;
    audit_config(config, "inline");
}

/// The tiered fingerprint pipeline over the memory-bounded index must
/// survive the same crash-at-every-point audit: weak-named chunks, the
/// signature map, and the resumed weak-name sequence are all rebuilt
/// from the chunk pool by `rebuild_index` during recovery.
#[test]
fn every_crash_point_recovers_tiered() {
    let config = DedupConfig::with_chunk_size(CS)
        .tiered_fingerprint()
        .tiered_index(dedup_core::TieredIndexConfig {
            hot_capacity: 4, // tiny: recovery re-seeding spills to cold
        });
    audit_config(config, "tiered");
}

/// The mixed workload plus compressible writes, so a compression-enabled
/// audit crashes across chunks stored in *both* forms: raw fallbacks
/// (the LCG-patterned writes are incompressible) and kept-compressed
/// payloads whose raw-length xattr must commit atomically with the chunk.
fn compress_workload() -> Vec<Op> {
    let mut ops = mixed_workload();
    ops.insert(
        0,
        Op::Write {
            obj: 3,
            offset: 0,
            len: 2 * CS as usize,
            seed: COMPRESSIBLE | 7,
        },
    );
    // Rewrite one compressible chunk after the first flush: the old
    // compressed chunk gets dereferenced and GC'd like any other.
    ops.insert(
        4,
        Op::Write {
            obj: 3,
            offset: CS as u64,
            len: CS as usize,
            seed: COMPRESSIBLE | 11,
        },
    );
    ops
}

/// The inline compression plane under the same crash-at-every-point
/// audit: the raw-length xattr rides the chunk-create transaction, so a
/// crash can never leave a compressed payload that reads as raw (or vice
/// versa), and recovery decompresses transparently.
#[test]
fn every_crash_point_recovers_compressed() {
    let config = DedupConfig::with_chunk_size(CS).compress();
    audit_config_with(config, "compressed", compress_workload());
}

/// Compression stacked on the tiered fingerprint and a bounded tiered
/// index — the configuration the wall-clock benchmark measures. The
/// riskiest recovery path: `rebuild_index` must decompress every
/// compressed chunk to re-sign it over the raw bytes the pre-crash
/// pipeline signed, and a weak-named candidate is upgraded by hashing
/// those raw bytes.
#[test]
fn every_crash_point_recovers_compressed_tiered() {
    let config = DedupConfig::with_chunk_size(CS)
        .compress()
        .tiered_fingerprint()
        .tiered_index(dedup_core::TieredIndexConfig { hot_capacity: 4 });
    audit_config_with(config, "compressed-tiered", compress_workload());
}

/// Recovery itself crashes: the first crash tears an append, and the
/// recovery after it dies cleanly at each of its own durable writes in
/// turn; a third start must still recover. The first recovery drops the
/// torn frame and then appends (its flush and GC run before its
/// checkpoint), so it must cut the frame off the log first: left in
/// place, the half frame hid every record appended behind it from the
/// next recovery — acknowledged chunk stores, map commits and releases —
/// and the store came back with dangling chunk references. Every
/// `STRIDE`-th torn append of the mixed workload, to stay quick.
#[test]
fn a_crash_inside_recovery_after_a_torn_append_recovers() {
    const STRIDE: usize = 14;
    let topology = CrashTopology::default();
    let config = DedupConfig::with_chunk_size(CS);
    let ops = mixed_workload();
    let (mut s, backend) = wal_store(topology, config.clone());
    assert!(!run_workload(&mut s, &ops, "reference").crashed);
    let torn: Vec<_> = enumerate_crash_points(&backend)
        .into_iter()
        .filter(|p| p.torn && p.label == "wal.append")
        .collect();
    assert!(torn.len() >= 2 * STRIDE, "{} torn appends", torn.len());

    for point in torn.into_iter().step_by(STRIDE) {
        for second in 0.. {
            let label = format!("torn ticket={} then recovery write {second}", point.ticket);
            let (mut s, backend) = wal_store(topology, config.clone());
            backend.set_crash_plan(Some(plan_for(point)));
            let outcome = run_workload(&mut s, &ops, &label);
            assert!(outcome.crashed, "[{label}] first crash did not fire");
            drop(s);

            let mut s2 = rebuilt_store(topology, config.clone(), backend.clone());
            backend.set_crash_plan(Some(CrashPlan {
                after: backend.durable_writes() + second,
                torn: false,
            }));
            let recovered = s2.recover_after_crash(t(500_000));
            if !backend.crashed() {
                // Past recovery's last durable write: every one was hit.
                recovered.unwrap_or_else(|e| panic!("[{label}] recover: {e}"));
                assert!(second > 0, "[{label}] recovery wrote nothing");
                break;
            }
            assert!(recovered.is_err(), "[{label}] the crash fails recovery");
            drop(s2);

            let mut s3 = rebuilt_store(topology, config.clone(), backend);
            let report = s3
                .recover_after_crash(t(600_000))
                .unwrap_or_else(|e| panic!("[{label}] second recovery: {e}"));
            assert_eq!(report.wal.replay_errors, 0, "[{label}] {report:?}");
            assert_recovered(&s3, &outcome, &label);
            assert_eq!(s3.dirty_len(), 0, "[{label}] dirty queue not drained");
        }
    }
}

/// The no-crash baseline of every audit above: a store that never died
/// survives checkpoint → rebuild → replay with no replay errors, from both
/// the checkpoint segments and the log tail written after them, and reads
/// back byte-exact.
#[test]
fn uncrashed_store_replays_from_checkpoint_and_log_tail() {
    let topology = CrashTopology::default();
    let config = DedupConfig::with_chunk_size(CS);
    let (mut s, backend) = wal_store(topology, config.clone());
    let outcome = run_workload(&mut s, &mixed_workload(), "uncrashed");
    assert!(!outcome.crashed);
    s.cluster().wal_checkpoint().expect("checkpoint");
    let tail = Op::Write {
        obj: 3,
        offset: 0,
        len: CS as usize,
        seed: 9,
    };
    apply_store(&mut s, tail, 900_000).expect("write after the checkpoint");
    let mut committed = outcome.committed;
    apply_model(&mut committed, tail);
    drop(s);

    let mut s2 = rebuilt_store(topology, config, backend);
    let report = s2.cluster_mut().wal_recover().expect("replay");
    assert_eq!(report.replay_errors, 0, "{report:?}");
    assert!(report.checkpoint_records > 0, "{report:?}");
    assert!(report.log_records_replayed > 0, "{report:?}");
    assert!(model_matches(&s2, &committed));
}

/// Property-style sweep: pseudo-random op sequences (LCG-driven), crash
/// at every enumerated point of each sequence, recover, verify. Smaller
/// sequences than the deterministic audit, more shapes.
#[test]
fn random_sequences_recover_at_every_point() {
    for seq_seed in 0..4u64 {
        let ops = random_workload(seq_seed);
        let label = format!("random seq={seq_seed}");
        let topology = CrashTopology::default();
        let config = DedupConfig::with_chunk_size(CS);

        let (mut s, backend) = wal_store(topology, config.clone());
        let reference = run_workload(&mut s, &ops, &label);
        assert!(!reference.crashed, "[{label}] reference run crashed");
        let points = enumerate_crash_points(&backend);
        assert!(!points.is_empty(), "[{label}] no crash points");

        for point in points {
            let label = format!(
                "{label} ticket={} {} torn={}",
                point.ticket, point.label, point.torn
            );
            let (mut s, backend) = wal_store(topology, config.clone());
            backend.set_crash_plan(Some(plan_for(point)));
            let outcome = run_workload(&mut s, &ops, &label);
            assert!(outcome.crashed, "[{label}] point did not fire");
            drop(s);
            let mut s2 = rebuilt_store(topology, config.clone(), backend);
            let report = s2
                .recover_after_crash(t(500_000))
                .unwrap_or_else(|e| panic!("[{label}] recover: {e}"));
            assert_eq!(report.wal.replay_errors, 0, "[{label}]");
            assert_recovered(&s2, &outcome, &label);
            assert_eq!(s2.dirty_len(), 0, "[{label}]");
        }
    }
}

/// Generates a valid random workload: writes create objects; truncates
/// and deletes only target objects the model says exist.
fn random_workload(seq_seed: u64) -> Vec<Op> {
    let mut state = seq_seed.wrapping_mul(0x9e3779b97f4a7c15) | 1;
    let mut next = move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        state
    };
    let c = CS as u64;
    let mut live: Vec<u8> = Vec::new();
    let mut ops = Vec::new();
    for i in 0..8 {
        let roll = next() % 100;
        if live.is_empty() || roll < 45 {
            let obj = (next() % 3) as u8;
            let offset = (next() % 3) * (c / 2);
            let len = (CS / 2 + (next() % 2) as u32 * CS) as usize;
            ops.push(Op::Write {
                obj,
                offset,
                len,
                seed: next(),
            });
            if !live.contains(&obj) {
                live.push(obj);
            }
        } else if roll < 60 {
            let obj = live[(next() as usize) % live.len()];
            ops.push(Op::Truncate {
                obj,
                new_len: next() % (3 * c),
            });
        } else if roll < 72 {
            let idx = (next() as usize) % live.len();
            let obj = live.swap_remove(idx);
            ops.push(Op::Delete { obj });
        } else if roll < 90 {
            ops.push(Op::Flush {
                at: 10_000 * (i + 1),
            });
        } else {
            ops.push(Op::Gc);
        }
    }
    ops.push(Op::Flush { at: 200_000 });
    ops.push(Op::Gc);
    ops
}
