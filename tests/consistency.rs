//! Consistency-model integration tests (paper §4.6, Fig. 9): crash the
//! flush protocol at its durable writes, in every order, and verify the
//! system re-converges with no lost data, no refcount leaks, and no stuck
//! dirty state.
//!
//! A crash is a clean [`CrashPlan`] on the store's WAL: the chosen durable
//! write and every later one fail, so the flush stops there. Inside a
//! flush nothing durable happens before the first chunk's store; a crash
//! at write 0 leaves the chunk pool untouched, and a crash at write 1
//! leaves the first chunk stored and the chunk map not yet committed. A
//! clean crash leaves whole frames only, so the same store carries on
//! once the backend is revived — the restart under test is the engine's
//! (`recover_dirty_queue`), not the cluster's.

use std::sync::Arc;

use global_dedup::core::crashpoint::{wal_store, CrashTopology};
use global_dedup::core::refs::{decode_refcount, BackRef};
use global_dedup::core::{CachePolicy, DedupConfig, DedupStore, REFCOUNT_XATTR};
use global_dedup::sim::SimTime;
use global_dedup::store::{ClientId, CrashPlan, IoCtx, MemWalBackend, ObjectName};

const CS: u32 = 8 * 1024;

fn store() -> (DedupStore, Arc<MemWalBackend>) {
    wal_store(
        CrashTopology::default(),
        DedupConfig::with_chunk_size(CS).cache_policy(CachePolicy::EvictAll),
    )
}

/// Flushes `name` with the store dying cleanly at the flush's `k`-th
/// durable write, then revives the backend.
fn flush_crashing_at(
    s: &DedupStore,
    backend: &MemWalBackend,
    name: &ObjectName,
    now: SimTime,
    k: u64,
) {
    backend.set_crash_plan(Some(CrashPlan {
        after: backend.durable_writes() + k,
        torn: false,
    }));
    assert!(s.flush_object(name, now).is_err(), "crash at write {k}");
    assert!(backend.crashed(), "crash point {k} fired");
    backend.set_crash_plan(None);
}

fn patterned(len: usize, seed: u64) -> Vec<u8> {
    let mut state = seed | 1;
    (0..len)
        .map(|_| {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
            (state >> 33) as u8
        })
        .collect()
}

/// Counts every chunk object's refcount and compares with the actual
/// number of back references — they must always agree.
fn assert_refcounts_consistent(store: &mut DedupStore) {
    let chunk_pool = store.chunk_pool();
    let names = store.cluster().list_objects(chunk_pool).expect("list");
    for name in names {
        let cctx = IoCtx::new(chunk_pool);
        let count = store
            .cluster_mut()
            .get_xattr(&cctx, &name, REFCOUNT_XATTR)
            .expect("xattr")
            .value
            .and_then(|v| decode_refcount(&v))
            .expect("refcount present");
        let refs = store
            .cluster_mut()
            .omap_entries(&cctx, &name)
            .expect("omap")
            .value
            .keys()
            .filter(|k| BackRef::is_ref_key(k))
            .count() as u64;
        assert_eq!(count, refs, "refcount vs backrefs on {name}");
        assert!(count > 0, "zero-ref chunk {name} must have been deleted");
    }
}

#[test]
fn every_failure_point_converges_after_retry() {
    let name = ObjectName::new("obj");
    let data = patterned(4 * CS as usize, 11);
    let written = || {
        let (s, backend) = store();
        let _ = s
            .write(ClientId(0), &name, 0, &data, SimTime::ZERO)
            .expect("write");
        (s, backend)
    };
    // Every durable write of the flush: four chunk stores, then the map
    // commit.
    let (s, backend) = written();
    let before = backend.durable_writes();
    let _ = s
        .flush_object(&name, SimTime::from_secs(100))
        .expect("flush");
    let points = backend.durable_writes() - before;
    assert_eq!(points, 5);
    for failure in 0..points {
        let (mut s, backend) = written();
        flush_crashing_at(&s, &backend, &name, SimTime::from_secs(100), failure);
        assert_eq!(
            s.space_report().expect("report").chunk_objects,
            failure,
            "chunks stored before the crash"
        );
        // Engine restart: dirty state reconstructed from the objects.
        assert_eq!(s.recover_dirty_queue().expect("recover"), 1);
        let _ = s.flush_all(SimTime::from_secs(200)).expect("retry");
        let r = s
            .read(
                ClientId(0),
                &name,
                0,
                data.len() as u64,
                SimTime::from_secs(300),
            )
            .expect("read");
        assert_eq!(r.value, data, "crash at write {failure}");
        assert_refcounts_consistent(&mut s);
        assert_eq!(s.dirty_len(), 0);
    }
}

#[test]
fn repeated_crashes_then_converge() {
    // Crash the flush at alternating points five times in a row; the
    // protocol must stay idempotent throughout.
    let (mut s, backend) = store();
    let name = ObjectName::new("obj");
    let data = patterned(4 * CS as usize, 13);
    let _ = s
        .write(ClientId(0), &name, 0, &data, SimTime::ZERO)
        .expect("write");
    for i in 0..5 {
        let failure = if i % 2 == 0 { 1 } else { 0 };
        flush_crashing_at(&s, &backend, &name, SimTime::from_secs(100 + i), failure);
        s.recover_dirty_queue().expect("recover");
    }
    let _ = s.flush_all(SimTime::from_secs(500)).expect("final");
    let r = s
        .read(
            ClientId(0),
            &name,
            0,
            data.len() as u64,
            SimTime::from_secs(600),
        )
        .expect("read");
    assert_eq!(r.value, data);
    assert_refcounts_consistent(&mut s);
}

#[test]
fn crash_between_overwrites_does_not_leak_old_chunks() {
    let (mut s, backend) = store();
    let name = ObjectName::new("obj");
    let v1 = patterned(CS as usize, 17);
    let v2 = patterned(CS as usize, 19);
    let _ = s
        .write(ClientId(0), &name, 0, &v1, SimTime::ZERO)
        .expect("write");
    let _ = s.flush_all(SimTime::from_secs(10)).expect("flush v1");
    // Overwrite, crash mid-flush (after chunk store, at the map update).
    let _ = s
        .write(ClientId(0), &name, 0, &v2, SimTime::from_secs(20))
        .expect("write");
    flush_crashing_at(&s, &backend, &name, SimTime::from_secs(100), 1);
    s.recover_dirty_queue().expect("recover");
    let _ = s.flush_all(SimTime::from_secs(200)).expect("retry");
    // Old chunk fully dereferenced, new chunk holds the single reference.
    let report = s.space_report().expect("report");
    assert_eq!(report.chunk_objects, 1, "v1 chunk must be reclaimed");
    assert_refcounts_consistent(&mut s);
    let r = s
        .read(
            ClientId(0),
            &name,
            0,
            v2.len() as u64,
            SimTime::from_secs(300),
        )
        .expect("read");
    assert_eq!(r.value, v2);
}

#[test]
fn crash_with_shared_chunks_keeps_sharers_safe() {
    // Two objects share content; a crashed flush of the second must not
    // corrupt the first's reference.
    let (mut s, backend) = store();
    let data = patterned(CS as usize, 23);
    let a = ObjectName::new("a");
    let b = ObjectName::new("b");
    let _ = s
        .write(ClientId(0), &a, 0, &data, SimTime::ZERO)
        .expect("write");
    let _ = s.flush_all(SimTime::from_secs(10)).expect("flush a");
    let _ = s
        .write(ClientId(0), &b, 0, &data, SimTime::from_secs(20))
        .expect("write");
    flush_crashing_at(&s, &backend, &b, SimTime::from_secs(100), 1);
    s.recover_dirty_queue().expect("recover");
    let _ = s.flush_all(SimTime::from_secs(200)).expect("retry");
    assert_refcounts_consistent(&mut s);
    // Deleting b leaves a's data intact; deleting a reclaims the chunk.
    let _ = s.delete(ClientId(0), &b).expect("delete b");
    let r = s
        .read(
            ClientId(0),
            &a,
            0,
            data.len() as u64,
            SimTime::from_secs(300),
        )
        .expect("read");
    assert_eq!(r.value, data);
    let _ = s.delete(ClientId(0), &a).expect("delete a");
    assert_eq!(s.space_report().expect("r").chunk_objects, 0);
}

#[test]
fn foreground_writes_between_crash_and_retry_win() {
    // A crashed flush must not resurrect stale data over a newer write.
    let (mut s, backend) = store();
    let name = ObjectName::new("obj");
    let v1 = patterned(CS as usize, 29);
    let _ = s
        .write(ClientId(0), &name, 0, &v1, SimTime::ZERO)
        .expect("write");
    flush_crashing_at(&s, &backend, &name, SimTime::from_secs(100), 1);
    // Newer foreground write lands before the retry.
    let v2 = patterned(CS as usize, 31);
    let _ = s
        .write(ClientId(0), &name, 0, &v2, SimTime::from_secs(150))
        .expect("write");
    s.recover_dirty_queue().expect("recover");
    let _ = s.flush_all(SimTime::from_secs(200)).expect("retry");
    let r = s
        .read(
            ClientId(0),
            &name,
            0,
            v2.len() as u64,
            SimTime::from_secs(300),
        )
        .expect("read");
    assert_eq!(r.value, v2, "latest write must win");
    assert_refcounts_consistent(&mut s);
}

#[test]
fn osd_failure_combined_with_flush_crash() {
    // The hardest case: a flush crashes AND a device dies before retry.
    let (mut s, backend) = store();
    let name = ObjectName::new("obj");
    let data = patterned(4 * CS as usize, 37);
    let _ = s
        .write(ClientId(0), &name, 0, &data, SimTime::ZERO)
        .expect("write");
    flush_crashing_at(&s, &backend, &name, SimTime::from_secs(100), 1);
    let victim = s
        .cluster()
        .primary_of(s.metadata_pool(), &name)
        .expect("primary");
    s.cluster_mut().fail_osd(victim);
    let _ = s.cluster_mut().recover().expect("recover cluster");
    s.recover_dirty_queue().expect("recover engine");
    let _ = s.flush_all(SimTime::from_secs(200)).expect("retry");
    let r = s
        .read(
            ClientId(0),
            &name,
            0,
            data.len() as u64,
            SimTime::from_secs(300),
        )
        .expect("read");
    assert_eq!(r.value, data);
    assert_refcounts_consistent(&mut s);
}
