//! Availability integration: device failures, recovery, rebalancing, and
//! scrub with deduplicated data — the paper's claim that *self-contained
//! objects* let the store's ordinary machinery protect dedup state.

use global_dedup::core::{CachePolicy, DedupConfig, DedupStore};
use global_dedup::placement::OsdId;
use global_dedup::sim::SimTime;
use global_dedup::store::{ClientId, ClusterBuilder, ObjectName, PoolConfig};
use global_dedup::workloads::fio::FioSpec;

fn loaded_store(flush: bool) -> (DedupStore, global_dedup::workloads::Dataset) {
    let dataset = FioSpec::new(8 << 20, 0.5).dataset();
    let cluster = ClusterBuilder::new().nodes(4).osds_per_node(4).build();
    let store = DedupStore::with_default_pools(
        cluster,
        DedupConfig::with_chunk_size(32 * 1024).cache_policy(CachePolicy::EvictAll),
    );
    for obj in &dataset.objects {
        let _ = store
            .write(
                ClientId(0),
                &ObjectName::new(&*obj.name),
                0,
                &obj.data,
                SimTime::ZERO,
            )
            .expect("write");
    }
    if flush {
        let _ = store.flush_all(SimTime::from_secs(100)).expect("flush");
    }
    (store, dataset)
}

fn verify(store: &mut DedupStore, dataset: &global_dedup::workloads::Dataset) {
    for obj in &dataset.objects {
        let r = store
            .read(
                ClientId(0),
                &ObjectName::new(&*obj.name),
                0,
                obj.data.len() as u64,
                SimTime::from_secs(500),
            )
            .expect("read");
        assert_eq!(r.value, obj.data, "object {}", obj.name);
    }
}

#[test]
fn osd_failure_after_flush_recovers_chunks_and_metadata() {
    let (mut store, dataset) = loaded_store(true);
    store.cluster_mut().fail_osd(OsdId(4));
    let t = store.cluster_mut().recover().expect("recover");
    assert!(t.value.lost.is_empty());
    verify(&mut store, &dataset);
    for pool in [store.metadata_pool(), store.chunk_pool()] {
        assert!(store.cluster().scrub(pool).expect("scrub").is_empty());
    }
}

#[test]
fn osd_failure_before_flush_keeps_dirty_data_safe() {
    // Dirty (not yet deduplicated) data lives in the replicated metadata
    // pool; losing one device must not lose it, and the flush must still
    // converge afterwards.
    let (mut store, dataset) = loaded_store(false);
    store.cluster_mut().fail_osd(OsdId(7));
    let _ = store.cluster_mut().recover().expect("recover");
    let _ = store.flush_all(SimTime::from_secs(200)).expect("flush");
    verify(&mut store, &dataset);
}

#[test]
fn failure_during_backlog_interleaved_with_flush() {
    let (mut store, dataset) = loaded_store(false);
    // Flush half the queue, fail a device mid-way, recover, finish.
    for _ in 0..store.dirty_len() / 2 {
        let _ = store.flush_next(SimTime::from_secs(50)).expect("flush");
    }
    store.cluster_mut().fail_osd(OsdId(12));
    let _ = store.cluster_mut().recover().expect("recover");
    let _ = store.flush_all(SimTime::from_secs(300)).expect("flush");
    verify(&mut store, &dataset);
}

#[test]
fn double_failure_within_replication_tolerance_of_distinct_pgs() {
    let (mut store, dataset) = loaded_store(true);
    // Fail one device, recover, fail another, recover: replication x2
    // tolerates sequential single failures indefinitely.
    for victim in [OsdId(1), OsdId(9)] {
        store.cluster_mut().fail_osd(victim);
        let t = store.cluster_mut().recover().expect("recover");
        assert!(t.value.lost.is_empty(), "lost objects after {victim}");
    }
    verify(&mut store, &dataset);
}

#[test]
fn cluster_expansion_rebalances_dedup_pools() {
    let (mut store, dataset) = loaded_store(true);
    let before: u64 = store.space_report().expect("r").raw_bytes;
    let node = store.cluster().map().osd(OsdId(0)).node;
    let new_osd = store.cluster_mut().add_osd(node, 1.0);
    let t = store.cluster_mut().recover().expect("rebalance");
    assert!(t.value.objects_repaired > 0, "no data moved to the new OSD");
    let after = store.space_report().expect("r").raw_bytes;
    assert_eq!(before, after, "rebalance must not change the footprint");
    let new_stats: u64 = store
        .cluster()
        .osd_objects(new_osd)
        .expect("osd")
        .iter()
        .map(|(_, _, o)| o.stored_bytes)
        .sum();
    assert!(new_stats > 0, "new OSD received no data");
    verify(&mut store, &dataset);
}

#[test]
fn ec_chunk_pool_survives_single_failure() {
    let dataset = FioSpec::new(4 << 20, 0.5).dataset();
    let cluster = ClusterBuilder::new().build();
    let mut store = DedupStore::new(
        cluster,
        PoolConfig::replicated("metadata", 2),
        PoolConfig::erasure("chunks", 2, 1),
        DedupConfig::with_chunk_size(32 * 1024).cache_policy(CachePolicy::EvictAll),
    );
    for obj in &dataset.objects {
        let _ = store
            .write(
                ClientId(0),
                &ObjectName::new(&*obj.name),
                0,
                &obj.data,
                SimTime::ZERO,
            )
            .expect("write");
    }
    let _ = store.flush_all(SimTime::from_secs(100)).expect("flush");
    store.cluster_mut().fail_osd(OsdId(3));
    let t = store.cluster_mut().recover().expect("recover");
    assert!(t.value.lost.is_empty(), "EC 2+1 tolerates one loss");
    verify(&mut store, &dataset);
    assert!(store
        .cluster()
        .scrub(store.chunk_pool())
        .expect("scrub")
        .is_empty());
}

#[test]
fn reads_work_degraded_before_recovery() {
    let (mut store, dataset) = loaded_store(true);
    // Down (not wiped) device: no recovery yet, reads must still succeed
    // from surviving replicas.
    store.cluster_mut().mark_down(OsdId(5));
    verify(&mut store, &dataset);
}

#[test]
fn refcounts_survive_recovery() {
    use global_dedup::core::REFCOUNT_XATTR;
    use global_dedup::fingerprint::Fingerprint;
    use global_dedup::store::IoCtx;

    let cluster = ClusterBuilder::new().build();
    let mut store = DedupStore::with_default_pools(
        cluster,
        DedupConfig::with_chunk_size(32 * 1024).cache_policy(CachePolicy::EvictAll),
    );
    let data = vec![9u8; 32 * 1024];
    for i in 0..5 {
        let _ = store
            .write(
                ClientId(0),
                &ObjectName::new(format!("o{i}")),
                0,
                &data,
                SimTime::ZERO,
            )
            .expect("write");
    }
    let _ = store.flush_all(SimTime::from_secs(10)).expect("flush");
    let chunk_name = ObjectName::new(Fingerprint::of(&data).to_object_name());
    let victim = store
        .cluster()
        .primary_of(store.chunk_pool(), &chunk_name)
        .expect("primary");
    store.cluster_mut().fail_osd(victim);
    let _ = store.cluster_mut().recover().expect("recover");
    let cctx = IoCtx::new(store.chunk_pool());
    let count = store
        .cluster_mut()
        .get_xattr(&cctx, &chunk_name, REFCOUNT_XATTR)
        .expect("xattr")
        .value
        .and_then(|v| global_dedup::core::refs::decode_refcount(&v))
        .expect("count");
    assert_eq!(count, 5, "refcount must survive device loss");
    // Deleting all referrers still reclaims the chunk afterwards.
    for i in 0..5 {
        let _ = store
            .delete(ClientId(0), &ObjectName::new(format!("o{i}")))
            .expect("delete");
    }
    assert_eq!(store.space_report().expect("r").chunk_objects, 0);
}
