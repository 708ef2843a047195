//! Audit of the sharded data plane's contention instruments: every
//! foreground op (write, read, truncate, delete) must increment exactly
//! one `service.shard.ops{shard=i}` counter — the one [`shard_index`]
//! routes its object to — plus the matching per-mode counter
//! (`service.shard.read_ops` for shared-mode reads,
//! `service.shard.write_ops` for exclusive-mode mutations), and record
//! exactly one sample in the `service.shard.lock_wait_ns` histogram
//! under its op class's `mode=read|write` label. The labelled series
//! must also appear in registry snapshots, which is what the metrics
//! sidecar samples.

use global_dedup::core::{shard_index, CachePolicy, DedupConfig, DedupStore};
use global_dedup::obs::SnapshotValue;
use global_dedup::sim::SimTime;
use global_dedup::store::{ClientId, ClusterBuilder, ObjectName};

const CS: u32 = 8 * 1024;
const SHARDS: usize = 4;

fn sharded_store() -> DedupStore {
    let cluster = ClusterBuilder::new().nodes(4).osds_per_node(2).build();
    DedupStore::with_default_pools(
        cluster,
        DedupConfig::with_chunk_size(CS)
            .cache_policy(CachePolicy::EvictAll)
            .foreground_shards(SHARDS),
    )
}

fn shard_ops(s: &DedupStore, shard: usize) -> u64 {
    s.registry()
        .counter_with("service.shard.ops", &[("shard", &shard.to_string())])
        .get()
}

fn shard_mode_ops(s: &DedupStore, name: &str, shard: usize) -> u64 {
    s.registry()
        .counter_with(name, &[("shard", &shard.to_string())])
        .get()
}

fn lock_waits_mode(s: &DedupStore, mode: &str) -> u64 {
    s.registry()
        .histogram_with("service.shard.lock_wait_ns", &[("mode", mode)])
        .count()
}

fn lock_waits(s: &DedupStore) -> u64 {
    lock_waits_mode(s, "read") + lock_waits_mode(s, "write")
}

fn t(secs: u64) -> SimTime {
    SimTime::from_secs(secs)
}

fn fill(s: &DedupStore, name: &str, seed: u8, now: SimTime) {
    let data = vec![seed; 2 * CS as usize];
    let _ = s
        .write(ClientId(0), &ObjectName::new(name), 0, &data, now)
        .expect("write");
}

/// The invariant under audit: per-shard counters sum to the number of
/// foreground ops, the per-mode counters partition them, and the
/// mode-labelled lock-wait histograms saw one sample per op of that
/// class.
fn assert_ops_accounted(s: &DedupStore, expected_reads: u64, expected_writes: u64, context: &str) {
    let expected_ops = expected_reads + expected_writes;
    let total: u64 = (0..SHARDS).map(|i| shard_ops(s, i)).sum();
    assert_eq!(
        total, expected_ops,
        "shard op counters out of sync after {context}"
    );
    let reads: u64 = (0..SHARDS)
        .map(|i| shard_mode_ops(s, "service.shard.read_ops", i))
        .sum();
    let writes: u64 = (0..SHARDS)
        .map(|i| shard_mode_ops(s, "service.shard.write_ops", i))
        .sum();
    assert_eq!(
        (reads, writes),
        (expected_reads, expected_writes),
        "per-mode shard counters out of sync after {context}"
    );
    assert_eq!(
        lock_waits_mode(s, "read"),
        expected_reads,
        "read lock-wait samples out of sync after {context}"
    );
    assert_eq!(
        lock_waits_mode(s, "write"),
        expected_writes,
        "write lock-wait samples out of sync after {context}"
    );
}

#[test]
fn every_foreground_op_lands_on_its_routed_shard() {
    let s = sharded_store();
    let names: Vec<ObjectName> = (0..12)
        .map(|i| ObjectName::new(format!("obj-{i}")))
        .collect();
    let mut expected = [0u64; SHARDS];

    for (i, name) in names.iter().enumerate() {
        fill(&s, name.as_str(), i as u8, t(0));
        expected[shard_index(name, SHARDS)] += 1;
    }
    for (i, name) in names.iter().enumerate() {
        let r = s
            .read(ClientId(0), name, 0, 2 * CS as u64, t(1))
            .expect("read");
        assert_eq!(r.value, vec![i as u8; 2 * CS as usize]);
        expected[shard_index(name, SHARDS)] += 1;
    }

    for (shard, &want) in expected.iter().enumerate() {
        assert_eq!(
            shard_ops(&s, shard),
            want,
            "shard {shard} counter diverged from routing"
        );
        // One write and one read per object: the mode split halves each
        // shard's total.
        assert_eq!(
            shard_mode_ops(&s, "service.shard.read_ops", shard),
            want / 2,
            "shard {shard} read-mode counter diverged"
        );
        assert_eq!(
            shard_mode_ops(&s, "service.shard.write_ops", shard),
            want / 2,
            "shard {shard} write-mode counter diverged"
        );
    }
    assert_ops_accounted(&s, 12, 12, "writes + reads");
}

#[test]
fn truncate_and_delete_count_as_shard_ops() {
    let s = sharded_store();
    let name = ObjectName::new("churn");
    let shard = shard_index(&name, SHARDS);

    fill(&s, name.as_str(), 9, t(0));
    let _ = s
        .truncate(ClientId(0), &name, CS as u64, t(1))
        .expect("truncate");
    let _ = s.delete(ClientId(0), &name).expect("delete");

    assert_eq!(shard_ops(&s, shard), 3, "write + truncate + delete");
    assert_eq!(
        shard_mode_ops(&s, "service.shard.write_ops", shard),
        3,
        "truncate and delete are exclusive-mode mutations"
    );
    assert_ops_accounted(&s, 0, 3, "churn sequence");
}

/// The flush does lock the shard of each object it stages and commits, but
/// takes those guards raw: the `service.shard.*` series count foreground
/// ops only.
#[test]
fn background_flush_takes_no_shard_locks() {
    let s = sharded_store();
    fill(&s, "bg", 5, t(0));
    let before = lock_waits(&s);
    let _ = s.flush_all(t(100)).expect("flush");
    assert_eq!(
        lock_waits(&s),
        before,
        "background flush takes raw shard guards, outside the foreground series"
    );
    assert_ops_accounted(&s, 0, 1, "background flush");
}

#[test]
fn labelled_series_appear_in_snapshots() {
    let s = sharded_store();
    fill(&s, "snap", 1, t(0));
    let snap = s.registry().snapshot(t(2));
    for series in [
        "service.shard.ops",
        "service.shard.read_ops",
        "service.shard.write_ops",
    ] {
        let shard_series: Vec<_> = snap.iter().filter(|m| m.name == series).collect();
        assert_eq!(
            shard_series.len(),
            SHARDS,
            "one labelled {series} series per shard"
        );
        assert!(
            shard_series
                .iter()
                .all(|m| m.labels.iter().any(|(k, _)| k == "shard")),
            "{series} series carry the shard label"
        );
    }
    let total: u64 = snap
        .iter()
        .filter(|m| m.name == "service.shard.ops")
        .map(|m| match m.value {
            SnapshotValue::Counter(v) => v,
            _ => panic!("service.shard.ops must snapshot as a counter"),
        })
        .sum();
    assert_eq!(total, 1, "the one write shows up in the snapshot");
    let lock_modes: Vec<_> = snap
        .iter()
        .filter(|m| m.name == "service.shard.lock_wait_ns")
        .collect();
    assert_eq!(
        lock_modes.len(),
        2,
        "lock-wait histogram exported once per mode"
    );
    for mode in ["read", "write"] {
        assert!(
            lock_modes
                .iter()
                .any(|m| m.labels.iter().any(|(k, v)| k == "mode" && v == mode)),
            "lock-wait series carries mode={mode}"
        );
    }
}
