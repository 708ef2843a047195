//! Table 3: data recovery time vs number of failed OSDs, with and without
//! deduplication.
//!
//! Paper: 100 GB at 50 % dedup ratio, replication ×2; recovery after
//! removing/re-adding 1/2/4 OSDs. Deduplicated data is ~half the bytes, so
//! recovery completes ~1.5–1.6× faster. Scaled here to 96 MiB logical; the
//! ratio between the two systems is the reproduced quantity.

use dedup_core::{CachePolicy, DedupConfig, DedupStore};
use dedup_placement::OsdId;
use dedup_sim::SimTime;
use dedup_store::{ClientId, Cluster, ClusterBuilder, IoCtx, ObjectName, PoolConfig};
use dedup_workloads::fio::FioSpec;
use dedup_workloads::Dataset;

use crate::report;

const LOGICAL: u64 = 256 << 20;

/// Paper rows: (failed OSDs, original seconds, proposed seconds).
const PAPER: &[(usize, f64, f64)] = &[(1, 68.04, 43.72), (2, 71.35, 44.51), (4, 81.77, 54.78)];

fn dataset() -> Dataset {
    FioSpec::new(LOGICAL, 0.5).object_size(512 * 1024).dataset()
}

fn original_cluster(data: &Dataset) -> (Cluster, IoCtx) {
    let mut cluster = ClusterBuilder::new().build();
    let pool = cluster.create_pool(PoolConfig::replicated("data", 2));
    let ctx = IoCtx::new(pool);
    for obj in &data.objects {
        let _ = cluster
            .write_full(&ctx, &ObjectName::new(&*obj.name), obj.data.clone())
            .expect("write");
    }
    cluster.perf_mut().pool.reset_all();
    (cluster, ctx)
}

fn dedup_cluster(data: &Dataset) -> DedupStore {
    let cluster = ClusterBuilder::new().build();
    let mut store = DedupStore::new(
        cluster,
        PoolConfig::replicated("metadata", 2),
        PoolConfig::replicated("chunks", 2),
        DedupConfig::with_chunk_size(32 * 1024).cache_policy(CachePolicy::EvictAll),
    );
    for obj in &data.objects {
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
    let _ = store.flush_all(SimTime::from_secs(1_000)).expect("flush");
    store.cluster_mut().perf_mut().pool.reset_all();
    store
}

fn recovery_secs(cluster: &mut Cluster, failures: usize) -> (f64, u64) {
    for i in 0..failures {
        cluster.fail_osd(OsdId(i as u32 * 5)); // spread across nodes
    }
    let t = cluster.recover().expect("recover");
    let done = cluster.execute_at(SimTime::ZERO, &t.cost);
    assert!(t.value.lost.is_empty(), "no data may be lost");
    (done.as_secs_f64(), t.value.bytes_moved)
}

/// Runs the experiment and prints the comparison table.
pub fn run() {
    report::header(
        "Table 3",
        "Recovery time vs failed OSDs (256 MiB at 50% dedup, replication x2)",
        "Paper used 100 GB; absolute times scale with data size, the \
         Original/Proposed ratio is the reproduced shape.",
    );
    let data = dataset();
    let mut sidecar = report::Sidecars::new("table3");
    let mut rows = Vec::new();
    for &(failures, paper_orig, paper_prop) in PAPER {
        let (mut orig, _) = original_cluster(&data);
        let (orig_secs, orig_moved) = recovery_secs(&mut orig, failures);
        sidecar.capture_registry(
            &format!("original-{failures}f"),
            orig.registry(),
            SimTime::ZERO,
        );

        let mut prop = dedup_cluster(&data);
        let (prop_secs, prop_moved) = recovery_secs(prop.cluster_mut(), failures);
        sidecar.capture_registry(
            &format!("proposed-{failures}f"),
            prop.registry(),
            SimTime::ZERO,
        );

        rows.push(vec![
            failures.to_string(),
            format!("{orig_secs:.3} s ({})", report::fmt_bytes(orig_moved)),
            format!("{prop_secs:.3} s ({})", report::fmt_bytes(prop_moved)),
            format!("{:.2}x", orig_secs / prop_secs.max(1e-12)),
            format!("{:.2}x", paper_orig / paper_prop),
        ]);
    }
    report::print_table(
        &[
            "failed OSDs",
            "Original recovery",
            "Proposed recovery",
            "speedup (measured)",
            "speedup (paper)",
        ],
        &rows,
    );
    sidecar.write();
}
