//! Quick start: stand up a cluster, write duplicate-heavy data, let the
//! background engine deduplicate it, and inspect the capacity savings.
//!
//! Run with: `cargo run --release --example quickstart`

use global_dedup::core::{DedupConfig, DedupStore};
use global_dedup::sim::SimTime;
use global_dedup::store::{ClientId, ClusterBuilder, ObjectName};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // The paper's testbed shape: 4 nodes x 4 OSDs, 32 KiB chunks,
    // post-processing dedup with watermark rate control.
    let cluster = ClusterBuilder::new().nodes(4).osds_per_node(4).build();
    let store = DedupStore::with_default_pools(cluster, DedupConfig::default());

    // Ten "backup" objects: each is 256 KiB, and most of the content is
    // shared with the others (think nightly snapshots of the same volume).
    let base: Vec<u8> = (0..256 * 1024).map(|i| (i % 251) as u8).collect();
    for day in 0..10 {
        let mut snapshot = base.clone();
        // Each day changes one 32 KiB region.
        let start = (day % 8) * 32 * 1024;
        for b in &mut snapshot[start..start + 32 * 1024] {
            *b ^= day as u8 + 1;
        }
        let name = ObjectName::new(format!("snapshot-{day}"));
        let _ = store.write(
            ClientId(0),
            &name,
            0,
            &snapshot,
            SimTime::from_secs(day as u64),
        )?;
    }

    println!("before dedup: {} objects dirty", store.dirty_len());
    let flushed = store.flush_all(SimTime::from_secs(100))?;
    println!(
        "flushed {} chunks: {} unique created, {} deduplicated",
        flushed.value.chunks_flushed, flushed.value.chunks_created, flushed.value.chunks_deduped
    );

    let report = store.space_report()?;
    println!(
        "logical data: {} KiB, unique chunks stored: {} KiB, metadata: {} KiB",
        report.logical_bytes / 1024,
        report.chunk_bytes / 1024,
        (report.metadata_bytes + report.object_overhead_bytes) / 1024,
    );
    println!(
        "ideal dedup ratio: {:.1}%, actual (with metadata): {:.1}%",
        report.ideal_ratio_percent(),
        report.actual_ratio_percent()
    );

    // Reads see the original bytes, wherever the chunks physically live.
    let read = store.read(
        ClientId(0),
        &ObjectName::new("snapshot-3"),
        0,
        base.len() as u64,
        SimTime::from_secs(200),
    )?;
    assert_eq!(read.value.len(), base.len());
    println!("read back snapshot-3: {} bytes OK", read.value.len());
    Ok(())
}
