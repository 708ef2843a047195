//! VM image hosting (the paper's Fig. 13 scenario): store a fleet of VM
//! images that share almost all OS content, combining deduplication with
//! erasure coding and at-rest compression for maximum capacity saving.
//!
//! Run with: `cargo run --release --example vm_image_store`

use global_dedup::core::{CachePolicy, DedupConfig, DedupStore};
use global_dedup::sim::SimTime;
use global_dedup::store::{ClientId, ClusterBuilder, ObjectName, PoolConfig};
use global_dedup::workloads::vm_images::VmImageSpec;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let cluster = ClusterBuilder::new().build();
    // Metadata pool replicated for latency; chunk pool erasure-coded and
    // compressed for capacity (pools choose their own redundancy, §4.2).
    let store = DedupStore::new(
        cluster,
        PoolConfig::replicated("metadata", 2),
        PoolConfig::erasure("chunks", 2, 1).with_compression(),
        DedupConfig::with_chunk_size(32 * 1024).cache_policy(CachePolicy::EvictAll),
    );

    let spec = VmImageSpec {
        images: 6,
        image_bytes: 4 << 20, // scaled-down 8 GB images
        ..Default::default()
    };

    println!("image | logical total | raw cluster bytes | bytes per image");
    for i in 0..spec.images {
        let image = spec.image(i);
        let _ = store.write(
            ClientId(0),
            &ObjectName::new(&*image.name),
            0,
            &image.data,
            SimTime::from_secs(i as u64),
        )?;
        let _ = store.flush_all(SimTime::from_secs(100 + i as u64))?;
        let report = store.space_report()?;
        println!(
            "{:>5} | {:>10} KiB | {:>13} KiB | {:>10} KiB",
            i + 1,
            report.logical_bytes / 1024,
            report.raw_bytes / 1024,
            report.raw_bytes / 1024 / (i as u64 + 1),
        );
    }

    let report = store.space_report()?;
    println!(
        "\nfinal: {:.1}% of logical bytes eliminated before redundancy \
         ({} unique chunks for {} images)",
        report.ideal_ratio_percent(),
        report.chunk_objects,
        spec.images
    );

    // Verify an image survives the trip byte-for-byte.
    let img = spec.image(3);
    let read = store.read(
        ClientId(0),
        &ObjectName::new(&*img.name),
        0,
        img.data.len() as u64,
        SimTime::from_secs(500),
    )?;
    assert_eq!(read.value, img.data);
    println!("integrity check on {}: OK", img.name);
    Ok(())
}
