//! Figure 13: cumulative footprint of VM images under combinations of
//! replication, erasure coding, deduplication, and compression.
//!
//! Paper: ten 8 GB Ubuntu images (identical OS, distinct user data).
//! Replication ×2 costs 160 GB, EC(2+1) 120 GB, dedup collapses the shared
//! OS blocks to ~2.2 GB with ~200 MB added per extra image, and
//! EC+dedup+compression is minimal. Scaled here to 8 MiB images.

use dedup_core::{CachePolicy, DedupConfig, DedupStore};
use dedup_sim::SimTime;
use dedup_store::{ClientId, Cluster, ClusterBuilder, IoCtx, ObjectName, PoolConfig};
use dedup_workloads::vm_images::VmImageSpec;

use crate::report;

fn spec() -> VmImageSpec {
    VmImageSpec {
        images: 10,
        image_bytes: 8 << 20,
        ..Default::default()
    }
}

fn raw_total(cluster: &Cluster) -> u64 {
    (0..cluster.map().osd_count())
        .map(|i| {
            cluster
                .osd_objects(dedup_placement::OsdId(i as u32))
                .expect("osd")
                .iter()
                .map(|(_, _, o)| o.footprint())
                .sum::<u64>()
        })
        .sum()
}

#[allow(clippy::large_enum_variant)] // two one-off instances per config; boxing buys nothing
enum System {
    Plain(Cluster, IoCtx),
    Dedup(Box<DedupStore>),
}

impl System {
    fn plain(pool: PoolConfig) -> Self {
        let mut cluster = ClusterBuilder::new().build();
        let pool = cluster.create_pool(pool);
        System::Plain(cluster, IoCtx::new(pool))
    }

    fn dedup(metadata: PoolConfig, chunks: PoolConfig) -> Self {
        let cluster = ClusterBuilder::new().build();
        System::Dedup(Box::new(DedupStore::new(
            cluster,
            metadata,
            chunks,
            DedupConfig::with_chunk_size(32 * 1024).cache_policy(CachePolicy::EvictAll),
        )))
    }

    fn add_image(&mut self, name: &str, data: &[u8]) {
        match self {
            System::Plain(cluster, ctx) => {
                let _ = cluster
                    .write_full(ctx, &ObjectName::new(name), data.to_vec())
                    .expect("write");
            }
            System::Dedup(store) => {
                let _ = store
                    .write(ClientId(0), &ObjectName::new(name), 0, data, SimTime::ZERO)
                    .expect("write");
                let _ = store.flush_all(SimTime::from_secs(1_000)).expect("flush");
            }
        }
    }

    fn raw(&self) -> u64 {
        match self {
            System::Plain(cluster, _) => raw_total(cluster),
            System::Dedup(store) => raw_total(store.cluster()),
        }
    }

    fn registry(&self) -> &dedup_obs::Registry {
        match self {
            System::Plain(cluster, _) => cluster.registry(),
            System::Dedup(store) => store.registry(),
        }
    }
}

/// Runs the experiment and prints cumulative sizes.
pub fn run() {
    report::header(
        "Fig. 13",
        "Dedup + compression combinations on cumulative VM images",
        "10 images of 8 MiB (paper: 8 GB), identical OS region, distinct \
         user data. Values are raw cluster bytes including redundancy.",
    );
    let spec = spec();
    let configs: Vec<(&str, System)> = vec![
        ("rep", System::plain(PoolConfig::replicated("d", 2))),
        ("ec", System::plain(PoolConfig::erasure("d", 2, 1))),
        (
            "rep+dedup",
            System::dedup(
                PoolConfig::replicated("m", 2),
                PoolConfig::replicated("c", 2),
            ),
        ),
        (
            "rep+dedup+comp",
            System::dedup(
                PoolConfig::replicated("m", 2).with_compression(),
                PoolConfig::replicated("c", 2).with_compression(),
            ),
        ),
        (
            "ec+dedup",
            System::dedup(
                PoolConfig::replicated("m", 2),
                PoolConfig::erasure("c", 2, 1),
            ),
        ),
        (
            "ec+dedup+comp",
            System::dedup(
                PoolConfig::replicated("m", 2).with_compression(),
                PoolConfig::erasure("c", 2, 1).with_compression(),
            ),
        ),
    ];
    let mut systems = configs;
    let mut rows: Vec<Vec<String>> = Vec::new();
    for i in 0..spec.images {
        let image = spec.image(i);
        let mut row = vec![format!("{}", i + 1)];
        for (_, system) in systems.iter_mut() {
            system.add_image(&image.name, &image.data);
            row.push(report::fmt_bytes(system.raw()));
        }
        rows.push(row);
    }
    let headers: Vec<&str> = std::iter::once("images")
        .chain(systems.iter().map(|(n, _)| *n))
        .collect();
    report::print_table(&headers, &rows);
    println!(
        "\npaper shape: rep grows 16 GB/image and ec 12 GB/image (scaled \
         here 1000x down); dedup variants grow by only the unique user data \
         per image; ec+dedup+comp is the minimum.\n"
    );
    let mut sidecar = report::Sidecars::new("fig13");
    for (name, system) in &systems {
        system
            .registry()
            .gauge("figure.raw_bytes")
            .set(system.raw() as i64);
        sidecar.capture_registry(name, system.registry(), SimTime::from_secs(1_000));
    }
    sidecar.write();
}
