//! Table 2: deduplication ratio vs chunk size (16/32/64 KiB) including
//! metadata overhead.
//!
//! Paper: the private-cloud dataset; smaller chunks find more duplicates
//! (higher *ideal* ratio) but pay more chunk-map entries, references, and
//! per-object overheads, so the *actual* ratio flips — 16 KiB ends worst.
//! Dataset scaled from 3.3 TB to ~130 MiB; the crossover is what matters.

use dedup_core::{CachePolicy, DedupConfig, DedupStore};
use dedup_sim::SimTime;
use dedup_store::{ClientId, ClusterBuilder, ObjectName, PoolConfig};
use dedup_workloads::cloud::CloudSpec;

use crate::report;

/// Paper's rows: (chunk KiB, ideal %, actual %).
const PAPER: &[(u32, f64, f64)] = &[(16, 46.4, 41.7), (32, 44.8, 42.4), (64, 43.7, 43.3)];

/// Runs the experiment and prints the comparison table.
pub fn run() {
    report::header(
        "Table 2",
        "Dedup ratio vs chunk size (ideal vs actual, with metadata overhead)",
        "Private-cloud dataset; ratios exclude replication redundancy as in the paper.",
    );
    let dataset = CloudSpec::default().dataset();
    let mut sidecar = report::Sidecars::new("table2");
    let mut rows = Vec::new();
    for &(chunk_kib, paper_ideal, paper_actual) in PAPER {
        let cluster = ClusterBuilder::new().build();
        let store = DedupStore::new(
            cluster,
            PoolConfig::replicated("metadata", 2),
            PoolConfig::replicated("chunks", 2),
            DedupConfig::with_chunk_size(chunk_kib * 1024).cache_policy(CachePolicy::EvictAll),
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
        let _ = store.flush_all(SimTime::from_secs(1_000)).expect("flush");
        let sr = store.space_report().expect("report");
        sidecar.capture_registry(
            &format!("chunk-{chunk_kib}k"),
            store.registry(),
            SimTime::from_secs(1_000),
        );
        rows.push(vec![
            format!("{chunk_kib} KiB"),
            report::pct(sr.ideal_ratio_percent()),
            report::pct(paper_ideal),
            report::fmt_bytes(sr.stored_data_bytes()),
            report::fmt_bytes(sr.metadata_bytes + sr.object_overhead_bytes),
            report::pct(sr.actual_ratio_percent()),
            report::pct(paper_actual),
        ]);
    }
    report::print_table(
        &[
            "chunk",
            "ideal (measured)",
            "ideal (paper)",
            "stored data",
            "metadata",
            "actual (measured)",
            "actual (paper)",
        ],
        &rows,
    );
    println!(
        "\npaper shape: ideal ratio falls as chunks grow; metadata shrinks \
         ~2x per chunk-size doubling; smallest chunk has the worst actual ratio.\n"
    );
    sidecar.write();
}
