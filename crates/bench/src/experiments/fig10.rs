//! Figure 10: small random I/O (8 KiB) latency and CPU usage.
//!
//! Paper setup: FIO 8 KiB random read/write, 4 threads × 4 iodepth, 32 KiB
//! chunks. Variants:
//!
//! * **Original** — unmodified store.
//! * **Proposed** — post-processing dedup with rate control; data already
//!   flushed to the chunk pool (reads redirect; partial writes pre-read).
//! * **Proposed-flush** — every write deduplicated immediately (inline).
//! * **Proposed-cache** — data cached in the metadata pool.
//!
//! Expected shape: Proposed write latency ~+20 % with ~2× CPU;
//! Proposed-flush worst; Proposed-cache ≈ Original; reads: Proposed pays
//! the redirection, Proposed-cache ≈ Original.

use dedup_core::{CachePolicy, DedupConfig};
use dedup_store::{ClientId, PoolConfig};
use dedup_workloads::fio::FioSpec;

use crate::drivers::{random_block, run_closed_loop_with_background, OpSpec, RunStats};
use crate::report;
use crate::systems::{
    mean_cpu_utilization, preload, settle, BackgroundMode, DedupSystem, StorageSystem,
};

const CHUNK: u32 = 32 * 1024;
const BLOCK: u64 = 8 * 1024;
const STREAMS: usize = 16; // 4 threads x 4 iodepth
const OPS: u64 = 6_000;
const OBJECTS: usize = 32;
const OBJECT_SIZE: u64 = 1 << 20;

fn dataset() -> dedup_workloads::Dataset {
    FioSpec::new(OBJECTS as u64 * OBJECT_SIZE, 0.5)
        .object_size(OBJECT_SIZE as u32)
        .dataset()
}

fn rand_op(rng: &mut rand::rngs::StdRng, write: bool, i: u64) -> OpSpec {
    let (object, offset) = random_block(rng, OBJECTS, OBJECT_SIZE, BLOCK, |o| format!("fio-{o}"));
    OpSpec {
        object,
        offset,
        data: write.then(|| vec![(i % 251) as u8; BLOCK as usize]),
        len: BLOCK,
        client: ClientId((i % 3) as u32),
        class: 0,
    }
}

fn drive(system: &mut dyn StorageSystem, write: bool, background: bool) -> (RunStats, f64) {
    let stats = run_closed_loop_with_background(system, STREAMS, OPS, 99, background, |i, rng| {
        rand_op(rng, write, i)
    });
    let cpu = mean_cpu_utilization(system.cluster(), stats.elapsed) * 100.0;
    (stats, cpu)
}

/// Runs the experiment and prints both tables.
pub fn run() {
    report::header(
        "Fig. 10",
        "8 KiB random write/read latency and CPU (32 KiB chunks)",
        "16 in-flight ops (4 threads x 4 iodepth) over a preloaded 32 MiB set.",
    );
    let data = dataset();
    let mut sidecar = report::Sidecars::new("fig10");

    // ---- random write ----
    let mut rows = Vec::new();
    {
        let mut sys =
            crate::systems::OriginalSystem::new("Original", PoolConfig::replicated("data", 2));
        preload(&mut sys, &data);
        let (st, cpu) = drive(&mut sys, true, false);
        sidecar.capture("write-original", &sys, st.elapsed);
        rows.push(row("Original", &st, cpu, "baseline"));
    }
    {
        let mut sys = DedupSystem::new(
            "Proposed",
            DedupConfig::with_chunk_size(CHUNK).cache_policy(CachePolicy::EvictAll),
        )
        .background(BackgroundMode::RateControlled);
        preload(&mut sys, &data);
        settle(&mut sys);
        let (st, cpu) = drive(&mut sys, true, true);
        sidecar.capture("write-proposed", &sys, st.elapsed);
        rows.push(row("Proposed", &st, cpu, "~+20% latency, ~2x CPU"));
    }
    {
        let mut sys = DedupSystem::new(
            "Proposed-flush",
            DedupConfig::with_chunk_size(CHUNK).inline(),
        )
        .background(BackgroundMode::Off);
        preload(&mut sys, &data);
        let (st, cpu) = drive(&mut sys, true, false);
        sidecar.capture("write-proposed-flush", &sys, st.elapsed);
        rows.push(row("Proposed-flush", &st, cpu, "worst (immediate dedup)"));
    }
    {
        let mut sys = DedupSystem::new(
            "Proposed-cache",
            DedupConfig::with_chunk_size(CHUNK).cache_policy(CachePolicy::KeepAll),
        )
        .background(BackgroundMode::Off);
        preload(&mut sys, &data);
        let (st, cpu) = drive(&mut sys, true, false);
        sidecar.capture("write-proposed-cache", &sys, st.elapsed);
        rows.push(row("Proposed-cache", &st, cpu, "~= Original"));
    }
    println!("### (a) 8 KiB random write\n");
    report::print_table(
        &["system", "mean latency", "p99", "CPU", "paper shape"],
        &rows,
    );

    // ---- random read ----
    let mut rows = Vec::new();
    {
        let mut sys =
            crate::systems::OriginalSystem::new("Original", PoolConfig::replicated("data", 2));
        preload(&mut sys, &data);
        let (st, cpu) = drive(&mut sys, false, false);
        sidecar.capture("read-original", &sys, st.elapsed);
        rows.push(row("Original", &st, cpu, "baseline"));
    }
    {
        let mut sys = DedupSystem::new(
            "Proposed",
            DedupConfig::with_chunk_size(CHUNK).cache_policy(CachePolicy::EvictAll),
        )
        .background(BackgroundMode::Off);
        preload(&mut sys, &data);
        settle(&mut sys);
        let (st, cpu) = drive(&mut sys, false, false);
        sidecar.capture("read-proposed", &sys, st.elapsed);
        rows.push(row("Proposed", &st, cpu, "higher (redirection)"));
    }
    {
        let mut sys = DedupSystem::new(
            "Proposed-cache",
            DedupConfig::with_chunk_size(CHUNK).cache_policy(CachePolicy::KeepAll),
        )
        .background(BackgroundMode::Off);
        preload(&mut sys, &data);
        let (st, cpu) = drive(&mut sys, false, false);
        sidecar.capture("read-proposed-cache", &sys, st.elapsed);
        rows.push(row("Proposed-cache", &st, cpu, "~= Original"));
    }
    println!("\n### (b) 8 KiB random read\n");
    report::print_table(
        &["system", "mean latency", "p99", "CPU", "paper shape"],
        &rows,
    );
    sidecar.write();
}

fn row(name: &str, st: &RunStats, cpu: f64, note: &str) -> Vec<String> {
    vec![
        name.to_string(),
        report::ms(st.latency.mean().as_millis_f64()),
        report::ms(st.latency.percentile(99.0).as_millis_f64()),
        format!("{cpu:.1}%"),
        note.to_string(),
    ]
}
