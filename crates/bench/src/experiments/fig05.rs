//! Figure 5: why naive deduplication hurts.
//!
//! * **(a) Partial-write problem of inline processing** — 16 KiB sequential
//!   writes onto a 32 KiB-chunk system force a read-modify-write per chunk
//!   when deduplication is inline; throughput collapses versus the original
//!   store.
//! * **(b) Foreground interference of post-processing** — an unthrottled
//!   background deduplication engine drags sequential-write throughput
//!   down (paper: 600 → 200 MB/s).

use dedup_core::{CachePolicy, DedupConfig};
use dedup_store::{ClientId, PoolConfig};

use crate::drivers::{run_closed_loop, run_closed_loop_with_background, OpSpec};
use crate::report;
use crate::systems::{BackgroundMode, DedupSystem, OriginalSystem, StorageSystem};

const CHUNK: u32 = 32 * 1024;
const OBJECT: u64 = 1 << 20;

fn seq_write_op(i: u64, block: u64) -> OpSpec {
    seq_write_op_striped(i, block, 4)
}

/// Sequential writes where each of `streams` contexts owns its own file.
fn seq_write_op_striped(i: u64, block: u64, streams: u64) -> OpSpec {
    let stream = i % streams;
    let pos = i / streams;
    let per_obj = OBJECT / block;
    OpSpec {
        object: format!("seq-{stream}-{}", pos / per_obj),
        offset: (pos % per_obj) * block,
        data: Some(vec![(i % 251) as u8; block as usize]),
        len: 0,
        client: ClientId((stream % 3) as u32),
        class: 0,
    }
}

/// Runs both halves of the experiment.
pub fn run() {
    report::header(
        "Fig. 5",
        "Performance degradation of naive deduplication",
        "(a) inline 16 KiB writes against 32 KiB chunks (read-modify-write); \
         (b) sequential 32 KiB writes against an unthrottled background engine.",
    );

    // (a) Inline partial-write problem.
    let ops = 2_000u64;
    let mut original = OriginalSystem::new("Original", PoolConfig::replicated("data", 2));
    let orig = run_closed_loop(&mut original, 4, ops, 1, |i, _| seq_write_op(i, 16 * 1024));

    let mut inline = DedupSystem::new("Inline", DedupConfig::with_chunk_size(CHUNK).inline())
        .background(BackgroundMode::Off);
    let inl = run_closed_loop(&mut inline, 4, ops, 1, |i, _| seq_write_op(i, 16 * 1024));

    println!("### (a) Partial-write problem (16 KiB writes, 32 KiB chunks)\n");
    report::print_table(
        &["system", "throughput", "mean latency", "paper shape"],
        &[
            vec![
                "Original".into(),
                format!("{:.0} MB/s", orig.throughput_mbps()),
                report::ms(orig.latency.mean().as_millis_f64()),
                "~700 MB/s".into(),
            ],
            vec![
                "Inline dedup".into(),
                format!("{:.0} MB/s", inl.throughput_mbps()),
                report::ms(inl.latency.mean().as_millis_f64()),
                "collapses (RMW per chunk)".into(),
            ],
        ],
    );
    println!(
        "\ninline slowdown: {:.1}x\n",
        orig.throughput_mbps() / inl.throughput_mbps().max(1e-9)
    );

    // (b) Unthrottled background interference: the engine drains a large
    // dirty backlog with 8 workers while the foreground writes. Disks are
    // capped at 120 MB/s (journal+data amplification) so the foreground is
    // capacity-bound as in the testbed.
    let perf = dedup_store::PerfConfig {
        disk_bytes_per_sec: 120 * 1_000_000,
        ..dedup_store::PerfConfig::default()
    };
    let mk = || {
        DedupSystem::with_cluster(
            "PostProcess",
            dedup_store::ClusterBuilder::new().perf(perf).build(),
            DedupConfig::with_chunk_size(CHUNK).cache_policy(CachePolicy::EvictAll),
        )
        .workers(32)
    };
    let preload_backlog = |sys: &mut DedupSystem| {
        for b in 0u64..16384 {
            let data: Vec<u8> = (0..CHUNK as u64)
                .map(|j| ((b * 131 + j * 7) % 251) as u8)
                .collect();
            let _ = sys
                .store_mut()
                .write(
                    ClientId(0),
                    &dedup_store::ObjectName::new(format!("backlog-{}", b / 32)),
                    (b % 32) * CHUNK as u64,
                    &data,
                    dedup_sim::SimTime::ZERO,
                )
                .expect("backlog write");
        }
        sys.cluster_mut().perf_mut().pool.reset_all();
    };
    let ops = 12_000u64;
    let mut quiet = mk().background(BackgroundMode::Off);
    preload_backlog(&mut quiet);
    let base = run_closed_loop_with_background(&mut quiet, 8, ops, 2, false, |i, _| {
        seq_write_op_striped(i, CHUNK as u64, 8)
    });
    let mut noisy = mk().background(BackgroundMode::Unthrottled);
    preload_backlog(&mut noisy);
    let busy = run_closed_loop_with_background(&mut noisy, 8, ops, 2, true, |i, _| {
        seq_write_op_striped(i, CHUNK as u64, 8)
    });

    println!("### (b) Foreground interference (sequential 32 KiB writes)\n");
    report::print_table(
        &["system", "mean throughput", "paper shape"],
        &[
            vec![
                "no background dedup".into(),
                format!("{:.0} MB/s", base.throughput_mbps()),
                "~600 MB/s".into(),
            ],
            vec![
                "unthrottled background dedup".into(),
                format!("{:.0} MB/s", busy.throughput_mbps()),
                "~200 MB/s".into(),
            ],
        ],
    );
    println!(
        "\n{}\n{}",
        report::series("fg MB/s (quiet)", &base.series.throughput_mbps(), 1),
        report::series("fg MB/s (noisy)", &busy.series.throughput_mbps(), 1),
    );

    let mut sidecars = report::Sidecars::new("fig05");
    sidecars.capture("original", &original, orig.elapsed);
    sidecars.capture("inline", &inline, inl.elapsed);
    sidecars.capture("quiet", &quiet, base.elapsed);
    sidecars.capture("unthrottled", &noisy, busy.elapsed);

    // Redirection-read probe: the unthrottled run left the backlog
    // deduplicated with its cached copies evicted, so these reads proxy
    // through the metadata pool to the chunk pool. Silent on stdout (the
    // figure's printed output must not depend on tracing) and after the
    // metrics snapshot; its purpose is the trace sidecar, read at write
    // time, where each read decomposes into redirect.lookup /
    // redirect.chunk_read / redirect.relay legs with separate queue and
    // service segments.
    let _ = run_closed_loop(&mut noisy, 4, 64, 3, |i, _| {
        OpSpec::read(
            format!("backlog-{}", i % 512),
            (i % 32) * CHUNK as u64,
            CHUNK as u64,
            ClientId(0),
        )
    });
    sidecars.write();
}
