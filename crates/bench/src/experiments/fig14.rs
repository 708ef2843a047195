//! Figure 14: deduplication rate control.
//!
//! Sequential foreground writes run while the background engine (8
//! concurrent flush workers) drains a large pre-existing dirty backlog, in
//! three configurations: no dedup at all (ideal), unthrottled background
//! dedup, and watermark rate control. Paper: ideal ~500–600 MB/s,
//! uncontrolled drops to ~200 MB/s, rate-controlled holds ~400–500 MB/s.
//!
//! Disk bandwidth is set to 120 MB/s per OSD to model the journal+data
//! write amplification of the paper's FileStore-era OSDs, making the
//! foreground capacity-bound as in the testbed.

use dedup_core::{CachePolicy, DedupConfig, Watermarks};
use dedup_sim::SimTime;
use dedup_store::{ClientId, ClusterBuilder, ObjectName, PerfConfig, PoolConfig};

use crate::drivers::{run_closed_loop_with_background, OpSpec, RunStats};
use crate::report;
use crate::systems::{BackgroundMode, DedupSystem, OriginalSystem, StorageSystem};

const BLOCK: u64 = 32 * 1024;
const OBJECT: u64 = 1 << 20;
const OPS: u64 = 14_000;
const STREAMS: usize = 8;
const BG_WORKERS: usize = 32;
const BACKLOG_MB: u64 = 768;

fn perf() -> PerfConfig {
    PerfConfig {
        disk_bytes_per_sec: 120 * 1_000_000,
        ..PerfConfig::default()
    }
}

fn seq_op(i: u64) -> OpSpec {
    // Each stream writes its own sequential file (i is handed out in
    // round-robin order across the closed-loop streams).
    let stream = i % STREAMS as u64;
    let pos = i / STREAMS as u64;
    let per_obj = OBJECT / BLOCK;
    OpSpec::write(
        format!("seq-{stream}-{}", pos / per_obj),
        (pos % per_obj) * BLOCK,
        vec![(i % 251) as u8; BLOCK as usize],
        ClientId((stream % 3) as u32),
    )
}

fn config() -> DedupConfig {
    DedupConfig::with_chunk_size(BLOCK as u32)
        .cache_policy(CachePolicy::EvictAll)
        .watermarks(Watermarks {
            low_iops: 500.0,
            high_iops: 5_000.0,
            mid_ratio: 100,
            high_ratio: 500,
        })
}

/// Writes a dirty backlog the background engine will chew on, without
/// charging the timing plane.
fn preload_backlog(sys: &mut DedupSystem) {
    let blocks = BACKLOG_MB << 20 >> 15; // 32 KiB units
    for b in 0..blocks {
        let data: Vec<u8> = (0..BLOCK)
            .map(|j| ((b * 131 + j * 7) % 251) as u8)
            .collect();
        let _ = sys
            .store_mut()
            .write(
                ClientId(0),
                &ObjectName::new(format!("backlog-{}", b / 32)),
                (b % 32) * BLOCK,
                &data,
                SimTime::ZERO,
            )
            .expect("backlog write");
    }
    sys.cluster_mut().perf_mut().pool.reset_all();
}

fn summarize(label: &str, st: &RunStats) -> Vec<String> {
    let t = st.series.throughput_mbps();
    let mid = &t[t.len() / 4..(3 * t.len() / 4).max(t.len() / 4 + 1)];
    let steady = mid.iter().sum::<f64>() / mid.len().max(1) as f64;
    vec![
        label.to_string(),
        format!("{:.0} MB/s", st.throughput_mbps()),
        format!("{steady:.0} MB/s"),
        report::ms(st.latency.mean().as_millis_f64()),
    ]
}

/// Runs the experiment and prints the series and summary.
pub fn run() {
    report::header(
        "Fig. 14",
        "Deduplication rate control under sequential foreground writes",
        "Foreground: 8 closed-loop streams of 32 KiB sequential writes; \
         background: 32 flush workers draining a 768 MiB dirty backlog. \
         Disks at 120 MB/s effective (journal+data amplification).",
    );

    let mut ideal_sys = OriginalSystem::with_cluster(
        "ideal",
        ClusterBuilder::new().perf(perf()).build(),
        PoolConfig::replicated("data", 2),
    );
    let ideal =
        run_closed_loop_with_background(&mut ideal_sys, STREAMS, OPS, 14, false, |i, _| seq_op(i));

    let mut uncontrolled_sys = DedupSystem::with_cluster(
        "w/o control",
        ClusterBuilder::new().perf(perf()).build(),
        config(),
    )
    .background(BackgroundMode::Unthrottled)
    .workers(BG_WORKERS);
    preload_backlog(&mut uncontrolled_sys);
    let uncontrolled =
        run_closed_loop_with_background(&mut uncontrolled_sys, STREAMS, OPS, 14, true, |i, _| {
            seq_op(i)
        });

    let mut controlled_sys = DedupSystem::with_cluster(
        "w/ control",
        ClusterBuilder::new().perf(perf()).build(),
        config(),
    )
    .background(BackgroundMode::RateControlled)
    .workers(BG_WORKERS);
    preload_backlog(&mut controlled_sys);
    let controlled =
        run_closed_loop_with_background(&mut controlled_sys, STREAMS, OPS, 14, true, |i, _| {
            seq_op(i)
        });

    report::print_table(
        &["configuration", "mean", "steady-state", "mean latency"],
        &[
            summarize("no dedup (ideal)", &ideal),
            summarize("dedup w/o rate control", &uncontrolled),
            summarize("dedup w/ rate control", &controlled),
        ],
    );
    let step = (ideal.series.len() / 12).max(1);
    println!(
        "\n{}\n{}\n{}\n",
        report::series("ideal MB/s", &ideal.series.throughput_mbps(), step),
        report::series(
            "w/o control MB/s",
            &uncontrolled.series.throughput_mbps(),
            step
        ),
        report::series(
            "w/ control MB/s",
            &controlled.series.throughput_mbps(),
            step
        ),
    );
    let (admitted, denied) = controlled_sys
        .store_mut()
        .rate_controller_mut()
        .admission_counts();
    println!("rate control admissions: {admitted} allowed, {denied} deferred");
    println!(
        "backlog left: w/o control {}, w/ control {}\n",
        uncontrolled_sys.store().dirty_len(),
        controlled_sys.store().dirty_len()
    );
    println!(
        "paper shape: w/o control drops toward ~1/3 of ideal; w/ control \
         stays within ~80-90% of ideal.\n"
    );

    let mut sidecars = report::Sidecars::new("fig14");
    sidecars.capture("ideal", &ideal_sys, ideal.elapsed);
    sidecars.capture("uncontrolled", &uncontrolled_sys, uncontrolled.elapsed);
    sidecars.capture("controlled", &controlled_sys, controlled.elapsed);
    sidecars.write();
}
