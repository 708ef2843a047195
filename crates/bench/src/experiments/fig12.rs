//! Figure 12: SPEC SFS 2014 database workload under four configurations —
//! Replication, Proposed, EC(2+1), Proposed-EC.
//!
//! The workload offers a **fixed request rate** (open loop), so throughput
//! is similar wherever the system keeps up; EC variants fall behind on
//! random writes (parity read-modify-write) and their open-loop latency
//! balloons — the paper's log-scale seconds. Storage usage shows the dedup
//! saving.

use dedup_core::{CachePolicy, DedupConfig};
use dedup_sim::SimTime;
use dedup_store::{ClientId, PoolConfig};
use dedup_workloads::sfs::{SfsOpKind, SfsSpec};

use crate::drivers::{run_open_loop, OpSpec, RunStats};
use crate::report;
use crate::systems::{preload, settle, BackgroundMode, DedupSystem, OriginalSystem, StorageSystem};

const DURATION_SECS: u64 = 15;

fn spec() -> SfsSpec {
    SfsSpec::with_load(10).files(8, 1 << 20)
}

fn op_stream() -> Vec<(SimTime, OpSpec)> {
    spec()
        .ops(DURATION_SECS)
        .into_iter()
        .map(|op| {
            let class = match op.kind {
                SfsOpKind::SequentialRead => 0,
                SfsOpKind::RandomRead => 1,
                SfsOpKind::RandomWrite => 2,
            };
            (
                SimTime::from_nanos(op.at_nanos),
                OpSpec {
                    object: op.object,
                    offset: op.offset,
                    len: op.len as u64,
                    data: op.data,
                    client: ClientId((op.at_nanos % 3) as u32),
                    class,
                },
            )
        })
        .collect()
}

const CLASS_NAMES: [&str; 3] = ["SequentialRead", "RandomRead", "RandomWrite"];

struct Outcome {
    label: String,
    stats: RunStats,
    raw_bytes: u64,
}

fn drive(system: &mut dyn StorageSystem, background: bool) -> RunStats {
    run_open_loop(system, op_stream(), background)
}

fn raw_usage(system: &dyn StorageSystem) -> u64 {
    let cluster = system.cluster();
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

/// Runs the experiment and prints all five panels.
pub fn run() {
    report::header(
        "Fig. 12",
        "SPEC SFS 2014 DB workload: Replication / Proposed / EC / Proposed-EC",
        "Open-loop fixed request rate (load 10, scaled); dataset preloaded. \
         Y-axis note: like the paper, EC latencies are orders of magnitude \
         higher under random writes.",
    );
    let dataset = spec().dataset();
    let mut sidecar = report::Sidecars::new("fig12");
    let mut outcomes: Vec<Outcome> = Vec::new();

    {
        let mut sys = OriginalSystem::new("Replication", PoolConfig::replicated("data", 2));
        preload(&mut sys, &dataset);
        let stats = drive(&mut sys, false);
        sidecar.capture("replication", &sys, stats.elapsed);
        let raw = raw_usage(&sys);
        outcomes.push(Outcome {
            label: "Replication".into(),
            stats,
            raw_bytes: raw,
        });
    }
    {
        let mut sys = DedupSystem::new(
            "Proposed",
            DedupConfig::with_chunk_size(32 * 1024).cache_policy(CachePolicy::HotnessAware),
        )
        .background(BackgroundMode::RateControlled);
        preload(&mut sys, &dataset);
        settle(&mut sys);
        let stats = drive(&mut sys, true);
        sidecar.capture("proposed", &sys, stats.elapsed);
        settle(&mut sys);
        let raw = raw_usage(&sys);
        outcomes.push(Outcome {
            label: "Proposed".into(),
            stats,
            raw_bytes: raw,
        });
    }
    {
        let mut sys = OriginalSystem::new("EC", PoolConfig::erasure("data", 2, 1));
        preload(&mut sys, &dataset);
        let stats = drive(&mut sys, false);
        sidecar.capture("ec", &sys, stats.elapsed);
        let raw = raw_usage(&sys);
        outcomes.push(Outcome {
            label: "EC (2+1)".into(),
            stats,
            raw_bytes: raw,
        });
    }
    {
        let mut sys = DedupSystem::with_pools(
            "Proposed-EC",
            DedupConfig::with_chunk_size(32 * 1024).cache_policy(CachePolicy::HotnessAware),
            PoolConfig::erasure("metadata", 2, 1),
            PoolConfig::erasure("chunks", 2, 1),
        )
        .background(BackgroundMode::RateControlled);
        preload(&mut sys, &dataset);
        settle(&mut sys);
        let stats = drive(&mut sys, true);
        sidecar.capture("proposed-ec", &sys, stats.elapsed);
        settle(&mut sys);
        let raw = raw_usage(&sys);
        outcomes.push(Outcome {
            label: "Proposed-EC".into(),
            stats,
            raw_bytes: raw,
        });
    }

    println!("### (a,b) Total throughput and latency\n");
    report::print_table(
        &["system", "throughput", "mean latency", "p99 latency"],
        &outcomes
            .iter()
            .map(|o| {
                vec![
                    o.label.clone(),
                    format!("{:.1} MB/s", o.stats.throughput_mbps()),
                    report::ms(o.stats.latency.mean().as_millis_f64()),
                    report::ms(o.stats.latency.percentile(99.0).as_millis_f64()),
                ]
            })
            .collect::<Vec<_>>(),
    );

    println!("\n### (c,d) Per-operation IOPS and latency\n");
    let mut rows = Vec::new();
    for o in &outcomes {
        for (class, lat) in &o.stats.per_class {
            let ops = o.stats.class_ops.get(class).copied().unwrap_or(0);
            let iops = if o.stats.elapsed == SimTime::ZERO {
                0.0
            } else {
                ops as f64 / o.stats.elapsed.as_secs_f64()
            };
            rows.push(vec![
                o.label.clone(),
                CLASS_NAMES[*class as usize].to_string(),
                format!("{iops:.0}"),
                report::ms(lat.mean().as_millis_f64()),
            ]);
        }
    }
    report::print_table(&["system", "op", "IOPS", "mean latency"], &rows);

    println!("\n### (e) Storage usage (raw, incl. redundancy)\n");
    report::print_table(
        &["system", "raw bytes", "paper (240 GB dataset)"],
        &outcomes
            .iter()
            .map(|o| {
                let paper = match o.label.as_str() {
                    "Replication" => "428 GB",
                    "EC (2+1)" => "320 GB",
                    "Proposed" => "48 GB",
                    _ => "(not reported)",
                };
                vec![
                    o.label.clone(),
                    report::fmt_bytes(o.raw_bytes),
                    paper.to_string(),
                ]
            })
            .collect::<Vec<_>>(),
    );
    sidecar.write();
}
