//! End-to-end check of the observability layer: a small fig14-style run
//! (foreground writes racing a rate-controlled background engine) must
//! produce a metrics snapshot that is non-empty and internally
//! consistent across the engine, cluster, rate-control, and driver
//! instruments.

use std::collections::HashMap;

use dedup_bench::drivers::{run_closed_loop_with_background, OpSpec};
use dedup_bench::report::Sidecars;
use dedup_bench::systems::{BackgroundMode, DedupSystem, StorageSystem};
use dedup_core::{CachePolicy, DedupConfig, Watermarks};
use dedup_sim::SimTime;
use dedup_store::{ClientId, ObjectName};

const BLOCK: u64 = 32 * 1024;
const OPS: u64 = 600;
const STREAMS: usize = 4;
const BACKLOG_BLOCKS: u64 = 256;

fn config() -> DedupConfig {
    // A low watermark far above any achievable foreground rate keeps the
    // controller in the unrestricted band, so the background engine is
    // guaranteed to make (counted) progress during the run.
    DedupConfig::with_chunk_size(BLOCK as u32)
        .cache_policy(CachePolicy::EvictAll)
        .watermarks(Watermarks {
            low_iops: 1e9,
            high_iops: 2e9,
            mid_ratio: 100,
            high_ratio: 500,
        })
}

fn seq_op(i: u64) -> OpSpec {
    let stream = i % STREAMS as u64;
    let pos = i / STREAMS as u64;
    OpSpec::write(
        format!("seq-{stream}"),
        (pos % 32) * BLOCK,
        vec![(i % 251) as u8; BLOCK as usize],
        ClientId((stream % 3) as u32),
    )
}

/// Pulls `"key":value` (string or number) out of one sidecar line. The
/// format is flat JSON objects with at most one nested `labels` map, so a
/// field scraper is enough — a full parser would test itself, not the
/// sidecar.
fn field(line: &str, key: &str) -> Option<String> {
    let tag = format!("\"{key}\":");
    let start = line.find(&tag)? + tag.len();
    let rest = &line[start..];
    if let Some(stripped) = rest.strip_prefix('"') {
        Some(stripped[..stripped.find('"')?].to_string())
    } else {
        let end = rest.find([',', '}']).unwrap_or(rest.len());
        Some(rest[..end].trim().to_string())
    }
}

fn num(line: &str, key: &str) -> f64 {
    field(line, key)
        .unwrap_or_else(|| panic!("field {key} missing in {line}"))
        .parse()
        .unwrap_or_else(|_| panic!("field {key} not numeric in {line}"))
}

fn line_for<'a>(by_name: &'a HashMap<String, String>, metric: &str) -> &'a str {
    by_name
        .get(metric)
        .unwrap_or_else(|| panic!("metric {metric} missing from snapshot"))
}

fn value_of(by_name: &HashMap<String, String>, metric: &str) -> f64 {
    num(line_for(by_name, metric), "value")
}

#[test]
fn fig14_style_snapshot_is_consistent() {
    let mut sys = DedupSystem::new("controlled", config())
        .background(BackgroundMode::RateControlled)
        .workers(4);

    // A dirty backlog for the background engine to chew through.
    for b in 0..BACKLOG_BLOCKS {
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

    let stats = run_closed_loop_with_background(&mut sys, STREAMS, OPS, 14, true, |i, _| seq_op(i));
    assert_eq!(stats.ops, OPS);

    let mut sidecar = Sidecars::new("test-fig14");
    sidecar.capture("controlled", &sys, stats.elapsed);

    // Non-empty; every line is a self-contained JSON object tagged with
    // the system label.
    assert!(!sidecar.lines().is_empty(), "snapshot must not be empty");
    let mut by_name: HashMap<String, String> = HashMap::new();
    for line in sidecar.lines() {
        assert!(
            line.starts_with('{') && line.ends_with('}'),
            "not a JSON object: {line}"
        );
        assert_eq!(
            field(line, "system").as_deref(),
            Some("controlled"),
            "missing system label: {line}"
        );
        let metric = field(line, "metric").expect("metric name");
        by_name.entry(metric).or_insert_with(|| line.clone());
    }

    // Engine counters line up with what the test issued.
    let writes = value_of(&by_name, "engine.writes");
    assert_eq!(writes as u64, OPS + BACKLOG_BLOCKS, "foreground + backlog");
    let write_bytes = value_of(&by_name, "engine.write_bytes");
    assert_eq!(write_bytes as u64, (OPS + BACKLOG_BLOCKS) * BLOCK);

    // The foreground meter saw every op (writes only in this workload).
    let fg = line_for(&by_name, "rate.foreground_ops");
    assert_eq!(num(fg, "total") as u64, OPS + BACKLOG_BLOCKS);

    // The background engine made counted progress, and the queue-depth
    // gauge stayed within the number of objects ever dirtied.
    let flushed = value_of(&by_name, "engine.flush.chunks_flushed");
    assert!(flushed > 0.0, "background flushes must have happened");
    let depth = value_of(&by_name, "engine.flush.queue_depth");
    let objects = (BACKLOG_BLOCKS / 32) as f64 + STREAMS as f64;
    assert!(
        (0.0..=objects).contains(&depth),
        "queue depth {depth} outside 0..={objects}"
    );

    // Rate control made admission decisions in the unrestricted band.
    let admitted = value_of(&by_name, "rate.admitted");
    let denied = value_of(&by_name, "rate.denied");
    assert!(admitted > 0.0, "rate controller never admitted work");
    assert_eq!(denied, 0.0, "unrestricted band must not deny");
    let band = value_of(&by_name, "rate.band");
    assert_eq!(band, 0.0, "foreground rate below low watermark");

    // Cluster-layer traffic includes at least one transact per engine
    // write (metadata append) plus the flush traffic.
    let cluster_writes = value_of(&by_name, "cluster.writes");
    assert!(
        cluster_writes >= writes,
        "cluster writes {cluster_writes} < engine writes {writes}"
    );
    // The driver runs its own flow engine, so cluster-level execution
    // timing is workload-dependent; the instrument itself must be there.
    let exec = line_for(&by_name, "cluster.exec_latency_ns");
    assert!(num(exec, "count") >= 0.0);

    // Driver latency histogram covers every foreground op, with ordered
    // quantiles.
    let lat = line_for(&by_name, "driver.write_latency_ns");
    assert_eq!(num(lat, "count") as u64, OPS);
    let (p50, p95, p99, max) = (
        num(lat, "p50"),
        num(lat, "p95"),
        num(lat, "p99"),
        num(lat, "max"),
    );
    assert!(p50 > 0.0, "latencies recorded as zero");
    assert!(
        p50 <= p95 && p95 <= p99 && p99 <= max,
        "quantiles out of order: {p50} {p95} {p99} {max}"
    );

    // Per-resource utilisation was sampled for every OSD's disk and sits
    // inside [0, 100%] in parts-per-million.
    let util_lines: Vec<&String> = sidecar
        .lines()
        .iter()
        .filter(|l| field(l, "metric").as_deref() == Some("sim.resource.utilization_ppm"))
        .collect();
    let osds = sys.cluster().map().osd_count();
    assert!(
        util_lines.len() >= osds,
        "expected >= {osds} resource samples, got {}",
        util_lines.len()
    );
    for line in &util_lines {
        let v = num(line, "value");
        assert!(
            (0.0..=1_000_000.0).contains(&v),
            "utilisation out of range: {v}"
        );
    }
}
