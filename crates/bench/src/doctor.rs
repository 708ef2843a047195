//! The `dedup_doctor` workload: drive a configurable FIO-style mix
//! against a fully instrumented dedup stack (events, tracer, health) and
//! render one diagnosis — capacity curve, dedup effectiveness, latency
//! percentiles, slow ops, event timeline, and health findings — as both
//! human-readable text and a machine-readable JSON document.
//!
//! Unlike the figure binaries, the doctor is not trying to reproduce a
//! paper result: it is the operator's "is this stack healthy and is
//! deduplication actually paying for itself" tool, and the integration
//! surface the observability acceptance tests drive.

use dedup_core::{CachePolicy, CapacitySample, DedupConfig};
use dedup_obs::{EventLog, HealthReport, HealthStatus, Tracer};
use dedup_placement::OsdId;
use dedup_sim::SimTime;
use dedup_store::ClientId;

use crate::drivers::{run_closed_loop_with_background, OpSpec};
use crate::report;
use crate::systems::{BackgroundMode, DedupSystem, StorageSystem};

/// A degradation the doctor can inject midway through the workload, to
/// prove the observability plane actually surfaces faults.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum DoctorInjection {
    /// No fault: a clean bill of health is the expected outcome.
    #[default]
    None,
    /// Mark OSD 0 down after the midpoint segment, or after the only one
    /// (recoverable fault: pools still serve from survivors, health goes
    /// `degraded`).
    OsdDown,
    /// Build the stack with a deliberately undersized Bloom gate so real
    /// traffic saturates it (health goes `critical`, engine emits
    /// `bloom/overfill` events).
    BloomOverfill,
}

impl DoctorInjection {
    /// Flag-style name (`--inject=<name>`).
    pub fn as_str(&self) -> &'static str {
        match self {
            DoctorInjection::None => "none",
            DoctorInjection::OsdDown => "osd-down",
            DoctorInjection::BloomOverfill => "bloom-overfill",
        }
    }
}

/// Workload knobs for a doctor run.
#[derive(Debug, Clone, Copy)]
pub struct DoctorOptions {
    /// Distinct objects the workload cycles over.
    pub objects: u64,
    /// Total foreground operations across all segments.
    pub ops: u64,
    /// Percent of writes that repeat one of a small set of shared blocks
    /// (the dedup-able fraction).
    pub dup_percent: u32,
    /// Percent of operations that are reads.
    pub read_percent: u32,
    /// Segments the run is split into; capacity is sampled after each.
    pub segments: u32,
    /// Chunk size of the stack under test.
    pub chunk_size: u32,
    /// Fault to inject (see [`DoctorInjection`]).
    pub inject: DoctorInjection,
}

impl Default for DoctorOptions {
    fn default() -> Self {
        DoctorOptions {
            objects: 64,
            ops: 2_000,
            dup_percent: 50,
            read_percent: 30,
            segments: 4,
            chunk_size: 32 * 1024,
            inject: DoctorInjection::None,
        }
    }
}

impl DoctorOptions {
    /// The CI smoke configuration: small enough to finish in seconds,
    /// large enough that dedup and the capacity curve are visible.
    pub fn smoke() -> Self {
        DoctorOptions {
            objects: 16,
            ops: 400,
            segments: 2,
            ..DoctorOptions::default()
        }
    }
}

/// Latency percentiles of the doctor's foreground ops, milliseconds.
#[derive(Debug, Clone, Copy)]
pub struct DoctorLatency {
    /// Mean.
    pub mean_ms: f64,
    /// Median.
    pub p50_ms: f64,
    /// 95th percentile.
    pub p95_ms: f64,
    /// 99th percentile.
    pub p99_ms: f64,
    /// Worst op.
    pub max_ms: f64,
}

impl DoctorLatency {
    fn from_stats(latency: &dedup_sim::LatencyStats) -> Self {
        DoctorLatency {
            mean_ms: latency.mean().as_millis_f64(),
            p50_ms: latency.percentile(50.0).as_millis_f64(),
            p95_ms: latency.percentile(95.0).as_millis_f64(),
            p99_ms: latency.percentile(99.0).as_millis_f64(),
            max_ms: latency.max().as_millis_f64(),
        }
    }
}

/// Everything a doctor run learned, renderable as text or JSON.
#[derive(Debug, Clone)]
pub struct DoctorReport {
    /// The options that produced this report.
    pub options: DoctorOptions,
    /// Foreground ops completed.
    pub ops: u64,
    /// Virtual time the workload spanned, seconds.
    pub elapsed_s: f64,
    /// Foreground latency percentiles.
    pub latency: DoctorLatency,
    /// Capacity curve: one sample per segment, in virtual-time order.
    pub capacity: Vec<CapacitySample>,
    /// Final dedup ratio (actual, metadata included), percent.
    pub dedup_ratio_percent: f64,
    /// Final ideal (data-only) ratio, percent.
    pub ideal_ratio_percent: f64,
    /// Ops the tracer flagged slow (`trace.slow_ops`).
    pub slow_ops: u64,
    /// Aggregated health at the end of the run.
    pub health: HealthReport,
    /// The structured event timeline (ring contents at the end).
    pub events: Vec<dedup_obs::Event>,
    /// Events the bounded ring had to drop.
    pub events_dropped: u64,
}

impl DoctorReport {
    /// Renders the human-readable report.
    pub fn human(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let _ = writeln!(out, "# dedup_doctor\n");
        let _ = writeln!(
            out,
            "workload: {} ops over {} objects, {}% dup writes, {}% reads, \
             {} segments, chunk {} KiB, inject {}\n",
            self.options.ops,
            self.options.objects,
            self.options.dup_percent,
            self.options.read_percent,
            self.options.segments,
            self.options.chunk_size / 1024,
            self.options.inject.as_str(),
        );
        let _ = writeln!(out, "## Capacity curve\n");
        let mut rows = Vec::new();
        for s in &self.capacity {
            rows.push(vec![
                format!("{:.1}s", s.at_ns as f64 / 1e9),
                report::fmt_bytes(s.space.logical_bytes),
                report::fmt_bytes(s.space.stored_total_bytes()),
                report::pct(s.dedup_ratio_percent()),
                s.unique_chunks.to_string(),
                s.shared_chunks.to_string(),
                s.max_refcount.to_string(),
            ]);
        }
        let _ = write!(
            out,
            "{}",
            report::table(
                &[
                    "t",
                    "logical",
                    "stored",
                    "dedup ratio",
                    "unique",
                    "shared",
                    "max refs"
                ],
                &rows,
            )
        );
        let _ = writeln!(
            out,
            "\nfinal ratio: {} actual / {} ideal\n",
            report::pct(self.dedup_ratio_percent),
            report::pct(self.ideal_ratio_percent),
        );
        let _ = writeln!(out, "## Foreground latency\n");
        let _ = writeln!(
            out,
            "{} ops in {:.1}s virtual — mean {} p50 {} p95 {} p99 {} max {}; {} slow op(s)\n",
            self.ops,
            self.elapsed_s,
            report::ms(self.latency.mean_ms),
            report::ms(self.latency.p50_ms),
            report::ms(self.latency.p95_ms),
            report::ms(self.latency.p99_ms),
            report::ms(self.latency.max_ms),
            self.slow_ops,
        );
        let _ = writeln!(out, "## Health: {}\n", self.health.status().as_str());
        if self.health.findings.is_empty() {
            let _ = writeln!(out, "all {} components clean", self.health.components.len());
        } else {
            for f in &self.health.findings {
                let _ = writeln!(
                    out,
                    "- [{}] {} ({}): {}",
                    f.status.as_str(),
                    f.component,
                    f.code,
                    f.detail
                );
            }
        }
        let _ = writeln!(
            out,
            "\n## Events ({} in ring, {} dropped)\n",
            self.events.len(),
            self.events_dropped
        );
        const TAIL: usize = 20;
        let skip = self.events.len().saturating_sub(TAIL);
        if skip > 0 {
            let _ = writeln!(out, "… {skip} earlier event(s) elided …");
        }
        for e in self.events.iter().skip(skip) {
            let fields: Vec<String> = e.fields.iter().map(|(k, v)| format!("{k}={v}")).collect();
            let _ = writeln!(
                out,
                "{:>10.3}s {:5} {}/{} {}",
                e.at.as_secs_f64(),
                e.severity.as_str(),
                e.source,
                e.kind,
                fields.join(" ")
            );
        }
        out
    }

    /// Renders the machine-readable JSON document.
    pub fn json(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let _ = write!(
            out,
            "{{\"options\":{{\"objects\":{},\"ops\":{},\"dup_percent\":{},\
             \"read_percent\":{},\"segments\":{},\"chunk_size\":{},\"inject\":\"{}\"}}",
            self.options.objects,
            self.options.ops,
            self.options.dup_percent,
            self.options.read_percent,
            self.options.segments,
            self.options.chunk_size,
            self.options.inject.as_str(),
        );
        let _ = write!(
            out,
            ",\"workload\":{{\"ops\":{},\"elapsed_s\":{:.6},\"latency_ms\":{{\
             \"mean\":{:.6},\"p50\":{:.6},\"p95\":{:.6},\"p99\":{:.6},\"max\":{:.6}}},\
             \"slow_ops\":{}}}",
            self.ops,
            self.elapsed_s,
            self.latency.mean_ms,
            self.latency.p50_ms,
            self.latency.p95_ms,
            self.latency.p99_ms,
            self.latency.max_ms,
            self.slow_ops,
        );
        let _ = write!(out, ",\"capacity\":[");
        for (i, s) in self.capacity.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(
                out,
                "{{\"at_ns\":{},\"logical_bytes\":{},\"stored_data_bytes\":{},\
                 \"stored_total_bytes\":{},\"dedup_ratio_percent\":{:.6},\
                 \"unique_chunks\":{},\"shared_chunks\":{},\"max_refcount\":{},\
                 \"weak_chunks_stored\":{},\"fp_upgrades\":{},\
                 \"gc_chunks_reclaimed\":{},\"gc_stale_refs_dropped\":{}}}",
                s.at_ns,
                s.space.logical_bytes,
                s.space.stored_data_bytes(),
                s.space.stored_total_bytes(),
                s.dedup_ratio_percent(),
                s.unique_chunks,
                s.shared_chunks,
                s.max_refcount,
                s.weak_chunks_stored,
                s.fp_upgrades,
                s.gc_chunks_reclaimed,
                s.gc_stale_refs_dropped,
            );
        }
        let _ = write!(
            out,
            "],\"dedup_ratio_percent\":{:.6},\"ideal_ratio_percent\":{:.6}",
            self.dedup_ratio_percent, self.ideal_ratio_percent
        );
        let _ = write!(out, ",\"health\":{}", self.health.to_json());
        let _ = write!(out, ",\"events\":[");
        for (i, e) in self.events.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&e.to_json());
        }
        let _ = write!(out, "],\"events_dropped\":{}", self.events_dropped);
        out.push('}');
        out
    }
}

/// One doctor workload op: duplicate-heavy chunk-aligned writes with a
/// read fraction, deterministic in `i`.
fn doctor_op(i: u64, opts: &DoctorOptions) -> OpSpec {
    let chunk = opts.chunk_size as u64;
    let object = format!("doc-{}", i % opts.objects);
    let slot = (i / opts.objects) % 8;
    let offset = slot * chunk;
    // Deterministic op mix: `read_percent` of ops read back each object's
    // first chunk (written in the first cycle, so always present); the
    // rest write.
    if i % 100 < opts.read_percent as u64 && i >= opts.objects {
        return OpSpec::read(object, 0, chunk, ClientId((i % 3) as u32)).class(1);
    }
    let dup = i % 100 < (opts.read_percent + opts.dup_percent) as u64;
    let data = if dup {
        // One of 4 shared blocks: highly dedup-able.
        vec![(i % 4) as u8 + 1; chunk as usize]
    } else {
        // Unique content per op.
        (0..chunk)
            .map(|j| ((i * 131 + j * 7) % 251) as u8)
            .collect()
    };
    OpSpec::write(object, offset, data, ClientId((i % 3) as u32)).class(0)
}

/// Runs the doctor workload and produces the report. The system is
/// returned too so tests can cross-check the report against live engine
/// state.
///
/// # Panics
///
/// Panics on options no workload can honour: zero objects, or a read
/// and duplicate share above 100%.
pub fn run_doctor(opts: &DoctorOptions) -> (DoctorReport, DedupSystem) {
    assert!(opts.objects > 0, "--objects must be positive");
    assert!(
        opts.read_percent + opts.dup_percent <= 100,
        "--read + --dup must not exceed 100"
    );
    let mut config =
        DedupConfig::with_chunk_size(opts.chunk_size).cache_policy(CachePolicy::EvictAll);
    if opts.inject == DoctorInjection::BloomOverfill {
        // An absurdly small gate: real traffic saturates it within one
        // segment, proving overfill surfaces in events and health.
        config = config.bloom(64, 2);
    }
    let mut system = DedupSystem::new("doctor", config).background(BackgroundMode::RateControlled);
    system.store_mut().attach_tracer(Tracer::new());
    system.store_mut().attach_events(EventLog::new());

    let segments = opts.segments.max(1) as u64;
    let per_segment = (opts.ops / segments).max(1);
    let mut latency = dedup_sim::LatencyStats::new();
    let mut ops = 0u64;
    let mut capacity = Vec::new();
    let mut clock = SimTime::ZERO;
    let mut issued = 0u64;
    // The segment after which an injected OSD failure lands: the midpoint,
    // which for a single segment is that segment itself.
    let osd_down_after = (segments / 2).max(1) - 1;
    for seg in 0..segments {
        let seg_stats =
            run_closed_loop_with_background(&mut system, 4, per_segment, seg + 1, true, |i, _| {
                doctor_op(issued + i, opts)
            });
        issued += per_segment;
        clock = SimTime::from_nanos(clock.as_nanos() + seg_stats.elapsed.as_nanos());
        latency.merge(&seg_stats.latency);
        ops += seg_stats.ops;
        // Settle the remaining dirty backlog so the capacity sample shows
        // the segment's dedup outcome, then sample.
        let _ = system.store_mut().flush_all(clock).expect("settle flush");
        capacity.push(system.store().sample_capacity(clock).expect("capacity"));
        if seg == osd_down_after && opts.inject == DoctorInjection::OsdDown {
            system.cluster_mut().mark_down(OsdId(0));
        }
        // Prime / advance the stall probe each segment so queue stalls
        // between segments would be caught.
        let _ = system.store().health_report(clock);
    }

    let space = system.store().space_report().expect("space report");
    let health = system.store().health_report(clock);
    let events_log = system.store().events().expect("events attached").clone();
    let slow_ops = system
        .store()
        .tracer()
        .map(|t| t.slow_ops())
        .unwrap_or_default();
    let report = DoctorReport {
        options: *opts,
        ops,
        elapsed_s: clock.as_secs_f64(),
        latency: DoctorLatency::from_stats(&latency),
        capacity,
        dedup_ratio_percent: space.actual_ratio_percent(),
        ideal_ratio_percent: space.ideal_ratio_percent(),
        slow_ops,
        health,
        events: events_log.events(),
        events_dropped: events_log.dropped(),
    };
    (report, system)
}

/// Asserts the invariants the doctor's own smoke run must satisfy (used
/// by `dedup_doctor --smoke` and CI).
pub fn smoke_check(report: &DoctorReport) {
    assert!(report.ops > 0, "smoke ran no ops");
    assert!(!report.capacity.is_empty(), "no capacity samples");
    assert!(
        report.dedup_ratio_percent > 0.0,
        "dup-heavy workload must show a positive dedup ratio, got {}",
        report.dedup_ratio_percent
    );
    assert!(
        !report.events.is_empty(),
        "an instrumented run must log events"
    );
    match report.options.inject {
        DoctorInjection::None => {}
        _ => assert!(
            report.health.status() >= HealthStatus::Degraded,
            "injected fault must surface in health"
        ),
    }
}
