//! Load drivers over the virtual timing plane.
//!
//! Both drivers execute operation cost trees through
//! [`dedup_sim::FlowEngine`], so legs of concurrent operations (and of the
//! background deduplication engine) interleave on shared resources in
//! correct virtual-time order.

use std::collections::BTreeMap;

use dedup_obs::{Histogram, Tracer};
use dedup_sim::{FlowEngine, LatencyStats, SimDuration, SimTime, TimeSeries};
use dedup_store::ClientId;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::systems::StorageSystem;

/// The write-latency histogram handle into the system's registry, so
/// metrics sidecars carry driver-observed write percentiles.
struct DriverMetrics {
    write_latency: Histogram,
}

impl DriverMetrics {
    fn new(system: &dyn StorageSystem) -> Self {
        DriverMetrics {
            write_latency: system.registry().histogram("driver.write_latency_ns"),
        }
    }

    fn record(&self, is_write: bool, issued: SimTime, done: SimTime) {
        if is_write {
            self.write_latency
                .record(done.saturating_since(issued).as_nanos());
        }
    }
}

/// One foreground operation a workload asks a driver to issue.
#[derive(Debug, Clone)]
pub struct OpSpec {
    /// Target object name.
    pub object: String,
    /// Byte offset.
    pub offset: u64,
    /// Payload for writes, `None` for reads.
    pub data: Option<Vec<u8>>,
    /// Read length (ignored for writes).
    pub len: u64,
    /// Issuing client.
    pub client: ClientId,
    /// Caller-defined class for per-class statistics (e.g. op kind).
    pub class: u8,
}

impl OpSpec {
    /// A write op.
    pub fn write(object: String, offset: u64, data: Vec<u8>, client: ClientId) -> Self {
        OpSpec {
            object,
            offset,
            data: Some(data),
            len: 0,
            client,
            class: 0,
        }
    }

    /// A read op.
    pub fn read(object: String, offset: u64, len: u64, client: ClientId) -> Self {
        OpSpec {
            object,
            offset,
            data: None,
            len,
            client,
            class: 0,
        }
    }

    /// Tags the op with a statistics class.
    pub fn class(mut self, class: u8) -> Self {
        self.class = class;
        self
    }
}

/// Outcome of a driver run.
#[derive(Debug, Clone)]
pub struct RunStats {
    /// Per-op completion latencies.
    pub latency: LatencyStats,
    /// Operations completed.
    pub ops: u64,
    /// Payload bytes moved.
    pub bytes: u64,
    /// Virtual time of the last completion.
    pub elapsed: SimTime,
    /// Foreground completions bucketed per second.
    pub series: TimeSeries,
    /// Latencies split by [`OpSpec::class`].
    pub per_class: BTreeMap<u8, LatencyStats>,
    /// Op counts split by class.
    pub class_ops: BTreeMap<u8, u64>,
}

impl RunStats {
    fn new() -> Self {
        RunStats {
            latency: LatencyStats::new(),
            ops: 0,
            bytes: 0,
            elapsed: SimTime::ZERO,
            series: TimeSeries::with_bin_secs(1),
            per_class: BTreeMap::new(),
            class_ops: BTreeMap::new(),
        }
    }

    fn record(&mut self, issued: SimTime, done: SimTime, bytes: u64, class: u8) {
        let lat = done.saturating_since(issued);
        self.latency.record(lat);
        self.ops += 1;
        self.bytes += bytes;
        self.elapsed = self.elapsed.max(done);
        self.series.record(done, bytes);
        self.per_class.entry(class).or_default().record(lat);
        *self.class_ops.entry(class).or_default() += 1;
    }

    /// Mean throughput over the whole run in MB/s.
    pub fn throughput_mbps(&self) -> f64 {
        if self.elapsed == SimTime::ZERO {
            return 0.0;
        }
        self.bytes as f64 / 1e6 / self.elapsed.as_secs_f64()
    }

    /// Mean IOPS over the whole run.
    pub fn iops(&self) -> f64 {
        if self.elapsed == SimTime::ZERO {
            return 0.0;
        }
        self.ops as f64 / self.elapsed.as_secs_f64()
    }
}

/// Background worker tags occupy the top of the tag space.
const BG_BASE: u64 = u64::MAX - 255;
/// Poll interval for an idle/throttled background engine.
const BG_IDLE_POLL: SimDuration = SimDuration::from_millis(1);

fn is_bg(tag: u64) -> bool {
    tag >= BG_BASE
}

/// Hooks the system's tracer (if any) into the flow engine so every leg
/// the engine executes lands in a span tree, and returns a handle for
/// per-op bookkeeping. No tracer → the engine keeps its null sink.
fn attach_tracing(system: &dyn StorageSystem, engine: &mut FlowEngine) -> Option<Tracer> {
    let tracer = system.tracer().cloned()?;
    engine.set_trace_sink(Box::new(tracer.clone()));
    Some(tracer)
}

fn issue_flow(
    system: &mut dyn StorageSystem,
    engine: &mut FlowEngine,
    tracer: Option<&Tracer>,
    at: SimTime,
    op: &OpSpec,
    tag: u64,
) {
    // Bind before start(): the engine reports queue entry for every leg
    // of the cost DAG at start time, and unbound flows are dropped.
    if let Some(t) = tracer {
        let kind = if op.data.is_some() { "write" } else { "read" };
        let ctx = t.begin_op(kind, &op.object, at);
        t.bind_flow(tag, ctx);
    }
    let cost = match op.data {
        Some(ref data) => system.write(op.client, &op.object, op.offset, data, at),
        None => system.read(op.client, &op.object, op.offset, op.len, at),
    };
    engine.start(at, &cost, tag);
}

fn attempt_background(
    system: &mut dyn StorageSystem,
    engine: &mut FlowEngine,
    tracer: Option<&Tracer>,
    at: SimTime,
    tag: u64,
) {
    match system.tick_background(at) {
        Some(cost) => {
            // Idle polls (the `None` arm) are deliberately not traced:
            // a Nop flow with no binding is ignored by the sink.
            if let Some(t) = tracer {
                let worker = (tag - BG_BASE) as u32;
                let ctx = t.begin_op("flush", &format!("worker-{worker}"), at);
                t.bind_flow(tag, ctx);
            }
            engine.start(at, &cost, tag)
        }
        None => engine.start(at + BG_IDLE_POLL, &dedup_sim::CostExpr::Nop, tag),
    }
}

fn spawn_background(
    system: &mut dyn StorageSystem,
    engine: &mut FlowEngine,
    tracer: Option<&Tracer>,
    at: SimTime,
) {
    for w in 0..system.background_workers().min(256) {
        attempt_background(system, engine, tracer, at, BG_BASE + w as u64);
    }
}

/// Runs `total_ops` operations closed-loop over `streams` in-flight
/// contexts. `workload(op_index, rng)` supplies each operation.
pub fn run_closed_loop(
    system: &mut dyn StorageSystem,
    streams: usize,
    total_ops: u64,
    seed: u64,
    workload: impl FnMut(u64, &mut StdRng) -> OpSpec,
) -> RunStats {
    run_closed_loop_with_background(system, streams, total_ops, seed, false, workload)
}

/// Closed-loop driver with an optional concurrent background engine.
///
/// The background engine is itself closed-loop: as soon as one flush
/// completes it attempts the next (subject to the system's own rate
/// control), contending for the same virtual resources as the foreground.
pub fn run_closed_loop_with_background(
    system: &mut dyn StorageSystem,
    streams: usize,
    total_ops: u64,
    seed: u64,
    background: bool,
    mut workload: impl FnMut(u64, &mut StdRng) -> OpSpec,
) -> RunStats {
    assert!(streams > 0, "need at least one stream");
    let mut rng = StdRng::seed_from_u64(seed);
    let mut engine = FlowEngine::new();
    let tracer = attach_tracing(system, &mut engine);
    let mut stats = RunStats::new();
    let metrics = DriverMetrics::new(system);
    let mut issued = 0u64;
    // Per-stream bookkeeping: issue time, bytes, class, op kind in flight.
    let mut in_flight: Vec<(SimTime, u64, u8, bool)> = vec![(SimTime::ZERO, 0, 0, false); streams];

    for (s, slot) in in_flight
        .iter_mut()
        .enumerate()
        .take(streams.min(total_ops as usize))
    {
        let op = workload(issued, &mut rng);
        issued += 1;
        let bytes = op.data.as_ref().map(|d| d.len() as u64).unwrap_or(op.len);
        *slot = (SimTime::ZERO, bytes, op.class, op.data.is_some());
        issue_flow(
            system,
            &mut engine,
            tracer.as_ref(),
            SimTime::ZERO,
            &op,
            s as u64,
        );
    }
    if background {
        spawn_background(system, &mut engine, tracer.as_ref(), SimTime::ZERO);
    }

    loop {
        let completion = {
            let pool = &mut system.cluster_mut().perf_mut().pool;
            engine.advance(pool)
        };
        let Some(c) = completion else { break };
        if is_bg(c.tag) {
            if background && (issued < total_ops || system.background_pending()) {
                attempt_background(system, &mut engine, tracer.as_ref(), c.at, c.tag);
            }
            continue;
        }
        let stream = c.tag as usize;
        let (start, bytes, class, is_write) = in_flight[stream];
        stats.record(start, c.at, bytes, class);
        metrics.record(is_write, start, c.at);
        if issued < total_ops {
            let op = workload(issued, &mut rng);
            issued += 1;
            let bytes = op.data.as_ref().map(|d| d.len() as u64).unwrap_or(op.len);
            in_flight[stream] = (c.at, bytes, op.class, op.data.is_some());
            issue_flow(system, &mut engine, tracer.as_ref(), c.at, &op, c.tag);
        }
    }
    stats
}

/// Open-loop driver: issues timed operations at their scheduled instants
/// regardless of completions (fixed offered rate, as SPEC SFS does), with
/// an optional background engine.
pub fn run_open_loop(
    system: &mut dyn StorageSystem,
    ops: impl IntoIterator<Item = (SimTime, OpSpec)>,
    background: bool,
) -> RunStats {
    let mut engine = FlowEngine::new();
    let tracer = attach_tracing(system, &mut engine);
    let mut stats = RunStats::new();
    let metrics = DriverMetrics::new(system);
    // tag -> (issue time, bytes, class, op kind)
    let mut meta: Vec<(SimTime, u64, u8, bool)> = Vec::new();
    if background {
        spawn_background(system, &mut engine, tracer.as_ref(), SimTime::ZERO);
    }
    #[allow(clippy::too_many_arguments)]
    fn handle(
        c: dedup_sim::FlowCompletion,
        meta: &[(SimTime, u64, u8, bool)],
        background: bool,
        stats: &mut RunStats,
        metrics: &DriverMetrics,
        system: &mut dyn StorageSystem,
        engine: &mut FlowEngine,
        tracer: Option<&Tracer>,
        draining: bool,
    ) {
        if is_bg(c.tag) {
            if background && (!draining || system.background_pending()) {
                attempt_background(system, engine, tracer, c.at, c.tag);
            }
        } else {
            let (start, bytes, class, is_write) = meta[c.tag as usize];
            stats.record(start, c.at, bytes, class);
            metrics.record(is_write, start, c.at);
        }
    }
    for (at, op) in ops {
        // Process everything scheduled up to this op's issue instant —
        // and no further, so resource service stays in virtual-time order.
        let completions = {
            let pool = &mut system.cluster_mut().perf_mut().pool;
            engine.advance_until(pool, at)
        };
        for c in completions {
            handle(
                c,
                &meta,
                background,
                &mut stats,
                &metrics,
                system,
                &mut engine,
                tracer.as_ref(),
                false,
            );
        }
        let tag = meta.len() as u64;
        let bytes = op.data.as_ref().map(|d| d.len() as u64).unwrap_or(op.len);
        meta.push((at, bytes, op.class, op.data.is_some()));
        issue_flow(system, &mut engine, tracer.as_ref(), at, &op, tag);
    }
    // Drain.
    loop {
        let completion = {
            let pool = &mut system.cluster_mut().perf_mut().pool;
            engine.advance(pool)
        };
        let Some(c) = completion else { break };
        handle(
            c,
            &meta,
            background,
            &mut stats,
            &metrics,
            system,
            &mut engine,
            tracer.as_ref(),
            true,
        );
    }
    stats
}

/// A random-offset generator over a preloaded object set: picks an object
/// and a block-aligned offset each call.
pub fn random_block(
    rng: &mut StdRng,
    objects: usize,
    object_size: u64,
    block_size: u64,
    name: impl Fn(usize) -> String,
) -> (String, u64) {
    let obj = rng.gen_range(0..objects);
    let blocks = (object_size / block_size).max(1);
    let offset = rng.gen_range(0..blocks) * block_size;
    (name(obj), offset)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::systems::{BackgroundMode, DedupSystem, OriginalSystem};
    use dedup_core::DedupConfig;
    use dedup_store::PoolConfig;

    fn write_op(i: u64, block: usize) -> OpSpec {
        OpSpec::write(
            format!("o{}", i % 8),
            (i / 8) * block as u64,
            vec![(i % 251) as u8; block],
            ClientId(0),
        )
    }

    #[test]
    fn closed_loop_runs_original() {
        let mut sys = OriginalSystem::new("orig", PoolConfig::replicated("p", 2));
        let stats = run_closed_loop(&mut sys, 4, 100, 1, |i, _| write_op(i, 8192));
        assert_eq!(stats.ops, 100);
        assert!(stats.throughput_mbps() > 0.0);
        assert!(stats.latency.mean().as_nanos() > 0);
    }

    #[test]
    fn more_streams_do_not_collapse_latency() {
        // With leg-level interleaving and low utilisation, latency grows
        // only modestly with concurrency.
        let mut sys1 = OriginalSystem::new("o", PoolConfig::replicated("p", 2));
        let one = run_closed_loop(&mut sys1, 1, 300, 2, |i, _| write_op(i, 8192));
        let mut sys16 = OriginalSystem::new("o", PoolConfig::replicated("p", 2));
        let sixteen = run_closed_loop(&mut sys16, 16, 300, 2, |i, _| write_op(i, 8192));
        let ratio = sixteen.latency.mean().as_nanos() as f64 / one.latency.mean().as_nanos() as f64;
        assert!(
            ratio < 3.0,
            "false queueing: 16-stream latency {ratio}x of 1-stream"
        );
    }

    #[test]
    fn background_contention_slows_foreground() {
        let cfg =
            DedupConfig::with_chunk_size(8192).cache_policy(dedup_core::CachePolicy::EvictAll);
        let mut without = DedupSystem::new("d", cfg.clone()).background(BackgroundMode::Off);
        let a = run_closed_loop_with_background(&mut without, 2, 300, 1, false, |i, _| {
            write_op(i, 8192)
        });
        let mut with = DedupSystem::new("d", cfg).background(BackgroundMode::Unthrottled);
        let b =
            run_closed_loop_with_background(&mut with, 2, 300, 1, true, |i, _| write_op(i, 8192));
        assert!(
            b.latency.mean() >= a.latency.mean(),
            "uncontrolled background should not speed up foreground: {:?} vs {:?}",
            b.latency.mean(),
            a.latency.mean()
        );
    }

    #[test]
    fn open_loop_fixed_schedule() {
        let mut sys = OriginalSystem::new("orig", PoolConfig::replicated("p", 2));
        let _ = sys.write(ClientId(0), "o0", 0, &vec![0u8; 65536], SimTime::ZERO);
        let ops = (0..50u64).map(|i| {
            (
                SimTime::from_nanos(i * 10_000_000),
                OpSpec::read("o0".into(), 0, 4096, ClientId(0)),
            )
        });
        let stats = run_open_loop(&mut sys, ops, false);
        assert_eq!(stats.ops, 50);
        assert!(stats.elapsed.as_secs_f64() >= 0.49);
    }

    #[test]
    fn per_class_stats_split() {
        let mut sys = OriginalSystem::new("orig", PoolConfig::replicated("p", 2));
        let stats = run_closed_loop(&mut sys, 2, 100, 3, |i, _| {
            write_op(i, 4096).class((i % 2) as u8)
        });
        assert_eq!(stats.class_ops.get(&0), Some(&50));
        assert_eq!(stats.class_ops.get(&1), Some(&50));
        assert_eq!(
            stats
                .per_class
                .values()
                .map(|l| l.len() as u64)
                .sum::<u64>(),
            100
        );
    }

    #[test]
    fn random_block_in_bounds() {
        let mut rng = StdRng::seed_from_u64(3);
        for _ in 0..100 {
            let (name, off) = random_block(&mut rng, 4, 1 << 20, 8192, |i| format!("x{i}"));
            assert!(off % 8192 == 0 && off < 1 << 20);
            assert!(name.starts_with('x'));
        }
    }
}
