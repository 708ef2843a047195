//! Per-operation causal tracing over the cost DAG.
//!
//! A [`Tracer`] is a cloneable handle (like [`Registry`]) that records a
//! **span tree** for every traced operation:
//!
//! - **Virtual-time spans**, one per cost-DAG leg executed by a
//!   [`FlowEngine`](dedup_sim::FlowEngine). The tracer implements
//!   [`TraceSink`], so attaching a clone to an engine
//!   (`engine.set_trace_sink(Box::new(tracer.clone()))`) streams every leg
//!   — resource, queue-entry time, service start, completion — into the op
//!   bound to the flow's tag. Each leg becomes a span with `queue` and
//!   `service` child spans, so queueing and service time are separated.
//! - **Wall-clock spans** for the flush pipeline's stage → fingerprint →
//!   commit phases and service-worker ticks, measured against the tracer's
//!   creation instant.
//!
//! The tracer owns its ops in one bounded ring: up to 1 024 in flight
//! (beyond that the oldest is force-retired unfinished) and the last
//! 4 096 finished, each tree capped at 8 192 spans. When an op finishes,
//! its latency is compared with the rolling p95 of the last 128 finished
//! ops of its kind; once 32 have finished, an op slower than 4× that p95
//! is flagged [`OpTrace::slow`] and counted (`trace.slow_ops`). Windows
//! are per kind, so virtual-time and wall-clock ops never share a
//! baseline. The whole record exports as Chrome `trace_event` JSON via
//! [`crate::chrome`].
//!
//! # Lifecycle
//!
//! ```
//! use dedup_obs::Tracer;
//! use dedup_sim::{CostExpr, FlowEngine, ResourcePool, ResourceSpec, SimTime};
//!
//! let mut pool = ResourcePool::new();
//! let disk = pool.register(ResourceSpec::disk("osd.0/disk", 1 << 20, 0));
//! let tracer = Tracer::new();
//! tracer.register_resources(&pool);
//!
//! let mut engine = FlowEngine::new();
//! engine.set_trace_sink(Box::new(tracer.clone()));
//!
//! let ctx = tracer.begin_op("read", "obj-1", SimTime::ZERO);
//! tracer.bind_flow(42, ctx);
//! engine.start(
//!     SimTime::ZERO,
//!     &CostExpr::tagged("read.disk", CostExpr::transfer(disk, 4096)),
//!     42,
//! );
//! engine.advance(&mut pool); // completion finishes the op automatically
//! assert_eq!(tracer.export().ops.len(), 1);
//! ```

use std::collections::{BTreeMap, HashMap, VecDeque};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use dedup_sim::{LegKind, LegRecord, ResourcePool, SimTime, TraceSink};

use crate::registry::{Counter, Registry};

/// Ops tracked in flight; beyond this the oldest is force-retired.
const MAX_IN_FLIGHT: usize = 1024;
/// Finished (or force-retired) ops kept for export.
const MAX_FINISHED: usize = 4096;
/// Span-tree size cap per op; further spans are counted, not stored.
const MAX_SPANS_PER_OP: usize = 8192;
/// Standalone wall spans kept (they have no op ring to age out of).
const MAX_WALL_SPANS: usize = 65536;
/// Finished latencies per op kind feeding the rolling p95.
const SLOW_WINDOW: usize = 128;
/// Finished ops of a kind needed before slow-op flagging starts.
const SLOW_MIN_SAMPLES: usize = 32;
/// An op slower than this multiple of its kind's rolling p95 is slow.
const SLOW_FACTOR: u64 = 4;

/// Which clock an op's timestamps are measured on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Clock {
    /// Simulator virtual time ([`SimTime`] nanoseconds).
    Virtual,
    /// Wall-clock nanoseconds since the tracer's epoch.
    Wall,
}

/// Where a span is drawn: one track per simulated resource, one per
/// wall-clock thread.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Track {
    /// A simulated resource, by pool index (resolved to its spec name at
    /// export time).
    Resource(u32),
    /// A named wall-clock thread (flush workers) or a virtual pseudo-track
    /// (`"delay"` for resource-free legs).
    Thread(String),
}

/// One node of an op's span tree.
#[derive(Debug, Clone)]
pub struct Span {
    /// Step name: the cost-DAG label path (e.g. `"read/redirect.chunk_read"`)
    /// or a structural name (`"queue"`, `"service"`, `"flush.stage"`).
    pub name: String,
    /// The track the span is drawn on.
    pub track: Track,
    /// Start, in the owning op's clock domain (nanoseconds).
    pub start_ns: u64,
    /// End, in the owning op's clock domain (nanoseconds).
    pub end_ns: u64,
    /// Parent span index within the op; `None` = child of the op root.
    pub parent: Option<u32>,
    /// Payload bytes for transfer legs (0 otherwise).
    pub bytes: u64,
}

/// One traced operation: identity, lifetime, and its span tree.
#[derive(Debug, Clone)]
pub struct OpTrace {
    /// Unique id (monotonic per tracer).
    pub id: u64,
    /// Op kind: `"write"`, `"read"`, `"flush"`, `"service.tick"`, ...
    pub kind: String,
    /// Free-form detail, typically the object name.
    pub detail: String,
    /// The clock `start_ns`/`end_ns` are measured on.
    pub clock: Clock,
    /// Begin time in nanoseconds.
    pub start_ns: u64,
    /// End time; `None` while in flight (or if force-retired).
    pub end_ns: Option<u64>,
    /// Flagged slower than 4× the rolling p95 of its kind.
    pub slow: bool,
    /// Span tree (parent links point into this vector).
    pub spans: Vec<Span>,
    /// Spans discarded after the per-op cap was hit.
    pub dropped_spans: u64,
}

/// Everything a [`Tracer`] recorded, snapshot for export.
#[derive(Debug, Clone, Default)]
pub struct TraceExport {
    /// Resource-index → spec-name mapping for resolving span tracks.
    pub resource_names: Vec<String>,
    /// Finished then in-flight ops, in begin order.
    pub ops: Vec<OpTrace>,
    /// Standalone wall-clock spans (flush pipeline phases), not owned by
    /// any op.
    pub wall_spans: Vec<Span>,
}

#[derive(Debug, Default)]
struct TracerInner {
    next_op: u64,
    /// Flow tag → op id, for attributing engine legs.
    bindings: HashMap<u64, u64>,
    /// Keyed by op id; ids are monotonic, so iteration order = begin order.
    in_flight: BTreeMap<u64, OpTrace>,
    finished: VecDeque<OpTrace>,
    /// Rolling finished-latency windows, one per op kind.
    windows: HashMap<String, VecDeque<u64>>,
    slow_ops: u64,
    slow_counter: Option<Counter>,
    resource_names: Vec<String>,
    wall_spans: Vec<Span>,
}

/// Cloneable per-operation tracer; see the [module docs](self).
#[derive(Debug, Clone)]
pub struct Tracer {
    inner: Arc<Mutex<TracerInner>>,
    /// Wall-clock epoch: wall spans are measured from here.
    epoch: Instant,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer::new()
    }
}

impl Tracer {
    /// Creates an empty tracer.
    pub fn new() -> Self {
        Tracer {
            inner: Arc::new(Mutex::new(TracerInner {
                next_op: 1,
                ..TracerInner::default()
            })),
            epoch: Instant::now(),
        }
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, TracerInner> {
        self.inner.lock().expect("tracer lock")
    }

    /// Records the pool's resource names so exported spans can name their
    /// tracks (`osd.3/disk`, `node.0/nic`, ...).
    pub fn register_resources(&self, pool: &ResourcePool) {
        let mut inner = self.lock();
        inner.resource_names = pool.iter().map(|(_, r)| r.spec().name.clone()).collect();
    }

    /// Publishes the slow-op counter as `trace.slow_ops` in `registry`.
    pub fn attach_registry(&self, registry: &Registry) {
        self.lock().slow_counter = Some(registry.counter("trace.slow_ops"));
    }

    /// Begins a virtual-time op (foreground I/O, background flush).
    pub fn begin_op(&self, kind: &str, detail: &str, now: SimTime) -> TraceCtx {
        self.lock()
            .begin(kind, detail, Clock::Virtual, now.as_nanos())
    }

    /// Begins a wall-clock op (service-worker tick).
    pub fn begin_wall_op(&self, kind: &str, detail: &str) -> TraceCtx {
        let now = self.wall_now_ns();
        self.lock().begin(kind, detail, Clock::Wall, now)
    }

    /// Routes legs of the flow started with `tag` into `ctx`'s op; the op
    /// finishes when the flow completes. Safe to rebind a tag (closed-loop
    /// drivers reuse stream slots as tags).
    pub fn bind_flow(&self, tag: u64, ctx: TraceCtx) {
        self.lock().bindings.insert(tag, ctx.op);
    }

    /// Finishes a wall-clock op at the current wall time.
    pub fn finish_wall_op(&self, ctx: TraceCtx) {
        let now = self.wall_now_ns();
        self.lock().finish(ctx.op, now);
    }

    /// Nanoseconds of wall time since this tracer was created.
    pub fn wall_now_ns(&self) -> u64 {
        u64::try_from(self.epoch.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Records a standalone wall-clock span (flush pipeline phase) on the
    /// current thread's track.
    pub fn wall_span(&self, name: &str, start_ns: u64, end_ns: u64) {
        let thread = std::thread::current().name().unwrap_or("anon").to_string();
        let mut inner = self.lock();
        if inner.wall_spans.len() >= MAX_WALL_SPANS {
            return;
        }
        inner.wall_spans.push(Span {
            name: name.to_string(),
            track: Track::Thread(thread),
            start_ns,
            end_ns,
            parent: None,
            bytes: 0,
        });
    }

    /// Total ops flagged slow so far.
    pub fn slow_ops(&self) -> u64 {
        self.lock().slow_ops
    }

    /// Snapshots everything recorded so far for export.
    pub fn export(&self) -> TraceExport {
        let inner = self.lock();
        let mut ops: Vec<OpTrace> = inner.finished.iter().cloned().collect();
        ops.extend(inner.in_flight.values().cloned());
        ops.sort_by_key(|o| o.id);
        TraceExport {
            resource_names: inner.resource_names.clone(),
            ops,
            wall_spans: inner.wall_spans.clone(),
        }
    }
}

impl TracerInner {
    fn begin(&mut self, kind: &str, detail: &str, clock: Clock, start_ns: u64) -> TraceCtx {
        let id = self.next_op;
        self.next_op += 1;
        if self.in_flight.len() >= MAX_IN_FLIGHT {
            // Force-retire the oldest (still unfinished) op so a leak of
            // unfinished ops cannot grow without bound.
            if let Some((_, oldest)) = self.in_flight.pop_first() {
                self.retire(oldest);
            }
        }
        self.in_flight.insert(
            id,
            OpTrace {
                id,
                kind: kind.to_string(),
                detail: detail.to_string(),
                clock,
                start_ns,
                end_ns: None,
                slow: false,
                spans: Vec::new(),
                dropped_spans: 0,
            },
        );
        TraceCtx { op: id }
    }

    /// Appends a span to op `id`'s tree; returns its index for parenting,
    /// or `None` if the op is not in flight or its tree is full.
    fn add_span(&mut self, id: u64, span: Span) -> Option<u32> {
        let op = self.in_flight.get_mut(&id)?;
        if op.spans.len() >= MAX_SPANS_PER_OP {
            op.dropped_spans += 1;
            return None;
        }
        op.spans.push(span);
        Some((op.spans.len() - 1) as u32)
    }

    /// Finishes op `id` at `end_ns`: flags it slow against its kind's
    /// rolling p95, then moves it to the finished ring.
    fn finish(&mut self, id: u64, end_ns: u64) {
        let Some(mut op) = self.in_flight.remove(&id) else {
            return;
        };
        op.end_ns = Some(end_ns);
        let latency = end_ns.saturating_sub(op.start_ns);
        let window = self.windows.entry(op.kind.clone()).or_default();
        if window.len() >= SLOW_MIN_SAMPLES {
            let p95 = rolling_p95(window);
            if p95 > 0 && latency > p95.saturating_mul(SLOW_FACTOR) {
                op.slow = true;
                self.slow_ops += 1;
                if let Some(c) = &self.slow_counter {
                    c.inc();
                }
            }
        }
        if window.len() >= SLOW_WINDOW {
            window.pop_front();
        }
        window.push_back(latency);
        self.retire(op);
    }

    fn retire(&mut self, op: OpTrace) {
        if self.finished.len() >= MAX_FINISHED {
            self.finished.pop_front();
        }
        self.finished.push_back(op);
    }
}

/// p95 over the window by the nearest-rank method.
fn rolling_p95(window: &VecDeque<u64>) -> u64 {
    let mut sorted: Vec<u64> = window.iter().copied().collect();
    sorted.sort_unstable();
    let rank = ((0.95 * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

impl TraceSink for Tracer {
    fn leg(&self, tag: u64, leg: &LegRecord) {
        let mut inner = self.lock();
        let Some(&op) = inner.bindings.get(&tag) else {
            return; // untraced flow (e.g. an idle-poll timer)
        };
        let (track, fallback) = match leg.resource {
            Some(r) => {
                let idx = r.index();
                let name = inner
                    .resource_names
                    .get(idx)
                    .cloned()
                    .unwrap_or_else(|| format!("res.{idx}"));
                (Track::Resource(idx as u32), name)
            }
            None => (Track::Thread("delay".into()), "delay".to_string()),
        };
        let name = leg.label.as_deref().map(String::from).unwrap_or(fallback);
        let parent = inner.add_span(
            op,
            Span {
                name,
                track: track.clone(),
                start_ns: leg.queued_at.as_nanos(),
                end_ns: leg.completed_at.as_nanos(),
                parent: None,
                bytes: leg.bytes,
            },
        );
        let Some(parent) = parent else { return };
        if leg.kind == LegKind::Delay {
            return; // no queue/service structure on resource-free legs
        }
        if leg.queue_nanos() > 0 {
            inner.add_span(
                op,
                Span {
                    name: "queue".into(),
                    track: track.clone(),
                    start_ns: leg.queued_at.as_nanos(),
                    end_ns: leg.service_start.as_nanos(),
                    parent: Some(parent),
                    bytes: 0,
                },
            );
        }
        inner.add_span(
            op,
            Span {
                name: "service".into(),
                track,
                start_ns: leg.service_start.as_nanos(),
                end_ns: leg.completed_at.as_nanos(),
                parent: Some(parent),
                bytes: leg.bytes,
            },
        );
    }

    fn flow_completed(&self, tag: u64, at: SimTime) {
        let mut inner = self.lock();
        if let Some(op) = inner.bindings.remove(&tag) {
            inner.finish(op, at.as_nanos());
        }
    }
}

/// The handle [`Tracer::begin_op`] / [`Tracer::begin_wall_op`] return:
/// which op a flow binding or a wall-clock finish refers to.
#[derive(Debug, Clone, Copy)]
pub struct TraceCtx {
    op: u64,
}

#[cfg(test)]
mod tests {
    use super::*;
    use dedup_sim::{CostExpr, FlowEngine, ResourceSpec};

    fn traced_setup() -> (ResourcePool, FlowEngine, Tracer) {
        let mut pool = ResourcePool::new();
        pool.register(ResourceSpec::disk("osd.0/disk", 1 << 20, 0));
        pool.register(ResourceSpec::nic("node.0/nic", 1 << 20, 0));
        let tracer = Tracer::new();
        tracer.register_resources(&pool);
        let mut engine = FlowEngine::new();
        engine.set_trace_sink(Box::new(tracer.clone()));
        (pool, engine, tracer)
    }

    /// Runs one virtual op of `kind` from `start` to `end` through the
    /// sink interface, the way a completed flow finishes it.
    fn op(tracer: &Tracer, kind: &str, start: u64, end: u64) {
        let ctx = tracer.begin_op(kind, "", SimTime::from_nanos(start));
        tracer.bind_flow(1, ctx);
        tracer.flow_completed(1, SimTime::from_nanos(end));
    }

    #[test]
    fn bound_flow_builds_span_tree_and_finishes_op() {
        let (mut pool, mut engine, tracer) = traced_setup();
        let disk = pool.iter().next().unwrap().0;
        let nic = pool.iter().nth(1).unwrap().0;
        let cost = CostExpr::tagged(
            "read",
            CostExpr::seq([
                CostExpr::tagged("lookup", CostExpr::transfer(nic, 64)),
                CostExpr::tagged("fetch", CostExpr::transfer(disk, 1 << 20)),
            ]),
        );
        let ctx = tracer.begin_op("read", "obj-7", SimTime::ZERO);
        tracer.bind_flow(5, ctx);
        engine.start(SimTime::ZERO, &cost, 5);
        while engine.advance(&mut pool).is_some() {}
        let export = tracer.export();
        assert_eq!(export.ops.len(), 1);
        let op = &export.ops[0];
        assert_eq!(op.kind, "read");
        assert!(op.end_ns.is_some(), "flow completion finished the op");
        let names: Vec<&str> = op.spans.iter().map(|s| s.name.as_str()).collect();
        assert!(names.contains(&"read/lookup"));
        assert!(names.contains(&"read/fetch"));
        assert!(names.contains(&"service"));
        // Child spans nest inside their parents.
        for s in &op.spans {
            if let Some(p) = s.parent {
                let parent = &op.spans[p as usize];
                assert!(parent.start_ns <= s.start_ns && s.end_ns <= parent.end_ns);
            }
        }
    }

    #[test]
    fn unbound_flows_are_ignored() {
        let (mut pool, mut engine, tracer) = traced_setup();
        let disk = pool.iter().next().unwrap().0;
        engine.start(SimTime::ZERO, &CostExpr::transfer(disk, 4096), 77);
        while engine.advance(&mut pool).is_some() {}
        assert!(tracer.export().ops.is_empty());
    }

    #[test]
    fn queueing_produces_queue_child_spans() {
        let (mut pool, mut engine, tracer) = traced_setup();
        let disk = pool.iter().next().unwrap().0;
        let c1 = tracer.begin_op("w", "a", SimTime::ZERO);
        let c2 = tracer.begin_op("w", "b", SimTime::ZERO);
        tracer.bind_flow(1, c1);
        tracer.bind_flow(2, c2);
        engine.start(SimTime::ZERO, &CostExpr::transfer(disk, 1 << 20), 1);
        engine.start(SimTime::ZERO, &CostExpr::transfer(disk, 1 << 20), 2);
        while engine.advance(&mut pool).is_some() {}
        let export = tracer.export();
        let queued: Vec<&OpTrace> = export
            .ops
            .iter()
            .filter(|o| o.spans.iter().any(|s| s.name == "queue"))
            .collect();
        assert_eq!(queued.len(), 1, "only the second op queued");
        let q = queued[0].spans.iter().find(|s| s.name == "queue").unwrap();
        assert_eq!(q.end_ns - q.start_ns, 1_000_000_000);
    }

    #[test]
    fn wall_ops_and_spans_are_recorded() {
        let tracer = Tracer::new();
        let ctx = tracer.begin_wall_op("service.tick", "");
        let t0 = tracer.wall_now_ns();
        tracer.wall_span("flush.stage", t0, t0 + 10);
        tracer.finish_wall_op(ctx);
        let export = tracer.export();
        assert_eq!(export.ops.len(), 1);
        assert_eq!(export.ops[0].clock, Clock::Wall);
        assert!(export.ops[0].end_ns.is_some());
        assert_eq!(export.wall_spans.len(), 1);
        assert_eq!(export.wall_spans[0].name, "flush.stage");
    }

    #[test]
    fn slow_ops_are_flagged_against_their_kinds_rolling_p95() {
        let tracer = Tracer::new();
        let registry = Registry::new();
        tracer.attach_registry(&registry);
        for i in 0..SLOW_MIN_SAMPLES as u64 {
            op(&tracer, "read", i, i + 1000);
        }
        // Exactly 4x p95 is not slow; one nanosecond more is.
        op(&tracer, "read", 0, 4000);
        assert_eq!(tracer.slow_ops(), 0);
        op(&tracer, "read", 0, 4001);
        // A "flush" 100x slower than reads has no baseline of its own yet.
        op(&tracer, "flush", 0, 100_000);
        assert_eq!(tracer.slow_ops(), 1);
        assert_eq!(registry.counter("trace.slow_ops").get(), 1);
        let slow: Vec<OpTrace> = tracer.export().ops.into_iter().filter(|o| o.slow).collect();
        assert_eq!(slow.len(), 1);
        assert_eq!(slow[0].end_ns, Some(4001));
    }

    #[test]
    fn rings_are_bounded() {
        let tracer = Tracer::new();
        for i in 0..MAX_FINISHED as u64 + 3 {
            op(&tracer, "w", i, i + 1);
        }
        let ids: Vec<u64> = tracer.export().ops.iter().map(|o| o.id).collect();
        assert_eq!(ids.len(), MAX_FINISHED);
        assert_eq!(ids[0], 4, "the oldest finished ops age out first");

        // In flight: the oldest unfinished op is force-retired.
        let tracer = Tracer::new();
        for _ in 0..=MAX_IN_FLIGHT {
            let _ = tracer.begin_op("w", "", SimTime::ZERO);
        }
        let export = tracer.export();
        assert_eq!(export.ops.len(), MAX_IN_FLIGHT + 1);
        let retired = &export.ops[0];
        assert_eq!((retired.id, retired.end_ns), (1, None));
        assert_eq!(tracer.lock().in_flight.len(), MAX_IN_FLIGHT);
    }

    #[test]
    fn span_cap_counts_drops() {
        let tracer = Tracer::new();
        let ctx = tracer.begin_op("w", "", SimTime::ZERO);
        let mut inner = tracer.lock();
        let span = Span {
            name: "s".into(),
            track: Track::Thread("delay".into()),
            start_ns: 0,
            end_ns: 1,
            parent: None,
            bytes: 0,
        };
        for i in 0..MAX_SPANS_PER_OP {
            assert_eq!(inner.add_span(ctx.op, span.clone()), Some(i as u32));
        }
        assert_eq!(inner.add_span(ctx.op, span), None);
        assert_eq!(inner.in_flight[&ctx.op].dropped_spans, 1);
    }
}

#[cfg(test)]
mod span_proptests {
    use super::*;
    use dedup_sim::{CostExpr, FlowEngine, ResourceId, ResourceSpec, SimDuration};
    use proptest::prelude::*;

    /// Resource-index shape of a cost tree; converted to a [`CostExpr`]
    /// against a concrete pool at test time (resource handles are only
    /// issued by pools).
    #[derive(Debug, Clone)]
    enum Shape {
        Transfer(usize, u64),
        Busy(usize, u64),
        Delay(u64),
        Seq(Vec<Shape>),
        Par(Vec<Shape>),
        Tag(u8, Box<Shape>),
    }

    fn to_cost(shape: &Shape, ids: &[ResourceId]) -> CostExpr {
        match shape {
            Shape::Transfer(r, b) => CostExpr::transfer(ids[r % ids.len()], *b),
            Shape::Busy(r, n) => CostExpr::busy(ids[r % ids.len()], SimDuration::from_nanos(*n)),
            Shape::Delay(n) => CostExpr::delay(SimDuration::from_nanos(*n)),
            Shape::Seq(parts) => CostExpr::seq(parts.iter().map(|p| to_cost(p, ids))),
            Shape::Par(parts) => CostExpr::par(parts.iter().map(|p| to_cost(p, ids))),
            Shape::Tag(l, inner) => {
                let label = ["stage", "lookup", "relay"][*l as usize % 3];
                CostExpr::tagged(label, to_cost(inner, ids))
            }
        }
    }

    fn leaf_strategy() -> impl Strategy<Value = Shape> {
        prop_oneof![
            (0usize..4, 1u64..100_000).prop_map(|(r, b)| Shape::Transfer(r, b)),
            (0usize..4, 1u64..1_000_000).prop_map(|(r, n)| Shape::Busy(r, n)),
            (1u64..1_000_000).prop_map(Shape::Delay),
        ]
    }

    fn shape_strategy(depth: u32) -> impl Strategy<Value = Shape> {
        leaf_strategy().prop_recursive(depth, 24, 4, |inner| {
            prop_oneof![
                proptest::collection::vec(inner.clone(), 1..4).prop_map(Shape::Seq),
                proptest::collection::vec(inner.clone(), 1..4).prop_map(Shape::Par),
                (0u8..3, inner).prop_map(|(l, s)| Shape::Tag(l, Box::new(s))),
            ]
        })
    }

    fn traced_pool() -> (ResourcePool, Vec<ResourceId>) {
        let mut pool = ResourcePool::new();
        for i in 0..4 {
            pool.register(ResourceSpec::disk(format!("r{i}"), 10 << 20, 50_000));
        }
        let ids = pool.iter().map(|(id, _)| id).collect();
        (pool, ids)
    }

    fn run_traced(cost: &CostExpr) -> OpTrace {
        let (mut pool, _) = traced_pool();
        let tracer = Tracer::new();
        tracer.register_resources(&pool);
        let mut engine = FlowEngine::new();
        engine.set_trace_sink(Box::new(tracer.clone()));
        let ctx = tracer.begin_op("op", "", SimTime::ZERO);
        tracer.bind_flow(9, ctx);
        engine.start(SimTime::ZERO, cost, 9);
        while engine.advance(&mut pool).is_some() {}
        let mut export = tracer.export();
        assert_eq!(export.ops.len(), 1);
        export.ops.pop().unwrap()
    }

    proptest! {
        /// Every span of a traced op nests inside the op's `[start, end]`
        /// window; parented spans nest inside their parent; and the
        /// parent links form a single rooted tree (the op is the implicit
        /// root, parents always precede children).
        #[test]
        fn span_trees_are_well_formed(shape in shape_strategy(3)) {
            let (_, ids) = traced_pool();
            let cost = to_cost(&shape, &ids);
            let op = run_traced(&cost);
            let end = op.end_ns.expect("flow completion finished the op");
            prop_assert!(end >= op.start_ns);
            for (i, span) in op.spans.iter().enumerate() {
                prop_assert!(span.start_ns <= span.end_ns, "span {i} inverted");
                prop_assert!(
                    op.start_ns <= span.start_ns && span.end_ns <= end,
                    "span {i} escapes the op window"
                );
                if let Some(p) = span.parent {
                    let p = p as usize;
                    prop_assert!(p < i, "parent link {p} does not precede child {i}");
                    let parent = &op.spans[p];
                    prop_assert!(
                        parent.parent.is_none(),
                        "queue/service children only hang off leg spans"
                    );
                    prop_assert!(
                        parent.start_ns <= span.start_ns && span.end_ns <= parent.end_ns,
                        "child {i} escapes parent {p}"
                    );
                }
            }
        }

        /// On a purely sequential cost tree the top-level leg spans never
        /// overlap: each leg is queued only once its predecessor has
        /// completed.
        #[test]
        fn seq_legs_do_not_overlap(
            legs in proptest::collection::vec(leaf_strategy(), 1..10),
        ) {
            let (_, ids) = traced_pool();
            let cost = to_cost(&Shape::Seq(legs), &ids);
            let op = run_traced(&cost);
            let mut roots: Vec<&Span> =
                op.spans.iter().filter(|s| s.parent.is_none()).collect();
            roots.sort_by_key(|s| s.start_ns);
            for pair in roots.windows(2) {
                prop_assert!(
                    pair[0].end_ns <= pair[1].start_ns,
                    "seq legs overlap: [{}, {}] then [{}, {}]",
                    pair[0].start_ns,
                    pair[0].end_ns,
                    pair[1].start_ns,
                    pair[1].end_ns
                );
            }
        }
    }
}
