//! Leg-level discrete-event execution of concurrent cost expressions.
//!
//! [`crate::ResourcePool::execute`] runs one cost tree atomically, which is
//! fine for a single measured operation but wrong for many concurrent ones:
//! an op's *early* leg must be able to use a resource before another op's
//! *late* leg arrives there, regardless of issue order. The [`FlowEngine`]
//! fixes this: each cost tree is compiled into a DAG of legs, and legs from
//! all in-flight flows interleave through one global event queue in correct
//! virtual-time order.
//!
//! # Example
//!
//! ```
//! use dedup_sim::{CostExpr, FlowEngine, ResourcePool, ResourceSpec, SimTime};
//!
//! let mut pool = ResourcePool::new();
//! let disk = pool.register(ResourceSpec::disk("d", 1 << 20, 0));
//! let mut engine = FlowEngine::new();
//! engine.start(SimTime::ZERO, &CostExpr::transfer(disk, 1 << 20), 7);
//! let done = engine.advance(&mut pool).expect("one flow");
//! assert_eq!(done.tag, 7);
//! assert_eq!(done.at, SimTime::from_secs(1));
//! ```

use std::fmt;
use std::sync::Arc;

use crate::cost::CostExpr;
use crate::driver::EventQueue;
use crate::resource::{ResourceId, ResourcePool};
use crate::time::{SimDuration, SimTime};
use crate::trace::{LegKind, LegRecord, TraceSink};

/// One executable leg of a flow.
#[derive(Debug, Clone, Copy)]
enum Step {
    Transfer(ResourceId, u64),
    Busy(ResourceId, u64),
    Delay(u64),
    /// Structural node (join/fork point); takes no time.
    Nop,
}

#[derive(Debug, Clone)]
struct FlowNode {
    step: Step,
    /// Label path from enclosing `CostExpr::Tagged` nodes (tracing only).
    label: Option<Arc<str>>,
    succs: Vec<usize>,
    preds_left: usize,
    /// Latest predecessor completion seen so far.
    ready_at: SimTime,
}

#[derive(Debug, Clone)]
struct Flow {
    nodes: Vec<FlowNode>,
    remaining: usize,
    finished_at: SimTime,
    tag: u64,
}

/// A completed flow: when it finished and the caller's tag.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FlowCompletion {
    /// Virtual completion time of the whole cost tree.
    pub at: SimTime,
    /// The tag passed to [`FlowEngine::start`].
    pub tag: u64,
}

/// Executes many cost trees concurrently with correct leg interleaving.
#[derive(Default)]
pub struct FlowEngine {
    events: EventQueue<(usize, usize)>,
    flows: Vec<Option<Flow>>,
    free_slots: Vec<usize>,
    in_flight: usize,
    /// Optional trace receiver; `None` disables all reporting.
    sink: Option<Box<dyn TraceSink>>,
}

impl fmt::Debug for FlowEngine {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("FlowEngine")
            .field("in_flight", &self.in_flight)
            .field("flows", &self.flows)
            .field("traced", &self.sink.is_some())
            .finish_non_exhaustive()
    }
}

impl FlowEngine {
    /// Creates an idle engine.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of flows currently in flight.
    pub fn in_flight(&self) -> usize {
        self.in_flight
    }

    /// Attaches a trace sink; every subsequently executed leg is reported
    /// to it. Tracing never changes virtual-time results.
    pub fn set_trace_sink(&mut self, sink: Box<dyn TraceSink>) {
        self.sink = Some(sink);
    }

    /// Detaches the trace sink, returning reporting to the free path.
    pub fn clear_trace_sink(&mut self) {
        self.sink = None;
    }

    /// Whether a trace sink is attached.
    pub fn is_traced(&self) -> bool {
        self.sink.is_some()
    }

    /// Time of the next pending leg, if any.
    pub fn peek_time(&self) -> Option<SimTime> {
        self.events.peek_time()
    }

    /// Starts executing `cost` at virtual time `at`. The flow completes
    /// when every leg has run; [`FlowEngine::advance`] reports it with
    /// `tag`.
    pub fn start(&mut self, at: SimTime, cost: &CostExpr, tag: u64) {
        let mut nodes = Vec::new();
        let (entries, _exits) = compile(cost, &mut nodes, None);
        if nodes.is_empty() {
            // Pure no-op: model as a single structural node so the flow
            // still completes through the queue (usable as a timer).
            nodes.push(FlowNode {
                step: Step::Nop,
                label: None,
                succs: Vec::new(),
                preds_left: 0,
                ready_at: at,
            });
        }
        let remaining = nodes.len();
        let flow = Flow {
            nodes,
            remaining,
            finished_at: at,
            tag,
        };
        let slot = match self.free_slots.pop() {
            Some(s) => {
                self.flows[s] = Some(flow);
                s
            }
            None => {
                self.flows.push(Some(flow));
                self.flows.len() - 1
            }
        };
        self.in_flight += 1;
        if let Some(sink) = &self.sink {
            sink.flow_started(tag, at);
        }
        let flow = self.flows[slot].as_mut().expect("just inserted");
        if entries.is_empty() {
            // The synthetic Nop node is the only entry.
            flow.nodes[0].ready_at = at;
            self.events.push(at, (slot, 0));
        } else {
            for e in entries {
                flow.nodes[e].ready_at = at;
                self.events.push(at, (slot, e));
            }
        }
    }

    /// Processes every pending leg scheduled at or before `until`,
    /// returning the flows that completed. Use this to interleave flow
    /// execution with externally timed events (open-loop op issue): unlike
    /// [`FlowEngine::advance`], it never runs past `until`, so flows
    /// started afterwards at times `>= until` keep resource service in
    /// virtual-time order.
    pub fn advance_until(
        &mut self,
        pool: &mut ResourcePool,
        until: SimTime,
    ) -> Vec<FlowCompletion> {
        let mut completions = Vec::new();
        while self.events.peek_time().is_some_and(|t| t <= until) {
            let ev = self.events.pop().expect("peeked");
            if let Some(c) = self.process(pool, ev.at, ev.payload) {
                completions.push(c);
            }
        }
        completions
    }

    /// Processes pending legs in time order until some flow completes;
    /// returns it, or `None` when nothing is in flight.
    pub fn advance(&mut self, pool: &mut ResourcePool) -> Option<FlowCompletion> {
        while let Some(ev) = self.events.pop() {
            if let Some(c) = self.process(pool, ev.at, ev.payload) {
                return Some(c);
            }
        }
        None
    }

    /// Executes one leg; returns the flow's completion if it was the last.
    fn process(
        &mut self,
        pool: &mut ResourcePool,
        at: SimTime,
        (slot, node_idx): (usize, usize),
    ) -> Option<FlowCompletion> {
        let flow = self.flows[slot].as_mut().expect("live flow");
        let node = &flow.nodes[node_idx];
        let ready = node.ready_at.max(at);
        // `service_start` mirrors the `now.max(next_free)` the resource
        // computes inside `serve`; reading it here lets tracing separate
        // queueing from service without perturbing the serving path.
        let (done, service_start) = match node.step {
            Step::Transfer(r, bytes) => {
                let res = pool.get_mut(r);
                let start = ready.max(res.next_free());
                (res.serve(ready, bytes), start)
            }
            Step::Busy(r, nanos) => {
                let res = pool.get_mut(r);
                let start = ready.max(res.next_free());
                (res.serve_for(ready, SimDuration::from_nanos(nanos)), start)
            }
            Step::Delay(nanos) => (ready + SimDuration::from_nanos(nanos), ready),
            Step::Nop => (ready, ready),
        };
        if let Some(sink) = &self.sink {
            let record = match node.step {
                Step::Transfer(r, bytes) => Some((Some(r), LegKind::Transfer, bytes)),
                Step::Busy(r, _) => Some((Some(r), LegKind::Busy, 0)),
                Step::Delay(_) => Some((None, LegKind::Delay, 0)),
                Step::Nop => None,
            };
            if let Some((resource, kind, bytes)) = record {
                sink.leg(
                    flow.tag,
                    &LegRecord {
                        resource,
                        kind,
                        bytes,
                        label: node.label.clone(),
                        queued_at: ready,
                        service_start,
                        completed_at: done,
                    },
                );
            }
        }
        flow.finished_at = flow.finished_at.max(done);
        flow.remaining -= 1;
        let succs = flow.nodes[node_idx].succs.clone();
        for s in succs {
            let succ = &mut flow.nodes[s];
            succ.ready_at = succ.ready_at.max(done);
            succ.preds_left -= 1;
            if succ.preds_left == 0 {
                self.events.push(succ.ready_at, (slot, s));
            }
        }
        if flow.remaining == 0 {
            let completion = FlowCompletion {
                at: flow.finished_at,
                tag: flow.tag,
            };
            self.flows[slot] = None;
            self.free_slots.push(slot);
            self.in_flight -= 1;
            if let Some(sink) = &self.sink {
                sink.flow_completed(completion.tag, completion.at);
            }
            return Some(completion);
        }
        None
    }
}

/// Compiles a cost tree into DAG nodes; returns (entry ids, exit ids).
/// `label` is the label path accumulated from enclosing `Tagged` nodes.
fn compile(
    cost: &CostExpr,
    nodes: &mut Vec<FlowNode>,
    label: Option<&Arc<str>>,
) -> (Vec<usize>, Vec<usize>) {
    match cost {
        CostExpr::Nop => (Vec::new(), Vec::new()),
        CostExpr::Transfer { resource, bytes } => {
            let id = push_leaf(nodes, Step::Transfer(*resource, *bytes), label);
            (vec![id], vec![id])
        }
        CostExpr::Busy { resource, nanos } => {
            let id = push_leaf(nodes, Step::Busy(*resource, *nanos), label);
            (vec![id], vec![id])
        }
        CostExpr::Delay(nanos) => {
            let id = push_leaf(nodes, Step::Delay(*nanos), label);
            (vec![id], vec![id])
        }
        CostExpr::Seq(parts) => {
            let mut entries: Vec<usize> = Vec::new();
            let mut exits: Vec<usize> = Vec::new();
            for part in parts {
                let (e, x) = compile(part, nodes, label);
                if e.is_empty() {
                    continue; // nested no-op
                }
                if entries.is_empty() {
                    entries = e;
                } else {
                    // Fan in: every previous exit precedes every new entry.
                    // With multiple exits and entries, insert a join node to
                    // keep edge counts simple.
                    let (froms, tos) = if exits.len() > 1 && e.len() > 1 {
                        let join = push_leaf(nodes, Step::Nop, None);
                        connect(nodes, &exits, &[join]);
                        (vec![join], e)
                    } else {
                        (exits.clone(), e)
                    };
                    connect(nodes, &froms, &tos);
                }
                exits = x;
            }
            (entries, exits)
        }
        CostExpr::Par(parts) => {
            let mut entries = Vec::new();
            let mut exits = Vec::new();
            for part in parts {
                let (e, x) = compile(part, nodes, label);
                entries.extend(e);
                exits.extend(x);
            }
            (entries, exits)
        }
        CostExpr::Tagged { label: l, inner } => {
            let combined = match label {
                None => l.clone(),
                Some(outer) => Arc::from(format!("{outer}/{l}")),
            };
            compile(inner, nodes, Some(&combined))
        }
    }
}

fn push_leaf(nodes: &mut Vec<FlowNode>, step: Step, label: Option<&Arc<str>>) -> usize {
    nodes.push(FlowNode {
        step,
        label: label.cloned(),
        succs: Vec::new(),
        preds_left: 0,
        ready_at: SimTime::ZERO,
    });
    nodes.len() - 1
}

fn connect(nodes: &mut [FlowNode], froms: &[usize], tos: &[usize]) {
    for &f in froms {
        for &t in tos {
            nodes[f].succs.push(t);
            nodes[t].preds_left += 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::resource::ResourceSpec;

    fn pool2() -> (ResourcePool, ResourceId, ResourceId) {
        let mut pool = ResourcePool::new();
        let a = pool.register(ResourceSpec::disk("a", 1 << 20, 0));
        let b = pool.register(ResourceSpec::disk("b", 1 << 20, 0));
        (pool, a, b)
    }

    #[test]
    fn single_flow_matches_monolithic_execute() {
        let (mut pool, a, b) = pool2();
        let cost = CostExpr::seq([
            CostExpr::transfer(a, 1 << 20),
            CostExpr::par([
                CostExpr::transfer(b, 1 << 20),
                CostExpr::transfer(a, 1 << 19),
            ]),
        ]);
        let mut reference_pool = pool.clone();
        let expect = reference_pool.execute(SimTime::ZERO, &cost);
        let mut engine = FlowEngine::new();
        engine.start(SimTime::ZERO, &cost, 1);
        let done = engine.advance(&mut pool).expect("flow");
        assert_eq!(done.at, expect);
    }

    #[test]
    fn later_ops_early_legs_do_not_wait_for_earlier_ops_late_legs() {
        // Flow 1 (issued first): long leg on A, then a leg on B.
        // Flow 2 (issued second): leg on B immediately.
        // Correct interleaving lets flow 2 use B at t=0.
        let (mut pool, a, b) = pool2();
        let f1 = CostExpr::seq([
            CostExpr::transfer(a, 2 << 20),
            CostExpr::transfer(b, 1 << 20),
        ]);
        let f2 = CostExpr::transfer(b, 1 << 20);
        let mut engine = FlowEngine::new();
        engine.start(SimTime::ZERO, &f1, 1);
        engine.start(SimTime::ZERO, &f2, 2);
        let first = engine.advance(&mut pool).expect("flow");
        assert_eq!(first.tag, 2, "independent op finishes first");
        assert_eq!(first.at, SimTime::from_secs(1), "no false queueing on B");
        let second = engine.advance(&mut pool).expect("flow");
        assert_eq!(second.tag, 1);
        assert_eq!(second.at, SimTime::from_secs(3), "2s on A then 1s on B");
    }

    #[test]
    fn contention_on_same_resource_is_still_serialized() {
        let (mut pool, a, _) = pool2();
        let mut engine = FlowEngine::new();
        engine.start(SimTime::ZERO, &CostExpr::transfer(a, 1 << 20), 1);
        engine.start(SimTime::ZERO, &CostExpr::transfer(a, 1 << 20), 2);
        let t1 = engine.advance(&mut pool).expect("flow");
        let t2 = engine.advance(&mut pool).expect("flow");
        assert_eq!(t1.at, SimTime::from_secs(1));
        assert_eq!(t2.at, SimTime::from_secs(2));
    }

    #[test]
    fn nop_flow_acts_as_timer() {
        let mut pool = ResourcePool::new();
        let mut engine = FlowEngine::new();
        engine.start(SimTime::from_secs(5), &CostExpr::Nop, 9);
        let done = engine.advance(&mut pool).expect("flow");
        assert_eq!(done.at, SimTime::from_secs(5));
        assert_eq!(done.tag, 9);
        assert!(engine.advance(&mut pool).is_none());
    }

    #[test]
    fn par_join_waits_for_slowest_branch() {
        let (mut pool, a, b) = pool2();
        let cost = CostExpr::seq([
            CostExpr::par([
                CostExpr::transfer(a, 3 << 20),
                CostExpr::transfer(b, 1 << 20),
            ]),
            CostExpr::transfer(b, 1 << 20),
        ]);
        let mut engine = FlowEngine::new();
        engine.start(SimTime::ZERO, &cost, 1);
        let done = engine.advance(&mut pool).expect("flow");
        assert_eq!(done.at, SimTime::from_secs(4), "3s par then 1s");
    }

    #[test]
    fn many_concurrent_flows_all_complete() {
        let (mut pool, a, b) = pool2();
        let mut engine = FlowEngine::new();
        for i in 0..100u64 {
            let cost = CostExpr::seq([CostExpr::transfer(a, 1024), CostExpr::transfer(b, 1024)]);
            engine.start(SimTime::from_nanos(i), &cost, i);
            assert_eq!(engine.in_flight(), i as usize + 1);
        }
        let mut seen = std::collections::HashSet::new();
        while let Some(c) = engine.advance(&mut pool) {
            seen.insert(c.tag);
        }
        assert_eq!(seen.len(), 100);
        assert_eq!(engine.in_flight(), 0);
    }

    #[derive(Default, Clone)]
    struct RecordingSink {
        legs: std::sync::Arc<std::sync::Mutex<Vec<(u64, LegRecord)>>>,
        completions: std::sync::Arc<std::sync::Mutex<Vec<(u64, SimTime)>>>,
    }

    impl TraceSink for RecordingSink {
        fn leg(&self, tag: u64, leg: &LegRecord) {
            self.legs.lock().unwrap().push((tag, leg.clone()));
        }
        fn flow_completed(&self, tag: u64, at: SimTime) {
            self.completions.lock().unwrap().push((tag, at));
        }
    }

    #[test]
    fn sink_sees_queue_and_service_separately() {
        let (mut pool, a, _) = pool2();
        let sink = RecordingSink::default();
        let mut engine = FlowEngine::new();
        engine.set_trace_sink(Box::new(sink.clone()));
        // Two 1 MiB transfers on the same 1 MiB/s disk: the second queues
        // a full second behind the first.
        engine.start(SimTime::ZERO, &CostExpr::transfer(a, 1 << 20), 1);
        engine.start(SimTime::ZERO, &CostExpr::transfer(a, 1 << 20), 2);
        while engine.advance(&mut pool).is_some() {}
        let legs = sink.legs.lock().unwrap();
        assert_eq!(legs.len(), 2);
        let first = &legs[0].1;
        let second = &legs[1].1;
        assert_eq!(first.queue_nanos(), 0);
        assert_eq!(first.service_nanos(), 1_000_000_000);
        assert_eq!(second.queue_nanos(), 1_000_000_000, "queued behind first");
        assert_eq!(second.service_nanos(), 1_000_000_000);
        assert_eq!(second.resource, Some(a));
        assert_eq!(sink.completions.lock().unwrap().len(), 2);
    }

    #[test]
    fn sink_sees_nested_labels_as_paths() {
        let (mut pool, a, b) = pool2();
        let sink = RecordingSink::default();
        let mut engine = FlowEngine::new();
        engine.set_trace_sink(Box::new(sink.clone()));
        let cost = CostExpr::tagged(
            "read",
            CostExpr::seq([
                CostExpr::tagged("lookup", CostExpr::transfer(a, 64)),
                CostExpr::transfer(b, 4096),
            ]),
        );
        engine.start(SimTime::ZERO, &cost, 7);
        while engine.advance(&mut pool).is_some() {}
        let legs = sink.legs.lock().unwrap();
        let labels: Vec<Option<String>> = legs
            .iter()
            .map(|(_, l)| l.label.as_deref().map(String::from))
            .collect();
        assert_eq!(
            labels,
            vec![Some("read/lookup".to_string()), Some("read".to_string())]
        );
    }

    #[test]
    fn tracing_does_not_change_completion_times() {
        let (mut traced_pool, a, b) = pool2();
        let mut plain_pool = traced_pool.clone();
        let cost = CostExpr::seq([
            CostExpr::transfer(a, 1 << 20),
            CostExpr::par([
                CostExpr::transfer(b, 1 << 20),
                CostExpr::transfer(a, 1 << 19),
            ]),
        ]);
        let tagged = CostExpr::tagged("op", cost.clone());
        let mut plain = FlowEngine::new();
        plain.start(SimTime::ZERO, &cost, 1);
        let expect = plain.advance(&mut plain_pool).expect("flow");
        let mut traced = FlowEngine::new();
        traced.set_trace_sink(Box::new(RecordingSink::default()));
        traced.start(SimTime::ZERO, &tagged, 1);
        let got = traced.advance(&mut traced_pool).expect("flow");
        assert_eq!(got.at, expect.at);
    }

    #[test]
    fn slots_are_reused() {
        let (mut pool, a, _) = pool2();
        let mut engine = FlowEngine::new();
        for i in 0..10 {
            engine.start(SimTime::ZERO, &CostExpr::transfer(a, 1), i);
            let _ = engine.advance(&mut pool).expect("flow");
        }
        assert!(engine.flows.len() <= 2, "slots must be recycled");
    }
}

#[cfg(test)]
mod flow_proptests {
    use super::*;
    use crate::resource::ResourceSpec;
    use proptest::prelude::*;

    /// Random cost trees over a small resource set.
    fn cost_strategy(depth: u32) -> impl Strategy<Value = CostExpr> {
        let leaf = prop_oneof![
            (0u32..4, 1u64..100_000).prop_map(|(r, b)| CostExpr::Transfer {
                resource: crate::resource::ResourceId(r),
                bytes: b,
            }),
            (0u32..4, 1u64..1_000_000).prop_map(|(r, n)| CostExpr::Busy {
                resource: crate::resource::ResourceId(r),
                nanos: n,
            }),
            (1u64..1_000_000).prop_map(CostExpr::Delay),
            Just(CostExpr::Nop),
        ];
        leaf.prop_recursive(depth, 24, 4, |inner| {
            prop_oneof![
                proptest::collection::vec(inner.clone(), 1..4).prop_map(CostExpr::Seq),
                proptest::collection::vec(inner, 1..4).prop_map(CostExpr::Par),
            ]
        })
    }

    fn small_pool() -> ResourcePool {
        let mut pool = ResourcePool::new();
        for i in 0..4 {
            pool.register(ResourceSpec::disk(format!("r{i}"), 10 << 20, 50_000));
        }
        pool
    }

    /// A sequential-only tree (no `Par`): the engine and the monolithic
    /// executor must agree exactly.
    fn seq_only_strategy() -> impl Strategy<Value = CostExpr> {
        let leaf = prop_oneof![
            (0u32..4, 1u64..100_000).prop_map(|(r, b)| CostExpr::Transfer {
                resource: crate::resource::ResourceId(r),
                bytes: b,
            }),
            (0u32..4, 1u64..1_000_000).prop_map(|(r, n)| CostExpr::Busy {
                resource: crate::resource::ResourceId(r),
                nanos: n,
            }),
            (1u64..1_000_000).prop_map(CostExpr::Delay),
        ];
        proptest::collection::vec(leaf, 1..12).prop_map(CostExpr::Seq)
    }

    proptest! {
        /// On `Par`-free trees the engine is bit-identical to the
        /// monolithic executor. (With `Par`, the two use different — both
        /// valid — FIFO tie-breaks when branches share a resource, so only
        /// the sequential case pins exact equality.)
        #[test]
        fn single_seq_flow_matches_execute(cost in seq_only_strategy()) {
            let mut a = small_pool();
            let expect = a.execute(SimTime::ZERO, &cost);
            let mut b = small_pool();
            let mut engine = FlowEngine::new();
            engine.start(SimTime::ZERO, &cost, 1);
            let done = engine.advance(&mut b).expect("flow completes");
            prop_assert_eq!(done.at, expect);
            prop_assert!(engine.advance(&mut b).is_none());
        }

        /// Any single flow completes no earlier than its longest pure
        /// chain of delays would allow and consumes exactly its own busy
        /// time on the pool.
        #[test]
        fn single_flow_conserves_busy_time(cost in cost_strategy(3)) {
            let mut pool = small_pool();
            let mut engine = FlowEngine::new();
            engine.start(SimTime::ZERO, &cost, 1);
            let done = engine.advance(&mut pool).expect("flow completes");
            // Busy-time conservation: total serial time equals the sum of
            // the tree's transfers/busies, independent of interleaving.
            fn serial_nanos(c: &CostExpr) -> u64 {
                match c {
                    CostExpr::Transfer { bytes, .. } => bytes * 1_000_000_000 / (10 << 20),
                    CostExpr::Busy { nanos, .. } => *nanos,
                    CostExpr::Seq(p) | CostExpr::Par(p) => p.iter().map(serial_nanos).sum(),
                    _ => 0,
                }
            }
            let total_busy: u64 = pool
                .iter()
                .map(|(_, r)| r.busy_time().as_nanos())
                .sum();
            let expect = serial_nanos(&cost);
            // Integer division per leg loses < 1ns per transfer; allow 64.
            prop_assert!(total_busy.abs_diff(expect) <= 64, "{total_busy} vs {expect}");
            prop_assert!(done.at >= SimTime::ZERO);
        }

        /// Concurrent flows: every flow completes exactly once and never
        /// earlier than its isolated execution (contention only delays).
        #[test]
        fn contention_never_speeds_a_flow_up(
            costs in proptest::collection::vec(seq_only_strategy(), 1..8),
        ) {
            let mut isolated = Vec::new();
            for c in &costs {
                let mut p = small_pool();
                isolated.push(p.execute(SimTime::ZERO, c));
            }
            let mut pool = small_pool();
            let mut engine = FlowEngine::new();
            for (i, c) in costs.iter().enumerate() {
                engine.start(SimTime::ZERO, c, i as u64);
            }
            let mut seen = std::collections::HashSet::new();
            while let Some(c) = engine.advance(&mut pool) {
                prop_assert!(seen.insert(c.tag), "duplicate completion");
                prop_assert!(
                    c.at >= isolated[c.tag as usize],
                    "contention cannot make a flow faster"
                );
            }
            prop_assert_eq!(seen.len(), costs.len());
        }
    }
}
