//! Cluster-wide observability for the dedup storage stack.
//!
//! The stack spans several crates — the virtual-time simulator
//! (`dedup-sim`), the scale-out object store (`dedup-store`), the
//! deduplication engine (`dedup-core`) and the benchmark drivers
//! (`dedup-bench`) — and before this crate each layer kept private ad-hoc
//! counters. `dedup-obs` gives them one shared vocabulary:
//!
//! - [`registry`] — a cloneable [`Registry`] of named, labelled
//!   instruments (counters, gauges, log-scaled latency histograms with
//!   p50/p95/p99, sliding-window rate meters over virtual time), plus a
//!   JSON-lines snapshot export used as the metrics sidecar format by the
//!   figure binaries.
//! - [`probe`] — a free function sampling per-resource utilisation from
//!   the simulator into a registry without the simulator depending on
//!   this crate.
//! - [`trace`] — per-op causal tracing: a [`Tracer`] implements the
//!   simulator's `TraceSink` so every cost-DAG leg an engine executes
//!   becomes a span (with queueing and service time separated), grouped
//!   into span trees per foreground op / background flush. The tracer
//!   owns its ops: a bounded in-flight/finished ring with rolling-p95
//!   slow-op flagging.
//! - [`chrome`] — Chrome `trace_event` (Perfetto-loadable) export of
//!   recorded traces, plus a dependency-free schema validator.
//! - [`events`] — the third pillar: a severity-leveled, bounded-ring
//!   [`EventLog`] of discrete, virtual-time-stamped state changes (OSD
//!   down, bloom overfill, WAL checkpoint, band transition) with
//!   JSON-lines export.
//! - [`health`] — [`HealthFinding`]s from plain probe functions and their
//!   `ok/degraded/critical` aggregation into a machine-readable
//!   [`HealthReport`].
//!
//! One `Registry` is created per storage stack (the engine builds it and
//! shares it with its cluster) so a single snapshot shows the whole
//! system: foreground op latencies next to flush-queue depth next to disk
//! utilisation. A `Tracer` and an `EventLog` are attached to the cluster
//! the same way when `DEDUP_TRACE_DIR` / `DEDUP_EVENTS_DIR` are set; the
//! attached tracer is also the one switch that labels cost legs with step
//! names.

pub mod chrome;
pub mod events;
pub mod health;
pub mod probe;
pub mod registry;
pub mod trace;

pub use chrome::{render, validate_chrome_trace};
pub use events::{Event, EventLog, Severity};
pub use health::{HealthFinding, HealthReport, HealthStatus};
pub use probe::sample_resources;
pub use registry::{
    Counter, Gauge, Histogram, Labels, Meter, MetricSnapshot, Registry, SnapshotValue,
};
pub use trace::{Clock, OpTrace, Span, TraceCtx, TraceExport, Tracer, Track};
