//! Cluster-level observability: cached instrument handles for the data
//! plane's hot paths.
//!
//! The handles live on [`Cluster`](crate::Cluster) so recording is a couple
//! of atomic ops per I/O — the registry itself is only locked when an
//! instrument is first created or a snapshot is taken. All instruments are
//! interior-mutable, so `&self` paths can record too.

use dedup_obs::{Counter, Histogram, Registry};

/// Instrument handles for one cluster.
#[derive(Debug, Clone)]
pub(crate) struct ClusterMetrics {
    registry: Registry,
    /// Write transactions (any transaction carrying payload data).
    pub writes: Counter,
    /// Payload bytes accepted by write transactions.
    pub write_bytes: Counter,
    /// Delete transactions.
    pub deletes: Counter,
    /// Latency of executed cost expressions, in virtual nanoseconds.
    pub exec_latency: Histogram,
    /// Payload bytes deep-copied (memcpy) at data-plane hops. Registered
    /// as `engine.bytes_copied` so a stacked dedup engine sharing this
    /// registry accumulates into the same counter.
    pub bytes_copied: Counter,
    /// Payload bytes moved by refcount bump where the pre-zero-copy
    /// design memcpy'd (shared `engine.bytes_shared` instrument).
    pub bytes_shared: Counter,
    /// WAL records appended (one per committed transaction).
    pub wal_appends: Counter,
    /// Framed bytes appended to the per-OSD logs.
    pub wal_append_bytes: Counter,
}

impl ClusterMetrics {
    pub(crate) fn new(registry: Registry) -> Self {
        ClusterMetrics {
            writes: registry.counter("cluster.writes"),
            write_bytes: registry.counter("cluster.write_bytes"),
            deletes: registry.counter("cluster.deletes"),
            exec_latency: registry.histogram("cluster.exec_latency_ns"),
            bytes_copied: registry.counter("engine.bytes_copied"),
            bytes_shared: registry.counter("engine.bytes_shared"),
            wal_appends: registry.counter("wal.appends"),
            wal_append_bytes: registry.counter("wal.append_bytes"),
            registry,
        }
    }

    pub(crate) fn registry(&self) -> &Registry {
        &self.registry
    }
}
