//! Systems under test: the raw cluster ("Original") and the dedup layer
//! ("Proposed") behind one interface.

use dedup_core::{DedupConfig, DedupStore};
use dedup_obs::{EventLog, Registry, Tracer};
use dedup_sim::{CostExpr, SimTime};
use dedup_store::{ClientId, Cluster, ClusterBuilder, IoCtx, ObjectName, PoolConfig};
use dedup_workloads::Dataset;

use crate::report::{events_dir, trace_dir};

/// A storage system a driver can load. Implementations panic on store
/// errors: the harness runs fixed, known-good scenarios, and an error is a
/// bug worth a loud stop.
pub trait StorageSystem {
    /// Short label for tables.
    fn label(&self) -> &str;

    /// Writes `data` at `offset` of `name`; returns the op's cost.
    fn write(
        &mut self,
        client: ClientId,
        name: &str,
        offset: u64,
        data: &[u8],
        now: SimTime,
    ) -> CostExpr;

    /// Reads `len` at `offset` of `name`; returns the op's cost.
    fn read(
        &mut self,
        client: ClientId,
        name: &str,
        offset: u64,
        len: u64,
        now: SimTime,
    ) -> CostExpr;

    /// Performs one unit of background work if any is pending; `None` when
    /// idle or throttled.
    fn tick_background(&mut self, now: SimTime) -> Option<CostExpr>;

    /// Whether background work remains queued.
    fn background_pending(&self) -> bool {
        false
    }

    /// How many background flush workers a driver should run concurrently.
    fn background_workers(&self) -> usize {
        1
    }

    /// The underlying cluster.
    fn cluster(&self) -> &Cluster;

    /// The underlying cluster, mutably (timing plane access).
    fn cluster_mut(&mut self) -> &mut Cluster;

    /// The metrics registry covering this system's whole stack.
    fn registry(&self) -> &Registry {
        self.cluster().registry()
    }

    /// The tracer attached to this system's stack, if tracing is on.
    fn tracer(&self) -> Option<&Tracer> {
        self.cluster().tracer()
    }

    /// The event log attached to this system's stack, if events are on.
    fn events(&self) -> Option<&EventLog> {
        self.cluster().events()
    }

    /// Executes a cost on the timing plane.
    fn execute(&mut self, now: SimTime, cost: &CostExpr) -> SimTime {
        self.cluster_mut().execute_at(now, cost)
    }
}

/// The unmodified scale-out store: one pool, no deduplication.
pub struct OriginalSystem {
    label: String,
    cluster: Cluster,
    ctx: IoCtx,
}

impl OriginalSystem {
    /// Builds the paper's testbed (4 nodes × 4 OSDs) with one pool.
    pub fn new(label: impl Into<String>, pool: PoolConfig) -> Self {
        Self::with_cluster(label, ClusterBuilder::new().build(), pool)
    }

    /// Builds on a caller-provided cluster, with a tracer and/or event
    /// log attached when `DEDUP_TRACE_DIR` / `DEDUP_EVENTS_DIR` ask for
    /// them.
    pub fn with_cluster(label: impl Into<String>, mut cluster: Cluster, pool: PoolConfig) -> Self {
        let pool = cluster.create_pool(pool);
        if trace_dir().is_some() {
            let tracer = Tracer::new();
            tracer.attach_registry(cluster.registry());
            cluster.attach_tracer(tracer);
        }
        if events_dir().is_some() {
            cluster.attach_events(EventLog::new());
        }
        OriginalSystem {
            label: label.into(),
            cluster,
            ctx: IoCtx::new(pool),
        }
    }
}

impl StorageSystem for OriginalSystem {
    fn label(&self) -> &str {
        &self.label
    }

    fn write(
        &mut self,
        client: ClientId,
        name: &str,
        offset: u64,
        data: &[u8],
        _now: SimTime,
    ) -> CostExpr {
        let ctx = self.ctx.with_client(client);
        self.cluster
            .write_at(&ctx, &ObjectName::new(name), offset, data.to_vec())
            .expect("original write")
            .cost
    }

    fn read(
        &mut self,
        client: ClientId,
        name: &str,
        offset: u64,
        len: u64,
        _now: SimTime,
    ) -> CostExpr {
        let ctx = self.ctx.with_client(client);
        self.cluster
            .read_at(&ctx, &ObjectName::new(name), offset, len)
            .expect("original read")
            .cost
    }

    fn tick_background(&mut self, _now: SimTime) -> Option<CostExpr> {
        None
    }

    fn cluster(&self) -> &Cluster {
        &self.cluster
    }

    fn cluster_mut(&mut self) -> &mut Cluster {
        &mut self.cluster
    }
}

/// How the dedup system's background engine runs in a driver.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BackgroundMode {
    /// No background flushing at all.
    Off,
    /// Flush as fast as possible, ignoring rate control (Fig. 5b / Fig. 14
    /// "w/o rate control").
    Unthrottled,
    /// Watermark rate control (the proposed design).
    RateControlled,
}

/// The proposed dedup layer.
pub struct DedupSystem {
    label: String,
    store: DedupStore,
    background: BackgroundMode,
    workers: usize,
}

/// Attaches a tracer and/or event log to a freshly built store when
/// `DEDUP_TRACE_DIR` / `DEDUP_EVENTS_DIR` ask for them.
fn maybe_trace(mut store: DedupStore) -> DedupStore {
    if trace_dir().is_some() {
        store.attach_tracer(Tracer::new());
    }
    if events_dir().is_some() {
        store.attach_events(EventLog::new());
    }
    store
}

impl DedupSystem {
    /// Builds on the paper's testbed with replicated ×2 pools.
    pub fn new(label: impl Into<String>, config: DedupConfig) -> Self {
        let cluster = ClusterBuilder::new().build();
        DedupSystem {
            label: label.into(),
            store: maybe_trace(DedupStore::with_default_pools(cluster, config)),
            background: BackgroundMode::RateControlled,
            workers: 1,
        }
    }

    /// Builds on a caller-provided cluster (custom topology or hardware)
    /// with replicated x2 pools.
    pub fn with_cluster(label: impl Into<String>, cluster: Cluster, config: DedupConfig) -> Self {
        DedupSystem {
            label: label.into(),
            store: maybe_trace(DedupStore::with_default_pools(cluster, config)),
            background: BackgroundMode::RateControlled,
            workers: 1,
        }
    }

    /// Builds with explicit pools (EC chunk pool etc.).
    pub fn with_pools(
        label: impl Into<String>,
        config: DedupConfig,
        metadata_pool: PoolConfig,
        chunk_pool: PoolConfig,
    ) -> Self {
        let cluster = ClusterBuilder::new().build();
        DedupSystem {
            label: label.into(),
            store: maybe_trace(DedupStore::new(cluster, metadata_pool, chunk_pool, config)),
            background: BackgroundMode::RateControlled,
            workers: 1,
        }
    }

    /// Sets the background engine mode for drivers.
    pub fn background(mut self, mode: BackgroundMode) -> Self {
        self.background = mode;
        self
    }

    /// Sets how many concurrent background flush workers drivers run (the
    /// paper's engine uses multiple deduplication threads).
    ///
    /// # Panics
    ///
    /// Panics if zero.
    pub fn workers(mut self, workers: usize) -> Self {
        assert!(workers > 0, "need at least one worker");
        self.workers = workers;
        self
    }

    /// The wrapped dedup store.
    pub fn store(&self) -> &DedupStore {
        &self.store
    }

    /// The wrapped dedup store, mutably.
    pub fn store_mut(&mut self) -> &mut DedupStore {
        &mut self.store
    }
}

impl StorageSystem for DedupSystem {
    fn label(&self) -> &str {
        &self.label
    }

    fn write(
        &mut self,
        client: ClientId,
        name: &str,
        offset: u64,
        data: &[u8],
        now: SimTime,
    ) -> CostExpr {
        self.store
            .write(client, &ObjectName::new(name), offset, data, now)
            .expect("dedup write")
            .cost
    }

    fn read(
        &mut self,
        client: ClientId,
        name: &str,
        offset: u64,
        len: u64,
        now: SimTime,
    ) -> CostExpr {
        self.store
            .read(client, &ObjectName::new(name), offset, len, now)
            .expect("dedup read")
            .cost
    }

    fn tick_background(&mut self, now: SimTime) -> Option<CostExpr> {
        match self.background {
            BackgroundMode::Off => None,
            BackgroundMode::Unthrottled => self
                .store
                .flush_next(now)
                .expect("background flush")
                .map(|t| t.cost),
            BackgroundMode::RateControlled => self
                .store
                .dedup_tick(now)
                .expect("background tick")
                .map(|t| t.cost),
        }
    }

    fn background_pending(&self) -> bool {
        self.background != BackgroundMode::Off && self.store.dirty_len() > 0
    }

    fn background_workers(&self) -> usize {
        self.workers
    }

    fn cluster(&self) -> &Cluster {
        self.store.cluster()
    }

    fn cluster_mut(&mut self) -> &mut Cluster {
        self.store.cluster_mut()
    }
}

/// Loads a dataset into a system (sequential whole-object writes) without
/// charging the timing plane, returning the bytes written.
pub fn preload(system: &mut dyn StorageSystem, dataset: &Dataset) -> u64 {
    let mut total = 0u64;
    for obj in &dataset.objects {
        let _ = system.write(ClientId(0), &obj.name, 0, &obj.data, SimTime::ZERO);
        total += obj.data.len() as u64;
    }
    system.cluster_mut().perf_mut().pool.reset_all();
    total
}

/// Flushes everything pending in a dedup system (steady state) without
/// charging the timing plane.
pub fn settle(system: &mut DedupSystem) {
    let _ = system
        .store_mut()
        .flush_all(SimTime::from_secs(1_000_000))
        .expect("settle flush");
    system.cluster_mut().perf_mut().pool.reset_all();
}

/// Mean CPU utilisation across all nodes up to `until`.
pub fn mean_cpu_utilization(cluster: &Cluster, until: SimTime) -> f64 {
    let nodes = cluster.map().node_count();
    (0..nodes)
        .map(|n| cluster.perf().cpu_utilization(n, until))
        .sum::<f64>()
        / nodes.max(1) as f64
}
