//! The cluster: pools, I/O paths, transactions, and capacity accounting.

use std::collections::{BTreeMap, BTreeSet};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

use bytes::Bytes;
use dedup_erasure::ReedSolomon;
use dedup_obs::{EventLog, Registry, Severity, TraceCtx, Tracer};
use dedup_placement::{ClusterMap, NodeId, OsdId, PgMap, PoolId};
use dedup_sim::{CostExpr, SimTime};
use parking_lot::{RwLock, RwLockReadGuard, RwLockWriteGuard};

use crate::error::StoreError;
use crate::metrics::ClusterMetrics;
use crate::object::{ObjectName, Payload, RangeSet, StoredObject, PER_OBJECT_OVERHEAD};
use crate::osd::Osd;
use crate::perf::{ClientId, PerfConfig, PerfTopology};
use crate::pool::{PoolConfig, PoolUsage, Redundancy};
use crate::wal::{decode_records, WalBackend, WalFrame, WalManifest, WalRecord};

/// A value produced by a cluster operation together with the virtual-time
/// cost of producing it. Callers execute the cost against the cluster's
/// [`PerfTopology`] (or discard it for control-plane work).
#[derive(Debug, Clone)]
#[must_use = "execute or explicitly discard the operation's cost"]
pub struct Timed<T> {
    /// The operation's result.
    pub value: T,
    /// Resource usage to charge to the timing plane.
    pub cost: CostExpr,
}

impl<T> Timed<T> {
    /// Wraps a value with its cost.
    pub fn new(value: T, cost: CostExpr) -> Self {
        Timed { value, cost }
    }

    /// Transforms the value, keeping the cost.
    pub fn map<U>(self, f: impl FnOnce(T) -> U) -> Timed<U> {
        Timed {
            value: f(self.value),
            cost: self.cost,
        }
    }
}

/// An I/O context: which pool to address and which client host issues the
/// request (chooses the client-side NIC), mirroring a RADOS `ioctx`.
///
/// A context may also carry a [`TraceCtx`]: when it does, cluster ops tag
/// the cost legs they assemble with semantic step names so traced runs
/// can attribute time per step. Tags are timing-transparent and absent
/// entirely on untraced contexts, so the untraced path is unchanged.
#[derive(Debug, Clone)]
pub struct IoCtx {
    /// Target pool.
    pub pool: PoolId,
    /// Issuing client host.
    pub client: ClientId,
    /// Optional per-op trace context.
    pub trace: Option<TraceCtx>,
}

impl PartialEq for IoCtx {
    fn eq(&self, other: &Self) -> bool {
        // Trace identity is diagnostic state, not addressing state.
        self.pool == other.pool && self.client == other.client
    }
}

impl Eq for IoCtx {}

impl IoCtx {
    /// Creates a context for `pool` from client 0.
    pub fn new(pool: PoolId) -> Self {
        IoCtx {
            pool,
            client: ClientId(0),
            trace: None,
        }
    }

    /// Uses a specific client host.
    pub fn with_client(mut self, client: ClientId) -> Self {
        self.client = client;
        self
    }

    /// Attaches a trace context: subsequent ops through this `IoCtx` tag
    /// their cost legs.
    pub fn with_trace(mut self, trace: TraceCtx) -> Self {
        self.trace = Some(trace);
        self
    }

    /// Tags `cost` with `label` when this context is traced; returns it
    /// untouched otherwise.
    pub fn label(&self, label: &str, cost: CostExpr) -> CostExpr {
        match &self.trace {
            Some(t) => t.label(label, cost),
            None => cost,
        }
    }
}

/// One operation inside an object transaction (applied atomically).
///
/// Payload-carrying ops hold [`Bytes`]: a caller that already owns a
/// shared buffer hands it through the transaction without copying, and
/// the fan-out below stores refcounted views of it.
#[derive(Debug, Clone, PartialEq)]
pub enum TxOp {
    /// Replaces the whole data payload.
    WriteFull(Bytes),
    /// Writes at an offset, zero-filling any gap.
    Write {
        /// Byte offset of the write.
        offset: u64,
        /// Bytes to write.
        data: Bytes,
    },
    /// Truncates (or zero-extends) the payload.
    Truncate(u64),
    /// Sets one extended attribute.
    SetXattr(String, Bytes),
    /// Removes one extended attribute.
    RemoveXattr(String),
    /// Sets one omap entry.
    SetOmap(String, Bytes),
    /// Removes one omap entry.
    RemoveOmap(String),
    /// Punches a hole: the range reads as zero and stops occupying space
    /// (used by cache eviction in the dedup layer).
    PunchHole {
        /// Start of the hole.
        offset: u64,
        /// Length of the hole.
        len: u64,
    },
    /// Deletes the object.
    Remove,
}

/// An object's metadata maps: (xattrs, omap). Values are shared buffers.
type MetadataMaps = (BTreeMap<String, Bytes>, BTreeMap<String, Bytes>);

/// In-memory logical view of an object while a transaction is applied.
///
/// `data` is a shared buffer: loading a replicated object is a refcount
/// bump, and whole-payload writes adopt the caller's buffer. Mutating ops
/// go through [`Bytes::with_vec_mut`], which detaches a private copy only
/// while other views are still alive.
#[derive(Debug, Clone, Default)]
pub(crate) struct LogicalObject {
    pub data: Bytes,
    pub xattrs: BTreeMap<String, Bytes>,
    pub omap: BTreeMap<String, Bytes>,
    pub holes: RangeSet,
}

pub(crate) struct PoolState {
    pub config: PoolConfig,
    pub pgs: PgMap,
    pub codec: Option<ReedSolomon>,
}

/// The scale-out cluster: map + devices + pools + timing plane.
///
/// Each OSD's object map sits behind its own [`RwLock`] so data-plane ops
/// on distinct devices never contend. Cluster I/O methods take `&self`
/// and lock at most one OSD at a time (lock ordering: OSDs are always
/// acquired sequentially, never nested), so two clients hitting different
/// objects proceed in parallel. Per-object atomicity across replicas is
/// the *caller's* responsibility: the dedup engine serializes ops on the
/// same object through its shard locks.
pub struct Cluster {
    pub(crate) map: ClusterMap,
    pub(crate) osds: Vec<RwLock<Osd>>,
    pub(crate) pools: BTreeMap<PoolId, PoolState>,
    next_pool: u32,
    pub(crate) perf: PerfTopology,
    object_size_cap: u64,
    pub(crate) metrics: ClusterMetrics,
    pub(crate) tracer: Option<Tracer>,
    /// Structured event log for OSD and WAL lifecycle events; `None` (the
    /// default) keeps every emission site a single branch.
    pub(crate) events: Option<EventLog>,
    wal: Option<WalState>,
}

/// The cluster's handle on the durability plane: the backend owning the
/// stable bytes, the global record sequence, the checkpoint epoch, and a
/// flag that suppresses logging while recovery replays (a replayed record
/// must not be re-appended).
struct WalState {
    backend: Arc<dyn WalBackend>,
    next_seq: AtomicU64,
    epoch: AtomicU64,
    logging: AtomicBool,
}

/// Summary of one completed checkpoint (compaction of the WAL).
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct WalCheckpointReport {
    /// Checkpoint generation written to the MANIFEST.
    pub epoch: u64,
    /// First sequence number *not* covered by the new segments.
    pub last_seq: u64,
    /// Live objects encoded into segments.
    pub objects: u64,
    /// Segment files written (one per pool).
    pub segments: u64,
    /// Total bytes across the new segments.
    pub segment_bytes: u64,
}

/// What [`Cluster::wal_manifest_check`] found in a healthy MANIFEST.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct WalManifestSummary {
    /// Checkpoint generation the MANIFEST names (0 = no checkpoint yet).
    pub epoch: u64,
    /// First sequence number not covered by the checkpoint segments.
    pub last_seq: u64,
    /// Segments the MANIFEST names (all verified present and clean).
    pub segments: u64,
}

/// Summary of one WAL recovery pass.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct WalRecoveryReport {
    /// Synthetic records applied from checkpoint segments.
    pub checkpoint_records: u64,
    /// Logged transactions replayed from the per-OSD log tails.
    pub log_records_replayed: u64,
    /// Replayed records the transact path rejected (topology mismatch —
    /// zero on a faithful rebuild).
    pub replay_errors: u64,
    /// Per-OSD logs whose tail was torn and dropped by CRC.
    pub torn_tails_dropped: u64,
    /// Next sequence number after recovery (logging resumes here).
    pub last_seq: u64,
}

/// Builds a [`Cluster`] with a regular topology.
#[derive(Debug, Clone)]
pub struct ClusterBuilder {
    nodes: u32,
    osds_per_node: u32,
    racks: Option<u32>,
    perf: PerfConfig,
    object_size_cap: u64,
}

impl Default for ClusterBuilder {
    fn default() -> Self {
        ClusterBuilder {
            nodes: 4,
            osds_per_node: 4,
            racks: None,
            perf: PerfConfig::default(),
            object_size_cap: 256 << 20,
        }
    }
}

impl ClusterBuilder {
    /// Starts from the paper's testbed shape: 4 nodes × 4 OSDs.
    pub fn new() -> Self {
        Self::default()
    }

    /// Sets the node count.
    ///
    /// # Panics
    ///
    /// Panics if zero.
    pub fn nodes(mut self, nodes: u32) -> Self {
        assert!(nodes > 0, "need at least one node");
        self.nodes = nodes;
        self
    }

    /// Sets OSDs per node.
    ///
    /// # Panics
    ///
    /// Panics if zero.
    pub fn osds_per_node(mut self, osds: u32) -> Self {
        assert!(osds > 0, "need at least one OSD per node");
        self.osds_per_node = osds;
        self
    }

    /// Groups nodes into `racks` racks round-robin (for rack-level failure
    /// domains). Without this, every node is its own implicit rack.
    ///
    /// # Panics
    ///
    /// Panics if zero.
    pub fn racks(mut self, racks: u32) -> Self {
        assert!(racks > 0, "need at least one rack");
        self.racks = Some(racks);
        self
    }

    /// Overrides hardware performance parameters.
    pub fn perf(mut self, perf: PerfConfig) -> Self {
        self.perf = perf;
        self
    }

    /// Overrides the per-object size cap.
    pub fn object_size_cap(mut self, cap: u64) -> Self {
        self.object_size_cap = cap;
        self
    }

    /// Builds the cluster.
    pub fn build(self) -> Cluster {
        let mut map = ClusterMap::new();
        let mut osds = Vec::new();
        let rack_ids: Vec<_> = (0..self.racks.unwrap_or(0))
            .map(|_| map.add_rack())
            .collect();
        for n in 0..self.nodes {
            let node = match self.racks {
                Some(r) => map.add_node_in_rack(rack_ids[(n % r) as usize]),
                None => map.add_node(),
            };
            for _ in 0..self.osds_per_node {
                map.add_osd(node, 1.0);
                osds.push(RwLock::new(Osd::new()));
            }
        }
        let perf = PerfTopology::build(self.perf, self.nodes, self.osds_per_node);
        Cluster {
            map,
            osds,
            pools: BTreeMap::new(),
            next_pool: 1,
            perf,
            object_size_cap: self.object_size_cap,
            metrics: ClusterMetrics::new(Registry::new()),
            tracer: None,
            events: None,
            wal: None,
        }
    }
}

impl Cluster {
    /// Creates a pool and returns its id.
    ///
    /// # Panics
    ///
    /// Panics if the config is invalid (see [`PoolConfig::validate`]).
    pub fn create_pool(&mut self, config: PoolConfig) -> PoolId {
        config.validate();
        let id = PoolId(self.next_pool);
        self.next_pool += 1;
        let codec = match config.redundancy {
            Redundancy::Erasure { k, m } => {
                Some(ReedSolomon::new(k, m).expect("validated parameters"))
            }
            Redundancy::Replicated(_) => None,
        };
        let pgs = PgMap::new(id, config.pg_count);
        self.pools.insert(id, PoolState { config, pgs, codec });
        id
    }

    /// The metrics registry this cluster records into.
    pub fn registry(&self) -> &Registry {
        self.metrics.registry()
    }

    /// Rebinds the cluster's instruments to `registry`, so several layers
    /// (e.g. the dedup engine stacked on this cluster) share one registry
    /// and one snapshot. Counts recorded against the previous registry are
    /// not carried over — attach before driving I/O.
    pub fn attach_registry(&mut self, registry: Registry) {
        self.metrics = ClusterMetrics::new(registry);
    }

    /// Attaches a per-op tracer. Cluster-internal ops with no caller
    /// context (recovery, scrub) tag their cost legs through it, and
    /// stacked layers can retrieve it via [`Cluster::tracer`]. The tracer
    /// also learns the timing plane's resource names.
    pub fn attach_tracer(&mut self, tracer: Tracer) {
        tracer.register_resources(&self.perf.pool);
        self.tracer = Some(tracer);
    }

    /// The attached tracer, if any.
    pub fn tracer(&self) -> Option<&Tracer> {
        self.tracer.as_ref()
    }

    /// Attaches a structured event log: OSD up/down transitions, WAL
    /// checkpoints/recoveries/torn-tail drops, and recovery repair passes
    /// emit into it. Events only observe — they never add virtual cost.
    pub fn attach_events(&mut self, events: EventLog) {
        self.events = Some(events);
    }

    /// The attached event log, if any.
    pub fn events(&self) -> Option<&EventLog> {
        self.events.as_ref()
    }

    /// Attaches the durability plane: from here on every committed
    /// transaction is appended — before any replica mutates — to the log
    /// of the object's primary OSD on `backend`.
    ///
    /// Control-plane state (topology, pool configs) is *not* logged, as
    /// in the real system where the monitor map is separate; a recovering
    /// cluster must be rebuilt with the same topology and pools before
    /// [`Cluster::wal_recover`] replays the data plane. Replica-level
    /// repair (recovery/scrub re-replication) is likewise below the
    /// logical-object level the WAL captures.
    pub fn attach_wal(&mut self, backend: Arc<dyn WalBackend>) {
        self.wal = Some(WalState {
            backend,
            next_seq: AtomicU64::new(1),
            epoch: AtomicU64::new(0),
            logging: AtomicBool::new(true),
        });
    }

    /// Whether a WAL backend is attached.
    pub fn wal_attached(&self) -> bool {
        self.wal.is_some()
    }

    fn wal_active(&self) -> bool {
        self.wal
            .as_ref()
            .is_some_and(|w| w.logging.load(Ordering::Relaxed))
    }

    /// Appends one transaction record to the primary's log. Called at the
    /// commit point of `transact`, after every check that could still fail
    /// the transaction — so a logged record always replays cleanly.
    fn wal_append(
        &self,
        pool: PoolId,
        name: &ObjectName,
        primary: OsdId,
        ops: &[TxOp],
    ) -> Result<(), StoreError> {
        let Some(w) = &self.wal else { return Ok(()) };
        if !w.logging.load(Ordering::Relaxed) {
            return Ok(());
        }
        let seq = w.next_seq.fetch_add(1, Ordering::Relaxed);
        let frame = WalFrame::new(seq, pool, name, ops);
        w.backend.append(primary.0 as usize, &frame.io_slices())?;
        self.metrics.wal_appends.inc();
        self.metrics.wal_append_bytes.add(frame.len() as u64);
        Ok(())
    }

    /// Compacts the WAL: re-encodes every pool's live objects as synthetic
    /// records (a checkpoint *is* a compacted WAL — same codec, same
    /// replay path, holes and metadata preserved) into one immutable
    /// segment per pool, atomically replaces the MANIFEST, then truncates
    /// the per-OSD logs. A crash anywhere inside leaves a recoverable
    /// store: segments are invisible until the MANIFEST names them, and a
    /// crashed truncation only leaves records the sequence filter skips.
    ///
    /// The caller must quiesce writes for the duration (the dedup engine
    /// checkpoints under its exclusive borrow).
    ///
    /// # Errors
    ///
    /// Fails if a durable write fails; no-op without an attached WAL.
    pub fn wal_checkpoint(&self) -> Result<WalCheckpointReport, StoreError> {
        let Some(w) = &self.wal else {
            return Ok(WalCheckpointReport::default());
        };
        let epoch = w.epoch.load(Ordering::Relaxed) + 1;
        let last_seq = w.next_seq.load(Ordering::Relaxed);
        let mut report = WalCheckpointReport {
            epoch,
            last_seq,
            ..Default::default()
        };
        let pool_ids: Vec<PoolId> = self.pools.keys().copied().collect();
        let mut segments = Vec::with_capacity(pool_ids.len());
        for pool in pool_ids {
            let mut seg = Vec::new();
            for name in self.list_objects(pool)? {
                let Some(logical) = self.load_logical(pool, &name)? else {
                    continue;
                };
                let ops = Self::checkpoint_ops(&logical);
                WalFrame::new(0, pool, &name, &ops).append_to(&mut seg);
                report.objects += 1;
            }
            let seg_name = format!("seg-{epoch:016x}-pool{}", pool.0);
            w.backend.write_segment(&seg_name, &seg)?;
            report.segment_bytes += seg.len() as u64;
            segments.push(seg_name);
        }
        report.segments = segments.len() as u64;
        let manifest = WalManifest {
            epoch,
            last_seq,
            segments,
        };
        w.backend.replace_manifest(&manifest.encode())?;
        for osd in 0..self.osds.len() {
            w.backend.truncate_log(osd)?;
        }
        w.epoch.store(epoch, Ordering::Relaxed);
        self.metrics.wal_checkpoints.inc();
        if let Some(ev) = &self.events {
            ev.emit(
                Severity::Info,
                "cluster.wal",
                "checkpoint",
                vec![
                    ("epoch", report.epoch.to_string()),
                    ("objects", report.objects.to_string()),
                    ("segment_bytes", report.segment_bytes.to_string()),
                ],
            );
        }
        Ok(report)
    }

    /// The synthetic transaction that rebuilds one logical object from
    /// scratch. Holes are re-punched explicitly: materializing them as
    /// resident zeros would silently break dedup redirection and space
    /// accounting after a recovery.
    fn checkpoint_ops(logical: &LogicalObject) -> Vec<TxOp> {
        let mut ops = Vec::with_capacity(1 + logical.xattrs.len() + logical.omap.len());
        ops.push(TxOp::WriteFull(logical.data.clone()));
        for (start, end) in logical.holes.iter() {
            ops.push(TxOp::PunchHole {
                offset: start,
                len: end - start,
            });
        }
        for (k, v) in &logical.xattrs {
            ops.push(TxOp::SetXattr(k.clone(), v.clone()));
        }
        for (k, v) in &logical.omap {
            ops.push(TxOp::SetOmap(k.clone(), v.clone()));
        }
        ops
    }

    /// Rebuilds the data plane from stable storage: applies the
    /// MANIFEST's checkpoint segments, then merges the per-OSD log tails
    /// in sequence order and replays them through the ordinary transact
    /// path (with logging suspended). Torn tails are dropped by CRC and
    /// counted. The cluster must have been rebuilt with the same topology
    /// and pools as the one that crashed.
    ///
    /// Replay drives the normal I/O paths, so cluster throughput counters
    /// include replayed work; `wal.records_replayed` tracks it separately.
    ///
    /// # Errors
    ///
    /// Fails on corrupt checkpoint state (a segment named by the MANIFEST
    /// that is missing or undecodable); no-op without an attached WAL.
    pub fn wal_recover(&mut self) -> Result<WalRecoveryReport, StoreError> {
        let start = Instant::now();
        let Some(w) = &self.wal else {
            return Ok(WalRecoveryReport::default());
        };
        // A replayed record must not be re-appended; logging resumes on
        // every exit, or one failed recovery would leave each later
        // transaction committing unlogged.
        w.logging.store(false, Ordering::Relaxed);
        let replayed = self.wal_replay(w);
        w.logging.store(true, Ordering::Relaxed);
        let report = replayed?;
        self.metrics
            .wal_recovery_wall_ns
            .record(start.elapsed().as_nanos() as u64);
        if let Some(ev) = &self.events {
            ev.emit(
                Severity::Info,
                "cluster.wal",
                "recovered",
                vec![
                    ("checkpoint_records", report.checkpoint_records.to_string()),
                    (
                        "log_records_replayed",
                        report.log_records_replayed.to_string(),
                    ),
                    ("replay_errors", report.replay_errors.to_string()),
                    ("torn_tails_dropped", report.torn_tails_dropped.to_string()),
                ],
            );
        }
        Ok(report)
    }

    /// The body of [`Cluster::wal_recover`], run with logging suspended.
    fn wal_replay(&self, w: &WalState) -> Result<WalRecoveryReport, StoreError> {
        let mut report = WalRecoveryReport::default();
        let mut epoch = 0;
        let mut last_seq = 1;
        let mut checkpoint: Vec<WalRecord> = Vec::new();
        if let Some(buf) = w.backend.read_manifest() {
            let manifest = WalManifest::decode(&buf)?;
            epoch = manifest.epoch;
            last_seq = manifest.last_seq;
            for seg_name in &manifest.segments {
                let Some(seg) = w.backend.read_segment(seg_name) else {
                    return Err(StoreError::Wal {
                        detail: format!("manifest names missing segment {seg_name}"),
                    });
                };
                let (records, torn) = decode_records(&seg);
                if torn {
                    return Err(StoreError::Wal {
                        detail: format!("checkpoint segment {seg_name} is corrupt"),
                    });
                }
                checkpoint.extend(records);
            }
        }
        let mut tail: Vec<WalRecord> = Vec::new();
        for osd in 0..self.osds.len() {
            let (records, torn) = decode_records(&w.backend.read_log(osd));
            if torn {
                report.torn_tails_dropped += 1;
                self.metrics.wal_torn_dropped.inc();
                if let Some(ev) = &self.events {
                    ev.emit(
                        Severity::Warn,
                        "cluster.wal",
                        "torn_tail_dropped",
                        vec![("osd", osd.to_string())],
                    );
                }
            }
            // Records below the MANIFEST horizon are already inside the
            // segments (a crashed post-checkpoint truncation left them).
            tail.extend(records.into_iter().filter(|r| r.seq >= last_seq));
        }
        tail.sort_by_key(|r| r.seq);
        let mut max_seq = last_seq.saturating_sub(1);
        for rec in checkpoint {
            let ctx = IoCtx::new(rec.pool);
            let _ = self.transact(&ctx, &rec.name, rec.ops)?;
            report.checkpoint_records += 1;
        }
        for rec in tail {
            max_seq = max_seq.max(rec.seq);
            let ctx = IoCtx::new(rec.pool);
            match self.transact(&ctx, &rec.name, rec.ops) {
                Ok(_) => report.log_records_replayed += 1,
                Err(_) => report.replay_errors += 1,
            }
        }
        report.last_seq = max_seq + 1;
        self.metrics
            .wal_records_replayed
            .add(report.checkpoint_records + report.log_records_replayed);
        w.next_seq.store(max_seq + 1, Ordering::Relaxed);
        w.epoch.store(epoch, Ordering::Relaxed);
        Ok(report)
    }

    /// Validates the attached WAL's durable state without replaying it:
    /// the MANIFEST must decode, and every segment it names must exist
    /// and decode cleanly. Returns `None` without an attached WAL, and
    /// `Err(detail)` describing the first corruption found. A missing
    /// MANIFEST is a valid pre-first-checkpoint state.
    pub fn wal_manifest_check(&self) -> Option<Result<WalManifestSummary, String>> {
        let w = self.wal.as_ref()?;
        let Some(buf) = w.backend.read_manifest() else {
            return Some(Ok(WalManifestSummary::default()));
        };
        let manifest = match WalManifest::decode(&buf) {
            Ok(m) => m,
            Err(e) => return Some(Err(format!("manifest undecodable: {e}"))),
        };
        for seg_name in &manifest.segments {
            let Some(seg) = w.backend.read_segment(seg_name) else {
                return Some(Err(format!("manifest names missing segment {seg_name}")));
            };
            let (_, torn) = decode_records(&seg);
            if torn {
                return Some(Err(format!("checkpoint segment {seg_name} is corrupt")));
            }
        }
        Some(Ok(WalManifestSummary {
            epoch: manifest.epoch,
            last_seq: manifest.last_seq,
            segments: manifest.segments.len() as u64,
        }))
    }

    /// Tags `cost` when a tracer is attached (for cluster-internal ops
    /// that have no caller-supplied [`IoCtx`] trace).
    pub(crate) fn label(&self, label: &str, cost: CostExpr) -> CostExpr {
        match &self.tracer {
            Some(_) => CostExpr::tagged(label, cost),
            None => cost,
        }
    }

    /// The shared cluster map.
    pub fn map(&self) -> &ClusterMap {
        &self.map
    }

    /// The timing-plane topology.
    pub fn perf(&self) -> &PerfTopology {
        &self.perf
    }

    /// Mutable timing-plane topology (to execute costs / read utilisation).
    pub fn perf_mut(&mut self) -> &mut PerfTopology {
        &mut self.perf
    }

    /// Executes a cost against the timing plane starting at `now`.
    ///
    /// Execution is leg-level ([`dedup_sim::FlowEngine`]): parallel
    /// branches interleave on shared resources in virtual-time order, so
    /// large fan-out costs (recovery, rebalance) complete when their
    /// bottleneck resource drains rather than serializing per branch.
    pub fn execute_at(&mut self, now: SimTime, cost: &CostExpr) -> SimTime {
        let mut engine = dedup_sim::FlowEngine::new();
        engine.start(now, cost, 0);
        let done = engine
            .advance(&mut self.perf.pool)
            .map(|c| c.at)
            .unwrap_or(now);
        self.metrics
            .exec_latency
            .record(done.saturating_since(now).as_nanos());
        if let Some(ev) = &self.events {
            ev.advance(done);
        }
        done
    }

    /// A pool's configuration.
    ///
    /// # Errors
    ///
    /// Returns [`StoreError::NoSuchPool`] for unknown pools.
    pub fn pool_config(&self, pool: PoolId) -> Result<&PoolConfig, StoreError> {
        Ok(&self.state(pool)?.config)
    }

    pub(crate) fn state(&self, pool: PoolId) -> Result<&PoolState, StoreError> {
        self.pools.get(&pool).ok_or(StoreError::NoSuchPool(pool))
    }

    fn node_of(&self, osd: OsdId) -> usize {
        self.map.osd(osd).node.0 as usize
    }

    pub(crate) fn acting(&self, pool: PoolId, name: &ObjectName) -> Result<Vec<OsdId>, StoreError> {
        let st = self.state(pool)?;
        let pg = st.pgs.pg_of(name.as_bytes());
        let acting = self.map.acting_set(pg, &st.config.rule());
        if acting.len() < st.config.redundancy.width() {
            // EC pools genuinely need the full width to write; replicated
            // pools can run degraded with at least one copy.
            let min_needed = match st.config.redundancy {
                Redundancy::Replicated(_) => 1,
                Redundancy::Erasure { k, m } => k + m,
            };
            if acting.len() < min_needed {
                return Err(StoreError::InsufficientOsds {
                    needed: min_needed,
                    available: acting.len(),
                });
            }
        }
        Ok(acting)
    }

    /// Splits `[offset, offset + len)` of an object into maximal subranges
    /// tagged with whether their bytes are resident (`true`) or punched
    /// holes (`false`). Ranges are clipped to the object size.
    ///
    /// # Errors
    ///
    /// Fails if the object does not exist.
    pub fn resident_ranges(
        &self,
        pool: PoolId,
        name: &ObjectName,
        offset: u64,
        len: u64,
    ) -> Result<Vec<(u64, u64, bool)>, StoreError> {
        self.state(pool)?;
        let holders = self.holders(pool, name);
        let holder = holders
            .first()
            .ok_or_else(|| StoreError::NoSuchObject(pool, name.clone()))?;
        let guard = self.osds[holder.0 as usize].read();
        let obj = guard.get(pool, name).expect("holder has object");
        let size = obj.payload.object_len();
        let end = (offset + len).min(size);
        if offset >= end {
            return Ok(Vec::new());
        }
        let mut out = Vec::new();
        let mut cursor = offset;
        for (hs, he) in obj.holes.iter() {
            let hs = hs.max(offset);
            let he = he.min(end);
            if hs >= he {
                continue;
            }
            if cursor < hs {
                out.push((cursor, hs, true));
            }
            out.push((hs, he, false));
            cursor = he;
        }
        if cursor < end {
            out.push((cursor, end, true));
        }
        Ok(out)
    }

    /// The primary OSD currently serving an object name.
    ///
    /// # Errors
    ///
    /// Fails for unknown pools or when no device is eligible.
    pub fn primary_of(&self, pool: PoolId, name: &ObjectName) -> Result<OsdId, StoreError> {
        Ok(self.acting(pool, name)?[0])
    }

    /// OSDs (any, not just acting) currently holding a replica/shard.
    ///
    /// Locks one device at a time; the snapshot is only stable for a given
    /// object while the caller holds that object's shard lock.
    pub(crate) fn holders(&self, pool: PoolId, name: &ObjectName) -> Vec<OsdId> {
        self.osds
            .iter()
            .enumerate()
            .filter(|(_, o)| o.read().contains(pool, name))
            .map(|(i, _)| OsdId(i as u32))
            .collect()
    }

    /// Reconstructs the logical object (data + metadata) from whatever
    /// replicas/shards exist. Returns `Ok(None)` if the object does not
    /// exist anywhere.
    pub(crate) fn load_logical(
        &self,
        pool: PoolId,
        name: &ObjectName,
    ) -> Result<Option<LogicalObject>, StoreError> {
        let st = self.state(pool)?;
        let holders = self.holders(pool, name);
        if holders.is_empty() {
            return Ok(None);
        }
        // Clone everything needed out of the first holder's guard so no
        // OSD lock is held while touching another device.
        let (xattrs, omap, holes, full_payload) = {
            let guard = self.osds[holders[0].0 as usize].read();
            let meta_src = guard.get(pool, name).expect("holder has object");
            let full = match &meta_src.payload {
                Payload::Full(b) => Some(b.clone()),
                Payload::Shard { .. } => None,
            };
            (
                meta_src.xattrs.clone(),
                meta_src.omap.clone(),
                meta_src.holes.clone(),
                full,
            )
        };
        let data = match st.config.redundancy {
            Redundancy::Replicated(_) => match full_payload {
                Some(b) => b,
                None => {
                    return Err(StoreError::Inconsistent {
                        pool,
                        name: name.clone(),
                        detail: "shard payload in replicated pool".into(),
                    })
                }
            },
            Redundancy::Erasure { k, m } => {
                let codec = st.codec.as_ref().expect("EC pool has codec");
                // Shard views are refcount bumps; only the decode below
                // materialises fresh bytes.
                let mut shards: Vec<Option<Bytes>> = vec![None; k + m];
                let mut object_len = 0u64;
                for h in &holders {
                    let guard = self.osds[h.0 as usize].read();
                    if let Some(obj) = guard.get(pool, name) {
                        if let Payload::Shard {
                            index,
                            object_len: ol,
                            bytes,
                        } = &obj.payload
                        {
                            object_len = *ol;
                            if shards[*index as usize].is_none() {
                                shards[*index as usize] = Some(bytes.clone());
                            }
                        }
                    }
                }
                if shards.iter().take(k).all(Option::is_some) {
                    // Healthy: gather the systematic data shards directly.
                    let mut out = Vec::with_capacity(object_len as usize);
                    for shard in shards.iter().take(k) {
                        out.extend_from_slice(shard.as_ref().expect("checked present"));
                    }
                    out.truncate(object_len as usize);
                    Bytes::from(out)
                } else {
                    let owned: Vec<Option<Vec<u8>>> =
                        shards.into_iter().map(|s| s.map(|b| b.to_vec())).collect();
                    Bytes::from(codec.decode_object(owned, object_len as usize)?)
                }
            }
        };
        Ok(Some(LogicalObject {
            data,
            xattrs,
            omap,
            holes,
        }))
    }

    /// Persists a logical object to its acting set, replacing all replicas.
    /// Write-locks one device at a time.
    ///
    /// Zero-copy fan-out: replicated pools store a refcounted view of one
    /// parent buffer per OSD, and EC pools slice all `k + m` shards out of
    /// one contiguous stripe buffer, so no replica or shard owns a private
    /// payload allocation.
    fn store_logical(
        &self,
        pool: PoolId,
        name: &ObjectName,
        logical: &LogicalObject,
    ) -> Result<(), StoreError> {
        let acting = self.acting(pool, name)?;
        let st = self.state(pool)?;
        let compression = st.config.compression;
        match st.config.redundancy {
            Redundancy::Replicated(_) => {
                let hole_bytes = logical.holes.total().min(logical.data.len() as u64);
                let stored_bytes = if compression {
                    dedup_compress::compress(&logical.data).len() as u64
                } else {
                    logical.data.len() as u64 - hole_bytes
                };
                for osd in acting {
                    let mut obj = StoredObject::new(Payload::Full(logical.data.clone()));
                    obj.xattrs = logical.xattrs.clone();
                    obj.omap = logical.omap.clone();
                    obj.holes = logical.holes.clone();
                    obj.stored_bytes = stored_bytes;
                    self.osds[osd.0 as usize]
                        .write()
                        .put(pool, name.clone(), obj);
                    self.metrics.bytes_shared.add(logical.data.len() as u64);
                }
            }
            Redundancy::Erasure { .. } => {
                let codec = st.codec.as_ref().expect("EC pool has codec");
                let (stripe, shard_len) = codec.encode_object_striped(&logical.data)?;
                let stripe = Bytes::from(stripe);
                let k = match st.config.redundancy {
                    Redundancy::Erasure { k, .. } => k as u64,
                    Redundancy::Replicated(_) => unreachable!("EC branch"),
                };
                let hole_share = logical.holes.total().min(logical.data.len() as u64) / k;
                for (i, osd) in acting.iter().enumerate() {
                    let bytes = stripe.slice(i * shard_len..(i + 1) * shard_len);
                    let stored_bytes = if compression {
                        dedup_compress::compress(&bytes).len() as u64
                    } else {
                        (bytes.len() as u64).saturating_sub(hole_share)
                    };
                    self.metrics.bytes_shared.add(bytes.len() as u64);
                    let mut obj = StoredObject::new(Payload::Shard {
                        index: i as u8,
                        object_len: logical.data.len() as u64,
                        bytes,
                    });
                    obj.xattrs = logical.xattrs.clone();
                    obj.omap = logical.omap.clone();
                    obj.holes = logical.holes.clone();
                    obj.stored_bytes = stored_bytes;
                    self.osds[osd.0 as usize]
                        .write()
                        .put(pool, name.clone(), obj);
                }
            }
        }
        Ok(())
    }

    fn remove_everywhere(&self, pool: PoolId, name: &ObjectName) {
        for osd in &self.osds {
            osd.write().remove(pool, name);
        }
    }

    /// Applies a transaction atomically to one object.
    ///
    /// The returned cost models the full write path: client → primary
    /// transfer, any EC read-modify-write, redundancy fan-out, and disk
    /// writes.
    ///
    /// # Errors
    ///
    /// Fails if the pool is unknown, too few devices are up, the object
    /// would exceed the size cap, or EC decode fails.
    ///
    /// Takes `&self`: device maps are locked individually. Concurrent
    /// transactions on *distinct* objects are safe; the caller must
    /// serialize transactions touching the same object (the dedup engine
    /// does this with per-object shard locks).
    pub fn transact(
        &self,
        ctx: &IoCtx,
        name: &ObjectName,
        ops: Vec<TxOp>,
    ) -> Result<Timed<()>, StoreError> {
        let mut payload_bytes = 0u64;
        let mut removes = false;
        for op in &ops {
            match op {
                TxOp::WriteFull(data) => payload_bytes += data.len() as u64,
                TxOp::Write { data, .. } => payload_bytes += data.len() as u64,
                TxOp::Remove => removes = true,
                _ => {}
            }
        }
        if payload_bytes > 0 {
            self.metrics.writes.inc();
            self.metrics.write_bytes.add(payload_bytes);
        }
        if removes {
            self.metrics.deletes.inc();
        }
        if let Some(result) = self.try_fast_replicated_tx(ctx, name, &ops) {
            return result;
        }
        let acting = self.acting(ctx.pool, name)?;
        let primary = acting[0];
        let primary_node = self.node_of(primary);
        let existing = self.load_logical(ctx.pool, name)?;
        let existed = existing.is_some();
        let mut logical = existing.unwrap_or_default();
        let old_len = logical.data.len() as u64;
        // Snapshot the ops for the write-ahead record before the apply
        // loop consumes them (Bytes payloads clone by refcount).
        let wal_ops: Option<Vec<TxOp>> = self.wal_active().then(|| ops.clone());

        // Apply ops in memory.
        let mut data_bytes = 0u64;
        let mut meta_bytes = 0u64;
        let mut removed = false;
        for op in ops {
            match op {
                TxOp::WriteFull(data) => {
                    data_bytes += data.len() as u64;
                    logical.holes.clear();
                    // Adopt the caller's buffer: the fan-out below shares
                    // it with every replica instead of copying it.
                    logical.data = data;
                }
                TxOp::Write { offset, data } => {
                    let end = offset + data.len() as u64;
                    self.check_cap(end)?;
                    self.metrics.bytes_copied.add(data.len() as u64);
                    logical
                        .data
                        .with_vec_mut(|buf| write_into(buf, offset as usize, &data));
                    logical.holes.remove(offset, end);
                    data_bytes += data.len() as u64;
                }
                TxOp::Truncate(len) => {
                    self.check_cap(len)?;
                    let old = logical.data.len() as u64;
                    logical.data.with_vec_mut(|buf| buf.resize(len as usize, 0));
                    logical.holes.truncate(len);
                    if len > old {
                        // Zero-extension is sparse.
                        logical.holes.insert(old, len);
                    }
                }
                TxOp::PunchHole { offset, len } => {
                    let end = (offset + len).min(logical.data.len() as u64);
                    if offset < end {
                        logical
                            .data
                            .with_vec_mut(|buf| buf[offset as usize..end as usize].fill(0));
                        logical.holes.insert(offset, end);
                        meta_bytes += 16;
                    }
                }
                TxOp::SetXattr(k, v) => {
                    meta_bytes += (k.len() + v.len()) as u64;
                    logical.xattrs.insert(k, v);
                }
                TxOp::RemoveXattr(k) => {
                    logical.xattrs.remove(&k);
                }
                TxOp::SetOmap(k, v) => {
                    meta_bytes += (k.len() + v.len()) as u64;
                    logical.omap.insert(k, v);
                }
                TxOp::RemoveOmap(k) => {
                    logical.omap.remove(&k);
                }
                TxOp::Remove => removed = true,
            }
        }
        self.check_cap(logical.data.len() as u64)?;

        // Build the cost before mutating state.
        let st = self.state(ctx.pool)?;
        let redundancy = st.config.redundancy;
        let compression = st.config.compression;
        let payload = data_bytes + meta_bytes + 64; // 64B of message header
        let client_leg = ctx.label(
            "client_xfer",
            self.perf.client_to_node(ctx.client, primary_node, payload),
        );

        let cost = if removed {
            // Deletion: metadata-sized fan-out.
            let fanout = CostExpr::par(acting.iter().map(|&osd| {
                CostExpr::seq([
                    self.perf.node_to_node(primary_node, self.node_of(osd), 64),
                    self.perf.disk_io(osd.0 as usize, 64),
                ])
            }));
            CostExpr::seq([client_leg, ctx.label("delete_fanout", fanout)])
        } else {
            match redundancy {
                Redundancy::Replicated(_) => {
                    let per_replica = payload;
                    let fanout = CostExpr::par(acting.iter().map(|&osd| {
                        CostExpr::seq([
                            self.perf
                                .node_to_node(primary_node, self.node_of(osd), per_replica),
                            self.perf.disk_io(osd.0 as usize, per_replica),
                        ])
                    }));
                    let compress_cpu = if compression {
                        self.perf.cpu_work(primary_node, data_bytes)
                    } else {
                        CostExpr::Nop
                    };
                    CostExpr::seq([
                        client_leg,
                        self.perf.request_cpu(primary_node, data_bytes),
                        ctx.label("compress", compress_cpu),
                        ctx.label("rep_fanout", fanout),
                    ])
                }
                Redundancy::Erasure { k, m } => {
                    // Partial update of an existing object forces a
                    // read-modify-write of the stripes (paper §6.4.1's EC
                    // latency penalty).
                    let full_rewrite = data_bytes >= old_len.max(1) && old_len == 0;
                    let rmw = if existed && !full_rewrite {
                        let shard = (old_len / k as u64).max(1);
                        CostExpr::par(acting.iter().take(k).map(|&osd| {
                            CostExpr::seq([
                                self.perf.disk_io(osd.0 as usize, shard),
                                self.perf
                                    .node_to_node(self.node_of(osd), primary_node, shard),
                            ])
                        }))
                    } else {
                        CostExpr::Nop
                    };
                    let new_len = logical.data.len() as u64;
                    let shard_out = new_len.div_ceil(k as u64).max(1) + meta_bytes + 64;
                    // Parity math on the primary's CPU.
                    let ec_cpu = self
                        .perf
                        .cpu_work(primary_node, new_len * m as u64 / k as u64);
                    let fanout = CostExpr::par(acting.iter().map(|&osd| {
                        CostExpr::seq([
                            self.perf
                                .node_to_node(primary_node, self.node_of(osd), shard_out),
                            self.perf.disk_io(osd.0 as usize, shard_out),
                        ])
                    }));
                    CostExpr::seq([
                        client_leg,
                        self.perf.request_cpu(primary_node, data_bytes),
                        ctx.label("ec_rmw", rmw),
                        ctx.label("ec_parity", ec_cpu),
                        ctx.label("ec_fanout", fanout),
                    ])
                }
            }
        };

        // Write-ahead: the record reaches stable storage before any
        // replica mutates, and only after every check that could still
        // fail the transaction — a crash here loses the op entirely (the
        // caller saw an error), never half of it.
        if let Some(wal_ops) = &wal_ops {
            self.wal_append(ctx.pool, name, primary, wal_ops)?;
        }

        // Commit.
        if removed {
            self.remove_everywhere(ctx.pool, name);
        } else {
            // Replace replicas everywhere the object previously was (stale
            // holders outside the acting set would otherwise resurrect old
            // data during recovery).
            let stale: Vec<OsdId> = self
                .holders(ctx.pool, name)
                .into_iter()
                .filter(|h| {
                    !self
                        .acting(ctx.pool, name)
                        .map(|a| a.contains(h))
                        .unwrap_or(false)
                })
                .collect();
            for s in stale {
                self.osds[s.0 as usize].write().remove(ctx.pool, name);
            }
            self.store_logical(ctx.pool, name, &logical)?;
        }
        Ok(Timed::new((), cost))
    }

    /// In-place transaction fast path for uncompressed replicated pools:
    /// mutates each replica directly instead of reloading and re-storing
    /// the whole logical object. Returns `None` when the slow path must
    /// run (EC, compression, whole-object ops, or inconsistent holders).
    fn try_fast_replicated_tx(
        &self,
        ctx: &IoCtx,
        name: &ObjectName,
        ops: &[TxOp],
    ) -> Option<Result<Timed<()>, StoreError>> {
        let st = self.pools.get(&ctx.pool)?;
        if !matches!(st.config.redundancy, Redundancy::Replicated(_)) || st.config.compression {
            return None;
        }
        let in_place = ops.iter().all(|op| {
            matches!(
                op,
                TxOp::Write { .. }
                    | TxOp::SetXattr(..)
                    | TxOp::RemoveXattr(..)
                    | TxOp::SetOmap(..)
                    | TxOp::RemoveOmap(..)
                    | TxOp::PunchHole { .. }
            )
        });
        if !in_place {
            return None;
        }
        let acting = match self.acting(ctx.pool, name) {
            Ok(a) => a,
            Err(e) => return Some(Err(e)),
        };
        let holders = self.holders(ctx.pool, name);
        // Fast path only when the replica set is exactly the acting set or
        // the object is new; anything else needs the slow path's cleanup.
        let fresh = holders.is_empty();
        if !fresh {
            let mut sorted_holders = holders.clone();
            let mut sorted_acting = acting.clone();
            sorted_holders.sort();
            sorted_acting.sort();
            if sorted_holders != sorted_acting {
                return None;
            }
        }
        // Size-cap check before mutating anything.
        let mut max_end = 0u64;
        let mut data_bytes = 0u64;
        let mut meta_bytes = 0u64;
        for op in ops {
            match op {
                TxOp::Write { offset, data } => {
                    max_end = max_end.max(offset + data.len() as u64);
                    data_bytes += data.len() as u64;
                }
                TxOp::SetXattr(k, v) | TxOp::SetOmap(k, v) => {
                    meta_bytes += (k.len() + v.len()) as u64
                }
                TxOp::PunchHole { .. } => meta_bytes += 16,
                _ => {}
            }
        }
        if let Err(e) = self.check_cap(max_end) {
            return Some(Err(e));
        }

        let primary_node = self.node_of(acting[0]);
        let payload = data_bytes + meta_bytes + 64;
        let client_leg = self.perf.client_to_node(ctx.client, primary_node, payload);
        let fanout = CostExpr::par(acting.iter().map(|&osd| {
            CostExpr::seq([
                self.perf
                    .node_to_node(primary_node, self.node_of(osd), payload),
                self.perf.disk_io(osd.0 as usize, payload),
            ])
        }));
        let cost = CostExpr::seq([
            ctx.label("client_xfer", client_leg),
            self.perf.request_cpu(primary_node, data_bytes),
            ctx.label("rep_fanout", fanout),
        ]);

        // Write-ahead (same contract as the slow path: after all checks,
        // before any replica mutates).
        if self.wal_active() {
            if let Err(e) = self.wal_append(ctx.pool, name, acting[0], ops) {
                return Some(Err(e));
            }
        }

        // Each replica mutates its own buffer in place. Replicas still
        // sharing a write fan-out's parent detach on first touch
        // (copy-on-write); once detached they stay unique, so steady-state
        // read-modify-write traffic never copies the full object again.
        self.metrics
            .bytes_copied
            .add(data_bytes * acting.len() as u64);
        for &osd in &acting {
            let mut store = self.osds[osd.0 as usize].write();
            if !store.contains(ctx.pool, name) {
                store.put(
                    ctx.pool,
                    name.clone(),
                    StoredObject::new(Payload::Full(Bytes::new())),
                );
            }
            let obj = store.get_mut(ctx.pool, name).expect("just ensured");
            let StoredObject {
                payload,
                xattrs,
                omap,
                holes,
                stored_bytes,
            } = obj;
            let d = match payload {
                Payload::Full(d) => d,
                Payload::Shard { .. } => return None, // corrupt; let slow path error
            };
            d.with_vec_mut(|data| {
                for op in ops {
                    match op {
                        TxOp::Write { offset, data: buf } => {
                            write_into(data, *offset as usize, buf);
                            holes.remove(*offset, *offset + buf.len() as u64);
                        }
                        TxOp::PunchHole { offset, len } => {
                            let end = (*offset + *len).min(data.len() as u64);
                            if *offset < end {
                                data[*offset as usize..end as usize].fill(0);
                                holes.insert(*offset, end);
                            }
                        }
                        TxOp::SetXattr(k, v) => {
                            xattrs.insert(k.clone(), v.clone());
                        }
                        TxOp::RemoveXattr(k) => {
                            xattrs.remove(k);
                        }
                        TxOp::SetOmap(k, v) => {
                            omap.insert(k.clone(), v.clone());
                        }
                        TxOp::RemoveOmap(k) => {
                            omap.remove(k);
                        }
                        _ => unreachable!("filtered above"),
                    }
                }
            });
            *stored_bytes = (d.len() as u64).saturating_sub(holes.total().min(d.len() as u64));
        }
        Some(Ok(Timed::new((), cost)))
    }

    fn check_cap(&self, len: u64) -> Result<(), StoreError> {
        if len > self.object_size_cap {
            return Err(StoreError::ObjectTooLarge {
                requested: len,
                cap: self.object_size_cap,
            });
        }
        Ok(())
    }

    /// Writes the full object data (creating it if absent).
    ///
    /// # Errors
    ///
    /// See [`Cluster::transact`].
    pub fn write_full(
        &self,
        ctx: &IoCtx,
        name: &ObjectName,
        data: impl Into<Bytes>,
    ) -> Result<Timed<()>, StoreError> {
        self.transact(ctx, name, vec![TxOp::WriteFull(data.into())])
    }

    /// Writes `data` at `offset`, zero-filling any gap.
    ///
    /// # Errors
    ///
    /// See [`Cluster::transact`].
    pub fn write_at(
        &self,
        ctx: &IoCtx,
        name: &ObjectName,
        offset: u64,
        data: impl Into<Bytes>,
    ) -> Result<Timed<()>, StoreError> {
        self.transact(
            ctx,
            name,
            vec![TxOp::Write {
                offset,
                data: data.into(),
            }],
        )
    }

    /// Reads `len` bytes at `offset`.
    ///
    /// The returned buffer is a zero-copy view of the stored replica on
    /// replicated pools; EC reads materialise the gathered range.
    ///
    /// # Errors
    ///
    /// Fails if the object does not exist or the range exceeds its size.
    pub fn read_at(
        &self,
        ctx: &IoCtx,
        name: &ObjectName,
        offset: u64,
        len: u64,
    ) -> Result<Timed<Bytes>, StoreError> {
        // Fast path: replicated pools slice one replica without
        // reconstructing the logical object.
        let slice = {
            let st = self.state(ctx.pool)?;
            let fast = matches!(st.config.redundancy, Redundancy::Replicated(_));
            if fast {
                let holders = self.holders(ctx.pool, name);
                let holder = holders
                    .first()
                    .ok_or_else(|| StoreError::NoSuchObject(ctx.pool, name.clone()))?;
                let guard = self.osds[holder.0 as usize].read();
                let obj = guard.get(ctx.pool, name).expect("holder has object");
                match &obj.payload {
                    Payload::Full(data) => {
                        if offset + len > data.len() as u64 {
                            return Err(StoreError::ReadOutOfRange {
                                offset,
                                len,
                                object_size: data.len() as u64,
                            });
                        }
                        self.metrics.bytes_shared.add(len);
                        Some(data.slice(offset as usize..(offset + len) as usize))
                    }
                    Payload::Shard { .. } => None,
                }
            } else {
                None
            }
        };
        let slice = match slice {
            Some(s) => s,
            None => {
                let logical = self
                    .load_logical(ctx.pool, name)?
                    .ok_or_else(|| StoreError::NoSuchObject(ctx.pool, name.clone()))?;
                let size = logical.data.len() as u64;
                if offset + len > size {
                    return Err(StoreError::ReadOutOfRange {
                        offset,
                        len,
                        object_size: size,
                    });
                }
                self.metrics.bytes_copied.add(len);
                logical.data.slice(offset as usize..(offset + len) as usize)
            }
        };

        let st = self.state(ctx.pool)?;
        let acting = self.acting(ctx.pool, name)?;
        let primary = acting[0];
        let primary_node = self.node_of(primary);
        let cost = match st.config.redundancy {
            Redundancy::Replicated(_) => CostExpr::seq([
                self.perf.request_cpu(primary_node, len),
                ctx.label("disk_read", self.perf.disk_io(primary.0 as usize, len)),
                ctx.label(
                    "reply_xfer",
                    self.perf.client_to_node(ctx.client, primary_node, len),
                ),
            ]),
            Redundancy::Erasure { k, .. } => {
                // Read the k data shards covering the range in parallel,
                // gather at the primary, return to the client.
                let per_shard = len.div_ceil(k as u64).max(1);
                let gather = CostExpr::par(acting.iter().take(k).map(|&osd| {
                    CostExpr::seq([
                        self.perf.disk_io(osd.0 as usize, per_shard),
                        self.perf
                            .node_to_node(self.node_of(osd), primary_node, per_shard),
                    ])
                }));
                CostExpr::seq([
                    self.perf.request_cpu(primary_node, len),
                    ctx.label("ec_gather", gather),
                    ctx.label(
                        "reply_xfer",
                        self.perf.client_to_node(ctx.client, primary_node, len),
                    ),
                ])
            }
        };
        self.metrics.reads.inc();
        self.metrics.read_bytes.add(slice.len() as u64);
        Ok(Timed::new(slice, cost))
    }

    /// Reads the whole object.
    ///
    /// # Errors
    ///
    /// Fails if the object does not exist.
    pub fn read_full(&self, ctx: &IoCtx, name: &ObjectName) -> Result<Timed<Bytes>, StoreError> {
        let size = self
            .stat(ctx.pool, name)?
            .ok_or_else(|| StoreError::NoSuchObject(ctx.pool, name.clone()))?;
        self.read_at(ctx, name, 0, size)
    }

    /// Object size in bytes, or `None` if absent. Control-plane (no cost).
    ///
    /// # Errors
    ///
    /// Fails only for unknown pools.
    pub fn stat(&self, pool: PoolId, name: &ObjectName) -> Result<Option<u64>, StoreError> {
        self.state(pool)?;
        let holders = self.holders(pool, name);
        Ok(holders.first().and_then(|h| {
            self.osds[h.0 as usize]
                .read()
                .get(pool, name)
                .map(|o| o.payload.object_len())
        }))
    }

    /// Reads one xattr (metadata-sized I/O on the primary).
    ///
    /// Returns a shared view of the stored value — no map or value is
    /// cloned; the lookup happens under the holder's lock.
    ///
    /// # Errors
    ///
    /// Fails if the object does not exist.
    pub fn get_xattr(
        &self,
        ctx: &IoCtx,
        name: &ObjectName,
        key: &str,
    ) -> Result<Timed<Option<Bytes>>, StoreError> {
        let value = self
            .load_meta_value(ctx.pool, name, |obj| obj.xattrs.get(key).cloned())?
            .ok_or_else(|| StoreError::NoSuchObject(ctx.pool, name.clone()))?;
        let cost = self.metadata_read_cost(ctx, name)?;
        Ok(Timed::new(value, cost))
    }

    /// Reads one omap value (metadata-sized I/O on the primary).
    ///
    /// Returns a shared view of the stored value — no map or value is
    /// cloned; the lookup happens under the holder's lock.
    ///
    /// # Errors
    ///
    /// Fails if the object does not exist.
    pub fn get_omap(
        &self,
        ctx: &IoCtx,
        name: &ObjectName,
        key: &str,
    ) -> Result<Timed<Option<Bytes>>, StoreError> {
        let value = self
            .load_meta_value(ctx.pool, name, |obj| obj.omap.get(key).cloned())?
            .ok_or_else(|| StoreError::NoSuchObject(ctx.pool, name.clone()))?;
        let cost = self.metadata_read_cost(ctx, name)?;
        Ok(Timed::new(value, cost))
    }

    /// Runs `f` on any replica of the object under the holder's lock,
    /// avoiding whole-map clones for single-value metadata reads.
    /// `Ok(None)` means the object does not exist.
    fn load_meta_value<T>(
        &self,
        pool: PoolId,
        name: &ObjectName,
        f: impl FnOnce(&StoredObject) -> T,
    ) -> Result<Option<T>, StoreError> {
        self.state(pool)?;
        let holders = self.holders(pool, name);
        Ok(holders.first().map(|h| {
            let guard = self.osds[h.0 as usize].read();
            f(guard.get(pool, name).expect("holder has object"))
        }))
    }

    /// Reads the entire omap (control-plane helper used by scans; charged
    /// as one metadata read). Values in the returned map are shared views
    /// of the stored buffers.
    ///
    /// # Errors
    ///
    /// Fails if the object does not exist.
    pub fn omap_entries(
        &self,
        ctx: &IoCtx,
        name: &ObjectName,
    ) -> Result<Timed<BTreeMap<String, Bytes>>, StoreError> {
        let (_, omap) = self
            .load_metadata(ctx.pool, name)?
            .ok_or_else(|| StoreError::NoSuchObject(ctx.pool, name.clone()))?;
        let cost = self.metadata_read_cost(ctx, name)?;
        Ok(Timed::new(omap, cost))
    }

    /// Clones the metadata map structure from any replica (values are
    /// refcount bumps, not buffer copies).
    fn load_metadata(
        &self,
        pool: PoolId,
        name: &ObjectName,
    ) -> Result<Option<MetadataMaps>, StoreError> {
        self.state(pool)?;
        let holders = self.holders(pool, name);
        Ok(holders.first().map(|h| {
            let guard = self.osds[h.0 as usize].read();
            let obj = guard.get(pool, name).expect("holder has object");
            (obj.xattrs.clone(), obj.omap.clone())
        }))
    }

    fn metadata_read_cost(&self, ctx: &IoCtx, name: &ObjectName) -> Result<CostExpr, StoreError> {
        const META_IO: u64 = 4096;
        let acting = self.acting(ctx.pool, name)?;
        let primary = acting[0];
        Ok(ctx.label(
            "meta_read",
            CostExpr::seq([
                self.perf.disk_io(primary.0 as usize, META_IO),
                self.perf
                    .client_to_node(ctx.client, self.node_of(primary), META_IO),
            ]),
        ))
    }

    /// Deletes an object.
    ///
    /// # Errors
    ///
    /// Fails for unknown pools; deleting an absent object is a no-op.
    pub fn delete(&self, ctx: &IoCtx, name: &ObjectName) -> Result<Timed<()>, StoreError> {
        self.transact(ctx, name, vec![TxOp::Remove])
    }

    /// All object names in a pool (union across devices). Control-plane.
    ///
    /// # Errors
    ///
    /// Fails for unknown pools.
    pub fn list_objects(&self, pool: PoolId) -> Result<Vec<ObjectName>, StoreError> {
        self.state(pool)?;
        let mut names = BTreeSet::new();
        for osd in &self.osds {
            names.extend(osd.read().names_in_pool(pool));
        }
        Ok(names.into_iter().collect())
    }

    /// Capacity usage of one pool.
    ///
    /// # Errors
    ///
    /// Fails for unknown pools.
    pub fn usage(&self, pool: PoolId) -> Result<PoolUsage, StoreError> {
        self.state(pool)?;
        let mut usage = PoolUsage::default();
        let mut seen: BTreeSet<ObjectName> = BTreeSet::new();
        for osd in &self.osds {
            let guard = osd.read();
            for (p, name, obj) in guard.iter() {
                if p != pool {
                    continue;
                }
                if seen.insert(name.clone()) {
                    usage.objects += 1;
                    usage.logical_bytes += obj.payload.object_len();
                }
                usage.stored_bytes += obj.stored_bytes;
                usage.metadata_bytes += obj.metadata_bytes();
                usage.overhead_bytes += PER_OBJECT_OVERHEAD;
            }
        }
        Ok(usage)
    }

    /// Read-locks one device for iteration (used by the local-dedup
    /// baseline and the experiments' accounting): iterate the returned
    /// guard with [`Osd::iter`].
    ///
    /// # Errors
    ///
    /// Fails for unknown OSD ids.
    pub fn osd_objects(&self, osd: OsdId) -> Result<RwLockReadGuard<'_, Osd>, StoreError> {
        let idx = osd.0 as usize;
        if idx >= self.osds.len() {
            return Err(StoreError::NoSuchOsd(osd));
        }
        Ok(self.osds[idx].read())
    }

    /// Fails an OSD: marks it down in the map and wipes its device,
    /// simulating disk loss.
    ///
    /// # Panics
    ///
    /// Panics for unknown OSD ids.
    pub fn fail_osd(&mut self, osd: OsdId) {
        self.map.set_up(osd, false);
        self.osds[osd.0 as usize].write().wipe();
        if let Some(ev) = &self.events {
            ev.emit(
                Severity::Error,
                "cluster.osd",
                "osd_failed",
                vec![("osd", osd.0.to_string()), ("device", "wiped".to_string())],
            );
        }
    }

    /// Marks an OSD down without wiping it (temporary outage).
    ///
    /// # Panics
    ///
    /// Panics for unknown OSD ids.
    pub fn mark_down(&mut self, osd: OsdId) {
        self.map.set_up(osd, false);
        if let Some(ev) = &self.events {
            ev.emit(
                Severity::Warn,
                "cluster.osd",
                "osd_down",
                vec![("osd", osd.0.to_string())],
            );
        }
    }

    /// Brings an OSD back up (its device keeps whatever it held; run
    /// [`Cluster::recover`] to backfill).
    ///
    /// # Panics
    ///
    /// Panics for unknown OSD ids.
    pub fn revive_osd(&mut self, osd: OsdId) {
        self.map.set_up(osd, true);
        if let Some(ev) = &self.events {
            ev.emit(
                Severity::Info,
                "cluster.osd",
                "osd_up",
                vec![("osd", osd.0.to_string())],
            );
        }
    }

    /// Adds a brand-new OSD to `node` and returns its id.
    pub fn add_osd(&mut self, node: NodeId, weight: f64) -> OsdId {
        let id = self.map.add_osd(node, weight);
        self.osds.push(RwLock::new(Osd::new()));
        self.perf.add_disk(id.0 as usize);
        id
    }

    pub(crate) fn osd_store(&self, osd: OsdId) -> RwLockReadGuard<'_, Osd> {
        self.osds[osd.0 as usize].read()
    }

    pub(crate) fn osd_store_mut(&self, osd: OsdId) -> RwLockWriteGuard<'_, Osd> {
        self.osds[osd.0 as usize].write()
    }
}

/// Applies `TxOp::Write`: `data` lands at `offset`, any gap zero-filled. A
/// write starting at the current end — every sequential PUT after an
/// object's first — appends instead of zero-filling what it then overwrites.
fn write_into(buf: &mut Vec<u8>, offset: usize, data: &[u8]) {
    if offset == buf.len() {
        buf.extend_from_slice(data);
        return;
    }
    let end = offset + data.len();
    if buf.len() < end {
        buf.resize(end, 0);
    }
    buf[offset..end].copy_from_slice(data);
}

#[cfg(test)]
mod tests {
    use super::*;
    use dedup_placement::FailureDomain;

    fn cluster() -> Cluster {
        ClusterBuilder::new().nodes(4).osds_per_node(4).build()
    }

    fn rep_pool(c: &mut Cluster) -> IoCtx {
        IoCtx::new(c.create_pool(PoolConfig::replicated("rep", 2)))
    }

    fn ec_pool(c: &mut Cluster) -> IoCtx {
        IoCtx::new(c.create_pool(PoolConfig::erasure("ec", 2, 1)))
    }

    #[test]
    fn write_read_round_trip_replicated() {
        let mut c = cluster();
        let ctx = rep_pool(&mut c);
        let name = ObjectName::new("obj");
        let data = vec![7u8; 10_000];
        let w = c.write_full(&ctx, &name, data.clone()).expect("write");
        assert!(!w.cost.is_nop());
        let r = c.read_full(&ctx, &name).expect("read");
        assert_eq!(r.value, data);
    }

    #[test]
    fn write_read_round_trip_erasure() {
        let mut c = cluster();
        let ctx = ec_pool(&mut c);
        let name = ObjectName::new("obj");
        let data: Vec<u8> = (0..10_001).map(|i| (i % 251) as u8).collect();
        let _ = c.write_full(&ctx, &name, data.clone()).expect("write");
        let r = c.read_full(&ctx, &name).expect("read");
        assert_eq!(r.value, data);
    }

    #[test]
    fn replicated_pool_stores_n_copies() {
        let mut c = cluster();
        let ctx = rep_pool(&mut c);
        let name = ObjectName::new("obj");
        let _ = c.write_full(&ctx, &name, vec![1u8; 1000]).expect("write");
        assert_eq!(c.holders(ctx.pool, &name).len(), 2);
        let usage = c.usage(ctx.pool).expect("usage");
        assert_eq!(usage.logical_bytes, 1000);
        assert_eq!(usage.stored_bytes, 2000);
        assert_eq!(usage.objects, 1);
    }

    #[test]
    fn ec_pool_stores_k_plus_m_shards() {
        let mut c = cluster();
        let ctx = ec_pool(&mut c);
        let name = ObjectName::new("obj");
        let _ = c.write_full(&ctx, &name, vec![1u8; 1000]).expect("write");
        assert_eq!(c.holders(ctx.pool, &name).len(), 3);
        let usage = c.usage(ctx.pool).expect("usage");
        // 1.5x raw overhead for 2+1.
        assert_eq!(usage.stored_bytes, 1500);
    }

    #[test]
    fn partial_write_zero_fills() {
        let mut c = cluster();
        let ctx = rep_pool(&mut c);
        let name = ObjectName::new("obj");
        let _ = c.write_at(&ctx, &name, 10, vec![9u8; 5]).expect("write");
        let r = c.read_full(&ctx, &name).expect("read");
        assert_eq!(r.value.len(), 15);
        assert_eq!(&r.value[..10], &[0u8; 10]);
        assert_eq!(&r.value[10..], &[9u8; 5]);
    }

    #[test]
    fn overwrite_at_offset_preserves_rest() {
        let mut c = cluster();
        let ctx = ec_pool(&mut c);
        let name = ObjectName::new("obj");
        let _ = c.write_full(&ctx, &name, vec![1u8; 100]).expect("write");
        let _ = c.write_at(&ctx, &name, 50, vec![2u8; 10]).expect("write");
        let r = c.read_full(&ctx, &name).expect("read");
        assert_eq!(&r.value[..50], &[1u8; 50]);
        assert_eq!(&r.value[50..60], &[2u8; 10]);
        assert_eq!(&r.value[60..], &[1u8; 40]);
    }

    #[test]
    fn transaction_is_atomic_bundle() {
        let mut c = cluster();
        let ctx = rep_pool(&mut c);
        let name = ObjectName::new("obj");
        let _ = c
            .transact(
                &ctx,
                &name,
                vec![
                    TxOp::WriteFull(vec![5u8; 64].into()),
                    TxOp::SetXattr("type".into(), b"metadata".to_vec().into()),
                    TxOp::SetOmap("entry.0".into(), b"chunkmap".to_vec().into()),
                ],
            )
            .expect("tx");
        let x = c.get_xattr(&ctx, &name, "type").expect("xattr");
        assert_eq!(x.value.as_deref(), Some(b"metadata".as_slice()));
        let o = c.get_omap(&ctx, &name, "entry.0").expect("omap");
        assert_eq!(o.value.as_deref(), Some(b"chunkmap".as_slice()));
    }

    #[test]
    fn metadata_is_on_every_replica() {
        let mut c = cluster();
        let ctx = rep_pool(&mut c);
        let name = ObjectName::new("obj");
        let _ = c
            .transact(
                &ctx,
                &name,
                vec![
                    TxOp::WriteFull(vec![1u8; 10].into()),
                    TxOp::SetXattr("refcount".into(), vec![2].into()),
                ],
            )
            .expect("tx");
        for h in c.holders(ctx.pool, &name) {
            let store = c.osd_store(h);
            let obj = store.get(ctx.pool, &name).expect("replica");
            assert_eq!(obj.xattrs.get("refcount").map(|b| &b[..]), Some(&[2u8][..]));
        }
    }

    #[test]
    fn read_out_of_range_errors() {
        let mut c = cluster();
        let ctx = rep_pool(&mut c);
        let name = ObjectName::new("obj");
        let _ = c.write_full(&ctx, &name, vec![0u8; 10]).expect("write");
        let err = c.read_at(&ctx, &name, 5, 10).expect_err("must fail");
        assert!(matches!(err, StoreError::ReadOutOfRange { .. }));
    }

    #[test]
    fn missing_object_errors() {
        let mut c = cluster();
        let ctx = rep_pool(&mut c);
        let err = c
            .read_full(&ctx, &ObjectName::new("ghost"))
            .expect_err("must fail");
        assert!(matches!(err, StoreError::NoSuchObject(..)));
    }

    #[test]
    fn unknown_pool_errors() {
        let c = cluster();
        assert!(matches!(
            c.usage(PoolId(99)),
            Err(StoreError::NoSuchPool(_))
        ));
    }

    #[test]
    fn delete_removes_all_replicas() {
        let mut c = cluster();
        let ctx = rep_pool(&mut c);
        let name = ObjectName::new("obj");
        let _ = c.write_full(&ctx, &name, vec![1u8; 100]).expect("write");
        let _ = c.delete(&ctx, &name).expect("delete");
        assert!(c.holders(ctx.pool, &name).is_empty());
        assert_eq!(c.stat(ctx.pool, &name).expect("stat"), None);
    }

    #[test]
    fn object_size_cap_enforced() {
        let mut c = ClusterBuilder::new().object_size_cap(1000).build();
        let ctx = rep_pool(&mut c);
        let err = c
            .write_at(&ctx, &ObjectName::new("big"), 2000, vec![1])
            .expect_err("must fail");
        assert!(matches!(err, StoreError::ObjectTooLarge { .. }));
    }

    #[test]
    fn compression_shrinks_stored_bytes() {
        let mut c = cluster();
        let pool = c.create_pool(PoolConfig::replicated("comp", 2).with_compression());
        let ctx = IoCtx::new(pool);
        let name = ObjectName::new("obj");
        let _ = c
            .write_full(&ctx, &name, vec![0u8; 100_000])
            .expect("write");
        let usage = c.usage(pool).expect("usage");
        assert_eq!(usage.logical_bytes, 100_000);
        assert!(
            usage.stored_bytes < 10_000,
            "zeros should compress: {}",
            usage.stored_bytes
        );
        // Data still reads back exactly.
        let r = c.read_full(&ctx, &name).expect("read");
        assert_eq!(r.value, vec![0u8; 100_000]);
    }

    #[test]
    fn list_objects_sorted_union() {
        let mut c = cluster();
        let ctx = rep_pool(&mut c);
        for n in ["b", "a", "c"] {
            let _ = c
                .write_full(&ctx, &ObjectName::new(n), vec![0u8; 8])
                .expect("write");
        }
        let names = c.list_objects(ctx.pool).expect("list");
        let strs: Vec<_> = names.iter().map(ObjectName::as_str).collect();
        assert_eq!(strs, vec!["a", "b", "c"]);
    }

    #[test]
    fn writes_spread_across_osds() {
        let mut c = cluster();
        let ctx = rep_pool(&mut c);
        for i in 0..200 {
            let _ = c
                .write_full(&ctx, &ObjectName::new(format!("o{i}")), vec![0u8; 64])
                .expect("write");
        }
        let loaded = (0..16)
            .filter(|&i| c.osd_store(OsdId(i)).stats().objects > 0)
            .count();
        assert!(loaded >= 14, "only {loaded}/16 OSDs used");
    }

    #[test]
    fn ec_write_cost_exceeds_replicated_for_partial_updates() {
        let mut c = cluster();
        let rep = rep_pool(&mut c);
        let ec = ec_pool(&mut c);
        let name = ObjectName::new("obj");
        let _ = c.write_full(&rep, &name, vec![1u8; 64 * 1024]).expect("w");
        let _ = c.write_full(&ec, &name, vec![1u8; 64 * 1024]).expect("w");
        // Partial 8KiB update in the middle.
        let t_rep = c
            .write_at(&rep, &name, 1024, vec![2u8; 8 * 1024])
            .expect("w");
        let t_ec = c
            .write_at(&ec, &name, 1024, vec![2u8; 8 * 1024])
            .expect("w");
        let mut perf = c.perf().pool.clone();
        let rep_done = perf.execute(SimTime::ZERO, &t_rep.cost);
        let ec_done = perf.execute(rep_done, &t_ec.cost).since(rep_done);
        assert!(
            ec_done.as_nanos() > rep_done.as_nanos(),
            "EC RMW {ec_done:?} should exceed replicated {rep_done:?}"
        );
    }

    #[test]
    fn degraded_replicated_pool_still_serves() {
        let mut c = ClusterBuilder::new().nodes(2).osds_per_node(1).build();
        let pool =
            c.create_pool(PoolConfig::replicated("r", 2).with_failure_domain(FailureDomain::Osd));
        let ctx = IoCtx::new(pool);
        let name = ObjectName::new("obj");
        let _ = c.write_full(&ctx, &name, vec![3u8; 100]).expect("write");
        c.mark_down(OsdId(0));
        // One OSD left: degraded but readable and writable.
        let r = c.read_full(&ctx, &name).expect("read");
        assert_eq!(r.value, vec![3u8; 100]);
        let _ = c
            .write_full(&ctx, &name, vec![4u8; 50])
            .expect("write degraded");
    }

    #[test]
    fn ec_pool_unavailable_below_width() {
        let mut c = ClusterBuilder::new().nodes(3).osds_per_node(1).build();
        let pool = c.create_pool(PoolConfig::erasure("e", 2, 1));
        let ctx = IoCtx::new(pool);
        c.mark_down(OsdId(0));
        let err = c
            .write_full(&ctx, &ObjectName::new("x"), vec![1u8; 10])
            .expect_err("EC needs k+m devices");
        assert!(matches!(err, StoreError::InsufficientOsds { .. }));
    }

    /// Build a WAL-attached cluster with a replicated and an EC pool, plus
    /// the shared backend so a test can crash/recover against it.
    fn wal_cluster() -> (
        Cluster,
        std::sync::Arc<crate::wal::MemWalBackend>,
        IoCtx,
        IoCtx,
    ) {
        let mut c = ClusterBuilder::new().nodes(4).osds_per_node(4).build();
        let rep = IoCtx::new(c.create_pool(PoolConfig::replicated("rep", 2)));
        let ec = IoCtx::new(c.create_pool(PoolConfig::erasure("ec", 2, 1)));
        let backend = crate::wal::MemWalBackend::shared();
        c.attach_wal(backend.clone());
        (c, backend, rep, ec)
    }

    #[test]
    fn wal_round_trip_checkpoint_and_log_tail() {
        let (c, backend, rep, ec) = wal_cluster();
        let a = ObjectName::new("a");
        let b = ObjectName::new("b");
        let e = ObjectName::new("e");
        let _ = c.write_full(&rep, &a, vec![7u8; 4096]).expect("write a");
        let _ = c
            .transact(
                &rep,
                &a,
                vec![
                    TxOp::SetXattr("refcount".into(), Bytes::copy_from_slice(b"3")),
                    TxOp::SetOmap("backref".into(), Bytes::copy_from_slice(b"x")),
                    TxOp::PunchHole {
                        offset: 1024,
                        len: 1024,
                    },
                ],
            )
            .expect("decorate a");
        let _ = c.write_full(&ec, &e, vec![9u8; 8192]).expect("write e");

        // Checkpoint captures everything so far; `b` lands in the log tail.
        let cp = c.wal_checkpoint().expect("checkpoint");
        assert_eq!(cp.objects, 2);
        assert!(cp.last_seq >= 3);
        let _ = c.write_full(&rep, &b, vec![5u8; 100]).expect("write b");
        let _ = c
            .transact(&rep, &a, vec![TxOp::Truncate(2048)])
            .expect("truncate a");

        // Fresh cluster, same shape and pool layout, same backend.
        let mut c2 = ClusterBuilder::new().nodes(4).osds_per_node(4).build();
        let rep2 = IoCtx::new(c2.create_pool(PoolConfig::replicated("rep", 2)));
        let ec2 = IoCtx::new(c2.create_pool(PoolConfig::erasure("ec", 2, 1)));
        assert_eq!(rep2.pool, rep.pool);
        assert_eq!(ec2.pool, ec.pool);
        c2.attach_wal(backend);
        let rec = c2.wal_recover().expect("recover");
        assert_eq!(rec.replay_errors, 0);
        assert_eq!(rec.torn_tails_dropped, 0);
        assert!(rec.checkpoint_records >= 2);
        assert!(rec.log_records_replayed >= 2);

        // Data, metadata, and hole structure all survive the round trip.
        let ra = c2.read_full(&rep2, &a).expect("read a").value;
        assert_eq!(ra.len(), 2048);
        assert!(ra[..1024].iter().all(|&x| x == 7));
        assert!(ra[1024..2048].iter().all(|&x| x == 0));
        assert_eq!(
            c2.get_xattr(&rep2, &a, "refcount").expect("xattr").value,
            Some(Bytes::copy_from_slice(b"3"))
        );
        assert_eq!(
            c2.read_full(&rep2, &b).expect("read b").value,
            vec![5u8; 100]
        );
        assert_eq!(
            c2.read_full(&ec2, &e).expect("read e").value,
            vec![9u8; 8192]
        );
    }

    #[test]
    fn failed_recovery_leaves_the_wal_on() {
        let (mut c, backend, rep, _ec) = wal_cluster();
        let a = ObjectName::new("a");
        let _ = c.write_full(&rep, &a, vec![1u8; 64]).expect("write a");
        let _ = c.wal_checkpoint().expect("checkpoint");
        backend.replace_manifest(b"garbage").expect("corrupt");
        assert!(matches!(c.wal_recover(), Err(StoreError::Wal { .. })));

        // The next transaction is still logged, on its primary's log.
        let appends = c.metrics.wal_appends.get();
        let _ = c.write_full(&rep, &a, vec![2u8; 64]).expect("rewrite a");
        assert_eq!(c.metrics.wal_appends.get(), appends + 1);
        let primary = c.acting(rep.pool, &a).expect("acting")[0];
        let (records, torn) = decode_records(&backend.read_log(primary.0 as usize));
        assert!(!torn);
        assert_eq!(records.len(), 1);
        assert_eq!(records[0].ops, vec![TxOp::WriteFull(vec![2u8; 64].into())]);
    }

    #[test]
    fn write_into_appends_patches_and_zero_fills_gaps() {
        let mut buf = vec![1u8; 4];
        write_into(&mut buf, 4, &[2, 2]); // starts at the end: append
        write_into(&mut buf, 1, &[3]); // inside
        write_into(&mut buf, 5, &[4, 4]); // straddles the end
        write_into(&mut buf, 9, &[5]); // past the end: the gap reads zero
        assert_eq!(buf, [1, 3, 1, 1, 2, 4, 4, 0, 0, 5]);
    }

    #[test]
    fn wal_torn_tail_dropped_on_recovery() {
        let (c, backend, rep, _ec) = wal_cluster();
        let a = ObjectName::new("a");
        let b = ObjectName::new("b");
        let _ = c.write_full(&rep, &a, vec![1u8; 64]).expect("write a");
        // The next durable write tears mid-record: the append fails and so
        // does the transaction.
        backend.set_crash_plan(Some(crate::wal::CrashPlan {
            after: backend.durable_writes(),
            torn: true,
        }));
        let err = c.write_full(&rep, &b, vec![2u8; 64]).expect_err("crash");
        assert!(matches!(err, StoreError::Wal { .. }));
        assert!(backend.crashed());
        backend.set_crash_plan(None);

        let mut c2 = ClusterBuilder::new().nodes(4).osds_per_node(4).build();
        let rep2 = IoCtx::new(c2.create_pool(PoolConfig::replicated("rep", 2)));
        let _ec2 = IoCtx::new(c2.create_pool(PoolConfig::erasure("ec", 2, 1)));
        c2.attach_wal(backend);
        let rec = c2.wal_recover().expect("recover");
        assert_eq!(rec.torn_tails_dropped, 1);
        assert_eq!(rec.replay_errors, 0);
        // Committed prefix only: `a` is back, `b` never happened.
        assert_eq!(
            c2.read_full(&rep2, &a).expect("read a").value,
            vec![1u8; 64]
        );
        assert!(matches!(
            c2.read_full(&rep2, &b),
            Err(StoreError::NoSuchObject(..))
        ));
    }
}
