//! The cluster: pools, I/O paths, transactions, and capacity accounting.
//!
//! This module owns the cluster itself (topology, pools, placement
//! lookups, capacity accounting, OSD lifecycle); [`tx`] the one transaction
//! path; [`read`] the replica accessor and the read ops; [`durability`]
//! the cluster's half of the WAL.

mod durability;
mod read;
mod tx;

use std::collections::{BTreeMap, BTreeSet};

use bytes::Bytes;
use dedup_erasure::ReedSolomon;
use dedup_obs::{EventLog, Registry, Severity, Tracer};
use dedup_placement::{ClusterMap, NodeId, OsdId, PgMap, PoolId};
use dedup_sim::{CostExpr, SimTime};
use parking_lot::{RwLock, RwLockReadGuard, RwLockWriteGuard};

use crate::error::StoreError;
use crate::metrics::ClusterMetrics;
use crate::object::{ExtentList, ObjectName, Payload, RangeSet, PER_OBJECT_OVERHEAD};
use crate::osd::Osd;
use crate::perf::{ClientId, PerfConfig, PerfTopology};
use crate::pool::{PoolConfig, PoolUsage, Redundancy};

pub use durability::{WalCheckpointReport, WalManifestSummary, WalRecoveryReport};
pub use tx::TxOp;

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
/// Pure addressing: whether cost legs get step names is the cluster's
/// attached tracer's business ([`Cluster::label`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct IoCtx {
    /// Target pool.
    pub pool: PoolId,
    /// Issuing client host.
    pub client: ClientId,
}

impl IoCtx {
    /// Creates a context for `pool` from client 0.
    pub fn new(pool: PoolId) -> Self {
        IoCtx {
            pool,
            client: ClientId(0),
        }
    }

    /// Uses a specific client host.
    pub fn with_client(mut self, client: ClientId) -> Self {
        self.client = client;
        self
    }
}

/// In-memory logical view of an object while a transaction is applied.
///
/// `data` is the same piece list a replica holds: loading a replicated
/// object is refcount bumps, and the data ops splice or drop pieces
/// without copying payload bytes.
#[derive(Debug, Clone, Default)]
pub(crate) struct LogicalObject {
    pub data: ExtentList,
    pub xattrs: BTreeMap<String, Bytes>,
    pub omap: BTreeMap<String, Bytes>,
    pub holes: RangeSet,
}

pub(crate) struct PoolState {
    pub config: PoolConfig,
    pub pgs: PgMap,
    /// `Some` exactly on erasure-coded pools.
    pub codec: Option<ReedSolomon>,
}

/// Where an object lives: its holders (any, not just acting) in index
/// order, the length the first records, and whether all hold whole copies.
pub(crate) struct Located {
    pub holders: Vec<OsdId>,
    pub len: u64,
    pub all_full: bool,
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
    /// default) keeps every emission site a single branch ([`Cluster::emit`]).
    pub(crate) events: Option<EventLog>,
    wal: Option<durability::WalState>,
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

    /// Attaches a per-op tracer: from now on every cost leg the stack
    /// assembles carries its step name ([`Cluster::label`]), and stacked
    /// layers share this one handle via [`Cluster::tracer`]. The tracer
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

    /// Emits one event if a log is attached; `fields` is not evaluated
    /// otherwise, so an emission site costs a single branch when off.
    pub(crate) fn emit(
        &self,
        severity: Severity,
        source: &'static str,
        kind: &'static str,
        fields: impl FnOnce() -> Vec<(&'static str, String)>,
    ) {
        if let Some(ev) = &self.events {
            ev.emit(severity, source, kind, fields());
        }
    }

    /// Tags `cost` with a step name if and only if a tracer is attached;
    /// returns it untouched (no allocation) otherwise. Tags are
    /// timing-transparent, so labelling never changes virtual time.
    pub fn label(&self, label: &str, cost: CostExpr) -> CostExpr {
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

    pub(crate) fn node_of(&self, osd: OsdId) -> usize {
        self.map.osd(osd).node.0 as usize
    }

    pub(crate) fn acting(&self, pool: PoolId, name: &ObjectName) -> Result<Vec<OsdId>, StoreError> {
        let st = self.state(pool)?;
        let pg = st.pgs.pg_of(name.as_bytes());
        let acting = self.map.acting_set(pg, &st.config.rule());
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
        Ok(acting)
    }

    /// One pass over the devices, one read guard at a time. The snapshot is
    /// only stable while the caller holds that object's shard lock.
    pub(crate) fn locate(&self, pool: PoolId, name: &ObjectName) -> Located {
        let mut at = Located {
            holders: Vec::new(),
            len: 0,
            all_full: true,
        };
        for (i, osd) in self.osds.iter().enumerate() {
            if let Some(obj) = osd.read().get(pool, name) {
                if at.holders.is_empty() {
                    at.len = obj.payload.object_len();
                }
                at.all_full &= matches!(obj.payload, Payload::Full(_));
                at.holders.push(OsdId(i as u32));
            }
        }
        at
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
    pub(crate) fn holders(&self, pool: PoolId, name: &ObjectName) -> Vec<OsdId> {
        self.locate(pool, name).holders
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
        self.emit(Severity::Error, "cluster.osd", "osd_failed", || {
            vec![("osd", osd.0.to_string()), ("device", "wiped".to_string())]
        });
    }

    /// Marks an OSD down without wiping it (temporary outage).
    ///
    /// # Panics
    ///
    /// Panics for unknown OSD ids.
    pub fn mark_down(&mut self, osd: OsdId) {
        self.map.set_up(osd, false);
        self.emit(Severity::Warn, "cluster.osd", "osd_down", || {
            vec![("osd", osd.0.to_string())]
        });
    }

    /// Brings an OSD back up (its device keeps whatever it held; run
    /// [`Cluster::recover`] to backfill).
    ///
    /// # Panics
    ///
    /// Panics for unknown OSD ids.
    pub fn revive_osd(&mut self, osd: OsdId) {
        self.map.set_up(osd, true);
        self.emit(Severity::Info, "cluster.osd", "osd_up", || {
            vec![("osd", osd.0.to_string())]
        });
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

/// Fixtures shared by the in-file tests of the `cluster` modules.
#[cfg(test)]
pub(crate) mod testutil {
    use super::*;

    pub(crate) fn cluster() -> Cluster {
        ClusterBuilder::new().nodes(4).osds_per_node(4).build()
    }

    pub(crate) fn rep_pool(c: &mut Cluster) -> IoCtx {
        IoCtx::new(c.create_pool(PoolConfig::replicated("rep", 2)))
    }

    pub(crate) fn ec_pool(c: &mut Cluster) -> IoCtx {
        IoCtx::new(c.create_pool(PoolConfig::erasure("ec", 2, 1)))
    }
}

#[cfg(test)]
mod tests {
    use super::testutil::*;
    use super::*;
    use dedup_placement::FailureDomain;

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
    fn unknown_pool_errors() {
        let c = cluster();
        assert!(matches!(
            c.usage(PoolId(99)),
            Err(StoreError::NoSuchPool(_))
        ));
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
}
