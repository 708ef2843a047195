//! Recovery, backfill/rebalance, and scrub.
//!
//! Because dedup metadata lives *inside* objects (self-contained objects),
//! this module needs zero knowledge of deduplication: re-replicating an
//! object automatically re-replicates its chunk map or reference counts.
//! That is precisely the paper's argument for the design (§3.2, §6.4.2).

use dedup_obs::Severity;
use dedup_placement::{OsdId, PoolId};
use dedup_sim::CostExpr;

use crate::cluster::{Cluster, IoCtx, Timed};
use crate::error::StoreError;
use crate::object::{metadata_bytes, ObjectName, Payload, StoredObject};
use crate::pool::Redundancy;

/// Outcome of a recovery / rebalance pass.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RecoveryReport {
    /// Objects examined across all pools.
    pub objects_examined: u64,
    /// Objects that needed at least one replica/shard copied or rebuilt.
    pub objects_repaired: u64,
    /// Payload bytes moved over the network during repair.
    pub bytes_moved: u64,
    /// Stray replicas removed from devices outside the acting set.
    pub strays_removed: u64,
    /// Objects that could not be recovered (too many shards lost).
    pub lost: Vec<(PoolId, ObjectName)>,
}

/// A replica inconsistency found by scrub.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ScrubFinding {
    /// Pool of the damaged object.
    pub pool: PoolId,
    /// Damaged object.
    pub name: ObjectName,
    /// What is wrong.
    pub detail: String,
}

impl Cluster {
    /// Repairs every object: re-replicates missing copies, rebuilds missing
    /// erasure shards, and removes strays left behind by map changes. Call
    /// after [`Cluster::fail_osd`] / [`Cluster::add_osd`] /
    /// [`Cluster::revive_osd`]; this is both recovery and rebalance.
    ///
    /// The returned cost models reads from surviving devices, network
    /// transfers, and writes to targets, so executing it yields the
    /// recovery time of the paper's Table 3.
    ///
    /// # Errors
    ///
    /// Fails only on internal inconsistencies (e.g. a pool disappearing mid
    /// scan); unrecoverable objects are reported in
    /// [`RecoveryReport::lost`], not as an error.
    pub fn recover(&mut self) -> Result<Timed<RecoveryReport>, StoreError> {
        let pools: Vec<PoolId> = self.pools.keys().copied().collect();
        let mut report = RecoveryReport::default();
        let mut costs: Vec<CostExpr> = Vec::new();
        for pool in pools {
            for name in self.list_objects(pool)? {
                report.objects_examined += 1;
                self.recover_object(pool, &name, &mut report, &mut costs)?;
            }
        }
        self.metrics.recovery_runs.inc();
        self.metrics.recovery_examined.add(report.objects_examined);
        self.metrics.recovery_repaired.add(report.objects_repaired);
        self.metrics.recovery_bytes_moved.add(report.bytes_moved);
        if report.objects_repaired > 0 || report.strays_removed > 0 {
            self.emit(Severity::Info, "cluster.recovery", "repairs", || {
                vec![
                    ("objects_examined", report.objects_examined.to_string()),
                    ("objects_repaired", report.objects_repaired.to_string()),
                    ("bytes_moved", report.bytes_moved.to_string()),
                    ("strays_removed", report.strays_removed.to_string()),
                ]
            });
        }
        for (pool, name) in &report.lost {
            self.emit(Severity::Error, "cluster.recovery", "object_lost", || {
                vec![
                    ("pool", pool.0.to_string()),
                    ("object", name.as_str().to_string()),
                ]
            });
        }
        // Recovery proceeds in parallel across placement groups (bounded
        // in real clusters by op queues, but bandwidth-bound either way):
        // disks and NICs serialize transfers through the resource model,
        // while per-object latencies overlap.
        Ok(Timed::new(
            report,
            self.label("recovery", CostExpr::par(costs)),
        ))
    }

    fn recover_object(
        &mut self,
        pool: PoolId,
        name: &ObjectName,
        report: &mut RecoveryReport,
        costs: &mut Vec<CostExpr>,
    ) -> Result<(), StoreError> {
        let acting = match self.acting(pool, name) {
            Ok(a) => a,
            Err(StoreError::InsufficientOsds { .. }) => {
                report.lost.push((pool, name.clone()));
                return Ok(());
            }
            Err(e) => return Err(e),
        };
        let holders = self.holders(pool, name);
        let redundancy = self.state(pool)?.config.redundancy;

        // Is any acting device missing or holding the wrong shard?
        let misplaced: Vec<OsdId> = acting
            .iter()
            .copied()
            .enumerate()
            .filter(|&(rank, osd)| match self.osd_store(osd).get(pool, name) {
                None => true,
                Some(obj) => match (&obj.payload, redundancy) {
                    (Payload::Shard { index, .. }, Redundancy::Erasure { .. }) => {
                        *index as usize != rank
                    }
                    _ => false,
                },
            })
            .map(|(_, osd)| osd)
            .collect();
        let strays: Vec<OsdId> = holders
            .iter()
            .copied()
            .filter(|h| !acting.contains(h))
            .collect();

        if !misplaced.is_empty() {
            // Load the logical object while strays may still be the only
            // holders of live data (a rebalance can move an object entirely).
            let Some(logical) = self.load_logical(pool, name, &holders)? else {
                // Not enough shards anywhere: leave remaining pieces in
                // place for forensics and report the loss.
                report.lost.push((pool, name.clone()));
                return Ok(());
            };
            // Cost: read enough source replicas, send to each target, write.
            // Source selection spreads by name hash so one surviving OSD
            // does not serve every move.
            let src = holders
                [(dedup_placement::hash::xxh64(name.as_bytes(), 0x5eed) as usize) % holders.len()];
            let src_node = self.node_of(src);
            // Only resident bytes move: punched holes (evicted cache) cost
            // nothing, which is exactly why deduplicated clusters recover
            // faster (paper Table 3). Metadata (chunk maps, refcounts)
            // moves with the object.
            let len = logical.data.len();
            let resident = len.saturating_sub(logical.holes.total()).max(1);
            let meta_bytes = metadata_bytes(&logical.xattrs, &logical.omap);
            let bytes = match redundancy {
                Redundancy::Replicated(_) => resident + meta_bytes,
                Redundancy::Erasure { k, .. } => resident.div_ceil(k as u64) + meta_bytes,
            }
            .max(1);
            let read_cost = match redundancy {
                Redundancy::Replicated(_) => self.perf.disk_io(src.0 as usize, bytes),
                Redundancy::Erasure { k, .. } => CostExpr::par(
                    holders
                        .iter()
                        .take(k)
                        .map(|&h| self.perf.disk_io(h.0 as usize, bytes)),
                ),
            };
            let write_cost = CostExpr::par(misplaced.iter().map(|&t| {
                CostExpr::seq([
                    self.perf.node_to_node(src_node, self.node_of(t), bytes),
                    self.perf.disk_io(t.0 as usize, bytes),
                ])
            }));
            costs.push(CostExpr::seq([
                self.label("repair_read", read_cost),
                self.label("repair_write", write_cost),
            ]));
            report.objects_repaired += 1;
            report.bytes_moved += bytes * misplaced.len() as u64;

            // Re-place on the current acting set through the transaction
            // path (idempotent for devices already holding the right
            // content); its cost is discarded because it was charged
            // explicitly above.
            let _ = self.transact(&IoCtx::new(pool), name, self.rebuild_ops(logical))?;
        }

        for s in strays {
            // The restore above may already have dropped the stray; count
            // it as removed either way — it held a replica when this pass
            // began and no longer does.
            let freed = self.osds[s.0 as usize]
                .write()
                .remove(pool, name)
                .map(|obj| obj.stored_bytes)
                .unwrap_or(0);
            report.strays_removed += 1;
            costs.push(self.perf.disk_io(s.0 as usize, 64.max(freed / 64)));
        }
        Ok(())
    }

    /// Verifies replica consistency for one pool. A clean scrub returns an
    /// empty list.
    ///
    /// # Errors
    ///
    /// Fails for unknown pools.
    pub fn scrub(&self, pool: PoolId) -> Result<Vec<ScrubFinding>, StoreError> {
        let st = self.state(pool)?;
        let redundancy = st.config.redundancy;
        let mut findings = Vec::new();
        for name in self.list_objects(pool)? {
            let mut report = |detail: String| {
                findings.push(ScrubFinding {
                    pool,
                    name: name.clone(),
                    detail,
                })
            };
            let Ok(acting) = self.acting(pool, &name) else {
                report("no acting set available".into());
                continue;
            };
            // Owned snapshot of the first replica: per-OSD locks are taken
            // one at a time, so a borrowed reference cannot outlive its
            // device guard.
            let mut reference: Option<StoredObject> = None;
            for (rank, &osd) in acting.iter().enumerate() {
                let store = self.osd_store(osd);
                match (store.get(pool, &name), redundancy) {
                    (None, Redundancy::Replicated(_)) => {
                        report(format!("missing replica on {osd}"))
                    }
                    (None, Redundancy::Erasure { .. }) => {
                        report(format!("missing shard {rank} on {osd}"))
                    }
                    (Some(obj), Redundancy::Replicated(_)) => match &reference {
                        None => reference = Some(obj.clone()),
                        Some(r) if r != obj => report(format!("replica mismatch on {osd}")),
                        Some(_) => {}
                    },
                    (Some(obj), Redundancy::Erasure { .. }) => match &obj.payload {
                        Payload::Shard { index, .. } if *index as usize != rank => {
                            report(format!("shard index {index} at rank {rank} on {osd}"))
                        }
                        Payload::Shard { .. } => {}
                        Payload::Full(_) => report(format!("full payload in EC pool on {osd}")),
                    },
                }
            }
            if let Some(codec) = &st.codec {
                if let Err(detail) = self.gather_shards(codec, pool, &name, &acting) {
                    report(detail);
                }
            }
        }
        self.metrics.scrub_runs.inc();
        self.metrics.scrub_findings.add(findings.len() as u64);
        Ok(findings)
    }
}

impl Cluster {
    /// Deep scrub: beyond presence/shape checks, verifies *content* —
    /// replicated objects must be byte-identical on every acting device,
    /// and erasure-coded objects must have parity consistent with their
    /// data shards (re-encode and compare). Detects silent corruption that
    /// the light [`Cluster::scrub`] cannot.
    ///
    /// # Errors
    ///
    /// Fails for unknown pools.
    pub fn deep_scrub(&self, pool: PoolId) -> Result<Vec<ScrubFinding>, StoreError> {
        let mut findings = self.scrub(pool)?;
        // The shallow pass above already counted itself; record only the
        // extra content-level findings below.
        let shallow_findings = findings.len();
        if let Some(codec) = &self.state(pool)?.codec {
            let k = codec.data_shards();
            for name in self.list_objects(pool)? {
                let Ok(acting) = self.acting(pool, &name) else {
                    continue;
                };
                // Shards that disagree on the length are the light scrub's.
                let Ok((shards, _)) = self.gather_shards(codec, pool, &name, &acting) else {
                    continue;
                };
                let data: Option<Vec<&[u8]>> = shards[..k].iter().map(|s| s.as_deref()).collect();
                let Some(data) = data else { continue };
                let Ok(parity) = codec.encode(&data) else {
                    continue;
                };
                for (i, expect) in parity.iter().enumerate() {
                    if let Some(stored) = &shards[k + i] {
                        if stored != expect {
                            findings.push(ScrubFinding {
                                pool,
                                name: name.clone(),
                                detail: format!(
                                    "parity shard {} inconsistent with data shards",
                                    k + i
                                ),
                            });
                        }
                    }
                }
            }
        }
        self.metrics
            .scrub_findings
            .add((findings.len() - shallow_findings) as u64);
        Ok(findings)
    }
}

impl Cluster {
    /// Repairs a single damaged object: replicated pools restore every
    /// replica from the majority content (or the primary when no strict
    /// majority exists, e.g. size 2); erasure-coded pools rebuild parity
    /// from the data shards. Use after [`Cluster::deep_scrub`] flags it.
    ///
    /// # Errors
    ///
    /// Fails if the object does not exist or the pool is unknown.
    pub fn repair_object(
        &mut self,
        pool: PoolId,
        name: &ObjectName,
    ) -> Result<Timed<bool>, StoreError> {
        let acting = self.acting(pool, name)?;
        let redundancy = self.state(pool)?.config.redundancy;
        let mut repaired = false;
        let mut costs: Vec<CostExpr> = Vec::new();
        match redundancy {
            Redundancy::Replicated(_) => {
                // One owned snapshot per replica, in acting order, so at
                // most one OSD lock is held at a time.
                let replicas: Vec<(OsdId, StoredObject)> = acting
                    .iter()
                    .filter_map(|&osd| Some((osd, self.osd_store(osd).get(pool, name)?.clone())))
                    .collect();
                // Majority vote over replica contents; the primary wins ties
                // (`max_by_key` keeps the last maximum, hence the `rev`).
                let votes =
                    |cand: &StoredObject| replicas.iter().filter(|(_, o)| o == cand).count();
                let (source, reference) =
                    replicas
                        .iter()
                        .rev()
                        .max_by_key(|(_, obj)| votes(obj))
                        .ok_or_else(|| StoreError::NoSuchObject(pool, name.clone()))?;
                let source = *source;
                let bytes = reference.stored_bytes.max(64);
                for &osd in &acting {
                    let differs = self.osd_store(osd).get(pool, name) != Some(reference);
                    if differs {
                        costs.push(CostExpr::seq([
                            self.perf.disk_io(source.0 as usize, bytes),
                            self.perf
                                .node_to_node(self.node_of(source), self.node_of(osd), bytes),
                            self.perf.disk_io(osd.0 as usize, bytes),
                        ]));
                        self.osd_store_mut(osd)
                            .put(pool, name.clone(), reference.clone());
                        repaired = true;
                    }
                }
            }
            Redundancy::Erasure { .. } => {
                // Rebuild everything (incl. parity) from the decodable data.
                let holders = self.holders(pool, name);
                let logical = self
                    .load_logical(pool, name, &holders)?
                    .ok_or_else(|| StoreError::NoSuchObject(pool, name.clone()))?;
                let bytes = logical.data.len();
                costs.push(CostExpr::par(acting.iter().map(|&osd| {
                    self.perf
                        .disk_io(osd.0 as usize, bytes.max(64) / acting.len() as u64)
                })));
                let _ = self.transact(&IoCtx::new(pool), name, self.rebuild_ops(logical))?;
                repaired = true;
            }
        }
        Ok(Timed::new(repaired, CostExpr::seq(costs)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cluster::ClusterBuilder;
    use crate::pool::PoolConfig;
    use dedup_sim::SimTime;

    /// Mutates one replica behind the cluster's back (simulated silent
    /// corruption), dropping the device's write guard before returning so
    /// a follow-up scrub in the same thread cannot self-deadlock.
    fn corrupt(
        c: &crate::cluster::Cluster,
        osd: OsdId,
        pool: PoolId,
        name: &ObjectName,
        f: impl FnOnce(&mut crate::object::StoredObject),
    ) {
        let mut store = c.osd_store_mut(osd);
        f(store.get_mut(pool, name).expect("replica"));
    }

    /// XORs `mask` into byte `at` of a full replica. The write swaps a
    /// piece into this replica's list only; buffers other replicas share
    /// stay untouched.
    fn flip(obj: &mut StoredObject, at: u64, mask: u8) {
        if let Payload::Full(data) = &mut obj.payload {
            let byte = data.read(at, 1).0[0] ^ mask;
            let _ = data.write(at, vec![byte].into());
        }
    }

    fn loaded_cluster(redundancy: PoolConfig) -> (crate::cluster::Cluster, IoCtx, Vec<Vec<u8>>) {
        let mut c = ClusterBuilder::new().nodes(4).osds_per_node(4).build();
        let pool = c.create_pool(redundancy);
        let ctx = IoCtx::new(pool);
        let mut datasets = Vec::new();
        for i in 0..60 {
            let data: Vec<u8> = (0..2048).map(|j| ((i * 7 + j) % 256) as u8).collect();
            let _ = c
                .write_full(&ctx, &ObjectName::new(format!("obj-{i}")), data.clone())
                .expect("write");
            datasets.push(data);
        }
        (c, ctx, datasets)
    }

    #[test]
    fn replicated_recovery_restores_redundancy() {
        let (mut c, ctx, datasets) = loaded_cluster(PoolConfig::replicated("r", 2));
        c.fail_osd(OsdId(3));
        let t = c.recover().expect("recover");
        assert!(t.value.objects_repaired > 0, "some objects lived on osd.3");
        assert!(t.value.bytes_moved > 0);
        assert!(t.value.lost.is_empty());
        // Every object is back to 2 replicas and readable.
        for (i, data) in datasets.iter().enumerate() {
            let name = ObjectName::new(format!("obj-{i}"));
            assert_eq!(c.holders(ctx.pool, &name).len(), 2, "obj-{i}");
            let r = c.read_full(&ctx, &name).expect("read");
            assert_eq!(&r.value, data, "obj-{i}");
        }
        assert!(c.scrub(ctx.pool).expect("scrub").is_empty());
    }

    #[test]
    fn ec_recovery_rebuilds_shards() {
        let (mut c, ctx, datasets) = loaded_cluster(PoolConfig::erasure("e", 2, 1));
        c.fail_osd(OsdId(7));
        let t = c.recover().expect("recover");
        assert!(t.value.lost.is_empty());
        for (i, data) in datasets.iter().enumerate() {
            let name = ObjectName::new(format!("obj-{i}"));
            assert_eq!(c.holders(ctx.pool, &name).len(), 3, "obj-{i}");
            let r = c.read_full(&ctx, &name).expect("read");
            assert_eq!(&r.value, data, "obj-{i}");
        }
        assert!(c.scrub(ctx.pool).expect("scrub").is_empty());
    }

    #[test]
    fn recovery_cost_scales_with_failures() {
        let (mut c1, _, _) = loaded_cluster(PoolConfig::replicated("r", 2));
        let (mut c2, _, _) = loaded_cluster(PoolConfig::replicated("r", 2));
        c1.fail_osd(OsdId(0));
        c2.fail_osd(OsdId(0));
        c2.fail_osd(OsdId(5));
        let t1 = c1.recover().expect("recover");
        let t2 = c2.recover().expect("recover");
        assert!(
            t2.value.bytes_moved > t1.value.bytes_moved,
            "two failures move more data"
        );
        let d1 = c1.execute_at(SimTime::ZERO, &t1.cost);
        let d2 = c2.execute_at(SimTime::ZERO, &t2.cost);
        assert!(d2 >= d1, "recovery of more data takes at least as long");
    }

    #[test]
    fn adding_osd_rebalances_with_bounded_movement() {
        let (mut c, ctx, _) = loaded_cluster(PoolConfig::replicated("r", 2));
        let before: u64 = c.usage(ctx.pool).expect("usage").stored_bytes;
        let node0 = c.map().osd(OsdId(0)).node;
        c.add_osd(node0, 1.0);
        let t = c.recover().expect("rebalance");
        // Some objects moved to the new device, strays were removed.
        assert!(t.value.objects_repaired > 0, "no rebalance happened");
        assert!(t.value.strays_removed > 0, "stray replicas not cleaned");
        // Redundancy unchanged.
        let after = c.usage(ctx.pool).expect("usage").stored_bytes;
        assert_eq!(before, after);
        assert!(c.scrub(ctx.pool).expect("scrub").is_empty());
        // New device actually holds data.
        assert!(c.osd_store(OsdId(16)).stats().objects > 0);
    }

    #[test]
    fn revive_and_backfill_returns_data() {
        let (mut c, ctx, _) = loaded_cluster(PoolConfig::replicated("r", 2));
        let victim = OsdId(2);
        let before_stats = c.osd_store(victim).stats();
        assert!(before_stats.objects > 0);
        c.fail_osd(victim);
        let _ = c.recover().expect("recover");
        c.revive_osd(victim);
        let t = c.recover().expect("backfill");
        assert!(t.value.objects_repaired > 0 || t.value.strays_removed > 0);
        assert!(c.scrub(ctx.pool).expect("scrub").is_empty());
        // Placement is identical to before the failure, so the revived
        // device gets its objects back.
        assert_eq!(c.osd_store(victim).stats().objects, before_stats.objects);
    }

    #[test]
    fn data_loss_is_reported_not_panicked() {
        let mut c = ClusterBuilder::new().nodes(3).osds_per_node(1).build();
        let pool = c.create_pool(PoolConfig::erasure("e", 2, 1));
        let ctx = IoCtx::new(pool);
        let _ = c
            .write_full(&ctx, &ObjectName::new("x"), vec![1u8; 4096])
            .expect("write");
        // Lose two of three shards: 2+1 cannot rebuild.
        c.fail_osd(OsdId(0));
        c.fail_osd(OsdId(1));
        let t = c.recover().expect("recover runs");
        assert_eq!(t.value.lost.len(), 1);
    }

    #[test]
    fn scrub_detects_injected_replica_mismatch() {
        let (c, ctx, _) = loaded_cluster(PoolConfig::replicated("r", 2));
        let name = ObjectName::new("obj-0");
        let victim = c.holders(ctx.pool, &name)[0];
        // Corrupt one replica's payload behind the cluster's back.
        corrupt(&c, victim, ctx.pool, &name, |obj| flip(obj, 0, 0xFF));
        let findings = c.scrub(ctx.pool).expect("scrub");
        assert!(findings.iter().any(|f| f.name == name));
    }

    #[test]
    fn deep_scrub_detects_parity_corruption() {
        let (c, ctx, _) = loaded_cluster(PoolConfig::erasure("e", 2, 1));
        // Light scrub is clean; corrupt one PARITY shard silently.
        assert!(c.deep_scrub(ctx.pool).expect("scrub").is_empty());
        let name = ObjectName::new("obj-4");
        let acting = c.acting(ctx.pool, &name).expect("acting");
        let parity_osd = acting[2];
        corrupt(&c, parity_osd, ctx.pool, &name, |obj| {
            if let crate::object::Payload::Shard { ref mut bytes, .. } = obj.payload {
                bytes.make_mut()[7] ^= 0xFF;
            }
        });
        // The light scrub still passes (shape is fine)...
        assert!(c.scrub(ctx.pool).expect("scrub").is_empty());
        // ...but deep scrub re-encodes and catches it.
        let findings = c.deep_scrub(ctx.pool).expect("deep scrub");
        assert!(
            findings
                .iter()
                .any(|f| f.name == name && f.detail.contains("parity")),
            "parity corruption missed: {findings:?}"
        );
    }

    /// One shard of a 100-byte 2+1 object records another length, shorter
    /// or longer, at each rank: every read is refused with a typed error
    /// and the light scrub reports it once. Reads used to serve a short
    /// object or fail depending on which device was visited last.
    #[test]
    fn ec_shards_disagreeing_on_length_are_refused_and_scrubbed() {
        for rank in 0..3 {
            for lie in [60u64, 1000] {
                let mut c = ClusterBuilder::new().nodes(4).osds_per_node(4).build();
                let ctx = IoCtx::new(c.create_pool(PoolConfig::erasure("e", 2, 1)));
                let name = ObjectName::new("obj");
                let _ = c.write_full(&ctx, &name, vec![9u8; 100]).expect("write");
                let osd = c.acting(ctx.pool, &name).expect("acting")[rank];
                corrupt(&c, osd, ctx.pool, &name, |obj| {
                    if let Payload::Shard {
                        ref mut object_len, ..
                    } = obj.payload
                    {
                        *object_len = lie;
                    }
                });
                let case = format!("rank {rank}, length {lie}");
                for read in [c.read_full(&ctx, &name), c.read_at(&ctx, &name, 0, 100)] {
                    let err = read.map(|t| t.value.len()).expect_err(&case);
                    assert!(
                        matches!(err, StoreError::Inconsistent { .. }),
                        "{case}: {err}"
                    );
                }
                let findings = c.scrub(ctx.pool).expect("scrub");
                assert_eq!(findings.len(), 1, "{case}: {findings:?}");
                assert_eq!(c.deep_scrub(ctx.pool).expect("deep scrub"), findings);
            }
        }
    }

    #[test]
    fn deep_scrub_detects_replica_divergence() {
        let (c, ctx, _) = loaded_cluster(PoolConfig::replicated("r", 2));
        let name = ObjectName::new("obj-1");
        let victim = c.holders(ctx.pool, &name)[1];
        corrupt(&c, victim, ctx.pool, &name, |obj| flip(obj, 100, 1));
        let findings = c.deep_scrub(ctx.pool).expect("deep scrub");
        assert!(findings.iter().any(|f| f.name == name));
    }

    #[test]
    fn repair_restores_corrupted_replica() {
        let (mut c, ctx, datasets) = loaded_cluster(PoolConfig::replicated("r", 2));
        let name = ObjectName::new("obj-3");
        let victim = c.holders(ctx.pool, &name)[1];
        corrupt(&c, victim, ctx.pool, &name, |obj| flip(obj, 5, 0x42));
        assert!(!c.deep_scrub(ctx.pool).expect("scrub").is_empty());
        let t = c.repair_object(ctx.pool, &name).expect("repair");
        assert!(t.value, "repair reported work");
        assert!(!t.cost.is_nop());
        assert!(c.deep_scrub(ctx.pool).expect("scrub").is_empty());
        let r = c.read_full(&ctx, &name).expect("read");
        assert_eq!(r.value, datasets[3], "primary content won the vote");
    }

    #[test]
    fn repair_rebuilds_ec_parity() {
        let (mut c, ctx, datasets) = loaded_cluster(PoolConfig::erasure("e", 2, 1));
        let name = ObjectName::new("obj-7");
        let acting = c.acting(ctx.pool, &name).expect("acting");
        corrupt(&c, acting[2], ctx.pool, &name, |obj| {
            if let crate::object::Payload::Shard { ref mut bytes, .. } = obj.payload {
                bytes.make_mut()[0] ^= 0xFF;
            }
        });
        assert!(!c.deep_scrub(ctx.pool).expect("scrub").is_empty());
        let t = c.repair_object(ctx.pool, &name).expect("repair");
        assert!(t.value);
        assert!(c.deep_scrub(ctx.pool).expect("scrub").is_empty());
        let r = c.read_full(&ctx, &name).expect("read");
        assert_eq!(r.value, datasets[7]);
    }

    #[test]
    fn repair_on_healthy_object_is_a_noop() {
        let (mut c, ctx, _) = loaded_cluster(PoolConfig::replicated("r", 2));
        let t = c
            .repair_object(ctx.pool, &ObjectName::new("obj-0"))
            .expect("repair");
        assert!(!t.value, "nothing to do");
    }

    #[test]
    fn recovery_preserves_object_metadata() {
        use crate::cluster::TxOp;
        for config in [
            PoolConfig::replicated("r", 2),
            PoolConfig::erasure("e", 2, 1),
        ] {
            let (mut c, ctx, _) = loaded_cluster(config);
            let name = ObjectName::new("meta-obj");
            let _ = c
                .transact(
                    &ctx,
                    &name,
                    vec![
                        TxOp::WriteFull(vec![9u8; 512].into()),
                        TxOp::PunchHole {
                            offset: 128,
                            len: 64,
                        },
                        TxOp::SetXattr("refcount".into(), vec![42].into()),
                        TxOp::SetOmap("chunk.0".into(), b"entry".to_vec().into()),
                    ],
                )
                .expect("tx");
            let usage = c.usage(ctx.pool).expect("usage");
            let holder = c.holders(ctx.pool, &name)[0];
            c.fail_osd(holder);
            let _ = c.recover().expect("recover");
            let x = c.get_xattr(&ctx, &name, "refcount").expect("xattr");
            assert_eq!(x.value.as_deref(), Some(&[42u8][..]));
            let o = c.get_omap(&ctx, &name, "chunk.0").expect("omap");
            assert_eq!(o.value.as_deref(), Some(b"entry".as_slice()));
            // The hole comes back as a hole: same ranges, same capacity.
            assert_eq!(
                c.resident_ranges(ctx.pool, &name, 0, 512).expect("ranges"),
                vec![(0, 128, true), (128, 192, false), (192, 512, true)]
            );
            assert_eq!(c.usage(ctx.pool).expect("usage"), usage);
        }
    }
}
