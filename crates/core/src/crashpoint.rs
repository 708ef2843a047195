//! Crash-point enumeration for the durability plane, and the one fault
//! injector of the crash tests.
//!
//! The audit methodology: run a workload once over an intact
//! [`MemWalBackend`] and read its fsync journal — every durable write the
//! backend performed (WAL appends, segment writes, MANIFEST replaces, log
//! truncations) is one *crash point*. Then, for each point, rebuild an
//! identically-shaped cluster, re-run the workload with a [`CrashPlan`]
//! that kills the backend at exactly that write (cleanly, or tearing the
//! record mid-frame), and drive [`DedupStore::recover_after_crash`]. The
//! harness in `tests/crash_recovery.rs` asserts that every point recovers
//! to a state with no dangling chunk references, no leaked chunks, and all
//! committed writes readable.
//!
//! Determinism is what makes "crash at every point" exhaustive rather than
//! probabilistic: the same topology and op sequence produce the same
//! placement, the same transactions, and therefore the same journal on
//! every run.
//!
//! The same injector drives the paper's consistency tests (§4.6, Fig. 9,
//! `tests/consistency.rs`): every step of a flush that can fail is a
//! durable write, so a test crashes a flush by arming a clean
//! [`CrashPlan`] at [`MemWalBackend::durable_writes`] plus k — the
//! flush's first durable write is its first chunk's store. A clean crash
//! leaves whole frames, so such a test revives the backend
//! (`set_crash_plan(None)`) and carries on with the same store instead
//! of rebuilding it.

use std::sync::Arc;

use dedup_store::{ClusterBuilder, CrashPlan, MemWalBackend};

use crate::config::DedupConfig;
use crate::engine::DedupStore;

/// Cluster shape shared by the reference run and every crash run. Pool
/// ids and object placement are functions of this shape, so keeping it
/// fixed makes WAL replay land every record in the right pool.
#[derive(Debug, Clone, Copy)]
pub struct CrashTopology {
    /// Nodes in the cluster.
    pub nodes: u32,
    /// OSDs per node.
    pub osds_per_node: u32,
}

impl Default for CrashTopology {
    fn default() -> Self {
        CrashTopology {
            nodes: 4,
            osds_per_node: 4,
        }
    }
}

/// One enumerated crash point: the durable write holding `ticket` fails —
/// leaving nothing (`torn == false`) or half a record (`torn == true`) —
/// and every later durable write fails with it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CrashPoint {
    /// The fsync-journal ticket of the write that fails.
    pub ticket: u64,
    /// What the write was ("wal.append", "wal.write_segment", ...).
    pub label: &'static str,
    /// Whether the failing write leaves a torn half-record behind.
    pub torn: bool,
}

/// Builds a WAL-attached dedup store on a fresh cluster of the given
/// shape, returning the store and the shared backend (for crash plans and
/// journal inspection).
pub fn wal_store(topology: CrashTopology, config: DedupConfig) -> (DedupStore, Arc<MemWalBackend>) {
    let mut cluster = ClusterBuilder::new()
        .nodes(topology.nodes)
        .osds_per_node(topology.osds_per_node)
        .build();
    let backend = MemWalBackend::shared();
    cluster.attach_wal(backend.clone());
    (DedupStore::with_default_pools(cluster, config), backend)
}

/// Rebuilds a store of the same shape over an existing (crashed or intact)
/// backend, clearing any pending crash plan so recovery's own durable
/// writes succeed. The caller runs
/// [`DedupStore::recover_after_crash`] on the result.
pub fn rebuilt_store(
    topology: CrashTopology,
    config: DedupConfig,
    backend: Arc<MemWalBackend>,
) -> DedupStore {
    backend.set_crash_plan(None);
    let mut cluster = ClusterBuilder::new()
        .nodes(topology.nodes)
        .osds_per_node(topology.osds_per_node)
        .build();
    cluster.attach_wal(backend);
    DedupStore::with_default_pools(cluster, config)
}

/// Enumerates every crash point a completed reference run exposed:
/// one clean kill per durable write, plus a torn variant for the framed
/// writes where a half-written record is physically possible (appends and
/// segment writes; log truncation and MANIFEST replace are all-or-nothing
/// by construction — see `MemWalBackend`).
pub fn enumerate_crash_points(backend: &MemWalBackend) -> Vec<CrashPoint> {
    let mut points = Vec::new();
    for rec in backend.journal() {
        points.push(CrashPoint {
            ticket: rec.ticket,
            label: rec.label,
            torn: false,
        });
        if rec.label == "wal.append" || rec.label == "wal.write_segment" {
            points.push(CrashPoint {
                ticket: rec.ticket,
                label: rec.label,
                torn: true,
            });
        }
    }
    points
}

/// The crash plan that kills the backend at `point`.
pub fn plan_for(point: CrashPoint) -> CrashPlan {
    CrashPlan {
        after: point.ticket,
        torn: point.torn,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dedup_sim::SimTime;
    use dedup_store::{ClientId, ObjectName};

    #[test]
    fn reference_run_exposes_points_and_each_is_killable() {
        let config = DedupConfig::with_chunk_size(8 * 1024);
        let (s, backend) = wal_store(CrashTopology::default(), config.clone());
        let name = ObjectName::new("obj");
        let data = vec![1u8; 16 * 1024];
        let _ = s
            .write(ClientId(0), &name, 0, &data, SimTime::ZERO)
            .expect("write");
        let _ = s.flush_all(SimTime::from_secs(1)).expect("flush");
        let points = enumerate_crash_points(&backend);
        assert!(
            points.iter().any(|p| p.label == "wal.append"),
            "a write workload must log appends"
        );
        assert!(points.iter().any(|p| p.torn), "appends get torn variants");

        // Kill at the very first point, then recover to a clean store.
        let (s2, b2) = wal_store(CrashTopology::default(), config.clone());
        b2.set_crash_plan(Some(plan_for(points[0])));
        let r = s2.write(ClientId(0), &name, 0, &data, SimTime::ZERO);
        assert!(r.is_err(), "first durable write was killed");
        assert!(b2.crashed());

        let mut s3 = rebuilt_store(CrashTopology::default(), config, b2);
        let rep = s3
            .recover_after_crash(SimTime::from_secs(2))
            .expect("recover");
        assert_eq!(rep.wal.replay_errors, 0);
        assert!(s3.verify_references().expect("verify").is_empty());
        assert!(s3.find_leaked_chunks().expect("leaks").is_empty());
    }
}
