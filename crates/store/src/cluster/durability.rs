//! The cluster's side of the durability plane: the write-ahead append at a
//! transaction's commit point, checkpoints, and replay. The frame codec
//! and the backends live in [`crate::wal`].

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

use dedup_obs::Severity;
use dedup_placement::{OsdId, PoolId};

use super::{Cluster, IoCtx, TxOp};
use crate::error::StoreError;
use crate::object::ObjectName;
use crate::wal::{decode_records, WalBackend, WalFrame, WalManifest, WalRecord};

/// The cluster's handle on the durability plane: the backend owning the
/// stable bytes, the global record sequence, the checkpoint epoch, and a
/// flag that suppresses logging while recovery replays (a replayed record
/// must not be re-appended).
pub(super) struct WalState {
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

impl WalState {
    /// The MANIFEST and every record of every segment it names; `None`
    /// before the first checkpoint. An undecodable MANIFEST or a missing or
    /// torn segment is an error — for replay and for the health probe.
    fn load_checkpoint(&self) -> Result<Option<(WalManifest, Vec<WalRecord>)>, StoreError> {
        let Some(buf) = self.backend.read_manifest() else {
            return Ok(None);
        };
        let manifest = WalManifest::decode(&buf)?;
        let mut records = Vec::new();
        for seg_name in &manifest.segments {
            let Some(seg) = self.backend.read_segment(seg_name) else {
                return Err(StoreError::Wal {
                    detail: format!("manifest names missing segment {seg_name}"),
                });
            };
            let (decoded, torn) = decode_records(&seg);
            if torn {
                return Err(StoreError::Wal {
                    detail: format!("checkpoint segment {seg_name} is corrupt"),
                });
            }
            records.extend(decoded);
        }
        Ok(Some((manifest, records)))
    }
}

impl Cluster {
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

    /// Appends one transaction record to the primary's log. Called at the
    /// commit point of `transact`, after every check that could still fail
    /// the transaction — so a logged record always replays cleanly. A
    /// no-op without an attached WAL and while recovery replays.
    pub(super) fn wal_append(
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
        let mut segments = Vec::with_capacity(self.pools.len());
        for &pool in self.pools.keys() {
            let mut seg = Vec::new();
            for name in self.list_objects(pool)? {
                let holders = self.holders(pool, &name);
                let Some(logical) = self.load_logical(pool, &name, &holders)? else {
                    continue;
                };
                WalFrame::new(0, pool, &name, &self.rebuild_ops(logical)).append_to(&mut seg);
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
        self.emit(Severity::Info, "cluster.wal", "checkpoint", || {
            vec![
                ("epoch", report.epoch.to_string()),
                ("objects", report.objects.to_string()),
                ("segment_bytes", report.segment_bytes.to_string()),
            ]
        });
        Ok(report)
    }

    /// Rebuilds the data plane from stable storage: applies the
    /// MANIFEST's checkpoint segments, then merges the per-OSD log tails
    /// in sequence order and replays them through the ordinary transact
    /// path (with logging suspended). Torn tails are dropped by CRC and
    /// counted. The cluster must have been rebuilt with the same topology
    /// and pools as the one that crashed.
    ///
    /// Replay drives the normal I/O paths, so cluster throughput counters
    /// include replayed work; the returned report counts it separately.
    ///
    /// # Errors
    ///
    /// Fails on corrupt checkpoint state (a segment named by the MANIFEST
    /// that is missing or undecodable); no-op without an attached WAL.
    pub fn wal_recover(&mut self) -> Result<WalRecoveryReport, StoreError> {
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
        self.emit(Severity::Info, "cluster.wal", "recovered", || {
            vec![
                ("checkpoint_records", report.checkpoint_records.to_string()),
                (
                    "log_records_replayed",
                    report.log_records_replayed.to_string(),
                ),
                ("replay_errors", report.replay_errors.to_string()),
                ("torn_tails_dropped", report.torn_tails_dropped.to_string()),
            ]
        });
        Ok(report)
    }

    /// The body of [`Cluster::wal_recover`], run with logging suspended.
    fn wal_replay(&self, w: &WalState) -> Result<WalRecoveryReport, StoreError> {
        let mut report = WalRecoveryReport::default();
        let (epoch, last_seq, checkpoint) = match w.load_checkpoint()? {
            Some((manifest, records)) => (manifest.epoch, manifest.last_seq, records),
            None => (0, 1, Vec::new()),
        };
        let mut tail: Vec<WalRecord> = Vec::new();
        for osd in 0..self.osds.len() {
            let (records, torn) = decode_records(&w.backend.read_log(osd));
            if torn {
                report.torn_tails_dropped += 1;
                self.emit(Severity::Warn, "cluster.wal", "torn_tail_dropped", || {
                    vec![("osd", osd.to_string())]
                });
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
        Some(match w.load_checkpoint() {
            Ok(None) => Ok(WalManifestSummary::default()),
            Ok(Some((manifest, _))) => Ok(WalManifestSummary {
                epoch: manifest.epoch,
                last_seq: manifest.last_seq,
                segments: manifest.segments.len() as u64,
            }),
            Err(StoreError::Wal { detail }) => Err(detail),
            Err(e) => Err(e.to_string()),
        })
    }
}

#[cfg(test)]
mod tests {
    use bytes::Bytes;

    use super::*;
    use crate::cluster::ClusterBuilder;
    use crate::pool::PoolConfig;
    use crate::wal::MemWalBackend;

    /// Build a WAL-attached cluster with a replicated and an EC pool, plus
    /// the shared backend so a test can crash/recover against it.
    fn wal_cluster() -> (Cluster, Arc<MemWalBackend>, IoCtx, IoCtx) {
        let mut c = ClusterBuilder::new().nodes(4).osds_per_node(4).build();
        let rep = IoCtx::new(c.create_pool(PoolConfig::replicated("rep", 2)));
        let ec = IoCtx::new(c.create_pool(PoolConfig::erasure("ec", 2, 1)));
        let backend = MemWalBackend::shared();
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
        let punch_e = TxOp::PunchHole {
            offset: 4096,
            len: 1024,
        };
        let _ = c.transact(&ec, &e, vec![punch_e]).expect("punch e");

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
            c2.get_omap(&rep2, &a, "backref").expect("omap").value,
            Some(Bytes::copy_from_slice(b"x"))
        );
        assert_eq!(
            c2.resident_ranges(rep2.pool, &a, 0, 2048)
                .expect("ranges a"),
            vec![(0, 1024, true), (1024, 2048, false)]
        );
        assert_eq!(
            c2.read_full(&rep2, &b).expect("read b").value,
            vec![5u8; 100]
        );
        // The checkpointed hole is a hole again, not resident zeros.
        let re = c2.read_full(&ec2, &e).expect("read e").value;
        assert!(re[..4096].iter().chain(&re[5120..]).all(|&x| x == 9));
        assert!(re[4096..5120].iter().all(|&x| x == 0));
        assert_eq!(
            c2.resident_ranges(ec2.pool, &e, 0, 8192).expect("ranges e"),
            vec![(0, 4096, true), (4096, 5120, false), (5120, 8192, true)]
        );
        assert_eq!(c2.usage(ec2.pool), c.usage(ec.pool));
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
