//! Object transactions, the one path every mutation takes: **summarise →
//! choose layout → cost → log → apply**. Everything that can fail comes
//! before the write-ahead append; only the last step differs by layout.
//! [`Cluster::summarise`] is the only code that sizes a [`TxOp`] and
//! [`apply_ops`] the only code that executes one.

use std::collections::BTreeMap;

use bytes::Bytes;
use dedup_placement::OsdId;
use dedup_sim::CostExpr;

use super::{Cluster, IoCtx, Located, LogicalObject, PoolState, Timed};
use crate::error::StoreError;
use crate::object::{ExtentList, ObjectName, Payload, RangeSet, StoredObject};
use crate::pool::Redundancy;
use crate::wal::{frame_len, WAL_FRAME_MAX};

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
    /// (used by cache eviction in the dedup layer). Clipped to the object.
    PunchHole {
        /// Start of the hole.
        offset: u64,
        /// Length of the hole.
        len: u64,
    },
    /// Deletes the object.
    Remove,
}

/// What a transaction's ops add up to, before anything is touched.
struct TxSummary {
    /// Payload bytes carried (`WriteFull` + `Write`).
    data_bytes: u64,
    /// Metadata bytes carried (keys + values, 16 per punched hole).
    meta_bytes: u64,
    removes: bool,
    /// No whole-object op (`WriteFull`, `Truncate`, `Remove`).
    in_place: bool,
    /// The object's length once the ops have run.
    len: u64,
}

/// Where a hole of `len` bytes at `offset` ends in an `object_len`-byte object.
fn punch_end(offset: u64, len: u64, object_len: u64) -> u64 {
    offset.saturating_add(len).min(object_len)
}

/// Executes `ops`, already sized by [`Cluster::summarise`], against one
/// copy of an object — a replica where it lies or a private logical copy —
/// and returns the payload bytes it memcpy'd. Data ops work on pieces
/// ([`ExtentList`]): `WriteFull` and `Write` adopt the caller's buffer, a
/// punch or truncate drops what it covers, so only a compaction copies.
/// `Remove` is the commit's business: it drops every copy.
fn apply_ops(
    ops: &[TxOp],
    data: &mut ExtentList,
    xattrs: &mut BTreeMap<String, Bytes>,
    omap: &mut BTreeMap<String, Bytes>,
    holes: &mut RangeSet,
) -> u64 {
    let mut copied = 0;
    for op in ops {
        match op {
            TxOp::WriteFull(buf) => {
                holes.clear();
                *data = buf.clone().into();
            }
            TxOp::Write { offset, data: buf } => {
                copied += data.write(*offset, buf.clone());
                holes.remove(*offset, *offset + buf.len() as u64);
            }
            TxOp::Truncate(len) => {
                let old = data.len();
                data.truncate(*len);
                holes.truncate(*len);
                if *len > old {
                    // Zero-extension is sparse.
                    holes.insert(old, *len);
                }
            }
            TxOp::PunchHole { offset, len } => {
                let end = punch_end(*offset, *len, data.len());
                if *offset < end {
                    copied += data.punch(*offset, end);
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
            TxOp::Remove => {}
        }
    }
    copied
}

impl Cluster {
    /// The end of `[offset, offset + len)`.
    ///
    /// # Errors
    ///
    /// [`StoreError::ObjectTooLarge`] if it passes the per-object size cap
    /// (an end past `u64::MAX` is reported as `u64::MAX`).
    pub fn check_extent(&self, offset: u64, len: u64) -> Result<u64, StoreError> {
        let end = offset.saturating_add(len);
        if end > self.object_size_cap {
            return Err(StoreError::ObjectTooLarge {
                requested: end,
                cap: self.object_size_cap,
            });
        }
        Ok(end)
    }

    /// Sizes and validates `ops` against an object now `old_len` bytes
    /// long. Beside the object's extent, the transaction's WAL frame must
    /// fit its `u32` length header: clones of one buffer can carry more
    /// than 4 GiB to an object well under the cap.
    fn summarise(
        &self,
        name: &ObjectName,
        ops: &[TxOp],
        old_len: u64,
    ) -> Result<TxSummary, StoreError> {
        let mut sum = TxSummary {
            data_bytes: 0,
            meta_bytes: 0,
            removes: false,
            in_place: true,
            len: old_len,
        };
        for op in ops {
            match op {
                TxOp::WriteFull(data) => {
                    sum.data_bytes += data.len() as u64;
                    sum.len = data.len() as u64;
                    sum.in_place = false;
                }
                TxOp::Write { offset, data } => {
                    let end = self.check_extent(*offset, data.len() as u64)?;
                    sum.data_bytes += data.len() as u64;
                    sum.len = sum.len.max(end);
                }
                TxOp::Truncate(len) => {
                    sum.len = self.check_extent(0, *len)?;
                    sum.in_place = false;
                }
                TxOp::PunchHole { offset, len } => {
                    // A punch that clips to nothing changes nothing.
                    if *offset < punch_end(*offset, *len, sum.len) {
                        sum.meta_bytes += 16;
                    }
                }
                TxOp::SetXattr(k, v) | TxOp::SetOmap(k, v) => {
                    sum.meta_bytes += (k.len() + v.len()) as u64;
                }
                TxOp::RemoveXattr(_) | TxOp::RemoveOmap(_) => {}
                TxOp::Remove => {
                    sum.removes = true;
                    sum.in_place = false;
                }
            }
        }
        self.check_extent(0, sum.len)?;
        let frame = frame_len(name, ops);
        if frame > WAL_FRAME_MAX {
            return Err(StoreError::ObjectTooLarge {
                requested: frame,
                cap: WAL_FRAME_MAX,
            });
        }
        Ok(sum)
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
    /// would exceed the size cap, or EC decode fails. A failed transaction
    /// was neither logged nor applied to any replica, and is not counted.
    ///
    /// Takes `&self`: device maps are locked individually, never two at
    /// once. Concurrent transactions on *distinct* objects are safe; the
    /// caller must serialize transactions touching the same object (the
    /// dedup engine does this with per-object shard locks).
    pub fn transact(
        &self,
        ctx: &IoCtx,
        name: &ObjectName,
        ops: Vec<TxOp>,
    ) -> Result<Timed<()>, StoreError> {
        let (pool, ops) = (ctx.pool, ops.as_slice());
        let st = self.state(pool)?;
        let acting = self.acting(pool, name)?;
        let at = self.locate(pool, name);
        let sum = self.summarise(name, ops, at.len)?;

        // In place needs whole uncompressed copies sitting exactly on the
        // acting set (or no object yet) and no whole-object op.
        let in_place = sum.in_place
            && matches!(st.config.redundancy, Redundancy::Replicated(_))
            && !st.config.compression
            && (at.holders.is_empty()
                || (at.all_full
                    && at.holders.len() == acting.len()
                    && acting.iter().all(|osd| at.holders.contains(osd))));
        let replicas = if in_place || sum.removes {
            Vec::new()
        } else {
            let mut logical = self
                .load_logical(pool, name, &at.holders)?
                .unwrap_or_default();
            let l = &mut logical;
            let copied = apply_ops(ops, &mut l.data, &mut l.xattrs, &mut l.omap, &mut l.holes);
            self.metrics.bytes_copied.add(copied);
            debug_assert_eq!(logical.data.len(), sum.len);
            self.encode_replicas(st, &logical, acting.len())?
        };
        let cost = self.tx_cost(ctx, st, &acting, &sum, &at);

        // Write-ahead: the record reaches stable storage before any
        // replica mutates, and only after every check that could still
        // fail the transaction — a crash here loses the op entirely (the
        // caller saw an error), never half of it.
        self.wal_append(pool, name, acting[0], ops)?;

        // Commit: nothing below can fail.
        if sum.data_bytes > 0 {
            self.metrics.writes.inc();
            self.metrics.write_bytes.add(sum.data_bytes);
        }
        if sum.removes {
            self.metrics.deletes.inc();
            for &osd in &at.holders {
                self.osd_store_mut(osd).remove(pool, name);
            }
        } else if in_place {
            for &osd in &acting {
                let mut store = self.osd_store_mut(osd);
                let obj = store.get_or_insert_with(pool, name, || {
                    StoredObject::new(Payload::Full(ExtentList::new()))
                });
                // Checked above; only a caller racing two transactions on
                // one object can make it differ, and scrub reports that.
                let Payload::Full(data) = &mut obj.payload else {
                    continue;
                };
                let copied = apply_ops(ops, data, &mut obj.xattrs, &mut obj.omap, &mut obj.holes);
                let len = data.len();
                obj.stored_bytes = len - obj.holes.total().min(len);
                self.metrics.bytes_copied.add(copied);
            }
        } else {
            // Replace replicas everywhere the object previously was: stale
            // holders outside the acting set would otherwise resurrect old
            // data during recovery.
            for &osd in at.holders.iter().filter(|osd| !acting.contains(osd)) {
                self.osd_store_mut(osd).remove(pool, name);
            }
            for (&osd, obj) in acting.iter().zip(replicas) {
                self.metrics.bytes_shared.add(obj.payload.stored_len());
                self.osd_store_mut(osd).put(pool, name.clone(), obj);
            }
        }
        Ok(Timed::new((), cost))
    }

    /// `data` as contiguous bytes, for the consumers that need them so: the
    /// EC encoder, at-rest compression and [`Cluster::rebuild_ops`]. A
    /// gather of more than one piece is counted as copied.
    fn flatten(&self, data: &ExtentList) -> Bytes {
        let (flat, copied) = data.flatten();
        self.metrics.bytes_copied.add(copied);
        flat
    }

    /// The synthetic transaction that rebuilds `logical` from scratch
    /// (checkpoint segments, recovery, repair). Holes are re-punched
    /// explicitly: materializing them as resident zeros would silently
    /// break dedup redirection and space accounting after a recovery.
    pub(crate) fn rebuild_ops(&self, logical: LogicalObject) -> Vec<TxOp> {
        let (xattrs, omap) = (logical.xattrs.into_iter(), logical.omap.into_iter());
        let mut ops = vec![TxOp::WriteFull(self.flatten(&logical.data))];
        ops.extend(logical.holes.iter().map(|(start, end)| TxOp::PunchHole {
            offset: start,
            len: end - start,
        }));
        ops.extend(xattrs.map(|(k, v)| TxOp::SetXattr(k, v)));
        ops.extend(omap.map(|(k, v)| TxOp::SetOmap(k, v)));
        ops
    }

    /// The replicas or shards holding `logical`, in acting order.
    ///
    /// Zero-copy fan-out: replicated pools store one clone of the piece
    /// list per OSD (refcount bumps), and EC pools slice all `k + m` shards
    /// out of one contiguous stripe buffer, so no replica or shard owns a
    /// private payload allocation.
    fn encode_replicas(
        &self,
        st: &PoolState,
        logical: &LogicalObject,
        width: usize,
    ) -> Result<Vec<StoredObject>, StoreError> {
        let len = logical.data.len();
        let hole_bytes = logical.holes.total().min(len);
        let replica = |payload: Payload, resident: u64| {
            let stored_bytes = match (&payload, st.config.compression) {
                (_, false) => resident,
                (Payload::Full(data), true) => {
                    dedup_compress::compress(&self.flatten(data)).len() as u64
                }
                (Payload::Shard { bytes, .. }, true) => {
                    dedup_compress::compress(bytes).len() as u64
                }
            };
            StoredObject {
                payload,
                xattrs: logical.xattrs.clone(),
                omap: logical.omap.clone(),
                holes: logical.holes.clone(),
                stored_bytes,
            }
        };
        Ok(match &st.codec {
            None => vec![replica(Payload::Full(logical.data.clone()), len - hole_bytes); width],
            Some(codec) => {
                let (stripe, shard_len) =
                    codec.encode_object_striped(&self.flatten(&logical.data))?;
                let stripe = Bytes::from(stripe);
                let hole_share = hole_bytes / codec.data_shards() as u64;
                let resident = (shard_len as u64).saturating_sub(hole_share);
                (0..codec.total_shards())
                    .map(|i| {
                        let shard = Payload::Shard {
                            index: i as u8,
                            object_len: len,
                            bytes: stripe.slice(i * shard_len..(i + 1) * shard_len),
                        };
                        replica(shard, resident)
                    })
                    .collect()
            }
        })
    }

    /// A transaction's virtual-time cost, whichever way it commits.
    fn tx_cost(
        &self,
        ctx: &IoCtx,
        st: &PoolState,
        acting: &[OsdId],
        sum: &TxSummary,
        at: &Located,
    ) -> CostExpr {
        let primary_node = self.node_of(acting[0]);
        let payload = sum.data_bytes + sum.meta_bytes + 64; // 64B of message header
        let client_leg = self.label(
            "client_xfer",
            self.perf.client_to_node(ctx.client, primary_node, payload),
        );
        // Primary → every acting device: `bytes` over the wire, then to disk.
        let fanout = |bytes: u64| {
            CostExpr::par(acting.iter().map(|&osd| {
                CostExpr::seq([
                    self.perf
                        .node_to_node(primary_node, self.node_of(osd), bytes),
                    self.perf.disk_io(osd.0 as usize, bytes),
                ])
            }))
        };
        if sum.removes {
            // Deletion: metadata-sized fan-out.
            return CostExpr::seq([client_leg, self.label("delete_fanout", fanout(64))]);
        }
        let request_cpu = self.perf.request_cpu(primary_node, sum.data_bytes);
        match st.config.redundancy {
            Redundancy::Replicated(_) => {
                let compress_cpu = if st.config.compression {
                    self.perf.cpu_work(primary_node, sum.data_bytes)
                } else {
                    CostExpr::Nop
                };
                CostExpr::seq([
                    client_leg,
                    request_cpu,
                    self.label("compress", compress_cpu),
                    self.label("rep_fanout", fanout(payload)),
                ])
            }
            Redundancy::Erasure { k, m } => {
                // Partial update of an existing object forces a
                // read-modify-write of the stripes (paper §6.4.1's EC
                // latency penalty).
                let (existed, old_len) = (!at.holders.is_empty(), at.len);
                let full_rewrite = sum.data_bytes >= old_len.max(1) && old_len == 0;
                let rmw = if existed && !full_rewrite {
                    self.ec_gather_cost(&acting[..k], (old_len / k as u64).max(1))
                } else {
                    CostExpr::Nop
                };
                let shard_out = sum.len.div_ceil(k as u64).max(1) + sum.meta_bytes + 64;
                // Parity math on the primary's CPU.
                let ec_cpu = self
                    .perf
                    .cpu_work(primary_node, sum.len * m as u64 / k as u64);
                CostExpr::seq([
                    client_leg,
                    request_cpu,
                    self.label("ec_rmw", rmw),
                    self.label("ec_parity", ec_cpu),
                    self.label("ec_fanout", fanout(shard_out)),
                ])
            }
        }
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

    /// Deletes an object.
    ///
    /// # Errors
    ///
    /// Fails for unknown pools; deleting an absent object is a no-op.
    pub fn delete(&self, ctx: &IoCtx, name: &ObjectName) -> Result<Timed<()>, StoreError> {
        self.transact(ctx, name, vec![TxOp::Remove])
    }
}

#[cfg(test)]
mod tests {
    use super::super::testutil::*;
    use super::*;
    use crate::cluster::ClusterBuilder;
    use crate::pool::PoolConfig;
    use dedup_sim::SimTime;

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

    /// Every payload memcpy in the store reaches `engine.bytes_copied`, and
    /// nothing else does: in-place writes adopt the callers' buffers, while
    /// a read gather, an EC gather, a flatten of several pieces and a
    /// compaction each count what they copy.
    #[test]
    fn every_store_copy_is_counted() {
        let mut c = cluster();
        let (rep, ec) = (rep_pool(&mut c), ec_pool(&mut c));
        let copied = c.registry().counter("engine.bytes_copied");
        let name = ObjectName::new("obj");
        let _ = c.write_at(&rep, &name, 0, vec![1u8; 100]).expect("write");
        let _ = c.write_at(&rep, &name, 100, vec![2u8; 100]).expect("write");
        let _ = c.read_at(&rep, &name, 10, 20).expect("read");
        assert_eq!(copied.get(), 0, "in-place writes and a one-piece read");
        let _ = c.read_at(&rep, &name, 90, 20).expect("read");
        assert_eq!(copied.get(), 20, "read gather across two buffers");

        // EC partial write: gather the object (100), flatten its three
        // pieces for the encoder (100).
        let _ = c.write_full(&ec, &name, vec![3u8; 100]).expect("write");
        assert_eq!(copied.get(), 20, "a whole write is one piece");
        let _ = c.write_at(&ec, &name, 50, vec![4u8; 10]).expect("write");
        assert_eq!(copied.get(), 220);

        // One piece past the bound: each of the two replicas compacts its
        // 65 one-byte pieces.
        let frag = ObjectName::new("fragmented");
        for i in 0..=crate::object::MAX_PIECES as u64 {
            let _ = c.write_at(&rep, &frag, 2 * i, vec![9u8]).expect("write");
        }
        assert_eq!(copied.get(), 220 + 2 * 65);
    }

    /// A WAL-attached cluster: "nothing was logged" is `wal.appends`.
    fn logged_cluster() -> Cluster {
        let mut c = cluster();
        c.attach_wal(crate::wal::MemWalBackend::shared());
        c
    }

    /// Every replica or shard of `name`, device by device.
    fn replicas(c: &Cluster, ctx: &IoCtx, name: &ObjectName) -> Vec<Option<StoredObject>> {
        (0..16)
            .map(|i| c.osd_store(OsdId(i)).get(ctx.pool, name).cloned())
            .collect()
    }

    /// `offset + len` used to wrap past the cap check, reach the log, and
    /// panic in the interpreter with the first replica already resized.
    #[test]
    fn write_wrapping_past_u64_max_is_refused_before_the_log() {
        let mut c = logged_cluster();
        for ctx in [rep_pool(&mut c), ec_pool(&mut c)] {
            let name = ObjectName::new("obj");
            let _ = c.write_full(&ctx, &name, vec![1u8; 64]).expect("write");
            let (before, appends) = (replicas(&c, &ctx, &name), c.metrics.wal_appends.get());
            let err = c
                .write_at(&ctx, &name, u64::MAX - 10, vec![7u8; 100])
                .expect_err("must fail");
            let StoreError::ObjectTooLarge { requested, .. } = err else {
                panic!("{err}");
            };
            assert_eq!(requested, u64::MAX);
            assert_eq!(c.metrics.wal_appends.get(), appends);
            assert_eq!(replicas(&c, &ctx, &name), before);
            assert_eq!(c.read_full(&ctx, &name).expect("read").value, vec![1u8; 64]);
        }
    }

    /// 4 097 writes cloning one 1 MiB buffer stay under the object cap but
    /// not under the WAL frame's `u32` length: the record used to be
    /// acknowledged with a wrapped length, and recovery then read that log
    /// as torn from there on, losing the write and every later record.
    #[test]
    fn record_past_the_wal_frame_limit_is_refused_before_the_log() {
        use crate::wal::{decode_records, MemWalBackend, WalBackend};
        let mut c = cluster();
        let wal = MemWalBackend::shared();
        c.attach_wal(wal.clone());
        let mib = Bytes::from(vec![7u8; 1 << 20]);
        for ctx in [rep_pool(&mut c), ec_pool(&mut c)] {
            let name = ObjectName::new("obj");
            let _ = c.write_full(&ctx, &name, vec![1u8; 64]).expect("write");
            let (before, appends) = (replicas(&c, &ctx, &name), c.metrics.wal_appends.get());
            let write = TxOp::Write {
                offset: 0,
                data: mib.clone(),
            };
            let err = c
                .transact(&ctx, &name, vec![write; 4097])
                .expect_err("must fail");
            let StoreError::ObjectTooLarge { requested, cap } = err else {
                panic!("{err}");
            };
            assert_eq!(cap, WAL_FRAME_MAX);
            assert!(requested > cap, "{requested}");
            assert_eq!(c.metrics.wal_appends.get(), appends);
            assert_eq!(replicas(&c, &ctx, &name), before);
            let _ = c.write_full(&ctx, &name, vec![2u8; 64]).expect("write");
        }
        // Every log decodes whole, through the write after each refusal.
        let mut records = 0;
        for osd in 0..16 {
            let log = wal.read_log(osd);
            let (recs, whole) = decode_records(&log);
            assert_eq!(whole, log.len(), "osd {osd}");
            records += recs.len();
        }
        assert_eq!(records as u64, c.metrics.wal_appends.get());
        assert_eq!(records, 4);
    }

    /// `offset + len` past `u64::MAX` was a silent no-op in release and an
    /// overflow panic in debug; it means "to the end".
    #[test]
    fn punch_hole_reaching_past_u64_max_punches_to_the_end() {
        let mut c = cluster();
        for ctx in [rep_pool(&mut c), ec_pool(&mut c)] {
            let name = ObjectName::new("obj");
            let _ = c.write_full(&ctx, &name, vec![1u8; 64]).expect("write");
            let punch = TxOp::PunchHole {
                offset: 8,
                len: u64::MAX,
            };
            let _ = c.transact(&ctx, &name, vec![punch]).expect("punch");
            let ranges = c.resident_ranges(ctx.pool, &name, 0, 64).expect("ranges");
            assert_eq!(ranges, vec![(0, 8, true), (8, 64, false)]);
            let data = c.read_full(&ctx, &name).expect("read").value;
            assert_eq!(&data[..8], &[1u8; 8]);
            assert_eq!(&data[8..], &[0u8; 56]);
        }
    }

    /// The in-place path used to append the record and only then meet the
    /// shard: the caller got an error for a transaction that would replay.
    #[test]
    fn shard_in_a_replicated_pool_is_refused_before_the_log() {
        let mut c = logged_cluster();
        let ctx = rep_pool(&mut c);
        let name = ObjectName::new("obj");
        let _ = c.write_full(&ctx, &name, vec![1u8; 64]).expect("write");
        let victim = c.holders(ctx.pool, &name)[0];
        if let Some(obj) = c.osd_store_mut(victim).get_mut(ctx.pool, &name) {
            obj.payload = Payload::Shard {
                index: 0,
                object_len: 64,
                bytes: vec![1u8; 32].into(),
            };
        }
        let (before, appends) = (replicas(&c, &ctx, &name), c.metrics.wal_appends.get());
        let set = TxOp::SetXattr("k".into(), vec![1].into());
        let err = c.transact(&ctx, &name, vec![set]).expect_err("must fail");
        assert!(matches!(err, StoreError::Inconsistent { .. }), "{err}");
        assert_eq!(c.metrics.wal_appends.get(), appends);
        assert_eq!(replicas(&c, &ctx, &name), before);
    }

    #[test]
    fn only_committed_transactions_are_counted() {
        let mut c = ClusterBuilder::new().object_size_cap(1024).build();
        let ctx = rep_pool(&mut c);
        let name = ObjectName::new("obj");
        let err = c.write_full(&ctx, &name, vec![1u8; 4096]).expect_err("cap");
        assert!(matches!(err, StoreError::ObjectTooLarge { .. }));
        let remove_then_grow = vec![TxOp::Remove, TxOp::Truncate(4096)];
        let _ = c.transact(&ctx, &name, remove_then_grow).expect_err("cap");
        let m = &c.metrics;
        assert_eq!(
            (m.writes.get(), m.write_bytes.get(), m.deletes.get()),
            (0, 0, 0)
        );
        let _ = c.write_full(&ctx, &name, vec![1u8; 512]).expect("write");
        let _ = c.delete(&ctx, &name).expect("delete");
        assert_eq!(
            (m.writes.get(), m.write_bytes.get(), m.deletes.get()),
            (1, 512, 1)
        );
    }
}
