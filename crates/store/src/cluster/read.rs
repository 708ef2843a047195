//! The read side: the one replica accessor, logical-object reconstruction
//! (including the erasure-coded shard gather), and the client read ops.

use std::collections::BTreeMap;

use bytes::Bytes;
use dedup_erasure::ReedSolomon;
use dedup_placement::{OsdId, PoolId};
use dedup_sim::CostExpr;

use super::{Cluster, IoCtx, LogicalObject, Timed};
use crate::error::StoreError;
use crate::object::{ExtentList, ObjectName, Payload, StoredObject};
use crate::pool::Redundancy;

/// `data[offset .. offset + len]` and the bytes copied to read it, or `ReadOutOfRange`.
fn read_range(data: &ExtentList, offset: u64, len: u64) -> Result<(Bytes, u64), StoreError> {
    match offset.checked_add(len) {
        Some(end) if end <= data.len() => Ok(data.read(offset, len)),
        _ => Err(StoreError::ReadOutOfRange {
            offset,
            len,
            object_size: data.len(),
        }),
    }
}

impl Cluster {
    /// Runs `f` on the object's lowest-indexed replica or shard under that
    /// device's read guard, the only lock held. `Ok(None)`: no such object;
    /// `Err`: no such pool.
    pub(crate) fn with_replica<T>(
        &self,
        pool: PoolId,
        name: &ObjectName,
        f: impl FnOnce(&StoredObject) -> T,
    ) -> Result<Option<T>, StoreError> {
        self.state(pool)?;
        for osd in &self.osds {
            if let Some(obj) = osd.read().get(pool, name) {
                return Ok(Some(f(obj)));
            }
        }
        Ok(None)
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
        self.with_replica(pool, name, |obj| {
            let end = offset.saturating_add(len).min(obj.payload.object_len());
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
            out
        })?
        .ok_or_else(|| StoreError::NoSuchObject(pool, name.clone()))
    }

    /// Reconstructs the logical object (data + metadata) from `holders`,
    /// the devices currently holding a replica or shard of it. Returns
    /// `Ok(None)` if the object does not exist anywhere.
    pub(crate) fn load_logical(
        &self,
        pool: PoolId,
        name: &ObjectName,
        holders: &[OsdId],
    ) -> Result<Option<LogicalObject>, StoreError> {
        let st = self.state(pool)?;
        let Some(&first) = holders.first() else {
            return Ok(None);
        };
        // An owned snapshot of the first holder's copy (refcount bumps), so
        // no OSD lock is held while touching another device.
        let Some(src) = self.osd_store(first).get(pool, name).cloned() else {
            return Ok(None);
        };
        let data = match (&st.codec, src.payload) {
            (None, Payload::Full(b)) => b,
            (None, Payload::Shard { .. }) => {
                return Err(StoreError::Inconsistent {
                    pool,
                    name: name.clone(),
                    detail: "shard payload in replicated pool".into(),
                })
            }
            (Some(codec), _) => {
                let (shards, object_len) =
                    self.gather_shards(codec, pool, name, holders)
                        .map_err(|detail| StoreError::Inconsistent {
                            pool,
                            name: name.clone(),
                            detail,
                        })?;
                let data = shards[..codec.data_shards()].iter().cloned();
                self.metrics.bytes_copied.add(object_len as u64);
                if let Some(data) = data.collect::<Option<Vec<_>>>() {
                    // Healthy: the systematic data shards are the object.
                    let mut out = data.concat();
                    out.truncate(object_len);
                    ExtentList::from(out)
                } else {
                    let owned = shards.into_iter().map(|s| s.map(|b| b.to_vec()));
                    ExtentList::from(codec.decode_object(owned.collect(), object_len)?)
                }
            }
        };
        Ok(Some(LogicalObject {
            data,
            xattrs: src.xattrs,
            omap: src.omap,
            holes: src.holes,
        }))
    }

    /// An erasure-coded object's shards on `osds` by shard index (refcounted
    /// views), with the logical length they record. Payloads of the wrong
    /// shape or index are ignored (scrub reports them). `Err` describes a
    /// shard that disagrees with an earlier one on that length, or is not
    /// `shard_len` bytes long for it.
    pub(crate) fn gather_shards(
        &self,
        codec: &ReedSolomon,
        pool: PoolId,
        name: &ObjectName,
        osds: &[OsdId],
    ) -> Result<(Vec<Option<Bytes>>, usize), String> {
        let mut shards: Vec<Option<Bytes>> = vec![None; codec.total_shards()];
        let mut object_len = None;
        for &osd in osds {
            if let Some(Payload::Shard {
                index,
                object_len: ol,
                bytes,
            }) = self.osd_store(osd).get(pool, name).map(|o| &o.payload)
            {
                if let Some(slot @ None) = shards.get_mut(*index as usize) {
                    let ol = *ol as usize;
                    let expect = *object_len.get_or_insert(ol);
                    if ol != expect {
                        return Err(format!(
                            "shard {index} on {osd} records object length {ol}, not {expect}"
                        ));
                    }
                    if bytes.len() != codec.shard_len(ol) {
                        return Err(format!(
                            "shard {index} on {osd} holds {} bytes for object length {ol}",
                            bytes.len()
                        ));
                    }
                    *slot = Some(bytes.clone());
                }
            }
        }
        Ok((shards, object_len.unwrap_or(0)))
    }

    /// Reads `len` bytes at `offset`.
    ///
    /// On replicated pools the returned buffer is a zero-copy view of the
    /// stored replica unless the range spans pieces of unrelated parents
    /// or gaps; EC reads materialise the gathered object.
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
        let st = self.state(ctx.pool)?;
        let no_object = || StoreError::NoSuchObject(ctx.pool, name.clone());
        // Replicated pools read one replica without reconstructing the
        // logical object.
        let direct = match st.config.redundancy {
            Redundancy::Replicated(_) => self
                .with_replica(ctx.pool, name, |obj| match &obj.payload {
                    Payload::Full(data) => Some(read_range(data, offset, len)),
                    Payload::Shard { .. } => None,
                })?
                .ok_or_else(no_object)?,
            Redundancy::Erasure { .. } => None,
        };
        let slice = match direct {
            Some(read) => {
                let (slice, copied) = read?;
                self.metrics.bytes_copied.add(copied);
                self.metrics.bytes_shared.add(len - copied);
                slice
            }
            None => {
                let holders = self.holders(ctx.pool, name);
                let logical = self
                    .load_logical(ctx.pool, name, &holders)?
                    .ok_or_else(no_object)?;
                // One piece: a view of what `load_logical` gathered.
                read_range(&logical.data, offset, len)?.0
            }
        };

        let acting = self.acting(ctx.pool, name)?;
        let primary = acting[0];
        let primary_node = self.node_of(primary);
        let fetch = match st.config.redundancy {
            Redundancy::Replicated(_) => {
                self.label("disk_read", self.perf.disk_io(primary.0 as usize, len))
            }
            // The k data shards covering the range, then back to the client.
            Redundancy::Erasure { k, .. } => self.label(
                "ec_gather",
                self.ec_gather_cost(&acting[..k], len.div_ceil(k as u64).max(1)),
            ),
        };
        let cost = CostExpr::seq([
            self.perf.request_cpu(primary_node, len),
            fetch,
            self.label(
                "reply_xfer",
                self.perf.client_to_node(ctx.client, primary_node, len),
            ),
        ]);
        self.metrics.reads.inc();
        self.metrics.read_bytes.add(slice.len() as u64);
        Ok(Timed::new(slice, cost))
    }

    /// Reading `bytes` off each of `data_osds` in parallel and gathering
    /// them at the first: an EC read, or the read half of an EC overwrite.
    pub(super) fn ec_gather_cost(&self, data_osds: &[OsdId], bytes: u64) -> CostExpr {
        let primary_node = self.node_of(data_osds[0]);
        CostExpr::par(data_osds.iter().map(|&osd| {
            CostExpr::seq([
                self.perf.disk_io(osd.0 as usize, bytes),
                self.perf
                    .node_to_node(self.node_of(osd), primary_node, bytes),
            ])
        }))
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
        self.with_replica(pool, name, |obj| obj.payload.object_len())
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
        self.metadata_read(ctx, name, |obj| obj.xattrs.get(key).cloned())
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
        self.metadata_read(ctx, name, |obj| obj.omap.get(key).cloned())
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
        self.metadata_read(ctx, name, |obj| obj.omap.clone())
    }

    /// One metadata-sized read on the primary; every replica carries `f`'s.
    fn metadata_read<T>(
        &self,
        ctx: &IoCtx,
        name: &ObjectName,
        f: impl FnOnce(&StoredObject) -> T,
    ) -> Result<Timed<T>, StoreError> {
        const META_IO: u64 = 4096;
        let value = self
            .with_replica(ctx.pool, name, f)?
            .ok_or_else(|| StoreError::NoSuchObject(ctx.pool, name.clone()))?;
        let primary = self.acting(ctx.pool, name)?[0];
        let cost = self.label(
            "meta_read",
            CostExpr::seq([
                self.perf.disk_io(primary.0 as usize, META_IO),
                self.perf
                    .client_to_node(ctx.client, self.node_of(primary), META_IO),
            ]),
        );
        Ok(Timed::new(value, cost))
    }
}

#[cfg(test)]
mod tests {
    use std::sync::atomic::{AtomicBool, Ordering};

    use super::super::testutil::*;
    use super::*;

    #[test]
    fn read_out_of_range_errors() {
        let mut c = cluster();
        let ctx = rep_pool(&mut c);
        let name = ObjectName::new("obj");
        let _ = c.write_full(&ctx, &name, vec![0u8; 10]).expect("write");
        let err = c.read_at(&ctx, &name, 5, 10).expect_err("must fail");
        assert!(matches!(err, StoreError::ReadOutOfRange { .. }));
    }

    /// `offset + len` wrapping past `u64::MAX` used to pass the range check
    /// and panic in `Bytes::slice`.
    #[test]
    fn wrapped_read_range_is_out_of_range_not_a_panic() {
        let mut c = cluster();
        for ctx in [rep_pool(&mut c), ec_pool(&mut c)] {
            let name = ObjectName::new("obj");
            let _ = c.write_full(&ctx, &name, vec![1u8; 64]).expect("write");
            let err = c.read_at(&ctx, &name, u64::MAX, 2).expect_err("must fail");
            assert!(matches!(err, StoreError::ReadOutOfRange { .. }), "{err}");
            let ranges = c.resident_ranges(ctx.pool, &name, 8, u64::MAX);
            assert_eq!(ranges.expect("ranges"), vec![(8, 64, true)]);
        }
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

    /// Two readers loop over an object one writer keeps creating and
    /// deleting: every result is a value or a typed miss. The old accessor
    /// found a holder, re-locked it and `expect`ed the object still there.
    #[test]
    fn readers_racing_a_deleter_never_panic() {
        let mut c = cluster();
        let ctx = rep_pool(&mut c);
        let name = ObjectName::new("contended");
        let done = AtomicBool::new(false);
        std::thread::scope(|s| {
            let readers: Vec<_> = (0..2)
                .map(|_| {
                    s.spawn(|| {
                        let (mut hits, mut misses) = (0u64, 0u64);
                        while !done.load(Ordering::Relaxed) {
                            match c.read_at(&ctx, &name, 0, 32) {
                                Ok(t) => {
                                    assert_eq!(t.value, vec![7u8; 32]);
                                    hits += 1;
                                }
                                Err(StoreError::NoSuchObject(..))
                                | Err(StoreError::ReadOutOfRange { .. }) => misses += 1,
                                Err(e) => panic!("read_at: {e}"),
                            }
                            assert!(matches!(c.stat(ctx.pool, &name), Ok(None | Some(64))));
                            match c.get_xattr(&ctx, &name, "k") {
                                Ok(_) | Err(StoreError::NoSuchObject(..)) => {}
                                Err(e) => panic!("get_xattr: {e}"),
                            }
                        }
                        (hits, misses)
                    })
                })
                .collect();
            for _ in 0..2_000 {
                let _ = c.write_full(&ctx, &name, vec![7u8; 64]).expect("write");
                let _ = c.delete(&ctx, &name).expect("delete");
            }
            done.store(true, Ordering::Relaxed);
            for r in readers {
                let (hits, misses) = r.join().expect("reader panicked");
                assert!(hits + misses > 0);
            }
        });
    }
}
