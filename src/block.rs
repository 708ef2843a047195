//! A block-device client striped over objects — the paper's actual I/O
//! path (its evaluation drives Ceph through KRBD, §6.1).
//!
//! A [`BlockDevice`] presents a flat, fixed-size byte range and maps it
//! onto `size / object_size` backing objects named
//! `<device>.<object index>`, exactly like an RBD image. It works over
//! either backend:
//!
//! * a raw cluster pool (the "Original" system), or
//! * a [`dedup_core::DedupStore`] (the "Proposed" system),
//!
//! through the [`BlockBackend`] trait.
//!
//! # Example
//!
//! ```
//! use global_dedup::block::BlockDevice;
//! use global_dedup::core::{DedupConfig, DedupStore};
//! use global_dedup::store::{ClientId, ClusterBuilder};
//! use global_dedup::sim::SimTime;
//!
//! # fn main() -> Result<(), global_dedup::block::BlockError> {
//! let cluster = ClusterBuilder::new().build();
//! let store = DedupStore::with_default_pools(cluster, DedupConfig::default());
//! let mut dev = BlockDevice::new(store, "vol0", 8 << 20, 1 << 20, ClientId(0));
//!
//! // A write spanning two backing objects.
//! let data = vec![42u8; 128 * 1024];
//! dev.write((1 << 20) - 64 * 1024, &data, SimTime::ZERO)?;
//! let (read, _cost) = dev.read((1 << 20) - 64 * 1024, data.len() as u64, SimTime::ZERO)?;
//! assert_eq!(read, data);
//! # Ok(())
//! # }
//! ```

use std::error::Error;
use std::fmt;

use dedup_core::{DedupError, DedupStore};
use dedup_sim::{CostExpr, SimTime};
use dedup_store::{ClientId, Cluster, IoCtx, ObjectName, StoreError};

/// Errors from the block layer.
#[derive(Debug)]
pub enum BlockError {
    /// Access past the end of the device.
    OutOfRange {
        /// Requested offset.
        offset: u64,
        /// Requested length.
        len: u64,
        /// Device size.
        device_size: u64,
    },
    /// The backing store failed.
    Store(StoreError),
    /// The dedup layer failed.
    Dedup(DedupError),
}

impl fmt::Display for BlockError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BlockError::OutOfRange {
                offset,
                len,
                device_size,
            } => write!(
                f,
                "access [{offset}, {offset}+{len}) past device size {device_size}"
            ),
            BlockError::Store(e) => write!(f, "store: {e}"),
            BlockError::Dedup(e) => write!(f, "dedup: {e}"),
        }
    }
}

impl Error for BlockError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            BlockError::Store(e) => Some(e),
            BlockError::Dedup(e) => Some(e),
            BlockError::OutOfRange { .. } => None,
        }
    }
}

impl From<StoreError> for BlockError {
    fn from(e: StoreError) -> Self {
        BlockError::Store(e)
    }
}

impl From<DedupError> for BlockError {
    fn from(e: DedupError) -> Self {
        BlockError::Dedup(e)
    }
}

/// An object store a [`BlockDevice`] can stripe over.
pub trait BlockBackend {
    /// Writes `data` at `offset` of the named backing object.
    ///
    /// # Errors
    ///
    /// Propagates backend failures.
    fn write_object(
        &mut self,
        client: ClientId,
        name: &ObjectName,
        offset: u64,
        data: &[u8],
        now: SimTime,
    ) -> Result<CostExpr, BlockError>;

    /// Reads `len` bytes at `offset` of the named backing object. Reads of
    /// never-written ranges return zeros (block devices are zero-filled).
    ///
    /// # Errors
    ///
    /// Propagates backend failures.
    fn read_object(
        &mut self,
        client: ClientId,
        name: &ObjectName,
        offset: u64,
        len: u64,
        now: SimTime,
    ) -> Result<(Vec<u8>, CostExpr), BlockError>;
}

/// Raw-pool backend: `(cluster, pool ioctx)` — the "Original" system.
impl BlockBackend for (Cluster, IoCtx) {
    fn write_object(
        &mut self,
        client: ClientId,
        name: &ObjectName,
        offset: u64,
        data: &[u8],
        now: SimTime,
    ) -> Result<CostExpr, BlockError> {
        let _ = now;
        let ctx = self.1.with_client(client);
        Ok(self.0.write_at(&ctx, name, offset, data.to_vec())?.cost)
    }

    fn read_object(
        &mut self,
        client: ClientId,
        name: &ObjectName,
        offset: u64,
        len: u64,
        now: SimTime,
    ) -> Result<(Vec<u8>, CostExpr), BlockError> {
        let _ = now;
        let ctx = self.1.with_client(client);
        let size = self.0.stat(self.1.pool, name)?.unwrap_or(0);
        if offset >= size {
            return Ok((vec![0u8; len as usize], CostExpr::Nop));
        }
        let readable = len.min(size - offset);
        let t = self.0.read_at(&ctx, name, offset, readable)?;
        let mut out = t.value.to_vec();
        out.resize(len as usize, 0);
        Ok((out, t.cost))
    }
}

/// Dedup backend — the "Proposed" system.
impl BlockBackend for DedupStore {
    fn write_object(
        &mut self,
        client: ClientId,
        name: &ObjectName,
        offset: u64,
        data: &[u8],
        now: SimTime,
    ) -> Result<CostExpr, BlockError> {
        Ok(self.write(client, name, offset, data, now)?.cost)
    }

    fn read_object(
        &mut self,
        client: ClientId,
        name: &ObjectName,
        offset: u64,
        len: u64,
        now: SimTime,
    ) -> Result<(Vec<u8>, CostExpr), BlockError> {
        let size = self
            .cluster()
            .stat(self.metadata_pool(), name)?
            .unwrap_or(0);
        if offset >= size {
            return Ok((vec![0u8; len as usize], CostExpr::Nop));
        }
        let readable = len.min(size - offset);
        let t = self.read(client, name, offset, readable, now)?;
        let mut out = t.value.to_vec();
        out.resize(len as usize, 0);
        Ok((out, t.cost))
    }
}

/// A fixed-size virtual block device striped over backing objects.
pub struct BlockDevice<B> {
    backend: B,
    name: String,
    size: u64,
    object_size: u32,
    client: ClientId,
}

impl<B: BlockBackend> BlockDevice<B> {
    /// Creates a device of `size` bytes striped over `object_size` objects.
    ///
    /// # Panics
    ///
    /// Panics if `size` or `object_size` is zero.
    pub fn new(
        backend: B,
        name: impl Into<String>,
        size: u64,
        object_size: u32,
        client: ClientId,
    ) -> Self {
        assert!(size > 0, "device size must be positive");
        assert!(object_size > 0, "object size must be positive");
        BlockDevice {
            backend,
            name: name.into(),
            size,
            object_size,
            client,
        }
    }

    /// Device size in bytes.
    pub fn size(&self) -> u64 {
        self.size
    }

    /// Striping unit (backing object size).
    pub fn object_size(&self) -> u32 {
        self.object_size
    }

    /// The wrapped backend.
    pub fn backend(&self) -> &B {
        &self.backend
    }

    /// The wrapped backend, mutably.
    pub fn backend_mut(&mut self) -> &mut B {
        &mut self.backend
    }

    /// Consumes the device, returning the backend.
    pub fn into_backend(self) -> B {
        self.backend
    }

    fn check(&self, offset: u64, len: u64) -> Result<(), BlockError> {
        if offset + len > self.size {
            return Err(BlockError::OutOfRange {
                offset,
                len,
                device_size: self.size,
            });
        }
        Ok(())
    }

    fn object_name(&self, index: u64) -> ObjectName {
        ObjectName::new(format!("{}.{:08x}", self.name, index))
    }

    /// Splits `[offset, offset + len)` into per-object `(index, intra
    /// offset, length)` pieces.
    fn pieces(&self, offset: u64, len: u64) -> Vec<(u64, u64, u64)> {
        let os = self.object_size as u64;
        let mut out = Vec::new();
        let mut cur = offset;
        let end = offset + len;
        while cur < end {
            let idx = cur / os;
            let intra = cur % os;
            let take = (os - intra).min(end - cur);
            out.push((idx, intra, take));
            cur += take;
        }
        out
    }

    /// Writes `data` at device `offset`; spans objects transparently.
    /// Per-object writes proceed in parallel (independent placements).
    ///
    /// # Errors
    ///
    /// Fails on out-of-range access or backend errors.
    pub fn write(
        &mut self,
        offset: u64,
        data: &[u8],
        now: SimTime,
    ) -> Result<CostExpr, BlockError> {
        self.check(offset, data.len() as u64)?;
        let mut costs = Vec::new();
        let mut consumed = 0usize;
        for (idx, intra, take) in self.pieces(offset, data.len() as u64) {
            let name = self.object_name(idx);
            let slice = &data[consumed..consumed + take as usize];
            costs.push(
                self.backend
                    .write_object(self.client, &name, intra, slice, now)?,
            );
            consumed += take as usize;
        }
        Ok(CostExpr::par(costs))
    }

    /// Reads `len` bytes at device `offset`; never-written space is zeros.
    ///
    /// # Errors
    ///
    /// Fails on out-of-range access or backend errors.
    pub fn read(
        &mut self,
        offset: u64,
        len: u64,
        now: SimTime,
    ) -> Result<(Vec<u8>, CostExpr), BlockError> {
        self.check(offset, len)?;
        let mut out = Vec::with_capacity(len as usize);
        let mut costs = Vec::new();
        for (idx, intra, take) in self.pieces(offset, len) {
            let name = self.object_name(idx);
            let (bytes, cost) = self
                .backend
                .read_object(self.client, &name, intra, take, now)?;
            out.extend_from_slice(&bytes);
            costs.push(cost);
        }
        Ok((out, CostExpr::par(costs)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dedup_core::{CachePolicy, DedupConfig};
    use dedup_store::{ClusterBuilder, PoolConfig};

    fn raw_device() -> BlockDevice<(Cluster, IoCtx)> {
        let mut cluster = ClusterBuilder::new().build();
        let pool = cluster.create_pool(PoolConfig::replicated("data", 2));
        BlockDevice::new(
            (cluster, IoCtx::new(pool)),
            "vol",
            4 << 20,
            1 << 20,
            ClientId(0),
        )
    }

    fn dedup_device() -> BlockDevice<DedupStore> {
        let cluster = ClusterBuilder::new().build();
        let store = DedupStore::with_default_pools(
            cluster,
            DedupConfig::with_chunk_size(32 * 1024).cache_policy(CachePolicy::EvictAll),
        );
        BlockDevice::new(store, "vol", 4 << 20, 1 << 20, ClientId(0))
    }

    fn patterned(len: usize, seed: u64) -> Vec<u8> {
        let mut state = seed | 1;
        (0..len)
            .map(|_| {
                state = state.wrapping_mul(6364136223846793005).wrapping_add(99);
                (state >> 33) as u8
            })
            .collect()
    }

    #[test]
    fn pieces_split_at_object_boundaries() {
        let dev = raw_device();
        let pieces = dev.pieces((1 << 20) - 10, 30);
        assert_eq!(pieces, vec![(0, (1 << 20) - 10, 10), (1, 0, 20)]);
        let pieces = dev.pieces(0, 3 << 20);
        assert_eq!(pieces.len(), 3);
    }

    #[test]
    fn spanning_write_read_round_trip_raw() {
        let mut dev = raw_device();
        let data = patterned(256 * 1024, 1);
        let offset = (1 << 20) - 100_000;
        let _ = dev.write(offset, &data, SimTime::ZERO).expect("write");
        let (got, cost) = dev
            .read(offset, data.len() as u64, SimTime::ZERO)
            .expect("read");
        assert_eq!(got, data);
        assert!(!cost.is_nop());
    }

    #[test]
    fn unwritten_space_reads_zero() {
        let mut dev = raw_device();
        let (got, _) = dev.read(2 << 20, 4096, SimTime::ZERO).expect("read");
        assert_eq!(got, vec![0u8; 4096]);
        // Partially written object: tail still zero.
        let _ = dev.write(0, &[7u8; 100], SimTime::ZERO).expect("write");
        let (got, _) = dev.read(0, 200, SimTime::ZERO).expect("read");
        assert_eq!(&got[..100], &[7u8; 100]);
        assert_eq!(&got[100..], &[0u8; 100]);
    }

    #[test]
    fn out_of_range_rejected() {
        let mut dev = raw_device();
        assert!(matches!(
            dev.write((4 << 20) - 10, &[0u8; 20], SimTime::ZERO),
            Err(BlockError::OutOfRange { .. })
        ));
        assert!(matches!(
            dev.read(4 << 20, 1, SimTime::ZERO),
            Err(BlockError::OutOfRange { .. })
        ));
    }

    #[test]
    fn dedup_backend_deduplicates_identical_volumes_regions() {
        let mut dev = dedup_device();
        // The same 128 KiB written at two device offsets in different
        // backing objects.
        let data = patterned(128 * 1024, 3);
        let _ = dev.write(0, &data, SimTime::ZERO).expect("write");
        let _ = dev.write(2 << 20, &data, SimTime::ZERO).expect("write");
        let _ = dev
            .backend_mut()
            .flush_all(SimTime::from_secs(10))
            .expect("flush");
        let report = dev.backend().space_report().expect("report");
        assert_eq!(
            report.chunk_objects,
            (128 * 1024) / (32 * 1024),
            "identical regions share chunks across backing objects"
        );
        let (got, _) = dev
            .read(2 << 20, data.len() as u64, SimTime::from_secs(20))
            .expect("read");
        assert_eq!(got, data);
    }

    #[test]
    fn reference_model_against_flat_buffer() {
        let mut dev = dedup_device();
        let mut model = vec![0u8; 4 << 20];
        let mut seed = 11u64;
        for round in 0..40 {
            seed = seed.wrapping_mul(6364136223846793005).wrapping_add(round);
            let offset = (seed >> 16) % ((4 << 20) - 70_000);
            let len = 1 + (seed >> 40) % 65_536;
            let data = patterned(len as usize, seed);
            let _ = dev
                .write(offset, &data, SimTime::from_secs(round))
                .expect("write");
            model[offset as usize..(offset + len) as usize].copy_from_slice(&data);
            if round % 10 == 9 {
                let _ = dev
                    .backend_mut()
                    .flush_all(SimTime::from_secs(1_000 + round))
                    .expect("flush");
            }
        }
        for check in 0..20 {
            seed = seed.wrapping_mul(6364136223846793005).wrapping_add(check);
            let offset = (seed >> 16) % ((4 << 20) - 70_000);
            let len = 1 + (seed >> 40) % 65_536;
            let (got, _) = dev
                .read(offset, len, SimTime::from_secs(5_000))
                .expect("read");
            assert_eq!(got, model[offset as usize..(offset + len) as usize]);
        }
    }
}
