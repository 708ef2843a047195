//! Global data deduplication for a scale-out distributed storage system.
//!
//! This crate is the primary contribution of the reproduced paper
//! (Oh et al., ICDCS 2018): a deduplication layer for a shared-nothing,
//! hash-placed object store that needs **no fingerprint index**, **no
//! external metadata**, and **no changes** to the store's availability
//! machinery.
//!
//! # The four ideas
//!
//! 1. **Double hashing** — a chunk's content fingerprint *is* its object
//!    name in the chunk pool; the store's ordinary placement hash then maps
//!    it to a device. Identical chunks collide by construction, so the
//!    "fingerprint index" is the cluster map itself ([`engine::DedupStore`]).
//! 2. **Self-contained objects** — the chunk map rides in the metadata
//!    object's omap ([`chunkmap::ChunkMapEntry`]) and reference counts ride
//!    in the chunk object's xattr/omap ([`refs`]), so replication, erasure
//!    coding, recovery, and rebalancing protect dedup state with zero
//!    special cases.
//! 3. **Post-processing with rate control** — writes land as cached+dirty
//!    chunks; a background engine flushes them, throttled against observed
//!    foreground IOPS by watermarks ([`ratecontrol::RateController`]).
//! 4. **Selective deduplication** — a HitSet-based cache manager
//!    ([`hitset::HitSet`]) keeps hot objects cached in the metadata pool
//!    and skips deduplicating them until they cool down.
//!
//! # Quick start
//!
//! ```
//! use dedup_core::{DedupConfig, DedupStore};
//! use dedup_store::{ClientId, ClusterBuilder, ObjectName};
//! use dedup_sim::SimTime;
//!
//! # fn main() -> Result<(), dedup_core::DedupError> {
//! let cluster = ClusterBuilder::new().nodes(4).osds_per_node(4).build();
//! let store = DedupStore::with_default_pools(cluster, DedupConfig::default());
//!
//! let name = ObjectName::new("hello");
//! let data = vec![42u8; 64 * 1024];
//! store.write(ClientId(0), &name, 0, &data, SimTime::ZERO)?;
//! store.flush_all(SimTime::from_secs(1))?;
//! let read = store.read(ClientId(0), &name, 0, data.len() as u64, SimTime::from_secs(2))?;
//! assert_eq!(read.value, data);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod baseline;
pub mod bloom;
pub mod chunkmap;
pub mod config;
pub mod crashpoint;
pub mod engine;
mod health;
pub mod hitset;
pub mod index;
pub mod queue;
pub mod ratecontrol;
pub mod refs;
pub mod service;
pub mod stats;

mod chunkpool;
mod error;
mod metrics;
mod pipeline;

pub use baseline::{global_ratio, local_ratio, RatioAnalysis};
pub use bloom::{BloomConfig, BloomFilter};
pub use chunkmap::{ChunkMapEntry, CHUNK_MAP_ENTRY_BYTES};
pub use config::{
    CachePolicy, CompressionConfig, CompressionCostModel, DedupConfig, DedupMode, HitSetConfig,
    TieredIndexConfig, Watermarks,
};
pub use crashpoint::{
    enumerate_crash_points, plan_for, rebuilt_store, wal_store, CrashPoint, CrashTopology,
};
pub use engine::{
    shard_index, CrashRecoveryReport, DedupStore, EngineStats, FlushReport, GcReport,
};
pub use error::DedupError;
pub use hitset::HitSet;
pub use index::{build_index, CandidateRef, ChunkIndex, IndexStats, TieredIndex};
pub use queue::{DirtyQueue, DirtyTicket};
pub use ratecontrol::RateController;
pub use refs::{BackRef, COMPRESS_XATTR, REFCOUNT_XATTR, REF_ENTRY_BYTES};
pub use service::DedupService;
pub use stats::{CapacitySample, CompressionReport, SpaceReport};
