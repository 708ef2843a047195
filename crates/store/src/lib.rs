//! A shared-nothing, scale-out object store data plane (the "RADOS-like"
//! substrate the paper's deduplication layer is built on).
//!
//! Everything the dedup design relies on from Ceph is reproduced here:
//!
//! * **Decentralized placement** — any object name maps to devices through
//!   `dedup-placement`'s hash/straw2 pipeline; no metadata server exists.
//! * **Pools** with independent redundancy policy: primary-copy
//!   [`Redundancy::Replicated`] or [`Redundancy::Erasure`] (Reed–Solomon),
//!   plus optional at-rest compression (the Btrfs feature of paper §6.4.3).
//! * **Self-contained objects** — data plus `xattr` and `omap` metadata
//!   carried with the object, so *any* extra state a layer above attaches
//!   (chunk maps, reference counts) is replicated, recovered, and rebalanced
//!   by the ordinary machinery with zero special cases.
//! * **Object transactions** — atomic multi-op updates to a single object,
//!   the consistency primitive of paper §4.6.
//! * **Failure handling** — OSD failure, recovery (re-replication /
//!   shard rebuild), re-addition with backfill, and scrub.
//!
//! Every I/O returns a [`Timed`] value carrying a [`dedup_sim::CostExpr`]
//! so callers can charge the virtual-time performance model.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod cluster;
mod error;
mod health;
mod metrics;
mod object;
mod osd;
mod perf;
mod pool;
mod recovery;
mod wal;

pub use cluster::{
    Cluster, ClusterBuilder, IoCtx, Timed, TxOp, WalCheckpointReport, WalManifestSummary,
    WalRecoveryReport,
};
pub use error::StoreError;
pub use health::{osd_health, wal_health};
pub use object::{ExtentList, ObjectName, Payload, RangeSet, StoredObject, PER_OBJECT_OVERHEAD};
pub use osd::{Osd, OsdStats};
pub use perf::{ClientId, PerfConfig, PerfTopology};
pub use pool::{PoolConfig, PoolUsage, Redundancy};
pub use recovery::RecoveryReport;
pub use wal::{
    crc32, decode_records, CrashPlan, MemWalBackend, WalBackend, WalManifest, WalRecord,
    WAL_MANIFEST_MAGIC, WAL_MANIFEST_VERSION, WAL_RECORD_VERSION,
};

pub use dedup_obs::Registry;
