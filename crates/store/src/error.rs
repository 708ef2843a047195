//! Store error type.

use std::error::Error;
use std::fmt;

use dedup_erasure::ErasureError;
use dedup_placement::{OsdId, PoolId};

use crate::object::ObjectName;

/// Errors returned by cluster operations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum StoreError {
    /// The pool does not exist.
    NoSuchPool(PoolId),
    /// The object does not exist in the pool.
    NoSuchObject(PoolId, ObjectName),
    /// The OSD id is not registered in the cluster map.
    NoSuchOsd(OsdId),
    /// Too few devices are up to satisfy the pool's redundancy.
    InsufficientOsds {
        /// Devices the pool's rule needs.
        needed: usize,
        /// Devices currently available.
        available: usize,
    },
    /// A read past the end of an object.
    ReadOutOfRange {
        /// Requested offset.
        offset: u64,
        /// Requested length.
        len: u64,
        /// Actual object size.
        object_size: u64,
    },
    /// An object grew past the per-object size cap (guards runaway
    /// offsets), or a transaction's WAL frame past the `u32::MAX + 4`
    /// bytes its length header can describe.
    ObjectTooLarge {
        /// Size the operation would have produced.
        requested: u64,
        /// Configured cap, or the frame limit.
        cap: u64,
    },
    /// An erasure-coded object could not be read or rebuilt.
    Erasure(ErasureError),
    /// The durability plane failed a write — for the in-memory backend
    /// this is the simulated crash point — or found corrupt WAL state.
    Wal {
        /// Human-readable description of the failure.
        detail: String,
    },
    /// A replica or shard was missing or inconsistent during read/scrub.
    Inconsistent {
        /// Pool of the damaged object.
        pool: PoolId,
        /// Name of the damaged object.
        name: ObjectName,
        /// Human-readable description of the damage.
        detail: String,
    },
}

impl fmt::Display for StoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StoreError::NoSuchPool(p) => write!(f, "no such pool: {p}"),
            StoreError::NoSuchObject(p, n) => write!(f, "no such object: {p}/{n}"),
            StoreError::NoSuchOsd(o) => write!(f, "no such osd: {o}"),
            StoreError::InsufficientOsds { needed, available } => {
                write!(f, "need {needed} osds, only {available} available")
            }
            StoreError::ReadOutOfRange {
                offset,
                len,
                object_size,
            } => write!(
                f,
                "read [{offset}, {offset}+{len}) past object size {object_size}"
            ),
            StoreError::ObjectTooLarge { requested, cap } => {
                write!(f, "object would grow to {requested} bytes (cap {cap})")
            }
            StoreError::Erasure(e) => write!(f, "erasure coding: {e}"),
            StoreError::Wal { detail } => write!(f, "wal: {detail}"),
            StoreError::Inconsistent { pool, name, detail } => {
                write!(f, "inconsistent object {pool}/{name}: {detail}")
            }
        }
    }
}

impl Error for StoreError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            StoreError::Erasure(e) => Some(e),
            _ => None,
        }
    }
}

impl From<ErasureError> for StoreError {
    fn from(e: ErasureError) -> Self {
        StoreError::Erasure(e)
    }
}
