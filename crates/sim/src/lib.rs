//! Discrete-event virtual-time kernel for the global-dedup storage simulator.
//!
//! The data plane of the reproduced system (`dedup-store`, `dedup-core`)
//! moves real bytes through real data structures; this crate supplies the
//! *timing plane*: a virtual clock, FIFO queueing [`Resource`]s (disks, NICs,
//! CPUs) with fixed latency and bandwidth, and [`CostExpr`] trees describing
//! how an operation uses those resources sequentially and in parallel.
//!
//! Executing a cost expression against a [`ResourcePool`] yields a virtual
//! completion time; concurrent operations contend for the same resources, so
//! queueing effects (e.g. background deduplication interfering with
//! foreground I/O) fall out naturally. [`FlowEngine`] runs many cost
//! expressions concurrently, interleaving their legs through one
//! [`EventQueue`]; the bench crate's drivers build every figure's closed
//! loop on it.
//! [`LatencyStats`] keeps exact latency samples for the figures'
//! percentiles.
//!
//! # Example
//!
//! ```
//! use dedup_sim::{ResourcePool, ResourceSpec, CostExpr, SimTime};
//!
//! let mut pool = ResourcePool::new();
//! let disk = pool.register(ResourceSpec::disk("osd.0", 500 * 1024 * 1024, 80_000));
//! let cost = CostExpr::transfer(disk, 4096);
//! let done = pool.execute(SimTime::ZERO, &cost);
//! assert!(done > SimTime::ZERO);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod cost;
mod driver;
mod flow;
mod fsync;
mod resource;
mod series;
mod stats;
mod time;
mod trace;

pub use cost::CostExpr;
pub use driver::{EventQueue, ScheduledEvent};
pub use flow::{FlowCompletion, FlowEngine};
pub use fsync::{FsyncRecord, FsyncSequencer, FSYNC_JOURNAL_CAP};
pub use resource::{Resource, ResourceId, ResourcePool, ResourceSpec};
pub use series::{TimeBin, TimeSeries};
pub use stats::LatencyStats;
pub use time::{SimDuration, SimTime};
pub use trace::{LegKind, LegRecord, TraceSink};
