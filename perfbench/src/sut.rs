//! The system under test: one production-shaped `DedupService`, its
//! schedule-derived virtual clock, and the reads of its public counters.

use std::collections::BTreeMap;

use dedup_core::{CachePolicy, DedupConfig, DedupService, DedupStore, TieredIndexConfig};
use dedup_sim::SimTime;
use dedup_store::{Cluster, ClusterBuilder, MemWalBackend, PoolConfig};

use crate::span::{Recorder, SpanId};

/// Chunk size of every workload (the paper's default).
pub const CHUNK_BYTES: u32 = 32 << 10;
/// Virtual gap between two closed-loop ops: 4 000 virtual ops/s, inside
/// the rate controller's mid band like the paced steps.
pub const OP_GAP_NS: u64 = 250_000;
/// Virtual time one settle round moves forward: more than the rate
/// controller's 1 s window, so the first round already runs unthrottled.
const SETTLE_ROUND_NS: u64 = 2_000_000_000;
/// Settle rounds before the backlog counts as wedged: the HitSet forgets
/// an object after 8 one-second intervals, so hot objects cool by round 5.
const SETTLE_MAX_ROUNDS: usize = 32;

/// What differs between the workloads' stores.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SutSpec {
    pub cache_policy: CachePolicy,
    /// Chunk pool erasure-coded 2+1 instead of replicated ×2.
    pub ec_chunk_pool: bool,
}

/// The engine configuration every workload shares.
pub fn dedup_config(cache_policy: CachePolicy) -> DedupConfig {
    DedupConfig::with_chunk_size(CHUNK_BYTES)
        .compress()
        .tiered_fingerprint()
        .tiered_index(TieredIndexConfig::default())
        .flush_batch_size(8)
        .cache_policy(cache_policy)
}

pub fn metadata_pool() -> PoolConfig {
    PoolConfig::replicated("metadata", 2)
}

pub fn chunk_pool(ec: bool) -> PoolConfig {
    if ec {
        PoolConfig::erasure("chunks", 2, 1)
    } else {
        PoolConfig::replicated("chunks", 2)
    }
}

/// 4 nodes × 4 OSDs; every workload's store has the WAL attached.
pub fn build_cluster(wal: bool) -> Cluster {
    let mut cluster = ClusterBuilder::new().nodes(4).osds_per_node(4).build();
    if wal {
        cluster.attach_wal(MemWalBackend::shared());
    }
    cluster
}

pub fn build_store(spec: SutSpec) -> DedupStore {
    DedupStore::new(
        build_cluster(true),
        metadata_pool(),
        chunk_pool(spec.ec_chunk_pool),
        dedup_config(spec.cache_policy),
    )
}

/// The store's one virtual clock. Stamps come from op indices and due
/// times, never from the wall clock, and never move backwards.
#[derive(Debug, Default)]
pub struct Clock {
    now_ns: u64,
}

impl Clock {
    /// Reserves `ops` stamps `gap_ns` apart and returns the first; op `k`
    /// of the phase is stamped `base + k * gap_ns` by whichever client
    /// thread runs it.
    pub fn reserve(&mut self, ops: u64, gap_ns: u64) -> u64 {
        let base = self.now_ns;
        self.now_ns += ops * gap_ns;
        base
    }

    pub fn advance(&mut self, ns: u64) -> SimTime {
        self.now_ns += ns;
        SimTime::from_nanos(self.now_ns)
    }
}

/// One repetition's handles: the service, its virtual clock, the span
/// recorder with the repetition's root span, and the closed-loop client
/// count.
pub struct Session<'a> {
    pub svc: &'a DedupService,
    pub clock: Clock,
    pub rec: &'a mut Recorder,
    pub root: SpanId,
    pub clients: usize,
}

/// Ticks and drains with no foreground until nothing is dirty. Returns the
/// wall seconds spent and whether the backlog emptied.
pub fn settle(session: &mut Session<'_>) -> (f64, bool) {
    let Session {
        svc, clock, rec, ..
    } = session;
    let start = rec.now_ns();
    let root = rec.open("settle", session.root);
    let mut empty = false;
    for _ in 0..SETTLE_MAX_ROUNDS {
        let now = clock.advance(SETTLE_ROUND_NS);
        let t0 = rec.now_ns();
        svc.tick(now);
        let t1 = rec.now_ns();
        svc.drain();
        let t2 = rec.now_ns();
        rec.record("tick", root, t0, t1);
        rec.record("drain", root, t1, t2);
        if svc.with_store(|s| s.dirty_len()) == 0 {
            empty = true;
            break;
        }
    }
    rec.close(root);
    ((rec.now_ns() - start) as f64 / 1e9, empty)
}

/// Registry series read at phase boundaries. Counters read their value,
/// histograms the sum of what they recorded.
const COUNTERS: &[&str] = &[
    "cluster.write_bytes",
    "wal.append_bytes",
    "engine.write_bytes",
    "engine.bytes_copied",
    "engine.fp.full_calls",
    "engine.fp.sig_calls",
    "engine.fp.full_hash_bytes",
    "engine.fp.skipped_unique",
    "engine.compress.attempted_chunks",
    "engine.compress.attempted_bytes",
    "engine.compress.raw_fallbacks",
    "engine.compress.decompressed_chunks",
    "engine.compress.decompressed_bytes",
    "engine.chunkmap.bloom_hits",
    "engine.chunkmap.bloom_misses",
    "engine.cache_hit_chunks",
    "engine.redirected_chunks",
    "engine.promotions",
    "engine.hot_skips",
    "engine.flush.chunks_flushed",
    "engine.flush.chunks_deduped",
    "engine.flush.chunks_created",
    "engine.flush.stage_conflicts",
    "service.worker.ticks",
    "service.worker.coalesced_ticks",
    "service.worker.flushes",
    "rate.admitted",
    "rate.denied",
];
const HISTOGRAM_SUMS: &[&str] = &[
    "engine.flush.stage_wall_ns",
    "engine.flush.fingerprint_wall_ns",
    "engine.flush.commit_wall_ns",
];

/// The store's public counters at one instant.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Snapshot(BTreeMap<&'static str, u64>);

impl Snapshot {
    pub fn take(store: &DedupStore) -> Snapshot {
        let r = store.registry();
        let mut map = BTreeMap::new();
        for &name in COUNTERS {
            map.insert(name, r.counter(name).get());
        }
        for &name in HISTOGRAM_SUMS {
            map.insert(name, r.histogram(name).sum());
        }
        Snapshot(map)
    }

    /// # Panics
    ///
    /// Panics on a series this module does not read (a bug here).
    pub fn get(&self, name: &str) -> u64 {
        *self
            .0
            .get(name)
            .unwrap_or_else(|| panic!("series {name} is not in the snapshot list"))
    }

    /// What was added since `earlier`.
    pub fn since(&self, earlier: &Snapshot) -> Snapshot {
        Snapshot(
            self.0
                .iter()
                .map(|(&name, &v)| (name, v - earlier.0.get(name).copied().unwrap_or(0)))
                .collect(),
        )
    }
}

/// What the final checks of a repetition found.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct EndState {
    /// Checks made and checks failed (dangling references, leaked chunks,
    /// worker errors, a backlog that would not drain).
    pub checks: u64,
    pub failed: u64,
    pub gc_ms: f64,
    /// `SpaceReport::raw_bytes / logical_bytes` after the GC.
    pub space_amp: f64,
    pub index_resident_bytes: u64,
    pub index_cold_entries: u64,
    pub bloom_fill_ppm: f64,
    pub shard_wait_read_p99_ns: u64,
    pub shard_wait_write_p99_ns: u64,
}

/// Runs the end-state oracle on a settled store: reference scrub, GC, leak
/// scan, worker errors, space report.
pub fn end_state(session: &mut Session<'_>, settled: bool) -> EndState {
    let (svc, parent) = (session.svc, session.root);
    let rec = &mut *session.rec;
    let mut end = EndState {
        checks: 4,
        ..EndState::default()
    };
    if !settled {
        end.failed += 1;
    }
    if svc.worker_errors() != 0 {
        end.failed += 1;
    }
    let t0 = rec.now_ns();
    let gc = svc.with_store(|s| s.gc_chunk_pool().map(|t| t.value));
    let t1 = rec.now_ns();
    rec.record("gc", parent, t0, t1);
    end.gc_ms = (t1 - t0) as f64 / 1e6;
    svc.with_store(|s| {
        let dangling = s.verify_references().map(|v| v.len()).unwrap_or(usize::MAX);
        let leaked = s
            .find_leaked_chunks()
            .map(|v| v.len())
            .unwrap_or(usize::MAX);
        if gc.is_err() || dangling != 0 {
            end.failed += 1;
        }
        if leaked != 0 {
            end.failed += 1;
        }
        if let Ok(space) = s.space_report() {
            end.space_amp = space.raw_bytes as f64 / space.logical_bytes.max(1) as f64;
        } else {
            end.failed += 1;
        }
        end.index_resident_bytes = s.index_resident_bytes();
        end.bloom_fill_ppm = s.bloom_fill_ratio() * 1e6;
        let r = s.registry();
        end.index_cold_entries = r.gauge("engine.index.cold_entries").get().max(0) as u64;
        let wait = |mode| {
            r.histogram_with("service.shard.lock_wait_ns", &[("mode", mode)])
                .quantile(0.99)
        };
        end.shard_wait_read_p99_ns = wait("read");
        end.shard_wait_write_p99_ns = wait("write");
    });
    end
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clock_is_monotone_across_phases() {
        let mut clock = Clock::default();
        let a = clock.reserve(10, OP_GAP_NS);
        let settle = clock.advance(SETTLE_ROUND_NS).as_nanos();
        let b = clock.reserve(5, OP_GAP_NS);
        assert_eq!(a, 0);
        assert!(settle > a + 9 * OP_GAP_NS, "settle is after the last put");
        assert_eq!(b, settle, "the next phase starts where the settle ended");
        assert!(clock.advance(0).as_nanos() >= b + 4 * OP_GAP_NS);
    }

    #[test]
    fn snapshot_deltas_subtract_per_series() {
        let store = build_store(SutSpec {
            cache_policy: CachePolicy::EvictAll,
            ec_chunk_pool: false,
        });
        let before = Snapshot::take(&store);
        let _ = store
            .write(
                dedup_store::ClientId(0),
                &dedup_store::ObjectName::new("x"),
                0,
                vec![1u8; 4096],
                SimTime::ZERO,
            )
            .expect("write");
        let delta = Snapshot::take(&store).since(&before);
        assert_eq!(delta.get("engine.write_bytes"), 4096);
        assert!(delta.get("wal.append_bytes") > 4096, "WAL is attached");
        assert_eq!(delta.get("rate.admitted"), 0);
    }
}
