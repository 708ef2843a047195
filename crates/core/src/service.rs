//! A thread-safe service wrapper around [`DedupStore`] with a background
//! deduplication worker — the embedding surface a real deployment uses.
//!
//! [`DedupStore`]'s foreground ops and its background flush take `&self`
//! and serialize per object through the engine's namespace shards (see
//! [`shard_index`](crate::shard_index) and DESIGN.md §9).
//! [`DedupService`] shares one store between any number of client threads
//! behind a [`parking_lot::RwLock`]: foreground reads/writes/truncates/
//! deletes and the worker's flush passes take the *read* side — so ops on
//! distinct objects run concurrently, gated only by their shard locks —
//! while whole-store exclusion ([`DedupService::with_store`]
//! administration, shutdown) takes the *write* side. The paper's
//! background engine (§4.4.1) runs on a dedicated worker thread woken by
//! virtual-time ticks. Rate control and hotness still apply.
//!
//! The worker calls [`DedupStore::dedup_tick`] until a pass makes no
//! progress. Each pass stages, fingerprints and commits one batch (see
//! `crate::pipeline`); stage and commit lock only the object they work
//! on, so foreground ops keep flowing throughout.
//!
//! Ticks reach the worker through a one-slot **inbox** (one mutex, one
//! condvar): the slot holds the latest tick not yet taken, so a tick
//! posted while another is pending replaces it and is counted as
//! `service.worker.coalesced_ticks`. A burst of ticks therefore costs at
//! most one pass beyond the one running — each pass already drains the
//! queue until idle, so the earlier ticks' passes would be pure overhead.
//! [`DedupService::drain`] waits until every tick posted before it, by
//! any handle, has been served.
//!
//! Handles are cloneable; every clone drives the same store and worker.
//! The worker stops once the last handle goes away (or
//! [`DedupService::shutdown`] is called on it), after serving the tick
//! still pending. Engine errors the worker hits are never discarded: they
//! are counted (see [`DedupService::worker_errors`], and the
//! `service.worker.errors` metric) and the most recent one is kept for
//! [`DedupService::last_worker_error`].
//!
//! # Example
//!
//! ```
//! use dedup_core::{DedupConfig, DedupService};
//! use dedup_store::{ClientId, ClusterBuilder, ObjectName};
//! use dedup_sim::SimTime;
//!
//! # fn main() -> Result<(), dedup_core::DedupError> {
//! let cluster = ClusterBuilder::new().build();
//! let store = dedup_core::DedupStore::with_default_pools(cluster, DedupConfig::default());
//! let service = DedupService::start(store);
//!
//! service.write(ClientId(0), &ObjectName::new("x"), 0, &[7u8; 1024], SimTime::ZERO)?;
//! service.tick(SimTime::from_secs(60)); // drive the background worker
//! service.drain();                      // wait for it to go idle
//! let store = service.shutdown();       // recover exclusive ownership
//! assert_eq!(store.dirty_len(), 0);
//! # Ok(())
//! # }
//! ```

use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::thread::JoinHandle;

use dedup_obs::{Counter, Severity};
use dedup_sim::SimTime;
use dedup_store::{ClientId, ObjectName, Timed};
use parking_lot::RwLock;

use crate::engine::DedupStore;
use crate::error::DedupError;

/// Coalesced ticks in a single pass at or above which the worker flags a
/// tick flood: the driver is posting virtual-time ticks far faster than
/// passes complete.
const TICK_FLOOD_THRESHOLD: u64 = 64;

/// The worker's one-slot inbox.
#[derive(Default)]
struct Inbox {
    /// The latest tick not yet taken by the worker.
    tick: Option<SimTime>,
    /// Ticks the pending one replaced.
    collapsed: u64,
    /// Ticks posted so far.
    posted: u64,
    /// Ticks served so far: every tick up to this count has had its pass.
    served: u64,
    /// Set when the last handle goes away or the worker thread exits.
    closed: bool,
}

/// What the handles share with the worker thread.
struct Shared {
    inbox: Mutex<Inbox>,
    /// Signalled on every inbox change; the worker and draining handles
    /// wait on it.
    changed: Condvar,
    coalesced: Counter,
    errors: Counter,
    last_error: parking_lot::Mutex<Option<DedupError>>,
}

impl Shared {
    /// Locks the inbox. Nothing panics while holding it, and a poisoned
    /// lock is recovered anyway, as `parking_lot` does.
    fn inbox(&self) -> MutexGuard<'_, Inbox> {
        self.inbox.lock().unwrap_or_else(PoisonError::into_inner)
    }

    fn close(&self) {
        self.inbox().closed = true;
        self.changed.notify_all();
    }

    /// Blocks until a tick is pending and takes it, with the number of
    /// ticks it replaced and the posted count it serves; `None` once the
    /// inbox is closed and empty.
    fn take_tick(&self) -> Option<(SimTime, u64, u64)> {
        let mut inbox = self
            .changed
            .wait_while(self.inbox(), |i| i.tick.is_none() && !i.closed)
            .unwrap_or_else(PoisonError::into_inner);
        let now = inbox.tick.take()?;
        Some((now, std::mem::take(&mut inbox.collapsed), inbox.posted))
    }
}

/// Closes the inbox when the worker thread exits, by panic too, so no
/// `drain` waits on a thread that is gone.
struct CloseOnExit<'a>(&'a Shared);

impl Drop for CloseOnExit<'_> {
    fn drop(&mut self) {
        self.0.close();
    }
}

/// The worker thread, owned by every handle together: dropping the last
/// handle closes the inbox and joins the thread.
struct Worker {
    shared: Arc<Shared>,
    thread: Option<JoinHandle<()>>,
}

impl Drop for Worker {
    fn drop(&mut self) {
        self.shared.close();
        if let Some(thread) = self.thread.take() {
            let _ = thread.join();
        }
    }
}

/// Shared, thread-safe deduplication service. Cloning the handle is cheap;
/// all clones talk to the same store and worker, and the worker stops when
/// the last handle is dropped (or [`DedupService::shutdown`] is called on
/// it).
#[derive(Clone)]
pub struct DedupService {
    /// Declared before `store` because fields drop in declaration order:
    /// the last handle joins the worker, whose thread then drops its share
    /// of the store, before the handle drops its own. So the store is freed
    /// on the caller's thread, as a store without a service is; freed on
    /// the worker thread, it changed which allocator arenas the next
    /// store's threads reuse and slowed its flush.
    worker: Arc<Worker>,
    store: Arc<RwLock<DedupStore>>,
}

impl DedupService {
    /// Wraps `store` and spawns the background deduplication worker.
    pub fn start(store: DedupStore) -> Self {
        let store = Arc::new(RwLock::new(store));
        // The worker publishes its progress into the stack's shared
        // registry, so snapshots show background activity too.
        let (shared, ticks, flushes, tracer, events) = {
            let s = store.read();
            let r = s.registry();
            let shared = Arc::new(Shared {
                inbox: Mutex::default(),
                changed: Condvar::new(),
                coalesced: r.counter("service.worker.coalesced_ticks"),
                errors: r.counter("service.worker.errors"),
                last_error: parking_lot::Mutex::new(None),
            });
            (
                shared,
                r.counter("service.worker.ticks"),
                r.counter("service.worker.flushes"),
                s.tracer().cloned(),
                s.events().cloned(),
            )
        };
        let (worker_shared, worker_store) = (Arc::clone(&shared), Arc::clone(&store));
        let thread = std::thread::Builder::new()
            .name("dedup-worker".into())
            .spawn(move || {
                let shared = &*worker_shared;
                let _exit = CloseOnExit(shared);
                while let Some((now, collapsed, serves)) = shared.take_tick() {
                    ticks.inc();
                    if collapsed >= TICK_FLOOD_THRESHOLD {
                        if let Some(ev) = &events {
                            ev.emit_at(
                                now,
                                Severity::Warn,
                                "service.worker",
                                "tick_flood",
                                vec![("coalesced", collapsed.to_string())],
                            );
                        }
                    }
                    // Each worker tick is a wall-clock op on this thread's
                    // track; the engine adds stage, fingerprint and commit
                    // spans inside it.
                    let tick_ctx = tracer.as_ref().map(|t| {
                        t.begin_wall_op("service.tick", &format!("now_s={:.3}", now.as_secs_f64()))
                    });
                    // Drain as much as rate control admits at this
                    // instant, one pipeline pass per iteration.
                    loop {
                        let pass = worker_store.read().dedup_tick(now);
                        match pass {
                            Ok(None) => break,
                            Ok(Some(t)) => {
                                flushes.inc();
                                // A pass that neither flushed chunks nor
                                // retired clean queue entries (e.g. a lone
                                // hot object being requeued over and over)
                                // makes no progress: looping on it would
                                // spin this thread forever.
                                if t.value.chunks_flushed == 0 && t.value.clean_retired == 0 {
                                    break;
                                }
                            }
                            Err(e) => {
                                // An engine failure must not vanish with
                                // the tick: record it where callers (and
                                // metrics snapshots) can see it; the
                                // worker stays alive for later ticks.
                                shared.errors.inc();
                                if let Some(ev) = &events {
                                    ev.emit(
                                        Severity::Error,
                                        "service.worker",
                                        "error",
                                        vec![("detail", e.to_string())],
                                    );
                                }
                                *shared.last_error.lock() = Some(e);
                                break;
                            }
                        }
                    }
                    if let (Some(t), Some(ctx)) = (&tracer, tick_ctx) {
                        t.finish_wall_op(ctx);
                    }
                    shared.inbox().served = serves;
                    shared.changed.notify_all();
                }
            })
            .expect("spawn dedup worker");
        DedupService {
            worker: Arc::new(Worker {
                shared,
                thread: Some(thread),
            }),
            store,
        }
    }

    /// Engine errors the background worker has hit so far: the store's
    /// `service.worker.errors` counter.
    pub fn worker_errors(&self) -> u64 {
        self.worker.shared.errors.get()
    }

    /// The most recent engine error the background worker hit, if any.
    pub fn last_worker_error(&self) -> Option<DedupError> {
        self.worker.shared.last_error.lock().clone()
    }

    /// Writes through the shared store (foreground path): takes the store
    /// read lock, so writes to objects in different shards run in
    /// parallel.
    ///
    /// # Errors
    ///
    /// Propagates engine errors.
    pub fn write(
        &self,
        client: ClientId,
        name: &ObjectName,
        offset: u64,
        data: impl Into<bytes::Bytes>,
        now: SimTime,
    ) -> Result<Timed<()>, DedupError> {
        self.store.read().write(client, name, offset, data, now)
    }

    /// Reads through the shared store (foreground path, store read lock).
    ///
    /// # Errors
    ///
    /// Propagates engine errors.
    pub fn read(
        &self,
        client: ClientId,
        name: &ObjectName,
        offset: u64,
        len: u64,
        now: SimTime,
    ) -> Result<Timed<bytes::Bytes>, DedupError> {
        self.store.read().read(client, name, offset, len, now)
    }

    /// Truncates through the shared store (foreground path, store read
    /// lock).
    ///
    /// # Errors
    ///
    /// Propagates engine errors.
    pub fn truncate(
        &self,
        client: ClientId,
        name: &ObjectName,
        new_len: u64,
        now: SimTime,
    ) -> Result<Timed<()>, DedupError> {
        self.store.read().truncate(client, name, new_len, now)
    }

    /// Deletes through the shared store (foreground path, store read
    /// lock).
    ///
    /// # Errors
    ///
    /// Propagates engine errors.
    pub fn delete(&self, client: ClientId, name: &ObjectName) -> Result<Timed<()>, DedupError> {
        self.store.read().delete(client, name)
    }

    /// Asks the background worker to run deduplication at virtual time
    /// `now` (non-blocking). Replaces a tick still pending.
    pub fn tick(&self, now: SimTime) {
        let shared = &self.worker.shared;
        let mut inbox = shared.inbox();
        inbox.posted += 1;
        if inbox.tick.replace(now).is_some() {
            inbox.collapsed += 1;
            shared.coalesced.inc();
        }
        shared.changed.notify_all();
    }

    /// Blocks until the worker has served every tick posted so far, by
    /// any handle (or has exited).
    pub fn drain(&self) {
        let shared = &self.worker.shared;
        let inbox = shared.inbox();
        let posted = inbox.posted;
        drop(
            shared
                .changed
                .wait_while(inbox, |i| i.served < posted && !i.closed)
                .unwrap_or_else(PoisonError::into_inner),
        );
    }

    /// Runs a closure with exclusive access to the store (reports,
    /// snapshots, administration): takes the store *write* lock, draining
    /// all in-flight foreground ops and the worker's flush pass first.
    pub fn with_store<R>(&self, f: impl FnOnce(&mut DedupStore) -> R) -> R {
        f(&mut self.store.write())
    }

    /// Stops the worker, once it has served the tick still pending, and
    /// returns the store.
    ///
    /// # Panics
    ///
    /// Panics if another handle is still alive (shut down the last
    /// clone).
    pub fn shutdown(self) -> DedupStore {
        let DedupService { worker, store } = self;
        // Dropping the last `Worker` closes the inbox and joins the thread,
        // which releases its share of the store.
        drop(
            Arc::try_unwrap(worker).unwrap_or_else(|_| panic!("other service handles still alive")),
        );
        Arc::try_unwrap(store)
            .unwrap_or_else(|_| panic!("the worker thread still holds the store"))
            .into_inner()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{CachePolicy, DedupConfig};
    use dedup_store::ClusterBuilder;

    fn service() -> DedupService {
        let cluster = ClusterBuilder::new().build();
        DedupService::start(DedupStore::with_default_pools(
            cluster,
            DedupConfig::with_chunk_size(8 * 1024).cache_policy(CachePolicy::EvictAll),
        ))
    }

    #[test]
    fn concurrent_writers_then_background_flush() {
        let svc = Arc::new(service());
        let mut handles = Vec::new();
        for t in 0..4 {
            let svc = Arc::clone(&svc);
            handles.push(std::thread::spawn(move || {
                for i in 0..8 {
                    let data = vec![(t * 8 + i) as u8; 8 * 1024];
                    let _ = svc
                        .write(
                            ClientId(t),
                            &ObjectName::new(format!("obj-{t}-{i}")),
                            0,
                            &data,
                            SimTime::from_secs(1),
                        )
                        .expect("write");
                }
            }));
        }
        for h in handles {
            h.join().expect("writer thread");
        }
        // Idle virtual time: rate control is unlimited, one tick drains all.
        svc.tick(SimTime::from_secs(100));
        svc.drain();
        svc.with_store(|s| {
            assert_eq!(s.dirty_len(), 0, "worker flushed everything");
            assert_eq!(
                s.space_report().expect("report").chunk_objects,
                32,
                "32 distinct contents"
            );
        });
        // Reads from any thread see the data.
        let r = svc
            .read(
                ClientId(0),
                &ObjectName::new("obj-2-3"),
                0,
                8 * 1024,
                SimTime::from_secs(200),
            )
            .expect("read");
        assert_eq!(r.value, vec![(2 * 8 + 3) as u8; 8 * 1024]);
        let store = Arc::try_unwrap(svc)
            .unwrap_or_else(|_| panic!("handles leaked"))
            .shutdown();
        assert_eq!(store.stats().writes, 32);
    }

    /// A client-supplied offset near `u64::MAX` is an error, not a panic
    /// that poisons the shard and strands the worker.
    #[test]
    fn write_wrapping_past_u64_max_is_an_error_and_changes_nothing() {
        let svc = service();
        let name = ObjectName::new("obj");
        let now = SimTime::from_secs(1);
        let _ = svc
            .write(ClientId(0), &name, 0, vec![1u8; 64], now)
            .expect("write");
        let err = svc
            .write(ClientId(0), &name, u64::MAX - 10, vec![7u8; 100], now)
            .expect_err("must fail");
        assert!(
            matches!(
                err,
                DedupError::Store(dedup_store::StoreError::ObjectTooLarge { .. })
            ),
            "{err}"
        );
        let r = svc.read(ClientId(0), &name, 0, 64, now).expect("read");
        assert_eq!(r.value, vec![1u8; 64]);
        assert!(svc.read(ClientId(0), &name, u64::MAX, 2, now).is_err());
    }

    #[test]
    fn readers_and_flusher_interleave() {
        let svc = Arc::new(service());
        let data = vec![9u8; 32 * 1024];
        for i in 0..16 {
            let _ = svc
                .write(
                    ClientId(0),
                    &ObjectName::new(format!("o{i}")),
                    0,
                    &data,
                    SimTime::from_secs(1),
                )
                .expect("write");
        }
        // Background flushing races with reader threads.
        svc.tick(SimTime::from_secs(50));
        let mut handles = Vec::new();
        for t in 0..4u64 {
            let svc = Arc::clone(&svc);
            let expect = data.clone();
            handles.push(std::thread::spawn(move || {
                for i in 0..16 {
                    let r = svc
                        .read(
                            ClientId(t as u32),
                            &ObjectName::new(format!("o{i}")),
                            0,
                            expect.len() as u64,
                            SimTime::from_secs(60 + t),
                        )
                        .expect("read");
                    assert_eq!(r.value, expect);
                }
            }));
        }
        for h in handles {
            h.join().expect("reader thread");
        }
        svc.drain();
        let store = Arc::try_unwrap(svc)
            .unwrap_or_else(|_| panic!("handles leaked"))
            .shutdown();
        assert_eq!(store.dirty_len(), 0);
    }

    #[test]
    fn clones_share_store_and_worker() {
        let svc = service();
        let clone = svc.clone();
        let data = vec![5u8; 8 * 1024];
        let _ = clone
            .write(
                ClientId(0),
                &ObjectName::new("shared"),
                0,
                &data,
                SimTime::from_secs(1),
            )
            .expect("write via clone");
        // Dropping a clone must not stop the shared worker.
        drop(clone);
        svc.tick(SimTime::from_secs(100));
        svc.drain();
        let store = svc.shutdown();
        assert_eq!(store.dirty_len(), 0, "worker flushed after clone dropped");
        assert_eq!(store.stats().writes, 1);
    }

    /// `shutdown` serves every tick posted before it, drained or not.
    #[test]
    fn ticks_posted_before_shutdown_are_served() {
        let svc = service();
        let _ = svc
            .write(
                ClientId(0),
                &ObjectName::new("late"),
                0,
                vec![6u8; 8 * 1024],
                SimTime::from_secs(1),
            )
            .expect("write");
        svc.tick(SimTime::from_secs(100));
        let store = svc.shutdown();
        assert_eq!(store.dirty_len(), 0, "the tick posted before shutdown ran");
    }

    /// `drain` covers ticks posted by any handle, not only its own.
    #[test]
    fn drain_waits_for_ticks_posted_by_other_handles() {
        let svc = service();
        let data = vec![8u8; 8 * 1024];
        let name = ObjectName::new("other");
        let _ = svc
            .write(ClientId(0), &name, 0, &data, SimTime::from_secs(1))
            .expect("write");
        let clone = svc.clone();
        std::thread::spawn(move || clone.tick(SimTime::from_secs(100)))
            .join()
            .expect("ticking thread");
        svc.drain();
        svc.with_store(|s| {
            assert_eq!(s.dirty_len(), 0, "the other handle's tick was served");
            assert_eq!(s.space_report().expect("report").chunk_objects, 1);
        });
        let r = svc
            .read(ClientId(0), &name, 0, 8 * 1024, SimTime::from_secs(101))
            .expect("read");
        assert_eq!(r.value, data);
        let _ = svc.shutdown();
    }

    #[test]
    fn worker_error_is_recorded_not_swallowed() {
        let svc = service();
        let data = vec![3u8; 8 * 1024];
        let _ = svc
            .write(
                ClientId(0),
                &ObjectName::new("doomed"),
                0,
                &data,
                SimTime::from_secs(1),
            )
            .expect("write");
        // Take every OSD down (without wiping): the dirty object is still
        // held but no device is eligible to serve the flush's reads, so
        // the tick must surface an engine error.
        svc.with_store(|s| {
            let n = s.cluster().map().osd_count() as u32;
            for i in 0..n {
                s.cluster_mut().mark_down(dedup_placement::OsdId(i));
            }
        });
        svc.tick(SimTime::from_secs(100));
        svc.drain();
        assert_eq!(svc.worker_errors(), 1, "error counted");
        assert!(svc.last_worker_error().is_some(), "error kept");
        // The worker survives the failure and keeps serving commands.
        svc.tick(SimTime::from_secs(200));
        svc.drain();
        assert!(svc.worker_errors() >= 2, "worker alive after error");
        let _ = svc.shutdown();
    }

    #[test]
    fn flooded_ticks_coalesce_into_bounded_passes() {
        const FLOOD: u64 = 400;
        let svc = service();
        let data = vec![7u8; 8 * 1024];
        let _ = svc
            .write(
                ClientId(0),
                &ObjectName::new("flooded"),
                0,
                &data,
                SimTime::from_secs(1),
            )
            .expect("write");
        // Hold the store write lock so the worker blocks mid-pass, then
        // flood the channel with redundant ticks. Every tick is queued
        // before the lock releases, so the worker can do at most two
        // passes: the one it blocked on, and one collapsed pass over the
        // entire backlog.
        svc.with_store(|_| {
            for i in 0..FLOOD {
                svc.tick(SimTime::from_secs(10 + i));
            }
        });
        svc.drain();
        let (passes, collapsed, dirty) = svc.with_store(|s| {
            let r = s.registry();
            (
                r.counter("service.worker.ticks").get(),
                r.counter("service.worker.coalesced_ticks").get(),
                s.dirty_len(),
            )
        });
        assert!(passes >= 1, "the work still ran");
        assert!(passes <= 2, "flood collapsed, got {passes} passes");
        assert_eq!(passes + collapsed, FLOOD, "every tick accounted for");
        assert_eq!(dirty, 0, "the collapsed pass flushed the queue");
        let _ = svc.shutdown();
    }

    #[test]
    fn truncate_and_delete_route_through_service() {
        let svc = service();
        let data = vec![4u8; 16 * 1024];
        let name = ObjectName::new("routed");
        let _ = svc
            .write(ClientId(0), &name, 0, &data, SimTime::from_secs(1))
            .expect("write");
        let _ = svc
            .truncate(ClientId(0), &name, 8 * 1024, SimTime::from_secs(2))
            .expect("truncate");
        let r = svc
            .read(ClientId(0), &name, 0, 8 * 1024, SimTime::from_secs(3))
            .expect("read");
        assert_eq!(r.value, vec![4u8; 8 * 1024]);
        let _ = svc.delete(ClientId(0), &name).expect("delete");
        assert!(
            svc.read(ClientId(0), &name, 0, 1, SimTime::from_secs(4))
                .is_err(),
            "deleted object must not be readable"
        );
        let _ = svc.shutdown();
    }

    #[test]
    fn shutdown_is_clean_without_ticks() {
        let svc = service();
        let store = svc.shutdown();
        assert_eq!(store.stats().writes, 0);
    }

    #[test]
    fn service_types_are_send_and_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<DedupService>();
    }
}
