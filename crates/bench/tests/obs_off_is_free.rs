//! The events + health observability plane is free when off and
//! invisible to virtual time when on.
//!
//! Runs a fig05-style workload (duplicate-heavy sequential writes racing
//! an unthrottled background engine, then reads) three times over
//! identical seeds under a counting allocator:
//!
//! 1. twice with no event log attached: virtual-time signatures **and
//!    allocation counts** must be identical, so the disabled path is
//!    deterministic and allocates nothing of its own (an `Option` branch,
//!    nothing else);
//! 2. once with an [`EventLog`] attached and a health report plus a
//!    capacity sample taken: the virtual-time signature must stay
//!    identical, because events only observe virtual time and never
//!    extend it.
//!
//! Wall-clock cost is `perfbench`'s business, not this test's.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::fmt::Write as _;

use dedup_bench::drivers::{run_closed_loop, run_closed_loop_with_background, OpSpec, RunStats};
use dedup_bench::systems::{BackgroundMode, DedupSystem};
use dedup_core::{CachePolicy, DedupConfig};
use dedup_obs::EventLog;
use dedup_store::ClientId;

const CHUNK: u32 = 32 * 1024;
const OPS: u64 = 600;

thread_local! {
    /// Allocation calls made by this thread. Per thread, so the test
    /// harness's own threads cannot perturb the count; `const`-initialised
    /// and drop-free, so touching it never allocates.
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

/// System allocator wrapper that counts allocation calls (allocs and
/// reallocs; frees are free) on the calling thread.
struct CountingAlloc;

fn count_alloc() {
    let _ = ALLOCS.try_with(|n| n.set(n.get() + 1));
}

// SAFETY: pure delegation to `System`; the counter is a thread-local cell
// that needs no allocation.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_alloc();
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_alloc();
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

fn workload(i: u64, streams: u64) -> OpSpec {
    let stream = i % streams;
    let pos = i / streams;
    let block = CHUNK as u64;
    let per_obj = (1u64 << 20) / block;
    // Half the writes repeat a shared block so dedup, bloom, and the
    // fingerprint tiers all see real traffic.
    let data = if i.is_multiple_of(2) {
        vec![(i % 4) as u8 + 1; block as usize]
    } else {
        vec![(i % 251) as u8; block as usize]
    };
    OpSpec::write(
        format!("seq-{stream}-{}", pos / per_obj),
        (pos % per_obj) * block,
        data,
        ClientId((stream % 3) as u32),
    )
}

/// Everything a figure would print about a run, as one string: if any
/// byte differs between instrumented and uninstrumented runs, the
/// observability plane leaked into the virtual timing plane.
fn signature(write: &RunStats, read: &RunStats) -> String {
    let mut s = String::new();
    for (name, r) in [("write", write), ("read", read)] {
        let _ = writeln!(
            s,
            "{name}: ops={} bytes={} elapsed_ns={} mean_ns={} p50_ns={} p95_ns={} p99_ns={} \
             max_ns={} mbps={:.6} iops={:.6}",
            r.ops,
            r.bytes,
            r.elapsed.as_nanos(),
            r.latency.mean().as_nanos(),
            r.latency.percentile(50.0).as_nanos(),
            r.latency.percentile(95.0).as_nanos(),
            r.latency.percentile(99.0).as_nanos(),
            r.latency.max().as_nanos(),
            r.throughput_mbps(),
            r.iops(),
        );
    }
    s
}

/// One pass: its signature and the allocations the workload made.
/// `instrumented` attaches the event log and drives the health and
/// capacity planes.
fn run_once(instrumented: bool) -> (String, u64) {
    // Serial fingerprinting: the whole run stays on this thread.
    let mut sys = DedupSystem::new(
        "obs-overhead",
        DedupConfig::with_chunk_size(CHUNK)
            .cache_policy(CachePolicy::EvictAll)
            .flush_parallelism(1),
    )
    .background(BackgroundMode::Unthrottled);
    if instrumented {
        sys.store_mut().attach_events(EventLog::new());
    }
    let allocs_before = ALLOCS.with(Cell::get);
    let writes = run_closed_loop_with_background(&mut sys, 8, OPS, 2, true, |i, _| workload(i, 8));
    let objects = OPS / 8 / ((1u64 << 20) / CHUNK as u64) + 1;
    let reads = run_closed_loop(&mut sys, 4, OPS / 4, 3, |i, _| {
        OpSpec::read(
            format!("seq-{}-{}", i % 8, i % objects),
            0,
            CHUNK as u64,
            ClientId(0),
        )
    });
    let allocs = ALLOCS.with(Cell::get) - allocs_before;
    let end = reads.elapsed.max(writes.elapsed);
    if instrumented {
        // Drive the pull planes too: they must not disturb the virtual
        // clock either (checked through the signature).
        let report = sys.store().health_report(end);
        assert!(!report.components.is_empty(), "health plane did not run");
        let _ = sys.store().sample_capacity(end).expect("capacity sample");
        assert!(!sys.store().events().expect("events attached").is_empty());
    } else {
        assert!(sys.store().events().is_none(), "no event log when disabled");
        assert!(sys.store().tracer().is_none(), "no tracer when disabled");
    }
    (signature(&writes, &reads), allocs)
}

#[test]
fn events_and_health_are_free_when_off_and_timing_transparent_when_on() {
    // The systems attach a tracer / event log when these are set, which
    // would silently instrument the "disabled" runs.
    std::env::remove_var("DEDUP_TRACE_DIR");
    std::env::remove_var("DEDUP_EVENTS_DIR");

    let (plain_a, allocs_a) = run_once(false);
    let (plain_b, allocs_b) = run_once(false);
    let (enabled, _) = run_once(true);

    assert_eq!(
        plain_a, plain_b,
        "uninstrumented runs must be deterministic over the same seed"
    );
    assert_eq!(
        allocs_a, allocs_b,
        "the disabled path must not allocate nondeterministically"
    );
    assert_eq!(
        plain_a, enabled,
        "events+health must not perturb virtual-time results"
    );
}
