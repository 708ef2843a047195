//! Drift test for `METRICS.md`: builds a fully instrumented stack,
//! materializes every lazily registered series, and checks the
//! documentation against the registry in both directions — a series
//! that registers but is not documented fails, and a documented series
//! that no longer registers fails. Every documented stack series must
//! also name, in its `read by` cell, a file of this repository that
//! reads it.

use std::collections::{BTreeMap, BTreeSet};
use std::path::{Path, PathBuf};

use dedup_bench::drivers::{run_closed_loop, OpSpec};
use dedup_bench::systems::{BackgroundMode, DedupSystem, StorageSystem};
use dedup_core::{CachePolicy, DedupConfig, DedupService, DedupStore};
use dedup_obs::{sample_resources, Tracer};
use dedup_sim::SimTime;
use dedup_store::{ClientId, ClusterBuilder};

const CHUNK: u32 = 4096;

fn config() -> DedupConfig {
    DedupConfig::with_chunk_size(CHUNK).cache_policy(CachePolicy::EvictAll)
}

/// Every metric name the stack can register, materialized into live
/// registries: the engine+cluster registry (eager series plus the lazy
/// driver/trace/sim samples) and a service worker's registry.
fn registered_names() -> BTreeSet<String> {
    let mut names = BTreeSet::new();

    let mut sys = DedupSystem::new("metrics-doc", config()).background(BackgroundMode::Unthrottled);
    let tracer = Tracer::new();
    sys.store_mut().attach_tracer(tracer);

    // driver.* registers per run; a short mixed workload also exercises
    // the engine so gauges carry real values.
    let stats = run_closed_loop(&mut sys, 2, 64, 7, |i, _| {
        OpSpec::write(
            format!("obj-{}", i % 4),
            (i / 4 % 8) * CHUNK as u64,
            vec![(i % 3) as u8 + 1; CHUNK as usize],
            ClientId(0),
        )
    });
    let now = stats.elapsed;
    let _ = sys.store_mut().flush_all(now).expect("flush_all");

    // sim.resource.*.
    let registry = sys.store().registry().clone();
    sample_resources(&registry, &sys.cluster().perf().pool, now);

    for snap in registry.snapshot(now) {
        names.insert(snap.name);
    }

    // service.worker.* lives on whichever store a service wraps.
    let svc_store = DedupStore::with_default_pools(
        ClusterBuilder::new().nodes(2).osds_per_node(2).build(),
        config(),
    );
    let service = DedupService::start(svc_store);
    service.tick(SimTime::from_secs(1));
    let svc_store = service.shutdown();
    for snap in svc_store.registry().snapshot(SimTime::from_secs(1)) {
        names.insert(snap.name);
    }

    names
}

/// What `METRICS.md` documents: each enforced series with the contents
/// of its `read by` cell (backticks stripped), and the experiment-local
/// appendix's names.
struct Documented {
    enforced: BTreeMap<String, String>,
    local: BTreeSet<String>,
}

fn documented() -> Documented {
    let doc = std::fs::read_to_string(repo_root().join("METRICS.md"))
        .expect("METRICS.md at the repository root");
    let mut enforced = BTreeMap::new();
    let mut local = BTreeSet::new();
    let mut in_local = false;
    for line in doc.lines() {
        if line.starts_with("## ") {
            in_local = line.contains("Experiment-local");
            continue;
        }
        // Table rows look like `| `name` | type | labels | meaning | `reader` |`.
        let Some(rest) = line.strip_prefix("| `") else {
            continue;
        };
        let Some(name) = rest.split('`').next() else {
            continue;
        };
        if in_local {
            local.insert(name.to_string());
        } else {
            let cells: Vec<&str> = line.trim_end_matches('|').split('|').collect();
            let read_by = cells.last().map_or("", |c| c.trim().trim_matches('`'));
            enforced.insert(name.to_string(), read_by.to_string());
        }
    }
    Documented { enforced, local }
}

fn repo_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../..")
}

#[test]
fn metrics_doc_matches_registry() {
    let registered = registered_names();
    let Documented { enforced, local } = documented();
    let documented: BTreeSet<String> = enforced.keys().cloned().collect();
    assert!(
        documented.len() > 50,
        "METRICS.md parse collapsed: only {} names found",
        documented.len()
    );

    let undocumented: Vec<_> = registered.difference(&documented).collect();
    assert!(
        undocumented.is_empty(),
        "series registered but missing from METRICS.md: {undocumented:?}"
    );

    let stale: Vec<_> = documented.difference(&registered).collect();
    assert!(
        stale.is_empty(),
        "series documented in METRICS.md but never registered: {stale:?}"
    );

    // Experiment-local names must stay out of the stack registry — if
    // one starts registering, move it into an enforced section.
    let leaked: Vec<_> = local.intersection(&registered).collect();
    assert!(
        leaked.is_empty(),
        "experiment-local series leaked into the stack registry: {leaked:?}"
    );
}

#[test]
fn every_documented_series_names_an_existing_reader() {
    let root = repo_root();
    let unread: Vec<String> = documented()
        .enforced
        .into_iter()
        // An empty cell joins to the root directory, not a file.
        .filter(|(_, read_by)| !root.join(read_by).is_file())
        .map(|(name, read_by)| format!("{name} -> {read_by:?}"))
        .collect();
    assert!(
        unread.is_empty(),
        "METRICS.md rows whose `read by` cell is empty or names no file: {unread:?}"
    );
}
