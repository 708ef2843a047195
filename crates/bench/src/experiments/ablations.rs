//! Ablation studies beyond the paper's headline results.
//!
//! * [`cdc`] — content-defined vs static chunking: dedup ratio on
//!   shift-prone data against virtual CPU cost (the trade §5 cites for
//!   choosing static chunking).
//! * [`chunk_sweep`] — extends Table 2 across 4–128 KiB chunks.
//! * [`cache_policy`] — HitSet `hit_count` sweep: read latency vs
//!   metadata-pool capacity.

use dedup_chunk::{Chunker, FixedChunker, GearCdcChunker};
use dedup_core::{CachePolicy, DedupConfig, DedupStore, HitSetConfig};
use dedup_fingerprint::{Fingerprint, FingerprintCostModel};
use dedup_sim::SimTime;
use dedup_store::{ClientId, ClusterBuilder, ObjectName, PoolConfig};
use dedup_workloads::cloud::CloudSpec;

use crate::drivers::{random_block, run_closed_loop, OpSpec};
use crate::report;
use crate::systems::{preload, BackgroundMode, DedupSystem, StorageSystem};

/// Static vs content-defined chunking on shift-prone data.
pub mod cdc {
    use super::*;
    use dedup_workloads::backup::BackupSpec;
    use std::collections::HashSet;

    fn dedup_ratio(chunker: &dyn Chunker, streams: &[&[u8]]) -> (f64, u64) {
        let mut seen: HashSet<Fingerprint> = HashSet::new();
        let mut total = 0u64;
        let mut unique = 0u64;
        let mut chunks = 0u64;
        for s in streams {
            for span in chunker.chunks(s) {
                let chunk = &s[span.offset as usize..span.end() as usize];
                total += chunk.len() as u64;
                chunks += 1;
                if seen.insert(Fingerprint::of(chunk)) {
                    unique += chunk.len() as u64;
                }
            }
        }
        ((1.0 - unique as f64 / total as f64) * 100.0, chunks)
    }

    /// Runs the ablation and prints the comparison.
    pub fn run() {
        report::header(
            "Ablation: CDC",
            "Static vs content-defined chunking on shift-prone backups",
            "Four backup generations of an 8 MiB volume; each generation \
             splices small insertions in, shifting the remainder and \
             destroying static alignment. CPU cost uses the \
             fingerprint+chunking cost model.",
        );
        let dataset = BackupSpec {
            insertions_per_gen: 4,
            ..BackupSpec::default()
        }
        .insertions_only()
        .dataset();
        let streams: Vec<&[u8]> = dataset.objects.iter().map(|o| o.data.as_slice()).collect();
        let fixed = FixedChunker::new(32 * 1024);
        let cdc = GearCdcChunker::with_avg_size(32 * 1024);
        let (r_fixed, n_fixed) = dedup_ratio(&fixed, &streams);
        let (r_cdc, n_cdc) = dedup_ratio(&cdc, &streams);
        // CPU model: static chunking only fingerprints; CDC also rolls the
        // gear hash over every byte (~1 GB/s per core vs 2+ GB/s hashing).
        let total: u64 = streams.iter().map(|s| s.len() as u64).sum();
        let fp = FingerprintCostModel::default();
        let fixed_cpu_ms = fp.nanos_for(total) as f64 / 1e6;
        let cdc_cpu_ms = (fp.nanos_for(total) + total) as f64 / 1e6; // +1ns/B gear
        let registry = dedup_obs::Registry::new();
        for (chunker, ratio, chunks, cpu_ms) in [
            ("static", r_fixed, n_fixed, fixed_cpu_ms),
            ("cdc", r_cdc, n_cdc, cdc_cpu_ms),
        ] {
            let labels: &[(&str, &str)] = &[("chunker", chunker)];
            registry
                .gauge_with("analysis.dedup_ratio_pct_x100", labels)
                .set((ratio * 100.0) as i64);
            registry.counter_with("analysis.chunks", labels).add(chunks);
            registry
                .gauge_with("analysis.cpu_us", labels)
                .set((cpu_ms * 1_000.0) as i64);
        }
        report::print_table(
            &["chunker", "dedup ratio", "chunks", "virtual CPU"],
            &[
                vec![
                    "static 32 KiB".into(),
                    report::pct(r_fixed),
                    n_fixed.to_string(),
                    format!("{fixed_cpu_ms:.1} ms"),
                ],
                vec![
                    "gear CDC avg 32 KiB".into(),
                    report::pct(r_cdc),
                    n_cdc.to_string(),
                    format!("{cdc_cpu_ms:.1} ms"),
                ],
            ],
        );
        println!(
            "\nshape: insertions destroy static chunking's cross-generation \
             dedup (~0%) while CDC recovers most of it; the paper accepts \
             that loss to keep OSD CPU headroom (§5).\n"
        );
        let mut sidecar = report::Sidecars::new("ablation-cdc");
        sidecar.capture_registry("analysis", &registry, SimTime::ZERO);
        sidecar.write();
    }
}

/// Table 2 extended: chunk sizes from 4 KiB to 128 KiB.
pub mod chunk_sweep {
    use super::*;

    /// Runs the sweep and prints the extended table.
    pub fn run() {
        report::header(
            "Ablation: chunk-size sweep",
            "Ideal vs actual dedup ratio, 4–128 KiB chunks",
            "Extends Table 2 on the private-cloud dataset.",
        );
        let dataset = CloudSpec::default().dataset();
        let mut sidecar = report::Sidecars::new("ablation-chunk-sweep");
        let mut rows = Vec::new();
        for chunk_kib in [4u32, 8, 16, 32, 64, 128] {
            let cluster = ClusterBuilder::new().build();
            let store = DedupStore::new(
                cluster,
                PoolConfig::replicated("metadata", 2),
                PoolConfig::replicated("chunks", 2),
                DedupConfig::with_chunk_size(chunk_kib * 1024).cache_policy(CachePolicy::EvictAll),
            );
            for obj in &dataset.objects {
                let _ = store
                    .write(
                        ClientId(0),
                        &ObjectName::new(&*obj.name),
                        0,
                        &obj.data,
                        SimTime::ZERO,
                    )
                    .expect("write");
            }
            let _ = store.flush_all(SimTime::from_secs(1_000)).expect("flush");
            let sr = store.space_report().expect("report");
            sidecar.capture_registry(
                &format!("chunk-{chunk_kib}k"),
                store.registry(),
                SimTime::from_secs(1_000),
            );
            rows.push(vec![
                format!("{chunk_kib} KiB"),
                report::pct(sr.ideal_ratio_percent()),
                report::fmt_bytes(sr.metadata_bytes + sr.object_overhead_bytes),
                report::pct(sr.actual_ratio_percent()),
                sr.chunk_objects.to_string(),
            ]);
        }
        report::print_table(
            &[
                "chunk",
                "ideal ratio",
                "metadata",
                "actual ratio",
                "chunk objects",
            ],
            &rows,
        );
        println!(
            "\nshape: ideal ratio decays with chunk size while metadata \
             overhead roughly halves per doubling; the actual-ratio optimum \
             sits in the middle (the paper picks 32 KiB).\n"
        );
        sidecar.write();
    }
}

/// HitSet threshold sweep: latency vs capacity.
pub mod cache_policy {
    use super::*;
    use dedup_workloads::fio::FioSpec;
    use dedup_workloads::zipf::ZipfSampler;
    use rand::Rng;

    const OBJECTS: usize = 16;
    const OBJECT_SIZE: u64 = 1 << 20;

    /// Runs the sweep and prints the trade-off table.
    pub fn run() {
        report::header(
            "Ablation: cache policy",
            "HitSet hit_count sweep — read latency vs metadata-pool capacity",
            "Zipf(0.99) re-read pattern over a flushed 16 MiB set; lower \
             hit_count keeps more hot data cached (faster reads, more \
             metadata-pool bytes).",
        );
        let dataset = FioSpec::new(OBJECTS as u64 * OBJECT_SIZE, 0.5)
            .object_size(OBJECT_SIZE as u32)
            .dataset();
        let mut sidecar = report::Sidecars::new("ablation-cache-policy");
        let mut rows = Vec::new();
        for (label, policy, hit_count) in [
            ("always evict", CachePolicy::EvictAll, 0u32),
            ("hitset >= 4", CachePolicy::HotnessAware, 4),
            ("hitset >= 2", CachePolicy::HotnessAware, 2),
            ("keep all", CachePolicy::KeepAll, 0),
        ] {
            let mut cfg = DedupConfig::with_chunk_size(32 * 1024).cache_policy(policy);
            cfg.hitset = HitSetConfig {
                hit_count,
                ..HitSetConfig::default()
            };
            let mut sys = DedupSystem::new(label, cfg).background(BackgroundMode::Off);
            preload(&mut sys, &dataset);
            // Warm the hitset with a skewed access pattern, then flush.
            for round in 0..6u64 {
                for hot in 0..OBJECTS / 4 {
                    let _ = sys
                        .store_mut()
                        .read(
                            ClientId(0),
                            &ObjectName::new(format!("fio-{hot}")),
                            0,
                            32 * 1024,
                            SimTime::from_secs(round + 1),
                        )
                        .expect("warm read");
                }
            }
            for _ in 0..OBJECTS {
                let _ = sys
                    .store_mut()
                    .flush_next(SimTime::from_secs(8))
                    .expect("flush");
            }
            sys.cluster_mut().perf_mut().pool.reset_all();
            // Measure: object popularity follows Zipf(0.99) (the shared
            // sampler), so the low ranks the warm phase primed stay hot.
            let zipf = ZipfSampler::new(OBJECTS, 0.99);
            let stats = run_closed_loop(&mut sys, 8, 4_000, 77, |i, rng| {
                let object = zipf.sample(rng);
                let blocks = OBJECT_SIZE / (32 * 1024);
                let offset = rng.gen_range(0..blocks) * 32 * 1024;
                OpSpec::read(
                    format!("fio-{object}"),
                    offset,
                    32 * 1024,
                    ClientId((i % 3) as u32),
                )
            });
            let meta_bytes = sys
                .store()
                .cluster()
                .usage(sys.store().metadata_pool())
                .expect("usage")
                .stored_bytes;
            let engine = sys.store().stats();
            sidecar.capture(label, &sys, stats.elapsed);
            rows.push(vec![
                label.into(),
                report::ms(stats.latency.mean().as_millis_f64()),
                report::fmt_bytes(meta_bytes),
                format!(
                    "{:.0}%",
                    100.0 * engine.cache_hit_chunks as f64
                        / (engine.cache_hit_chunks + engine.redirected_chunks).max(1) as f64
                ),
            ]);
        }
        report::print_table(
            &[
                "policy",
                "mean read latency",
                "metadata-pool bytes",
                "cache hit rate",
            ],
            &rows,
        );
        println!(
            "\nshape: keeping more cached lowers read latency (no \
             redirection) at the cost of duplicated bytes in the metadata \
             pool; the hitset thresholds sit between the extremes.\n"
        );
        sidecar.write();
    }
}

/// Tiered fingerprint pipeline: full-fingerprint work avoided on a
/// low-dedup FIO-style workload, at an identical dedup outcome.
pub mod tiered_fp {
    use super::*;
    use crate::drivers::run_closed_loop_with_background;
    use dedup_core::TieredIndexConfig;

    const CHUNK: u32 = 32 * 1024;
    const BLOCK: u64 = 8 * 1024;
    const STREAMS: usize = 16;
    const OBJECTS: usize = 32;
    const OBJECT_SIZE: u64 = 1 << 20;

    /// Deterministic block content: ~1 op in 8 repeats a block from a
    /// small pool (the dedupable minority), the rest are unique — the
    /// low-dedup regime where full fingerprinting is almost pure waste.
    fn block_content(i: u64) -> Vec<u8> {
        let seed = if i % 8 == 7 { i / 8 % 16 } else { 1_000 + i };
        let mut state = seed.wrapping_mul(0x9E3779B97F4A7C15) | 1;
        (0..BLOCK as usize)
            .map(|_| {
                state = state
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                (state >> 33) as u8
            })
            .collect()
    }

    struct Outcome {
        full_calls: u64,
        sig_calls: u64,
        skipped_unique: u64,
        upgrades: u64,
        weak_stored: u64,
        chunk_bytes: u64,
        logical_bytes: u64,
        chunk_objects: u64,
        actual_ratio: f64,
    }

    fn drive(
        label: &'static str,
        config: DedupConfig,
        ops: u64,
        sidecar: &mut report::Sidecars,
    ) -> Outcome {
        let mut sys = DedupSystem::new(label, config).background(BackgroundMode::Unthrottled);
        let stats = run_closed_loop_with_background(&mut sys, STREAMS, ops, 99, true, |i, rng| {
            let (object, offset) =
                random_block(rng, OBJECTS, OBJECT_SIZE, BLOCK, |o| format!("fio-{o}"));
            OpSpec {
                object,
                offset,
                data: Some(block_content(i)),
                len: BLOCK,
                client: ClientId((i % 3) as u32),
                class: 0,
            }
        });
        let end = stats.elapsed + dedup_sim::SimDuration::from_secs(3_600);
        let _ = sys.store_mut().flush_all(end).expect("final flush");
        sidecar.capture(label, &sys, end);
        let r = sys.store().registry().clone();
        let c = |name: &str| r.counter(name).get();
        let space = sys.store().space_report().expect("space report");
        Outcome {
            full_calls: c("engine.fp.full_calls"),
            sig_calls: c("engine.fp.sig_calls"),
            skipped_unique: c("engine.fp.skipped_unique"),
            upgrades: c("engine.fp.upgrades"),
            weak_stored: c("engine.fp.weak_chunks_stored"),
            chunk_bytes: space.chunk_bytes,
            logical_bytes: space.logical_bytes,
            chunk_objects: space.chunk_objects,
            actual_ratio: space.actual_ratio_percent(),
        }
    }

    /// Runs the ablation; `smoke` shrinks the op count for CI.
    pub fn run(smoke: bool) {
        report::header(
            "Ablation: tiered fingerprints",
            "Full-fingerprint calls avoided by the signature screen (low-dedup FIO)",
            "8 KiB random writes over a 32 MiB set, ~1 in 8 blocks duplicated. \
             The tiered pipeline screens every flushed chunk with a 48-byte \
             sampled signature and pays the full fingerprint only on candidate \
             collisions; the flat engine hashes every chunk.",
        );
        let ops = if smoke { 600 } else { 6_000 };
        let mut sidecar = report::Sidecars::new("ablation-tiered-fp");
        let flat = drive(
            "flat",
            DedupConfig::with_chunk_size(CHUNK),
            ops,
            &mut sidecar,
        );
        let tiered = drive(
            "tiered",
            DedupConfig::with_chunk_size(CHUNK)
                .tiered_fingerprint()
                .tiered_index(TieredIndexConfig::default()),
            ops,
            &mut sidecar,
        );

        let reduction = 100.0 * (1.0 - tiered.full_calls as f64 / flat.full_calls.max(1) as f64);
        report::print_table(
            &[
                "engine",
                "full fp calls",
                "sig calls",
                "skipped (proven unique)",
                "upgrades",
                "weak chunks",
                "dedup ratio",
            ],
            &[
                vec![
                    "flat".into(),
                    flat.full_calls.to_string(),
                    "-".into(),
                    "-".into(),
                    "-".into(),
                    "-".into(),
                    report::pct(flat.actual_ratio),
                ],
                vec![
                    "tiered".into(),
                    tiered.full_calls.to_string(),
                    tiered.sig_calls.to_string(),
                    tiered.skipped_unique.to_string(),
                    tiered.upgrades.to_string(),
                    tiered.weak_stored.to_string(),
                    report::pct(tiered.actual_ratio),
                ],
            ],
        );
        println!(
            "\nfull-fingerprint reduction: {reduction:.1}% \
             ({} -> {} calls)\n",
            flat.full_calls, tiered.full_calls
        );

        // The optimisation must be invisible in what is stored.
        assert_eq!(
            flat.logical_bytes, tiered.logical_bytes,
            "logical bytes diverged"
        );
        assert_eq!(
            flat.chunk_bytes, tiered.chunk_bytes,
            "unique chunk bytes diverged: dedup outcome changed"
        );
        assert_eq!(
            flat.chunk_objects, tiered.chunk_objects,
            "chunk object count diverged"
        );
        assert!(
            tiered.full_calls < flat.full_calls,
            "tiered pipeline did not reduce full-fingerprint calls \
             ({} vs {})",
            tiered.full_calls,
            flat.full_calls
        );
        sidecar.write();
    }
}

/// Capacity × CPU × foreground-p99 tradeoff surface of the inline
/// compression plane, extending Fig. 13 from pure capacity curves to the
/// full cost picture.
pub mod compress_tradeoff {
    use super::*;
    use crate::drivers::{run_closed_loop_with_background, RunStats};
    use crate::systems::OriginalSystem;
    use dedup_sim::SimDuration;
    use dedup_workloads::vm_images::VmImageSpec;
    use dedup_workloads::Dataset;

    const CHUNK: u32 = 32 * 1024;
    const BLOCK: usize = 32 * 1024;
    const STREAMS: usize = 8;

    /// One foreground write op: object name, offset, payload.
    type Ops = Vec<(String, u64, Vec<u8>)>;

    /// Splits a dataset into block-sized foreground writes.
    fn block_ops(dataset: &Dataset) -> Ops {
        let mut ops = Ops::new();
        for (name, data) in dataset.iter_refs() {
            for (b, chunk) in data.chunks(BLOCK).enumerate() {
                ops.push((name.to_string(), (b * BLOCK) as u64, chunk.to_vec()));
            }
        }
        ops
    }

    fn vm_dataset(smoke: bool) -> Dataset {
        let spec = VmImageSpec {
            images: if smoke { 3 } else { 6 },
            image_bytes: if smoke { 512 * 1024 } else { 4 << 20 },
            block_size: CHUNK,
            ..Default::default()
        };
        Dataset {
            objects: spec.all_images(),
        }
    }

    fn cloud_dataset(smoke: bool) -> Dataset {
        CloudSpec::default()
            .scaled(if smoke { 1.0 / 16.0 } else { 0.5 })
            .dataset()
    }

    struct Outcome {
        raw_bytes: u64,
        cpu_secs: f64,
        p99: SimDuration,
        full_hash_bytes: u64,
    }

    /// Total virtual CPU-busy seconds across all nodes through `until`
    /// (mean utilisation would dilute toward zero over the idle flush
    /// horizon; busy seconds are horizon-independent).
    fn cpu_busy_secs(cluster: &dedup_store::Cluster, until: dedup_sim::SimTime) -> f64 {
        let nodes = cluster.map().node_count();
        (0..nodes)
            .map(|n| cluster.perf().cpu_utilization(n, until) * until.as_secs_f64())
            .sum()
    }

    fn raw_total(cluster: &dedup_store::Cluster) -> u64 {
        (0..cluster.map().osd_count())
            .map(|i| {
                cluster
                    .osd_objects(dedup_placement::OsdId(i as u32))
                    .expect("osd")
                    .iter()
                    .map(|(_, _, o)| o.footprint())
                    .sum::<u64>()
            })
            .sum()
    }

    fn drive_ops(sys: &mut dyn StorageSystem, ops: &Ops, background: bool) -> RunStats {
        run_closed_loop_with_background(
            sys,
            STREAMS.min(ops.len().max(1)),
            ops.len() as u64,
            99,
            background,
            |i, _rng| {
                let (object, offset, data) = &ops[i as usize];
                OpSpec {
                    object: object.clone(),
                    offset: *offset,
                    data: Some(data.clone()),
                    len: data.len() as u64,
                    client: ClientId((i % 4) as u32),
                    class: 0,
                }
            },
        )
    }

    fn drive_dedup(
        label: &str,
        config: DedupConfig,
        ops: &Ops,
        sidecar: &mut report::Sidecars,
    ) -> Outcome {
        let mut sys = DedupSystem::new(
            label.to_string(),
            config.cache_policy(CachePolicy::EvictAll),
        )
        .background(BackgroundMode::Unthrottled);
        let stats = drive_ops(&mut sys, ops, true);
        let end = stats.elapsed + SimDuration::from_secs(3_600);
        let _ = sys.store_mut().flush_all(end).expect("final flush");
        sidecar.capture(label, &sys, end);
        Outcome {
            raw_bytes: raw_total(sys.store().cluster()),
            cpu_secs: cpu_busy_secs(sys.store().cluster(), end),
            p99: stats.latency.percentile(99.0),
            full_hash_bytes: sys
                .store()
                .registry()
                .counter("engine.fp.full_hash_bytes")
                .get(),
        }
    }

    fn drive_plain(label: &str, ops: &Ops, sidecar: &mut report::Sidecars) -> Outcome {
        let mut sys = OriginalSystem::new(
            label.to_string(),
            PoolConfig::replicated("d", 2).with_compression(),
        );
        let stats = drive_ops(&mut sys, ops, false);
        let end = stats.elapsed + SimDuration::from_secs(3_600);
        sidecar.capture(label, &sys, end);
        Outcome {
            raw_bytes: raw_total(sys.cluster()),
            cpu_secs: cpu_busy_secs(sys.cluster(), end),
            p99: stats.latency.percentile(99.0),
            full_hash_bytes: 0,
        }
    }

    /// Runs the ablation; `smoke` shrinks both datasets for CI.
    pub fn run(smoke: bool) {
        report::header(
            "Ablation: compression tradeoff",
            "Capacity x CPU x foreground p99 for {compress, dedup, dedup+comp}",
            "VM-image and private-cloud workloads driven block-by-block \
             through the foreground path with the background engine \
             flushing concurrently. `compress` is substrate (pool-level) \
             compression without dedup; `dedup+comp` is the inline \
             compression plane.",
        );
        let mut sidecar = report::Sidecars::new("ablation-compress-tradeoff");
        let mut rows: Vec<Vec<String>> = Vec::new();
        let mut vm_outcomes: Vec<(String, Outcome)> = Vec::new();
        for (workload, dataset) in [
            ("vm-image", vm_dataset(smoke)),
            ("cloud", cloud_dataset(smoke)),
        ] {
            let ops = block_ops(&dataset);
            let arms: Vec<(String, Outcome)> = vec![
                (
                    "compress".to_string(),
                    drive_plain(&format!("{workload}/compress"), &ops, &mut sidecar),
                ),
                (
                    "dedup".to_string(),
                    drive_dedup(
                        &format!("{workload}/dedup"),
                        DedupConfig::with_chunk_size(CHUNK),
                        &ops,
                        &mut sidecar,
                    ),
                ),
                (
                    "dedup+comp".to_string(),
                    drive_dedup(
                        &format!("{workload}/dedup+comp"),
                        DedupConfig::with_chunk_size(CHUNK).compress(),
                        &ops,
                        &mut sidecar,
                    ),
                ),
            ];
            for (arm, o) in &arms {
                rows.push(vec![
                    workload.to_string(),
                    arm.clone(),
                    report::fmt_bytes(o.raw_bytes),
                    format!("{:.3} s", o.cpu_secs),
                    report::ms(o.p99.as_secs_f64() * 1e3),
                    if o.full_hash_bytes > 0 {
                        report::fmt_bytes(o.full_hash_bytes)
                    } else {
                        "-".into()
                    },
                ]);
            }
            if workload == "vm-image" {
                vm_outcomes = arms;
            }
        }
        report::print_table(
            &[
                "workload",
                "arm",
                "raw cluster bytes",
                "cpu busy",
                "write p99",
                "full-hash bytes",
            ],
            &rows,
        );
        println!(
            "\ntradeoff shape: dedup alone already collapses the shared OS \
             region; adding the compression plane buys further capacity on \
             compressible data for extra flush-path CPU.\n"
        );

        // Compression must pay for itself in capacity on the VM-image set.
        let dedup = &vm_outcomes[1].1;
        let comp = &vm_outcomes[2].1;
        assert!(
            comp.raw_bytes < dedup.raw_bytes,
            "dedup+comp must store less than dedup alone on VM images \
             ({} vs {})",
            comp.raw_bytes,
            dedup.raw_bytes
        );
        sidecar.write();
    }
}
