//! The layer replay of a traced run: a sample of the workload's own
//! payloads and chunk bytes is pushed through each layer's public function
//! from outside, every call its own span under a `replay.<layer>` parent.
//! The median call gives the layer's unit cost; multiplied by the counts
//! the traced repetition's registry reports, the unit costs make the layer
//! budget that is compared with the time the repetition actually took.

use std::collections::BTreeSet;

use bytes::Bytes;
use dedup_chunk::{Chunker, FixedChunker};
use dedup_core::{build_index, CachePolicy, CompressionCostModel};
use dedup_erasure::ReedSolomon;
use dedup_fingerprint::{ChunkSig, Fingerprint, FingerprintCostModel};
use dedup_placement::PgMap;
use dedup_sim::SimTime;
use dedup_store::{ClientId, IoCtx, ObjectName};

use crate::data::{Inputs, MIB};
use crate::metrics::MetricSet;
use crate::run::{Rep, RepInputs, RunConfig};
use crate::span::Recorder;
use crate::stats::percentile;
use crate::sut::{
    build_cluster, build_store, chunk_pool, dedup_config, metadata_pool, CHUNK_BYTES, OP_GAP_NS,
};

/// Chunks (and a quarter as many PUT payloads) the replay samples, evenly
/// strided over the dataset: enough calls for a steady median, few enough
/// to finish inside the seconds a traced run keeps back for it.
const SAMPLE_CHUNKS: usize = 1024;

/// Unit costs of the layers' public functions on this workload's bytes.
#[derive(Debug, Clone, Default)]
pub struct LayerCosts {
    pub chunk_fixed_mibps: f64,
    pub fp_full_mibps: f64,
    pub fp_sig_ns: f64,
    pub compress_mibps: f64,
    /// 0 when no sampled chunk compresses well enough to be stored
    /// compressed: nothing on this workload is ever decompressed.
    pub decompress_mibps: f64,
    pub compress_ratio: f64,
    pub erasure_encode_mibps: f64,
    pub placement_ns: f64,
    /// 128 KiB `write_at`, replicated ×2, WAL on — what one PUT costs the
    /// metadata pool.
    pub write_rep_us: f64,
    /// One chunk-sized write to a replicated pool (a chunk create); feeds
    /// the budget only.
    pub write_rep_block_us: f64,
    pub write_ec_us: f64,
    pub read_rep_us: f64,
    pub wal_overhead_us: f64,
    pub probe_hit_ns: f64,
    pub probe_miss_ns: f64,
    pub insert_ns: f64,
    pub engine_write_us: f64,
    pub engine_read_hit_us: f64,
    pub engine_read_redirect_us: f64,
}

impl LayerCosts {
    pub fn report(&self, m: &mut MetricSet) {
        let n = SAMPLE_CHUNKS as u64;
        for (name, value) in [
            ("chunk.fixed_mibps", self.chunk_fixed_mibps),
            ("fingerprint.full_mibps", self.fp_full_mibps),
            ("fingerprint.sig_ns", self.fp_sig_ns),
            ("compress.compress_mibps", self.compress_mibps),
            ("compress.decompress_mibps", self.decompress_mibps),
            ("compress.ratio", self.compress_ratio),
            ("erasure.encode_mibps", self.erasure_encode_mibps),
            ("placement.acting_set_ns", self.placement_ns),
            ("store.write_rep_us", self.write_rep_us),
            ("store.write_ec_us", self.write_ec_us),
            ("store.read_rep_us", self.read_rep_us),
            ("store.wal_overhead_us", self.wal_overhead_us),
            ("index.probe_hit_ns", self.probe_hit_ns),
            ("index.probe_miss_ns", self.probe_miss_ns),
            ("index.insert_ns", self.insert_ns),
            ("engine.write_us", self.engine_write_us),
            ("engine.read_hit_us", self.engine_read_hit_us),
            ("engine.read_redirect_us", self.engine_read_redirect_us),
        ] {
            m.put(name, value, n, 0.0);
        }
        // Measured ns/byte over the virtual-time models' ns/byte: how far
        // the figures' constants are from this code on this host.
        let model_mibps = |nanos_per_mib: u64| 1e9 / nanos_per_mib.max(1) as f64;
        let mib = 1u64 << 20;
        let fp_model = model_mibps(FingerprintCostModel::default().nanos_for(mib));
        let codec = CompressionCostModel::default();
        let slowdown = |measured_mibps: f64, model: f64| {
            if measured_mibps > 0.0 {
                model / measured_mibps
            } else {
                0.0
            }
        };
        m.put_value("sim.fp_model_ratio", slowdown(self.fp_full_mibps, fp_model));
        m.put_value(
            "sim.compress_model_ratio",
            slowdown(self.compress_mibps, model_mibps(codec.compress_nanos(mib))),
        );
        m.put_value(
            "sim.decompress_model_ratio",
            slowdown(
                self.decompress_mibps,
                model_mibps(codec.decompress_nanos(mib)),
            ),
        );
    }
}

/// Times `f` on every item, one span per call under `parent_name`, and
/// returns the median call in nanoseconds.
fn median_call_ns<I>(
    rec: &mut Recorder,
    parent_name: &'static str,
    call_name: &'static str,
    items: impl IntoIterator<Item = I>,
    mut f: impl FnMut(I),
) -> f64 {
    let parent = rec.open(parent_name, 0);
    let mut calls = Vec::new();
    for item in items {
        let t0 = rec.now_ns();
        f(item);
        let t1 = rec.now_ns();
        rec.record(call_name, parent, t0, t1);
        calls.push(t1 - t0);
    }
    rec.close(parent);
    calls.sort_unstable();
    percentile(&calls, 0.5) as f64
}

fn mibps(bytes: usize, ns: f64) -> f64 {
    if ns > 0.0 {
        bytes as f64 / MIB / (ns / 1e9)
    } else {
        0.0
    }
}

/// Runs the replay for `cfg`'s workload and seed.
pub fn layer_costs(cfg: &RunConfig, rec: &mut Recorder) -> LayerCosts {
    let inputs = RepInputs::generate(cfg).inputs;
    let block = inputs.block_bytes;
    let chunks = sample_views(&inputs, block, SAMPLE_CHUNKS);
    let payloads = sample_views(&inputs, cfg.scale.put_bytes, SAMPLE_CHUNKS / 4);
    let mut c = LayerCosts::default();
    let sink = std::hint::black_box::<usize>;

    // chunk: slicing a stored object into fixed spans.
    let chunker = FixedChunker::new(CHUNK_BYTES);
    let objects: Vec<&Bytes> = inputs.objects.iter().map(|o| &o.data).take(64).collect();
    let object_bytes = objects.first().map_or(0, |o| o.len());
    let ns = median_call_ns(rec, "replay.chunk", "chunks", objects, |o| {
        sink(chunker.chunks(o).len());
    });
    c.chunk_fixed_mibps = mibps(object_bytes, ns);

    // fingerprint: the full content hash and the cheap signature.
    let ns = median_call_ns(rec, "replay.fingerprint", "fingerprint_of", &chunks, |ch| {
        sink(Fingerprint::of(ch).0[0] as usize);
    });
    c.fp_full_mibps = mibps(block, ns);
    c.fp_sig_ns = median_call_ns(rec, "replay.fingerprint", "sig_of", &chunks, |ch| {
        sink(ChunkSig::of(ch).sample as usize);
    });

    // compress: every sampled chunk; decompress: those the engine would
    // have stored compressed.
    let keep_ppm = dedup_config(CachePolicy::EvictAll)
        .compression
        .max_ratio_ppm;
    let mut compressed = Vec::with_capacity(chunks.len());
    let ns = median_call_ns(rec, "replay.compress", "compress", &chunks, |ch| {
        compressed.push(dedup_compress::compress(ch));
    });
    c.compress_mibps = mibps(block, ns);
    let raw: usize = chunks.iter().map(|ch| ch.len()).sum();
    let packed: usize = compressed.iter().map(Vec::len).sum();
    c.compress_ratio = raw as f64 / packed.max(1) as f64;
    let stored: Vec<&Vec<u8>> = compressed
        .iter()
        .zip(&chunks)
        .filter(|(z, ch)| z.len() as u64 * 1_000_000 <= ch.len() as u64 * keep_ppm)
        .map(|(z, _)| z)
        .collect();
    let ns = median_call_ns(rec, "replay.compress", "decompress", stored, |z| {
        sink(dedup_compress::decompress(z).map_or(0, |v| v.len()));
    });
    c.decompress_mibps = mibps(block, ns);

    // erasure: RS(2+1) over one chunk.
    let rs = ReedSolomon::new(2, 1).expect("RS(2+1) is valid");
    let ns = median_call_ns(rec, "replay.erasure", "encode_object", &chunks, |ch| {
        sink(rs.encode_object(ch).map_or(0, |s| s.len()));
    });
    c.erasure_encode_mibps = mibps(block, ns);

    // store: writes and reads against scratch clusters, WAL on and off.
    // Each sampled payload lands where the PUT pass would put it: eight to
    // a 1 MiB object. Names are built here, outside the timed calls.
    let per_object = (cfg.scale.object_bytes / cfg.scale.put_bytes).max(1);
    let puts: Vec<(ObjectName, u64, &Bytes)> = payloads
        .iter()
        .enumerate()
        .map(|(i, p)| {
            let name = ObjectName::new(format!("replay-{}", i / per_object));
            (name, ((i % per_object) * cfg.scale.put_bytes) as u64, p)
        })
        .collect();
    let gets: Vec<(&ObjectName, u64)> = puts
        .iter()
        .flat_map(|(name, offset, p)| {
            (0..p.len() / block).map(move |b| (name, offset + (b * block) as u64))
        })
        .collect();
    let store_writes = |rec: &mut Recorder, wal: bool, call: &'static str| {
        let mut cluster = build_cluster(wal);
        let ctx = IoCtx::new(cluster.create_pool(metadata_pool()));
        let ns = median_call_ns(rec, "replay.store", call, &puts, |(name, offset, p)| {
            let written = cluster.write_at(&ctx, name, *offset, (*p).clone());
            sink(written.is_ok() as usize);
        });
        (cluster, ctx, ns)
    };
    let (cluster, ctx, wal_on_ns) = store_writes(rec, true, "write_rep");
    let (_, _, wal_off_ns) = store_writes(rec, false, "write_rep_nowal");
    c.write_rep_us = wal_on_ns / 1e3;
    c.wal_overhead_us = (wal_on_ns - wal_off_ns) / 1e3;
    let ns = median_call_ns(rec, "replay.store", "read_rep", &gets, |&(name, offset)| {
        let read = cluster.read_at(&ctx, name, offset, block as u64);
        sink(read.map_or(0, |r| r.value.len()));
    });
    c.read_rep_us = ns / 1e3;
    let mut chunk_cluster = build_cluster(true);
    let rep_ctx = IoCtx::new(chunk_cluster.create_pool(chunk_pool(false)));
    let ec_ctx = IoCtx::new(chunk_cluster.create_pool(chunk_pool(true)));
    let chunk_names: Vec<ObjectName> = (0..chunks.len())
        .map(|i| ObjectName::new(format!("chunk-{i}")))
        .collect();
    for (ctx, call, cost) in [
        (&rep_ctx, "write_rep_block", &mut c.write_rep_block_us),
        (&ec_ctx, "write_ec", &mut c.write_ec_us),
    ] {
        let items = chunk_names.iter().zip(&chunks);
        let ns = median_call_ns(rec, "replay.store", call, items, |(name, ch)| {
            sink(chunk_cluster.write_full(ctx, name, ch.clone()).is_ok() as usize);
        });
        *cost = ns / 1e3;
    }

    // placement: object name → PG → acting set, on the metadata pool.
    let pool = metadata_pool();
    let (pgs, rule) = (PgMap::new(ctx.pool, pool.pg_count), pool.rule());
    let names = inputs.objects.iter().map(|o| &o.name);
    c.placement_ns = median_call_ns(rec, "replay.placement", "acting_set", names, |name| {
        sink(
            cluster
                .map()
                .acting_set(pgs.pg_of(name.as_bytes()), &rule)
                .len(),
        );
    });

    // index: the engine's own index kind, fed the workload's signatures.
    // Even blocks are inserted; odd blocks whose signature no even block
    // shares are the guaranteed misses.
    let config = dedup_config(CachePolicy::EvictAll);
    let index = build_index(config.bloom, &config.chunk_index);
    let sigs: Vec<ChunkSig> = inputs
        .objects
        .iter()
        .flat_map(|o| o.data.chunks(block).map(ChunkSig::of))
        .collect();
    let now = SimTime::ZERO;
    let even = || sigs.iter().step_by(2).enumerate();
    c.insert_ns = median_call_ns(rec, "replay.index", "note_stored", even(), |(i, sig)| {
        index.note_stored(Fingerprint::mint_weak(sig, i as u64), Some(*sig));
    });
    c.probe_hit_ns = median_call_ns(rec, "replay.index", "probe_hit", even(), |(_, sig)| {
        sink(index.candidates(sig, now).len());
    });
    let inserted: BTreeSet<&ChunkSig> = sigs.iter().step_by(2).collect();
    let absent = sigs
        .iter()
        .skip(1)
        .step_by(2)
        .filter(|s| !inserted.contains(s));
    c.probe_miss_ns = median_call_ns(rec, "replay.index", "probe_miss", absent, |sig| {
        sink(index.candidates(sig, now).len());
    });

    // engine: the same PUTs and GETs without the service in front.
    let mut store = build_store(cfg.workload.sut());
    let client = ClientId(0);
    let stamp = std::cell::Cell::new(0u64);
    let next_stamp = || {
        stamp.set(stamp.get() + OP_GAP_NS);
        SimTime::from_nanos(stamp.get())
    };
    let ns = median_call_ns(rec, "replay.engine", "write", &puts, |(name, offset, p)| {
        let written = store.write(client, name, *offset, (*p).clone(), next_stamp());
        sink(written.is_ok() as usize);
    });
    c.engine_write_us = ns / 1e3;
    let read_all = |store: &dedup_core::DedupStore, rec: &mut Recorder, call| {
        median_call_ns(rec, "replay.engine", call, &gets, |&(name, offset)| {
            let read = store.read(client, name, offset, block as u64, next_stamp());
            sink(read.map_or(0, |r| r.value.len()));
        }) / 1e3
    };
    c.engine_read_hit_us = read_all(&store, rec, "read_hit");
    stamp.set(stamp.get() + 10_000_000_000);
    let flushed = store.flush_all(next_stamp()).is_ok();
    c.engine_read_redirect_us = if flushed {
        read_all(&store, rec, "read_redirect")
    } else {
        0.0
    };
    c
}

/// Up to `max` views of `view_bytes` each, evenly strided over the dataset.
fn sample_views(inputs: &Inputs, view_bytes: usize, max: usize) -> Vec<Bytes> {
    let all: Vec<Bytes> = inputs
        .objects
        .iter()
        .flat_map(|o| {
            (0..o.data.len())
                .step_by(view_bytes)
                .map(|start| o.data.slice(start..(start + view_bytes).min(o.data.len())))
        })
        .collect();
    let stride = all.len().div_ceil(max).max(1);
    all.into_iter().step_by(stride).collect()
}

/// One line of the layer budget.
#[derive(Debug, Clone, PartialEq)]
pub struct BudgetTerm {
    pub layer: &'static str,
    pub what: &'static str,
    pub count: f64,
    pub unit_ns: f64,
}

impl BudgetTerm {
    pub fn seconds(&self) -> f64 {
        self.count * self.unit_ns / 1e9
    }
}

/// The layer budget of one traced repetition.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Budget {
    pub terms: Vec<BudgetTerm>,
    /// Σ op-span time + settle-span time (+ the worker's flush time
    /// during the paced steps, which no client span covers).
    pub measured_s: f64,
}

impl Budget {
    pub fn explained_s(&self) -> f64 {
        self.terms.iter().map(BudgetTerm::seconds).sum()
    }

    /// Explained over measured; 0.5–1.5 is the expectation.
    pub fn coverage(&self) -> f64 {
        if self.measured_s > 0.0 {
            self.explained_s() / self.measured_s
        } else {
            0.0
        }
    }

    pub fn render(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let _ = writeln!(
            out,
            "{:<12} {:<34} {:>12} {:>12} {:>10}",
            "layer", "unit cost x count", "count", "unit ns", "seconds"
        );
        for t in &self.terms {
            let _ = writeln!(
                out,
                "{:<12} {:<34} {:>12.0} {:>12.1} {:>10.4}",
                t.layer,
                t.what,
                t.count,
                t.unit_ns,
                t.seconds()
            );
        }
        let _ = writeln!(
            out,
            "explained {:.4} s of {:.4} s measured: budget.coverage = {:.3} (expected 0.5-1.5)",
            self.explained_s(),
            self.measured_s,
            self.coverage()
        );
        let _ = writeln!(
            out,
            "not in any term: chunk-map omap loads and updates, refcount/back-reference \
             transactions of deduplicated chunks, hole punches that evict flushed chunks, lock \
             waits, the worker's channel hops; fingerprint and compress terms are CPU time \
             summed over the flush threads, so they can exceed the wall time they overlap in"
        );
        out
    }
}

/// `unit cost × count` per layer for `rep`, against what its spans took.
pub fn budget(cfg: &RunConfig, rep: &Rep, c: &LayerCosts) -> Budget {
    let t = &rep.totals;
    let per_byte_ns = |mibps: f64| {
        if mibps > 0.0 {
            1e9 / (mibps * MIB)
        } else {
            0.0
        }
    };
    let count = |name: &str| t.get(name) as f64;
    let big_puts = rep.put.lat_ns.len() as f64;
    let small_puts = rep.paced.as_ref().map_or(0.0, |p| {
        p.steps
            .iter()
            .flat_map(|s| &s.samples)
            .filter(|s| !s.is_get)
            .count() as f64
    });
    let created = count("engine.flush.chunks_created");
    let deduped = count("engine.flush.chunks_deduped");
    let chunk_write_ns = 1e3
        * if cfg.workload.sut().ec_chunk_pool {
            c.write_ec_us
        } else {
            c.write_rep_block_us
        };
    let chunk_reads = count("engine.cache_hit_chunks") + count("engine.redirected_chunks");
    let store_ops = big_puts + small_puts + created + chunk_reads;
    let term = |layer, what, count, unit_ns| BudgetTerm {
        layer,
        what,
        count,
        unit_ns,
    };
    let terms = vec![
        term(
            "store",
            "PUT -> metadata-pool write",
            big_puts,
            c.write_rep_us * 1e3,
        ),
        term(
            "store",
            "paced PUT -> block write",
            small_puts,
            c.write_rep_block_us * 1e3,
        ),
        term(
            "store",
            "flush stage -> dirty chunk read",
            count("engine.flush.chunks_flushed"),
            c.read_rep_us * 1e3,
        ),
        term(
            "fingerprint",
            "ChunkSig per staged chunk",
            count("engine.fp.sig_calls"),
            c.fp_sig_ns,
        ),
        term("index", "probe, candidates found", deduped, c.probe_hit_ns),
        term(
            "index",
            "probe miss + insert",
            created,
            c.probe_miss_ns + c.insert_ns,
        ),
        term(
            "fingerprint",
            "full hash, per byte",
            count("engine.fp.full_hash_bytes"),
            per_byte_ns(c.fp_full_mibps),
        ),
        term(
            "compress",
            "compress, per byte offered",
            count("engine.compress.attempted_bytes"),
            per_byte_ns(c.compress_mibps),
        ),
        term(
            "store",
            "chunk create -> chunk-pool write",
            created,
            chunk_write_ns,
        ),
        term(
            "store",
            "GET -> chunk read",
            chunk_reads,
            c.read_rep_us * 1e3,
        ),
        term(
            "compress",
            "decompress, per byte returned",
            count("engine.compress.decompressed_bytes"),
            per_byte_ns(c.decompress_mibps),
        ),
        term(
            "placement",
            "acting set per store op",
            store_ops,
            c.placement_ns,
        ),
        term(
            "chunk",
            "fixed slicing, per user byte",
            count("engine.write_bytes"),
            per_byte_ns(c.chunk_fixed_mibps),
        ),
    ];
    let worker_in_steps_s = rep.paced.as_ref().map_or(0.0, |p| {
        let d = &p.delta;
        (d.get("engine.flush.stage_wall_ns")
            + d.get("engine.flush.fingerprint_wall_ns")
            + d.get("engine.flush.commit_wall_ns")) as f64
            / 1e9
    });
    Budget {
        terms,
        measured_s: rep.op_span_s + rep.settle_span_s + worker_in_steps_s,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn coverage_is_explained_over_measured() {
        let budget = Budget {
            terms: vec![
                BudgetTerm {
                    layer: "store",
                    what: "a",
                    count: 1000.0,
                    unit_ns: 500_000.0,
                },
                BudgetTerm {
                    layer: "compress",
                    what: "b",
                    count: 2.0,
                    unit_ns: 125_000_000.0,
                },
            ],
            measured_s: 1.0,
        };
        assert!((budget.explained_s() - 0.75).abs() < 1e-12);
        assert!((budget.coverage() - 0.75).abs() < 1e-12);
        assert!(budget.render().contains("budget.coverage = 0.750"));
        assert_eq!(Budget::default().coverage(), 0.0);
    }
}
