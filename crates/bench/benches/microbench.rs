//! Criterion microbenchmarks for the core primitives: chunking,
//! fingerprinting, placement, erasure coding, compression, and the dedup
//! engine's hot paths.
//!
//! Run with `cargo bench -p dedup-bench`.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use dedup_chunk::{Chunker, FixedChunker, GearCdcChunker};
use dedup_core::{CachePolicy, DedupConfig, DedupStore};
use dedup_erasure::ReedSolomon;
use dedup_fingerprint::Fingerprint;
use dedup_placement::{ClusterMap, PgMap, PlacementRule, PoolId};
use dedup_sim::SimTime;
use dedup_store::{ClientId, ClusterBuilder, ObjectName};

fn patterned(len: usize, seed: u64) -> Vec<u8> {
    let mut state = seed | 1;
    (0..len)
        .map(|_| {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
            (state >> 33) as u8
        })
        .collect()
}

fn bench_fingerprint(c: &mut Criterion) {
    let mut g = c.benchmark_group("fingerprint");
    for size in [4 * 1024, 32 * 1024, 128 * 1024] {
        let data = patterned(size, 1);
        g.throughput(Throughput::Bytes(size as u64));
        g.bench_with_input(BenchmarkId::from_parameter(size), &data, |b, d| {
            b.iter(|| Fingerprint::of(d))
        });
    }
    g.finish();
}

fn bench_chunking(c: &mut Criterion) {
    let data = patterned(4 << 20, 2);
    let mut g = c.benchmark_group("chunking");
    g.throughput(Throughput::Bytes(data.len() as u64));
    g.bench_function("fixed_32k", |b| {
        let ch = FixedChunker::new(32 * 1024);
        b.iter(|| ch.chunks(&data))
    });
    g.bench_function("gear_cdc_32k", |b| {
        let ch = GearCdcChunker::with_avg_size(32 * 1024);
        b.iter(|| ch.chunks(&data))
    });
    g.finish();
}

fn bench_placement(c: &mut Criterion) {
    let mut map = ClusterMap::new();
    for _ in 0..4 {
        let n = map.add_node();
        for _ in 0..4 {
            map.add_osd(n, 1.0);
        }
    }
    let pgs = PgMap::new(PoolId(1), 128);
    let rule = PlacementRule::spread_nodes(3);
    c.bench_function("placement/acting_set", |b| {
        let mut i = 0u64;
        b.iter(|| {
            i += 1;
            let pg = pgs.pg_of(format!("obj-{i}").as_bytes());
            map.acting_set(pg, &rule)
        })
    });
}

fn bench_erasure(c: &mut Criterion) {
    let rs = ReedSolomon::new(2, 1).expect("codec");
    let data = patterned(1 << 20, 3);
    let mut g = c.benchmark_group("erasure");
    g.throughput(Throughput::Bytes(data.len() as u64));
    g.bench_function("encode_2_1_1MiB", |b| b.iter(|| rs.encode_object(&data)));
    let shards = rs.encode_object(&data).expect("encode");
    g.bench_function("reconstruct_one_loss_1MiB", |b| {
        b.iter(|| {
            let mut partial: Vec<Option<Vec<u8>>> = shards.iter().cloned().map(Some).collect();
            partial[0] = None;
            rs.decode_object(partial, data.len()).expect("decode")
        })
    });
    g.finish();
}

fn bench_compression(c: &mut Criterion) {
    let compressible = {
        let mut v = Vec::new();
        for i in 0..4096 {
            v.extend_from_slice(format!("entry_{}=value_{}\n", i % 41, i % 13).as_bytes());
        }
        v
    };
    let mut g = c.benchmark_group("compression");
    g.throughput(Throughput::Bytes(compressible.len() as u64));
    g.bench_function("compress_text", |b| {
        b.iter(|| dedup_compress::compress(&compressible))
    });
    let packed = dedup_compress::compress(&compressible);
    g.bench_function("decompress_text", |b| {
        b.iter(|| dedup_compress::decompress(&packed).expect("ok"))
    });
    g.finish();
}

fn bench_engine(c: &mut Criterion) {
    let mut g = c.benchmark_group("engine");
    g.sample_size(20);
    g.bench_function("write_32k_postprocess", |b| {
        let cluster = ClusterBuilder::new().build();
        let store = DedupStore::with_default_pools(
            cluster,
            DedupConfig::with_chunk_size(32 * 1024).cache_policy(CachePolicy::EvictAll),
        );
        let data = patterned(32 * 1024, 4);
        let mut i = 0u64;
        b.iter(|| {
            i += 1;
            let name = ObjectName::new(format!("o{}", i % 256));
            store
                .write(ClientId(0), &name, 0, &data, SimTime::from_nanos(i))
                .expect("write")
        })
    });
    g.bench_function("write_flush_cycle_128k", |b| {
        let cluster = ClusterBuilder::new().build();
        let store = DedupStore::with_default_pools(
            cluster,
            DedupConfig::with_chunk_size(32 * 1024).cache_policy(CachePolicy::EvictAll),
        );
        let data = patterned(128 * 1024, 5);
        let mut i = 0u64;
        b.iter(|| {
            i += 1;
            let name = ObjectName::new(format!("o{}", i % 64));
            let _ = store
                .write(ClientId(0), &name, 0, &data, SimTime::from_secs(i))
                .expect("write");
            store.flush_all(SimTime::from_secs(i)).expect("flush")
        })
    });
    g.finish();
}

criterion_group!(
    benches,
    bench_fingerprint,
    bench_chunking,
    bench_placement,
    bench_erasure,
    bench_compression,
    bench_engine
);
criterion_main!(benches);
