//! Integration tests for the inline compression plane.
//!
//! The plane's contract, stated as invariants:
//!
//! * **Zero-copy stored-raw path** — when no chunk compresses below the
//!   keep-threshold, the flush path allocates nothing extra: the
//!   `engine.bytes_copied` trajectory is *identical* to a
//!   compression-off store running the same workload.
//! * **Byte-identical reads** — clients cannot tell how a chunk is
//!   stored. Full and unaligned partial reads return the same bytes
//!   with compression off and on, including mixed pools holding both
//!   stored forms.
//! * **Dedup conformance** — a chunk's name hashes its raw bytes, so
//!   identical plaintext dedups however it is stored, under names pinned
//!   as literals.
//! * **Capacity** — on VM images (a shared compressible OS region) the
//!   plane stores at least 30 % fewer unique chunk-pool bytes.

use dedup_core::{DedupConfig, DedupStore};
use dedup_sim::SimTime;
use dedup_store::{ClientId, ClusterBuilder, ObjectName};
use dedup_workloads::vm_images::VmImageSpec;

const CS: u32 = 4096;

fn store_with(config: DedupConfig) -> DedupStore {
    let cluster = ClusterBuilder::new().nodes(4).osds_per_node(4).build();
    DedupStore::with_default_pools(cluster, config)
}

fn t(secs: u64) -> SimTime {
    SimTime::from_secs(secs)
}

/// Pseudorandom bytes: no window repeats, so every chunk falls back to
/// raw storage under the default keep-threshold.
fn rand_bytes(len: usize, seed: u64) -> Vec<u8> {
    let mut state = seed | 1;
    (0..len)
        .map(|_| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state >> 32) as u8
        })
        .collect()
}

/// Long runs with a sparse marker: compresses far below the threshold.
fn compressible(len: usize, seed: u64) -> Vec<u8> {
    let b = ((seed >> 8) as u8) | 1;
    (0..len)
        .map(|i| if i % 64 < 56 { b } else { (i % 7) as u8 })
        .collect()
}

fn copied(s: &DedupStore) -> u64 {
    s.registry().counter("engine.bytes_copied").get()
}

/// When every chunk is incompressible, the CoW fast path keeps the
/// original `Bytes` view: the store behaves copy-for-copy like one with
/// compression disabled, on the flush path *and* on reads of the
/// stored-raw chunks afterwards.
#[test]
fn incompressible_workload_copies_nothing_extra() {
    let data = rand_bytes(48 * CS as usize, 0xfeed);
    let name = ObjectName::new("rand");

    let run = |config: DedupConfig| {
        let s = store_with(config);
        let _ = s
            .write(ClientId(0), &name, 0, data.clone(), t(0))
            .expect("write");
        let _ = s.flush_all(t(1)).expect("flush");
        let after_flush = copied(&s);
        let r = s
            .read(ClientId(0), &name, 0, data.len() as u64, t(2))
            .expect("read");
        assert_eq!(r.value, data[..]);
        (after_flush, copied(&s), s)
    };

    let (off_flush, off_read, _off) = run(DedupConfig::with_chunk_size(CS));
    let (on_flush, on_read, on) = run(DedupConfig::with_chunk_size(CS).compress());

    assert_eq!(
        on_flush, off_flush,
        "stored-raw flush path must not copy a single extra byte"
    );
    assert_eq!(
        on_read, off_read,
        "reads of stored-raw chunks must not copy a single extra byte"
    );
    // And the raw fallback was actually exercised, not vacuously.
    assert!(on.registry().counter("engine.compress.raw_fallbacks").get() > 0);
    assert_eq!(
        on.registry().counter("engine.compress.stored_chunks").get(),
        0,
        "pseudorandom chunks must not have compressed"
    );
}

/// One mixed write per object: compressible head, incompressible middle,
/// duplicate-of-head tail. Produces a pool holding both stored forms.
fn mixed_payload() -> Vec<u8> {
    let mut v = compressible(8 * CS as usize, 0xa1);
    v.extend(rand_bytes(8 * CS as usize, 0xb2));
    v.extend(compressible(8 * CS as usize, 0xa1));
    v
}

/// Clients cannot observe the stored form: full reads, unaligned partial
/// reads, and reads spanning the compressed/raw boundary all return the
/// same bytes in every mode, over a pool that holds both stored forms.
#[test]
fn reads_byte_identical_across_modes_and_mixed_pools() {
    let data = mixed_payload();
    let name = ObjectName::new("mixed");
    // Offsets chosen to split chunks mid-payload and to straddle the
    // boundary between compressed-stored and raw-stored chunks.
    let cuts: &[(u64, u64)] = &[
        (0, 24 * CS as u64),
        (1, CS as u64 - 2),
        (CS as u64 / 2, 2 * CS as u64),
        (8 * CS as u64 - 7, 15),
        (7 * CS as u64 + 3, 2 * CS as u64),
        (23 * CS as u64, CS as u64),
    ];

    let configs = [
        DedupConfig::with_chunk_size(CS),
        DedupConfig::with_chunk_size(CS).compress(),
    ];
    for (i, config) in configs.into_iter().enumerate() {
        let compress_on = i > 0;
        let s = store_with(config);
        let _ = s
            .write(ClientId(0), &name, 0, data.clone(), t(0))
            .expect("write");
        let _ = s.flush_all(t(1)).expect("flush");
        for &(off, len) in cuts {
            let r = s
                .read(ClientId(0), &name, off, len, t(2))
                .expect("partial read");
            assert_eq!(
                r.value,
                data[off as usize..(off + len) as usize],
                "mode {i} read at {off}+{len} diverged"
            );
        }
        if compress_on {
            let report = s.compression_report().expect("report");
            assert!(report.compressed_chunks > 0, "mode {i}: no compressed form");
            assert!(report.raw_chunks > 0, "mode {i}: no raw form");
            assert!(report.saved_bytes() > 0);
            assert!(report.ratio_ppm() < 1_000_000);
        }
    }
}

/// FNV-1a over the chunk pool's object names, sorted, one per line.
fn chunk_names_digest(s: &DedupStore) -> u64 {
    let mut names: Vec<String> = s
        .cluster()
        .list_objects(s.chunk_pool())
        .expect("list chunk pool")
        .iter()
        .map(|n| n.as_str().to_string())
        .collect();
    names.sort();
    names
        .iter()
        .flat_map(|n| n.bytes().chain([b'\n']))
        .fold(0xcbf2_9ce4_8422_2325, |h, b| {
            (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3)
        })
}

/// A chunk's name hashes its raw bytes whether or not it is stored
/// compressed: the same plaintext written again under a second name adds
/// no chunk object. The names themselves and the bytes hashed to reach
/// them are pinned, classic and tiered, as recorded before the compressed
/// fingerprint domain was deleted; any change to how chunks are named
/// fails here.
#[test]
fn identical_plaintext_dedups_under_pinned_raw_names() {
    let data = mixed_payload();
    // (mode, chunk objects, names digest, full-hash bytes)
    const PINNED: [(&str, u64, u64, u64); 2] = [
        ("classic", 15, 0xe577_c9b0_51c3_34f9, 196_608),
        ("tiered", 15, 0x5350_167f_1ed9_c551, 196_608),
    ];
    let configs = [
        DedupConfig::with_chunk_size(CS).compress(),
        DedupConfig::with_chunk_size(CS)
            .compress()
            .tiered_fingerprint(),
    ];
    for ((mode, objects, digest, hashed), config) in PINNED.into_iter().zip(configs) {
        let s = store_with(config);
        let _ = s
            .write(ClientId(0), &ObjectName::new("a"), 0, data.clone(), t(0))
            .expect("write a");
        let _ = s.flush_all(t(1)).expect("flush a");
        let first = s.space_report().expect("space").chunk_objects;
        let _ = s
            .write(ClientId(0), &ObjectName::new("b"), 0, data.clone(), t(2))
            .expect("write b");
        let _ = s.flush_all(t(3)).expect("flush b");
        let second = s.space_report().expect("space").chunk_objects;
        let got = (
            second,
            chunk_names_digest(&s),
            s.registry().counter("engine.fp.full_hash_bytes").get(),
        );
        assert_eq!(
            first, second,
            "{mode}: duplicate plaintext created new chunk objects"
        );
        assert_eq!(got, (objects, digest, hashed), "{mode}: chunk names moved");
    }
}

/// VM images share a compressible OS region: with the plane on, the same
/// images must occupy at least 30 % fewer unique chunk-pool bytes, and
/// read back the same.
#[test]
fn vm_images_store_at_least_thirty_percent_fewer_chunk_bytes() {
    let spec = VmImageSpec {
        images: 3,
        image_bytes: 1 << 20,
        block_size: 64 * 1024,
        ..Default::default()
    };
    let images = spec.all_images();
    let run = |config: DedupConfig| {
        let s = store_with(config);
        for img in &images {
            let _ = s
                .write(
                    ClientId(0),
                    &ObjectName::new(&*img.name),
                    0,
                    img.data.clone(),
                    t(0),
                )
                .expect("write image");
        }
        let _ = s.flush_all(t(3_600)).expect("flush");
        for img in &images {
            let r = s
                .read(
                    ClientId(0),
                    &ObjectName::new(&*img.name),
                    0,
                    spec.image_bytes,
                    t(7_200),
                )
                .expect("read image");
            assert_eq!(r.value, img.data, "{} read back differently", img.name);
        }
        s.space_report().expect("space").chunk_bytes
    };
    let off = run(DedupConfig::with_chunk_size(spec.block_size));
    let on = run(DedupConfig::with_chunk_size(spec.block_size).compress());
    assert!(
        on * 10 <= off * 7,
        "VM images must save >= 30% unique chunk bytes with compression on: {off} -> {on}"
    );
}

/// The capacity sampler threads compression accounting through the
/// returned sample — including the disabled case, where it reads as the
/// no-op defaults — and agrees with the standalone compression report.
#[test]
fn capacity_sample_reports_compression_plane() {
    let s = store_with(DedupConfig::with_chunk_size(CS).compress());
    let _ = s
        .write(ClientId(0), &ObjectName::new("m"), 0, mixed_payload(), t(0))
        .expect("write");
    let _ = s.flush_all(t(1)).expect("flush");
    let sample = s.sample_capacity(t(2)).expect("sample");
    assert!(sample.compression.compressed_chunks > 0);
    assert!(sample.compression.raw_chunks > 0);
    assert_eq!(sample.compression, s.compression_report().expect("report"));
    assert!(sample.compression.ratio_ppm() < 1_000_000);
    assert_eq!(
        sample.compression.saved_bytes(),
        sample.compression.compressed_logical_bytes - sample.compression.compressed_stored_bytes
    );

    let off = store_with(DedupConfig::with_chunk_size(CS));
    let sample = off.sample_capacity(t(0)).expect("sample");
    assert_eq!(sample.compression.compressed_chunks, 0);
    assert_eq!(sample.compression.ratio_ppm(), 1_000_000);
}
