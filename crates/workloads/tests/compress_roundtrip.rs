//! Compressor hardening over the real workload generators.
//!
//! The inline compression plane feeds every flushed chunk through
//! `dedup_compress`, so the compressor must round-trip — and respect its
//! worst-case expansion bound — on exactly the byte distributions the
//! experiment workloads produce: FIO-style dedup mixes, SPEC-SFS-2014-DB
//! file sets, private-cloud VM fleets, and the VM-image set. `proptest`
//! sweeps each generator's parameter space instead of a handful of fixed
//! seeds.

use dedup_compress::{compress, decompress, decompress_with_limit, max_compressed_len};
use dedup_workloads::cloud::CloudSpec;
use dedup_workloads::content::{compressible_block, unique_block};
use dedup_workloads::fio::FioSpec;
use dedup_workloads::sfs::SfsSpec;
use dedup_workloads::vm_images::VmImageSpec;
use proptest::prelude::*;

/// Round-trips one buffer through the compressor and checks the
/// stored-block expansion bound and the exact-size decompress limit the
/// engine uses (it records each chunk's raw length and decodes with
/// `decompress_with_limit(stream, raw_len)`).
fn check(data: &[u8]) {
    let packed = compress(data);
    assert!(
        packed.len() <= max_compressed_len(data.len()),
        "len {} expanded to {} (bound {})",
        data.len(),
        packed.len(),
        max_compressed_len(data.len())
    );
    let got = decompress(&packed).expect("generated stream must decode");
    assert_eq!(&got[..], data);
    let limited = decompress_with_limit(&packed, data.len()).expect("exact limit must fit");
    assert_eq!(&limited[..], data);
}

/// FNV-1a over one stream: enough to tell any two encoders apart.
fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// Stored pools hold these bytes, so the encoder's output changes only on
/// purpose. These are the streams the byte-at-a-time reference encoder
/// produced; any encoder change that moves one byte fails here.
#[test]
fn streams_are_pinned() {
    let vm = VmImageSpec {
        images: 2,
        image_bytes: 256 * 1024,
        seed: 1,
        ..VmImageSpec::default()
    }
    .image(1)
    .data;
    let cloud = CloudSpec::default().scaled(1.0 / 16.0).seed(1).dataset();
    let cloud = cloud.iter_refs().next().expect("one VM disk").1;
    let corpus: Vec<(&str, Vec<u8>)> = vec![
        ("compressible 4 KiB", compressible_block(4096, 7, 1)),
        ("compressible 32 KiB", compressible_block(32 * 1024, 7, 1)),
        ("unique 4 KiB", unique_block(4096, 7, 1)),
        ("unique 32 KiB", unique_block(32 * 1024, 7, 1)),
        ("zeros 32 KiB", vec![0; 32 * 1024]),
        ("abc x 1000", b"abc".repeat(1000)),
        // The last OS block and the user block of the second image.
        ("vm image tail", vm[vm.len() - 64 * 1024..].to_vec()),
        // Base image into the shared pool of the first VM.
        ("cloud slice", cloud[32 * 1024..96 * 1024].to_vec()),
    ];
    const PINNED: [(&str, usize, u64); 8] = [
        ("compressible 4 KiB", 2_264, 0x93f4_a97a_b5b9_13a5),
        ("compressible 32 KiB", 16_748, 0xe9be_b892_7c13_906a),
        ("unique 4 KiB", 4_114, 0x8804_b8eb_8103_d1bf),
        ("unique 32 KiB", 32_898, 0x6066_9ebd_f094_5192),
        ("zeros 32 KiB", 133, 0x8fb2_16b0_69fc_f41d),
        ("abc x 1000", 18, 0x65ac_4e2d_9e23_71df),
        ("vm image tail", 33_189, 0x64a7_10ee_ce77_a475),
        ("cloud slice", 33_007, 0x9d03_91d2_82e3_c26c),
    ];
    const TOTAL_LEN: usize = 122_371;
    let got: Vec<(&str, usize, u64)> = corpus
        .iter()
        .map(|(name, data)| {
            let packed = compress(data);
            (*name, packed.len(), fnv1a(&packed))
        })
        .collect();
    assert_eq!(got, PINNED);
    assert_eq!(got.iter().map(|g| g.1).sum::<usize>(), TOTAL_LEN);
}

/// The streams an encoder whose match-table slots carry each position's
/// 4-byte key could get wrong: windows whose bits equal an all-ones empty
/// slot, a repeat whose key still sits in the table at a distance past the
/// 64 KiB offset limit, and inputs longer than one offset window.
#[test]
fn long_and_sentinel_streams_are_pinned() {
    let mut ff_runs = unique_block(32 * 1024, 11, 1);
    for (k, start) in (0..ff_runs.len() - 64).step_by(811).enumerate() {
        ff_runs[start..start + k % 40 + 1].fill(0xFF);
    }
    // One block at 8 KiB, again 40 KiB later, again 70 KiB after that.
    let block = unique_block(4096, 12, 1);
    let mut far = unique_block(160 * 1024, 13, 1);
    for at in [8 * 1024, 48 * 1024, 118 * 1024] {
        far[at..at + 4096].copy_from_slice(&block);
    }
    let corpus: Vec<(&str, Vec<u8>)> = vec![
        ("0xFF x 32 KiB", vec![0xFF; 32 * 1024]),
        ("random with 0xFF runs", ff_runs),
        ("repeats at 40 and 70 KiB", far),
        (
            "compressible 64 KiB + 1",
            compressible_block(64 * 1024 + 1, 14, 1),
        ),
    ];
    const PINNED: [(&str, usize, u64); 4] = [
        ("0xFF x 32 KiB", 133, 0xd6d3_e84e_ae87_04da),
        ("random with 0xFF runs", 32_332, 0x1de3_93b6_3fce_372f),
        ("repeats at 40 and 70 KiB", 160_393, 0xaf42_47e4_af32_2e7f),
        ("compressible 64 KiB + 1", 33_136, 0xaf96_0473_ed6f_76a9),
    ];
    let got: Vec<(&str, usize, u64)> = corpus
        .iter()
        .map(|(name, data)| {
            check(data);
            let packed = compress(data);
            (*name, packed.len(), fnv1a(&packed))
        })
        .collect();
    assert_eq!(got, PINNED);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// FIO-style mixes across the dedup-fraction and block-size axes.
    #[test]
    fn fio_datasets_round_trip(
        seed in any::<u64>(),
        dup_pct in 0u32..=100,
        block_shift in 12u32..=15, // 4 KiB..32 KiB
    ) {
        let spec = FioSpec::new(256 * 1024, dup_pct as f64 / 100.0)
            .block_size(1 << block_shift)
            .object_size(64 * 1024)
            .seed(seed);
        for (_, data) in spec.dataset().iter_refs() {
            check(data);
        }
    }

    /// SPEC-SFS-2014-DB-style file sets across load levels.
    #[test]
    fn sfs_datasets_round_trip(seed in any::<u64>(), load in 1u32..=4) {
        let spec = SfsSpec::with_load(load)
            .files(6, 32 * 1024)
            .seed(seed);
        for (_, data) in spec.dataset().iter_refs() {
            check(data);
        }
    }

    /// Private-cloud VM fleets (mixed shared/unique block content).
    #[test]
    fn cloud_datasets_round_trip(seed in any::<u64>()) {
        let spec = CloudSpec {
            vms: 4,
            os_images: 2,
            common_pool_blocks: 8,
            block_size: 8 * 1024,
            ..CloudSpec::default()
        }
        .scaled(1.0 / 16.0)
        .seed(seed);
        for (_, data) in spec.dataset().iter_refs() {
            check(data);
        }
    }

    /// VM images: compressible OS region plus per-image user data, and
    /// the incompressible user-image variant.
    #[test]
    fn vm_images_round_trip(seed in any::<u64>(), os_pct in 0u32..=100) {
        let spec = VmImageSpec {
            images: 3,
            image_bytes: 128 * 1024,
            os_fraction: os_pct as f64 / 100.0,
            block_size: 16 * 1024,
            seed,
        };
        for i in 0..spec.images {
            check(&spec.image(i).data);
            check(&spec.incompressible_user_image(i).data);
        }
    }
}
