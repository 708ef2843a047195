//! Generated inputs and the correctness oracle.
//!
//! Everything the program under test receives is built here from the seed,
//! before any timed region: datasets striped RBD-style into fixed-size
//! objects, payloads as zero-copy `Bytes` slices of one allocation per
//! generated object, the pool of overwrite blocks, and a per-block checksum
//! table that every GET and the final read-back are checked against.

use bytes::Bytes;
use dedup_store::ObjectName;
use dedup_workloads::cloud::CloudSpec;
use dedup_workloads::content::compressible_block;
use dedup_workloads::fio::FioSpec;

pub const MIB: f64 = (1u64 << 20) as f64;

/// Sizes of one benchmark run. The ledger runs [`Scale::FULL`]; unit tests
/// run the same code at [`Scale::TINY`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Scale {
    /// Factor on `CloudSpec::default()` (24 VM disks of 4 MiB at 1.0).
    pub cloud_factor: f64,
    /// Bytes of the all-unique FIO fill.
    pub fio_bytes: u64,
    /// Striping unit: one stored object.
    pub object_bytes: usize,
    /// Sequential PUT size of the ingest pass.
    pub put_bytes: usize,
    /// Chunk size = GET size = overwrite size.
    pub block_bytes: usize,
    /// Random GETs per `read-cold` repetition, over all clients.
    pub cold_gets: usize,
    /// Pre-generated compressible overwrite blocks on `mixed-paced`.
    pub pool_blocks: usize,
}

impl Scale {
    /// 192 MiB per dataset: 6 144 chunks, enough to overflow the tiered
    /// index's 4 096-entry hot tier on the all-unique fill.
    pub const FULL: Scale = Scale {
        cloud_factor: 2.0,
        fio_bytes: 192 << 20,
        object_bytes: 1 << 20,
        put_bytes: 128 << 10,
        block_bytes: 32 << 10,
        cold_gets: 49_152,
        pool_blocks: 1024,
    };

    #[cfg(test)]
    pub const TINY: Scale = Scale {
        cloud_factor: 1.0 / 16.0,
        fio_bytes: 6 << 20,
        object_bytes: 256 << 10,
        put_bytes: 128 << 10,
        block_bytes: 32 << 10,
        cold_gets: 256,
        pool_blocks: 16,
    };
}

/// Which generator feeds a workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DatasetKind {
    /// VM-fleet images: ≈45 % global duplicates, text-like compressible
    /// shared blocks, random unique blocks.
    CloudDup,
    /// FIO fill with 0 % duplicates: all-unique, incompressible.
    FioUnique,
}

/// One stored object: its name, its bytes, and the checksum of each block.
#[derive(Debug, Clone)]
pub struct Object {
    pub name: ObjectName,
    pub data: Bytes,
    pub sums: Vec<u64>,
}

/// The generated inputs of one repetition.
#[derive(Debug, Clone)]
pub struct Inputs {
    pub objects: Vec<Object>,
    pub block_bytes: usize,
}

impl Inputs {
    /// Generates the dataset for `kind` from `seed` and stripes it.
    pub fn generate(kind: DatasetKind, seed: u64, scale: &Scale) -> Inputs {
        let dataset = match kind {
            DatasetKind::CloudDup => CloudSpec::default()
                .scaled(scale.cloud_factor)
                .seed(seed)
                .dataset(),
            DatasetKind::FioUnique => FioSpec::new(scale.fio_bytes, 0.0)
                .block_size(scale.block_bytes as u32)
                .object_size(scale.object_bytes as u32)
                .seed(seed)
                .dataset(),
        };
        let mut objects = Vec::new();
        for generated in dataset.objects {
            // One allocation per generated object; stripes are views of it.
            let whole = Bytes::from(generated.data);
            for (stripe, start) in (0..whole.len()).step_by(scale.object_bytes).enumerate() {
                let end = (start + scale.object_bytes).min(whole.len());
                let data = whole.slice(start..end);
                let sums = data.chunks(scale.block_bytes).map(checksum).collect();
                objects.push(Object {
                    name: ObjectName::new(format!("{}.{stripe:04}", generated.name)),
                    data,
                    sums,
                });
            }
        }
        Inputs {
            objects,
            block_bytes: scale.block_bytes,
        }
    }

    pub fn total_bytes(&self) -> u64 {
        self.objects.iter().map(|o| o.data.len() as u64).sum()
    }

    #[cfg(test)]
    pub fn total_blocks(&self) -> usize {
        self.objects.iter().map(|o| o.sums.len()).sum()
    }
}

/// The `mixed-paced` overwrite pool: compressible blocks, each with its
/// checksum, so an overwrite is a refcount bump and a table update.
pub fn overwrite_pool(seed: u64, scale: &Scale) -> Vec<(Bytes, u64)> {
    (0..scale.pool_blocks as u64)
        .map(|k| {
            let block = compressible_block(scale.block_bytes, (0xB10C << 40) | k, seed);
            let sum = checksum(&block);
            (Bytes::from(block), sum)
        })
        .collect()
}

/// 64-bit checksum of a block: four independent multiply-rotate lanes over
/// 8-byte words, then a fold. Each lane step is a bijection of the lane
/// state for a fixed word and of the word for a fixed state, so any
/// single-word change moves the result; it is not a cryptographic hash and
/// does not need to be — the oracle only has to catch the store returning
/// the wrong bytes.
pub fn checksum(data: &[u8]) -> u64 {
    const K: [u64; 4] = [
        0x9E37_79B9_7F4A_7C15,
        0xC2B2_AE3D_27D4_EB4F,
        0x1656_67B1_9E37_79F9,
        0x27D4_EB2F_1656_67C5,
    ];
    let mut lanes = K;
    let mut blocks = data.chunks_exact(32);
    for block in &mut blocks {
        for (lane, word) in lanes.iter_mut().zip(block.chunks_exact(8)) {
            let w = u64::from_le_bytes(word.try_into().expect("8-byte word"));
            *lane = (*lane ^ w).wrapping_mul(K[0]).rotate_left(29);
        }
    }
    let mut h = data.len() as u64;
    for &b in blocks.remainder() {
        h = (h ^ u64::from(b)).wrapping_mul(K[1]).rotate_left(23);
    }
    for (lane, k) in lanes.iter().zip(K) {
        h = (h ^ lane).wrapping_mul(k).rotate_left(31);
    }
    h ^ (h >> 32)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn checksum_sees_every_byte_and_the_length() {
        let base: Vec<u8> = (0..1000u32).map(|i| (i * 7) as u8).collect();
        let sum = checksum(&base);
        for i in 0..base.len() {
            let mut changed = base.clone();
            changed[i] ^= 1;
            assert_ne!(checksum(&changed), sum, "byte {i} must matter");
        }
        assert_ne!(checksum(&base[..999]), sum);
        assert_ne!(checksum(&[]), checksum(&[0]));
    }

    #[test]
    fn same_seed_same_inputs_other_seed_other_inputs() {
        for kind in [DatasetKind::CloudDup, DatasetKind::FioUnique] {
            let a = Inputs::generate(kind, 1, &Scale::TINY);
            let b = Inputs::generate(kind, 1, &Scale::TINY);
            let c = Inputs::generate(kind, 2, &Scale::TINY);
            let sums = |i: &Inputs| {
                i.objects
                    .iter()
                    .flat_map(|o| o.sums.clone())
                    .collect::<Vec<_>>()
            };
            assert_eq!(sums(&a), sums(&b));
            assert_ne!(sums(&a), sums(&c));
            assert_eq!(a.total_bytes(), 6 << 20);
            assert_eq!(a.total_blocks(), 192);
            assert!(a
                .objects
                .iter()
                .all(|o| o.data.len() == Scale::TINY.object_bytes));
        }
    }

    #[test]
    fn datasets_have_the_shape_each_workload_needs() {
        let distinct = |inputs: &Inputs| {
            inputs
                .objects
                .iter()
                .flat_map(|o| o.sums.iter())
                .collect::<std::collections::BTreeSet<_>>()
                .len()
        };
        let dup = Inputs::generate(DatasetKind::CloudDup, 1, &Scale::TINY);
        let unique = Inputs::generate(DatasetKind::FioUnique, 1, &Scale::TINY);
        assert_eq!(
            distinct(&unique),
            unique.total_blocks(),
            "no duplicate block"
        );
        assert!(
            distinct(&dup) * 10 < dup.total_blocks() * 9,
            "cloud dataset carries duplicates"
        );
    }

    #[test]
    fn overwrite_pool_is_seeded_and_sized() {
        let a = overwrite_pool(3, &Scale::TINY);
        let b = overwrite_pool(3, &Scale::TINY);
        assert_eq!(a.len(), Scale::TINY.pool_blocks);
        assert!(a
            .iter()
            .all(|(block, sum)| block.len() == 32 << 10 && checksum(block) == *sum));
        assert_eq!(
            a.iter().map(|p| p.1).collect::<Vec<_>>(),
            b.iter().map(|p| p.1).collect::<Vec<_>>()
        );
        assert_ne!(a[0].1, overwrite_pool(4, &Scale::TINY)[0].1);
    }
}
