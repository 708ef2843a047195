//! Content fingerprints — the first level of the paper's *double hashing*.
//!
//! A chunk's fingerprint **is** its object ID in the chunk pool: two chunks
//! with identical contents hash to the same ID, so the underlying placement
//! hash (the second level) sends them to the same device, and the store's
//! ordinary name-collision handling deduplicates them. No fingerprint index
//! exists anywhere.
//!
//! The fingerprint here is 256 bits built from four independently-seeded
//! xxHash64 lanes. It is not cryptographic — the simulation does not face
//! adversarial inputs — but it is wide enough that accidental collisions are
//! effectively impossible at any simulated scale, mirroring the role SHA-1 /
//! SHA-256 plays in production dedup systems.
//!
//! # Example
//!
//! ```
//! use dedup_fingerprint::Fingerprint;
//!
//! let a = Fingerprint::of(b"same bytes");
//! let b = Fingerprint::of(b"same bytes");
//! assert_eq!(a, b);
//! assert_eq!(a.to_object_name(), b.to_object_name());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::fmt;

use dedup_placement::hash::xxh64;
use serde::{Deserialize, Serialize};

/// Per-lane seeds; arbitrary distinct odd constants.
const LANE_SEEDS: [u64; 4] = [
    0x0000_0000_0000_0000,
    0x9E37_79B9_7F4A_7C15,
    0xC2B2_AE3D_27D4_EB4F,
    0x1656_67B1_9E37_79F9,
];

/// Marker value in lane 3 of a *weak* fingerprint minted by
/// [`Fingerprint::mint_weak`]. A genuine content hash lands on this exact
/// lane value with probability 2^-64 per chunk — negligible at any
/// simulated scale (and harmless: a false `is_weak` only suppresses a
/// memoization shortcut, never correctness).
const WEAK_MARKER: u64 = 0x7765_616b_2d66_7031; // "weak-fp1"

/// A 256-bit content fingerprint.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct Fingerprint(pub [u64; 4]);

impl Fingerprint {
    /// The fingerprint of zero-length content, precomputed. Truncate-grown
    /// holes stage empty chunks; hashing each one redundantly re-derives
    /// this exact constant, so [`Fingerprint::of`] short-circuits to it.
    /// Pinned by a regression test against the raw lane computation.
    pub const EMPTY: Fingerprint = Fingerprint([
        0xef46_db37_51d8_e999,
        0xc434_9fc9_3c01_0000,
        0xadee_8354_2c1d_2733,
        0x766b_3308_c7fd_7d49,
    ]);

    /// Fingerprints `data`. Zero-length content short-circuits to
    /// [`Fingerprint::EMPTY`] without touching the hash lanes.
    pub fn of(data: &[u8]) -> Self {
        if data.is_empty() {
            return Self::EMPTY;
        }
        Self::compute(data)
    }

    /// The raw four-lane hash with no empty-content short-circuit; exists
    /// so tests can pin [`Fingerprint::EMPTY`] against it.
    fn compute(data: &[u8]) -> Self {
        Fingerprint([
            xxh64(data, LANE_SEEDS[0]),
            xxh64(data, LANE_SEEDS[1]),
            xxh64(data, LANE_SEEDS[2]),
            xxh64(data, LANE_SEEDS[3]),
        ])
    }

    /// Mints a *weak* fingerprint for a chunk the tiered candidate
    /// pipeline proved globally unique by cheap signature alone (see
    /// `dedup-core`'s `ChunkIndex`): the chunk is stored without ever
    /// paying a full content hash, under a name derived from its
    /// [`ChunkSig`] plus a store-monotonic sequence number. Sequence
    /// numbers are never reused, so a weak name — unlike a content hash —
    /// can only ever refer to one chunk's content for the life of the
    /// store.
    pub fn mint_weak(sig: &ChunkSig, seq: u64) -> Self {
        Fingerprint([sig.sample, sig.len as u64, seq, WEAK_MARKER])
    }

    /// Whether this fingerprint was minted by [`Fingerprint::mint_weak`]
    /// rather than computed from content.
    pub fn is_weak(&self) -> bool {
        self.0[3] == WEAK_MARKER
    }

    /// The mint sequence number of a weak fingerprint, `None` for a
    /// content hash. Recovery resumes the mint counter past the maximum
    /// surviving sequence so names are never reused across restarts.
    pub fn weak_seq(&self) -> Option<u64> {
        if self.is_weak() {
            Some(self.0[2])
        } else {
            None
        }
    }

    /// Renders the chunk-pool object name for this fingerprint.
    ///
    /// The name embeds the full digest, so equality of names is equality of
    /// fingerprints — this is the content-addressed object ID of the paper's
    /// Fig. 6(c).
    pub fn to_object_name(self) -> String {
        format!(
            "chunk-{:016x}{:016x}{:016x}{:016x}",
            self.0[0], self.0[1], self.0[2], self.0[3]
        )
    }

    /// Parses a name produced by [`Fingerprint::to_object_name`].
    pub fn from_object_name(name: &str) -> Option<Self> {
        let hex = name.strip_prefix("chunk-")?;
        if hex.len() != 64 {
            return None;
        }
        let mut lanes = [0u64; 4];
        for (i, lane) in lanes.iter_mut().enumerate() {
            *lane = u64::from_str_radix(&hex[i * 16..(i + 1) * 16], 16).ok()?;
        }
        Some(Fingerprint(lanes))
    }

    /// A short prefix for logs and debugging.
    pub fn short(&self) -> String {
        format!("{:08x}", (self.0[0] >> 32) as u32)
    }
}

impl fmt::Display for Fingerprint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{:016x}{:016x}{:016x}{:016x}",
            self.0[0], self.0[1], self.0[2], self.0[3]
        )
    }
}

/// Bytes a [`ChunkSig`] actually hashes (three fixed 16-byte windows);
/// cost models charge signature CPU for this many bytes instead of the
/// whole chunk.
pub const SIG_SAMPLE_BYTES: u64 = 48;

/// Seed for the sparse-sample signature hash, distinct from every
/// fingerprint lane seed.
const SIG_SEED: u64 = 0x5349_475f_5345_4544; // "SIG_SEED"

/// A cheap two-field discriminator for the tiered fingerprint pipeline:
/// the exact chunk length plus a 64-bit xxHash over three fixed 16-byte
/// windows (head, middle, tail) of the content.
///
/// Equal content always produces an equal signature, so a signature *miss*
/// against every stored chunk proves global uniqueness — the chunk can be
/// admitted without ever paying a full fingerprint. A signature *hit* is
/// only a candidate: contents differing solely between the sampled windows
/// collide, and the pipeline falls through to the full fingerprint for
/// exact matching.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct ChunkSig {
    /// Sparse-sample hash over the fixed windows, seeded with the length.
    pub sample: u64,
    /// Exact content length — the first, free discriminator.
    pub len: u32,
}

impl ChunkSig {
    /// Signs `data`. Content of at most [`SIG_SAMPLE_BYTES`] is hashed
    /// whole (it is already cheaper than the sample windows).
    pub fn of(data: &[u8]) -> Self {
        let len = data.len() as u32;
        let seed = SIG_SEED ^ len as u64;
        let sample = if data.len() <= SIG_SAMPLE_BYTES as usize {
            xxh64(data, seed)
        } else {
            let mut buf = [0u8; SIG_SAMPLE_BYTES as usize];
            let mid = data.len() / 2 - 8;
            buf[..16].copy_from_slice(&data[..16]);
            buf[16..32].copy_from_slice(&data[mid..mid + 16]);
            buf[32..].copy_from_slice(&data[data.len() - 16..]);
            xxh64(&buf, seed)
        };
        ChunkSig { sample, len }
    }
}

/// CPU cost model for fingerprinting, used by the timing plane to charge a
/// node's CPU when the dedup engine hashes a chunk (paper Fig. 10's CPU
/// overhead).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct FingerprintCostModel {
    /// Hashing throughput of one core in bytes per second.
    pub bytes_per_sec: u64,
}

impl Default for FingerprintCostModel {
    /// Roughly SHA-256 software throughput on one 2.6 GHz core.
    fn default() -> Self {
        FingerprintCostModel {
            bytes_per_sec: 400 * 1024 * 1024,
        }
    }
}

impl FingerprintCostModel {
    /// Virtual CPU nanoseconds to fingerprint `bytes`.
    pub fn nanos_for(&self, bytes: u64) -> u64 {
        if self.bytes_per_sec == 0 {
            return 0;
        }
        ((bytes as u128 * 1_000_000_000) / self.bytes_per_sec as u128) as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn equal_content_equal_fingerprint() {
        assert_eq!(Fingerprint::of(b"abc"), Fingerprint::of(b"abc"));
    }

    #[test]
    fn different_content_different_fingerprint() {
        assert_ne!(Fingerprint::of(b"abc"), Fingerprint::of(b"abd"));
        assert_ne!(Fingerprint::of(b""), Fingerprint::of(b"\0"));
    }

    #[test]
    fn lanes_are_independent() {
        let fp = Fingerprint::of(b"lane check");
        let mut lanes = fp.0.to_vec();
        lanes.dedup();
        assert_eq!(lanes.len(), 4, "lanes collided: {fp}");
    }

    #[test]
    fn object_name_round_trips() {
        let fp = Fingerprint::of(b"round trip me");
        let name = fp.to_object_name();
        assert!(name.starts_with("chunk-"));
        assert_eq!(Fingerprint::from_object_name(&name), Some(fp));
    }

    #[test]
    fn object_name_rejects_garbage() {
        assert_eq!(Fingerprint::from_object_name("not-a-chunk"), None);
        assert_eq!(Fingerprint::from_object_name("chunk-zz"), None);
        assert_eq!(Fingerprint::from_object_name("chunk-"), None);
    }

    #[test]
    fn no_collisions_across_many_inputs() {
        let mut seen = std::collections::HashSet::new();
        for i in 0..100_000u32 {
            let data = i.to_le_bytes();
            assert!(seen.insert(Fingerprint::of(&data)), "collision at {i}");
        }
    }

    #[test]
    fn display_is_64_hex_chars() {
        let s = Fingerprint::of(b"x").to_string();
        assert_eq!(s.len(), 64);
        assert!(s.chars().all(|c| c.is_ascii_hexdigit()));
    }

    #[test]
    fn empty_fingerprint_is_pinned() {
        // Regression pin: the short-circuit constant must equal the raw
        // four-lane hash of empty content, and must never drift — it is a
        // stored chunk-object *name*.
        assert_eq!(Fingerprint::compute(b""), Fingerprint::EMPTY);
        assert_eq!(Fingerprint::of(b""), Fingerprint::EMPTY);
        assert_eq!(
            Fingerprint::EMPTY.to_object_name(),
            format!(
                "chunk-{:016x}{:016x}{:016x}{:016x}",
                Fingerprint::EMPTY.0[0],
                Fingerprint::EMPTY.0[1],
                Fingerprint::EMPTY.0[2],
                Fingerprint::EMPTY.0[3]
            )
        );
    }

    #[test]
    fn weak_fingerprints_round_trip_and_never_collide_with_content() {
        let sig = ChunkSig::of(b"some chunk body");
        let w = Fingerprint::mint_weak(&sig, 7);
        assert!(w.is_weak());
        assert_eq!(w.weak_seq(), Some(7));
        assert_eq!(Fingerprint::from_object_name(&w.to_object_name()), Some(w));
        // Distinct sequence numbers give distinct names even for equal sigs.
        assert_ne!(w, Fingerprint::mint_weak(&sig, 8));
        // Content hashes are never flagged weak.
        for i in 0..1000u32 {
            let fp = Fingerprint::of(&i.to_le_bytes());
            assert!(!fp.is_weak());
            assert_eq!(fp.weak_seq(), None);
        }
    }

    #[test]
    fn sig_equal_content_equal_sig() {
        let data = vec![0xabu8; 100_000];
        assert_eq!(ChunkSig::of(&data), ChunkSig::of(&data.clone()));
    }

    #[test]
    fn sig_discriminates_length_and_sampled_windows() {
        let a = vec![1u8; 4096];
        let mut b = a.clone();
        b.push(1);
        assert_ne!(ChunkSig::of(&a), ChunkSig::of(&b), "length discriminates");
        let mut c = a.clone();
        c[0] ^= 0xff; // head window
        assert_ne!(ChunkSig::of(&a), ChunkSig::of(&c));
        let mut d = a.clone();
        *d.last_mut().unwrap() ^= 0xff; // tail window
        assert_ne!(ChunkSig::of(&a), ChunkSig::of(&d));
        let mut e = a.clone();
        e[2048] ^= 0xff; // middle window
        assert_ne!(ChunkSig::of(&a), ChunkSig::of(&e));
    }

    #[test]
    fn sig_collides_outside_sampled_windows() {
        // By design: a flip between the sampled windows is invisible to
        // the signature — those chunks collide and fall through to the
        // full fingerprint, which tells them apart.
        let a = vec![1u8; 4096];
        let mut b = a.clone();
        b[100] ^= 0xff;
        assert_eq!(ChunkSig::of(&a), ChunkSig::of(&b));
        assert_ne!(Fingerprint::of(&a), Fingerprint::of(&b));
    }

    #[test]
    fn sig_handles_tiny_content() {
        assert_eq!(ChunkSig::of(b"").len, 0);
        assert_ne!(ChunkSig::of(b"a"), ChunkSig::of(b"b"));
        // Exactly at and around the whole-content threshold.
        for n in [47usize, 48, 49] {
            let data = vec![7u8; n];
            assert_eq!(ChunkSig::of(&data), ChunkSig::of(&data.clone()));
        }
    }

    #[test]
    fn cost_model_scales_linearly() {
        let m = FingerprintCostModel {
            bytes_per_sec: 1_000_000_000,
        };
        assert_eq!(m.nanos_for(1_000_000_000), 1_000_000_000);
        assert_eq!(m.nanos_for(1), 1);
        let free = FingerprintCostModel { bytes_per_sec: 0 };
        assert_eq!(free.nanos_for(12345), 0);
    }
}
