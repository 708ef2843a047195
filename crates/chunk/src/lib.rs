//! Chunking algorithms for deduplication.
//!
//! The paper uses **static (fixed-size) chunking** in its Ceph
//! implementation (§5), arguing that content-defined chunking (CDC) costs
//! too much CPU on a storage node that is already CPU-bound. Both are
//! provided here:
//!
//! * [`FixedChunker`] — splits at fixed byte boundaries; the production
//!   choice, paired with chunk-aligned write handling (read-modify-write of
//!   partial chunks).
//! * [`GearCdcChunker`] — gear-hash content-defined chunking
//!   (FastCDC-style, normalized split points with min/avg/max bounds), used
//!   by the ablation experiments to quantify the ratio-vs-CPU trade.
//!
//! # Example
//!
//! ```
//! use dedup_chunk::{Chunker, FixedChunker};
//!
//! let chunker = FixedChunker::new(32 * 1024);
//! let spans = chunker.chunks(&vec![0u8; 100 * 1024]);
//! assert_eq!(spans.len(), 4); // 3 full chunks + 4KiB tail
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use bytes::Bytes;
use serde::{Deserialize, Serialize};

/// A half-open byte range `[offset, offset + len)` within an object.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct ChunkSpan {
    /// Byte offset of the chunk within the object.
    pub offset: u64,
    /// Chunk length in bytes (never zero).
    pub len: u32,
}

impl ChunkSpan {
    /// End offset (exclusive).
    pub fn end(&self) -> u64 {
        self.offset + self.len as u64
    }

    /// Whether this span overlaps `[offset, offset + len)`.
    pub fn overlaps(&self, offset: u64, len: u64) -> bool {
        offset < self.end() && self.offset < offset + len
    }
}

/// A chunking algorithm: splits object data into contiguous spans.
pub trait Chunker {
    /// Splits `data` (assumed to start at object offset 0) into spans that
    /// exactly tile `[0, data.len())`. Empty input yields no spans.
    fn chunks(&self, data: &[u8]) -> Vec<ChunkSpan>;

    /// Mean chunk size this chunker aims for, in bytes (used for cost
    /// models and metadata sizing).
    fn target_chunk_size(&self) -> u32;

    /// Splits a shared buffer into per-chunk views without copying: each
    /// returned [`Bytes`] is an O(1) slice of `data`'s backing allocation
    /// (refcount bump, no memcpy), paired with its span. The slices tile
    /// `[0, data.len())` exactly like [`Chunker::chunks`].
    fn slice_chunks(&self, data: &Bytes) -> Vec<(ChunkSpan, Bytes)> {
        self.chunks(data)
            .into_iter()
            .map(|span| {
                let view = data.slice(span.offset as usize..span.end() as usize);
                (span, view)
            })
            .collect()
    }
}

/// Fixed-size (static) chunking.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct FixedChunker {
    chunk_size: u32,
}

impl FixedChunker {
    /// Creates a fixed chunker with the given chunk size in bytes.
    ///
    /// # Panics
    ///
    /// Panics if `chunk_size` is zero.
    pub fn new(chunk_size: u32) -> Self {
        assert!(chunk_size > 0, "chunk size must be positive");
        FixedChunker { chunk_size }
    }

    /// The configured chunk size.
    pub fn chunk_size(&self) -> u32 {
        self.chunk_size
    }

    /// Index of the chunk containing byte `offset`.
    pub fn chunk_index(&self, offset: u64) -> u64 {
        offset / self.chunk_size as u64
    }

    /// Iterates the chunk indices touched by a write of `len` bytes at
    /// `offset` — the paper's partial-write analysis (§3.1, Fig. 5a) falls
    /// out of whether the write covers whole chunks.
    pub fn touched_chunks(&self, offset: u64, len: u64) -> impl Iterator<Item = u64> {
        let first = offset / self.chunk_size as u64;
        let last = if len == 0 {
            first
        } else {
            (offset + len - 1) / self.chunk_size as u64 + 1
        };
        first..last
    }

    /// Whether a write of `len` bytes at `offset` exactly covers every
    /// chunk it touches (no read-modify-write needed).
    pub fn is_aligned(&self, offset: u64, len: u64) -> bool {
        let cs = self.chunk_size as u64;
        offset.is_multiple_of(cs) && len.is_multiple_of(cs)
    }
}

impl Chunker for FixedChunker {
    fn chunks(&self, data: &[u8]) -> Vec<ChunkSpan> {
        let cs = self.chunk_size as usize;
        let mut spans = Vec::with_capacity(data.len().div_ceil(cs.max(1)));
        let mut offset = 0usize;
        while offset < data.len() {
            let len = cs.min(data.len() - offset) as u32;
            spans.push(ChunkSpan {
                offset: offset as u64,
                len,
            });
            offset += len as usize;
        }
        spans
    }

    fn target_chunk_size(&self) -> u32 {
        self.chunk_size
    }
}

/// Deterministic 256-entry gear table derived from SplitMix64.
fn gear_table() -> [u64; 256] {
    let mut table = [0u64; 256];
    let mut state: u64 = 0x6a09e667f3bcc909;
    for t in &mut table {
        // SplitMix64 step.
        state = state.wrapping_add(0x9E3779B97F4A7C15);
        let mut z = state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
        *t = z ^ (z >> 31);
    }
    table
}

/// Gear-hash content-defined chunking with FastCDC-style normalization:
/// a stricter mask before the average size and a looser mask after, bounded
/// by hard min/max sizes.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct GearCdcChunker {
    min_size: u32,
    avg_size: u32,
    max_size: u32,
    #[serde(skip, default = "gear_table")]
    gear: [u64; 256],
}

impl PartialEq for GearCdcChunker {
    fn eq(&self, other: &Self) -> bool {
        self.min_size == other.min_size
            && self.avg_size == other.avg_size
            && self.max_size == other.max_size
    }
}

impl GearCdcChunker {
    /// Creates a CDC chunker targeting `avg_size` with bounds
    /// `[min_size, max_size]`.
    ///
    /// # Panics
    ///
    /// Panics unless `0 < min_size <= avg_size <= max_size` and `avg_size`
    /// is a power of two (mask construction).
    pub fn new(min_size: u32, avg_size: u32, max_size: u32) -> Self {
        assert!(min_size > 0, "min size must be positive");
        assert!(
            min_size <= avg_size && avg_size <= max_size,
            "need min <= avg <= max"
        );
        assert!(
            avg_size.is_power_of_two(),
            "avg size must be a power of two"
        );
        GearCdcChunker {
            min_size,
            avg_size,
            max_size,
            gear: gear_table(),
        }
    }

    /// Creates a chunker with the conventional `avg/2, avg, avg*4` bounds.
    pub fn with_avg_size(avg_size: u32) -> Self {
        GearCdcChunker::new(avg_size / 2, avg_size, avg_size * 4)
    }

    fn mask_strict(&self) -> u64 {
        // One extra constraint bit before the average point.
        self.avg_size as u64 * 2 - 1
    }

    fn mask_loose(&self) -> u64 {
        self.avg_size as u64 / 2 - 1
    }

    /// Finds the next cut point in `data` starting at 0.
    fn next_cut(&self, data: &[u8]) -> usize {
        let len = data.len();
        if len <= self.min_size as usize {
            return len;
        }
        let max = len.min(self.max_size as usize);
        let avg = (self.avg_size as usize).min(max);
        let mut hash: u64 = 0;
        let strict = self.mask_strict();
        let loose = self.mask_loose();
        for (i, &b) in data
            .iter()
            .enumerate()
            .take(avg)
            .skip(self.min_size as usize)
        {
            hash = (hash << 1).wrapping_add(self.gear[b as usize]);
            if hash & strict == 0 {
                return i + 1;
            }
        }
        for (i, &b) in data.iter().enumerate().take(max).skip(avg) {
            hash = (hash << 1).wrapping_add(self.gear[b as usize]);
            if hash & loose == 0 {
                return i + 1;
            }
        }
        max
    }
}

impl Chunker for GearCdcChunker {
    fn chunks(&self, data: &[u8]) -> Vec<ChunkSpan> {
        let mut spans = Vec::new();
        let mut offset = 0usize;
        while offset < data.len() {
            let cut = self.next_cut(&data[offset..]);
            spans.push(ChunkSpan {
                offset: offset as u64,
                len: cut as u32,
            });
            offset += cut;
        }
        spans
    }

    fn target_chunk_size(&self) -> u32 {
        self.avg_size
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiles_exactly(spans: &[ChunkSpan], len: usize) {
        let mut expect = 0u64;
        for s in spans {
            assert_eq!(s.offset, expect, "gap or overlap at {expect}");
            assert!(s.len > 0, "empty span");
            expect = s.end();
        }
        assert_eq!(expect, len as u64, "spans do not cover input");
    }

    #[test]
    fn fixed_tiles_input() {
        let c = FixedChunker::new(8);
        for len in [0usize, 1, 7, 8, 9, 16, 100] {
            let data = vec![0u8; len];
            tiles_exactly(&c.chunks(&data), len);
        }
    }

    #[test]
    fn fixed_tail_is_short() {
        let c = FixedChunker::new(32);
        let spans = c.chunks(&[1u8; 70]);
        assert_eq!(spans.len(), 3);
        assert_eq!(spans[2].len, 6);
    }

    #[test]
    fn fixed_touched_chunks() {
        let c = FixedChunker::new(10);
        assert_eq!(c.touched_chunks(0, 10).collect::<Vec<_>>(), vec![0]);
        assert_eq!(c.touched_chunks(5, 10).collect::<Vec<_>>(), vec![0, 1]);
        assert_eq!(c.touched_chunks(20, 1).collect::<Vec<_>>(), vec![2]);
        assert_eq!(c.touched_chunks(0, 0).count(), 0);
    }

    #[test]
    fn fixed_alignment_detection() {
        let c = FixedChunker::new(32 * 1024);
        assert!(c.is_aligned(0, 32 * 1024));
        assert!(c.is_aligned(64 * 1024, 32 * 1024));
        // The paper's partial-write case: 16KiB writes on 32KiB chunks.
        assert!(!c.is_aligned(0, 16 * 1024));
        assert!(!c.is_aligned(16 * 1024, 32 * 1024));
    }

    #[test]
    fn span_overlap() {
        let s = ChunkSpan {
            offset: 10,
            len: 10,
        };
        assert!(s.overlaps(5, 6));
        assert!(s.overlaps(19, 1));
        assert!(!s.overlaps(20, 5));
        assert!(!s.overlaps(0, 10));
    }

    #[test]
    #[should_panic(expected = "chunk size must be positive")]
    fn fixed_rejects_zero() {
        FixedChunker::new(0);
    }

    fn patterned(len: usize, seed: u64) -> Vec<u8> {
        // Deterministic pseudo-random bytes.
        let mut state = seed;
        (0..len)
            .map(|_| {
                state = state
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                (state >> 33) as u8
            })
            .collect()
    }

    #[test]
    fn cdc_tiles_input() {
        let c = GearCdcChunker::with_avg_size(1024);
        for len in [0usize, 1, 100, 1024, 5000, 100_000] {
            let data = patterned(len, 42);
            tiles_exactly(&c.chunks(&data), len);
        }
    }

    #[test]
    fn cdc_respects_bounds() {
        let c = GearCdcChunker::new(512, 1024, 4096);
        let data = patterned(200_000, 7);
        let spans = c.chunks(&data);
        for (i, s) in spans.iter().enumerate() {
            assert!(s.len <= 4096, "span {i} too large: {}", s.len);
            if i + 1 != spans.len() {
                assert!(s.len >= 512, "span {i} too small: {}", s.len);
            }
        }
    }

    #[test]
    fn cdc_average_is_near_target() {
        let c = GearCdcChunker::with_avg_size(2048);
        let data = patterned(2_000_000, 3);
        let spans = c.chunks(&data);
        let avg = data.len() as f64 / spans.len() as f64;
        assert!(
            (1024.0..=4096.0).contains(&avg),
            "average chunk {avg} far from 2048"
        );
    }

    #[test]
    fn cdc_cut_points_are_content_stable() {
        // Shift-resistance: inserting bytes at the front realigns chunk
        // boundaries after a while — most chunks of the shifted stream
        // reappear.
        let c = GearCdcChunker::with_avg_size(1024);
        let base = patterned(300_000, 9);
        let mut shifted = patterned(37, 100);
        shifted.extend_from_slice(&base);

        let set: std::collections::HashSet<Vec<u8>> = c
            .chunks(&base)
            .iter()
            .map(|s| base[s.offset as usize..s.end() as usize].to_vec())
            .collect();
        let rediscovered = c
            .chunks(&shifted)
            .iter()
            .filter(|s| set.contains(&shifted[s.offset as usize..s.end() as usize]))
            .count();
        let total = c.chunks(&shifted).len();
        assert!(
            rediscovered * 2 > total,
            "only {rediscovered}/{total} chunks shift-stable"
        );
    }

    #[test]
    fn cdc_is_deterministic() {
        let c = GearCdcChunker::with_avg_size(1024);
        let data = patterned(50_000, 5);
        assert_eq!(c.chunks(&data), c.chunks(&data));
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn cdc_rejects_non_power_of_two_avg() {
        GearCdcChunker::new(100, 1000, 4000);
    }

    #[test]
    fn slice_chunks_aliases_parent_buffer() {
        let c = FixedChunker::new(32);
        let data = Bytes::from(patterned(100, 11));
        let slices = c.slice_chunks(&data);
        assert_eq!(slices.len(), 4);
        let mut expect = 0u64;
        for (span, view) in &slices {
            assert_eq!(span.offset, expect);
            assert_eq!(view.len() as u32, span.len);
            // Zero-copy: every view points into the parent allocation.
            assert!(view.same_parent(&data), "chunk view was deep-copied");
            assert_eq!(
                view.as_ptr(),
                data[span.offset as usize..].as_ptr(),
                "chunk view not aligned with its span"
            );
            expect = span.end();
        }
        assert_eq!(expect, data.len() as u64);
    }

    #[test]
    fn slice_chunks_matches_chunks_for_cdc() {
        let c = GearCdcChunker::with_avg_size(1024);
        let raw = patterned(50_000, 5);
        let data = Bytes::from(raw.clone());
        let spans = c.chunks(&raw);
        let slices = c.slice_chunks(&data);
        assert_eq!(spans.len(), slices.len());
        for (span, (sliced_span, view)) in spans.iter().zip(&slices) {
            assert_eq!(span, sliced_span);
            assert_eq!(&view[..], &raw[span.offset as usize..span.end() as usize]);
        }
    }
}
