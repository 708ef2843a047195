//! A small LZ77 block compressor (LZ4-style token format).
//!
//! The paper's Fig. 13 combines deduplication with the *data compression
//! feature of the underlying storage* (Btrfs on each Ceph node) to maximise
//! capacity savings. This crate supplies that substrate feature: a real —
//! deliberately simple — byte-oriented LZ compressor the store applies per
//! object replica/shard, so "EC + dedup + compression" experiments measure
//! genuine compressed sizes.
//!
//! The format is LZ4-flavoured (token byte with literal-run and match-length
//! nibbles, 16-bit match offsets) but not LZ4-compatible. Stored pools hold
//! these streams, so the decoder must read every stream [`compress`] ever
//! emitted; chunk names hash raw bytes, so the encoder's output may change,
//! but only on purpose. `streams_are_pinned` and
//! `long_and_sentinel_streams_are_pinned` (in the workloads crate's
//! `compress_roundtrip` tests) pin a corpus of streams to enforce that.
//! The encoder's match table keeps each position's 4-byte window beside
//! the position, so a failed probe never reads the input again.
//!
//! # Example
//!
//! ```
//! use dedup_compress::{compress, decompress};
//!
//! let data = b"abababababababababababababab".to_vec();
//! let packed = compress(&data);
//! assert!(packed.len() < data.len());
//! assert_eq!(decompress(&packed)?, data);
//! # Ok::<(), dedup_compress::DecompressError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::error::Error;
use std::fmt;

const MIN_MATCH: usize = 4;
const MAX_OFFSET: usize = 65_535;
const HASH_BITS: u32 = 14;

/// Error returned when decompressing malformed input.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DecompressError {
    at: usize,
}

impl fmt::Display for DecompressError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "corrupt compressed stream at byte {}", self.at)
    }
}

impl Error for DecompressError {}

/// Bytes the decoder's output buffer keeps past the bytes it must hold, so
/// the fixed-size literal and match copies may overrun their run.
const SLACK: usize = 32;
/// Most output bytes one input byte can decode to (a 255 continuation
/// byte of a match length).
const MAX_EXPANSION: usize = 255;

#[inline]
fn load4(data: &[u8], i: usize) -> u32 {
    let mut w = [0u8; 4];
    w.copy_from_slice(&data[i..i + 4]);
    u32::from_le_bytes(w)
}

#[inline]
fn load8(data: &[u8], i: usize) -> u64 {
    let mut w = [0u8; 8];
    w.copy_from_slice(&data[i..i + 8]);
    u64::from_le_bytes(w)
}

#[inline]
fn hash(v: u32) -> usize {
    (v.wrapping_mul(2654435761) >> (32 - HASH_BITS)) as usize
}

fn write_varlen(out: &mut Vec<u8>, mut extra: usize) {
    while extra >= 255 {
        out.push(255);
        extra -= 255;
    }
    out.push(extra as u8);
}

/// Upper bound on `compress(data).len()` for an input of `len` bytes:
/// the size of the stored-block escape (one literal run covering the
/// whole input), `len + len/255 + 2`.
///
/// [`compress`] falls back to that encoding whenever the match-bearing
/// output would be larger, so the bound holds for *every* input —
/// adversarial, random, or otherwise.
pub fn max_compressed_len(len: usize) -> usize {
    match len {
        0 => 0,
        l if l < 15 => l + 1,
        l => l + 2 + (l - 15) / 255,
    }
}

/// Compresses `data`. Output of an empty input is empty.
///
/// Worst-case expansion is bounded by [`max_compressed_len`] (one part in
/// 255 plus two bytes): if the match-bearing encoding expands the input —
/// adversarial data can make every sequence pay its token/varlen overhead
/// for 4-byte matches — the whole input is re-emitted as a single stored
/// literal run instead, which is itself a valid stream in the same format.
pub fn compress(data: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(data.len() / 2 + 16);
    if data.is_empty() {
        return out;
    }
    // Each slot holds a position and the 4-byte window found there, so a
    // probe never reads the input again. Input bytes never change, so a
    // slot's key always equals `load4(data, pos)` and a probe accepts
    // exactly the candidates `reference_compress` accepts. The empty
    // slot's position, `isize::MAX`, is past every slice index, so its
    // distance wraps to at least 2³¹, far beyond `MAX_OFFSET`.
    let mut table = [(isize::MAX as usize, 0u32); 1 << HASH_BITS];
    let mut literal_start = 0usize;
    let mut i = 0usize;

    while i + MIN_MATCH <= data.len() {
        // One load serves both the hash and the key compare.
        let window = load4(data, i);
        let h = hash(window);
        let (candidate, key) = table[h];
        table[h] = (i, window);
        if !(key == window && i.wrapping_sub(candidate) <= MAX_OFFSET) {
            i += 1;
            continue;
        }
        let len = match_len(data, candidate, i);
        emit_sequence(
            &mut out,
            &data[literal_start..i],
            Some(((i - candidate) as u16, len)),
        );
        // Seed the table through the match so future references can land
        // inside it (cheap, keeps ratios reasonable on periodic data).
        let end = (i + len).min(data.len().saturating_sub(MIN_MATCH - 1));
        for j in i + 1..end {
            let w = load4(data, j);
            table[hash(w)] = (j, w);
        }
        i += len;
        literal_start = i;
    }
    // Input that ends inside a match has had one emitted already, so the
    // stream is non-empty either way.
    if literal_start < data.len() {
        emit_sequence(&mut out, &data[literal_start..], None);
    }
    if out.len() > max_compressed_len(data.len()) {
        // Stored-block escape: emit the input as one raw literal run.
        out.clear();
        emit_sequence(&mut out, data, None);
    }
    out
}

/// Length of the match at `i` against the earlier `candidate`, whose first
/// `MIN_MATCH` bytes are known equal. Extends a word at a time: the first
/// differing byte of two little-endian words is the lowest set bit of
/// their XOR.
fn match_len(data: &[u8], candidate: usize, i: usize) -> usize {
    let mut len = MIN_MATCH;
    while i + len + 8 <= data.len() {
        let diff = load8(data, candidate + len) ^ load8(data, i + len);
        if diff != 0 {
            return len + diff.trailing_zeros() as usize / 8;
        }
        len += 8;
    }
    while i + len < data.len() && data[candidate + len] == data[i + len] {
        len += 1;
    }
    len
}

fn emit_sequence(out: &mut Vec<u8>, literals: &[u8], m: Option<(u16, usize)>) {
    let lit_nibble = literals.len().min(15) as u8;
    let match_nibble = match m {
        Some((_, len)) => (len - MIN_MATCH).min(15) as u8,
        None => 0,
    };
    out.push((lit_nibble << 4) | match_nibble);
    if literals.len() >= 15 {
        write_varlen(out, literals.len() - 15);
    }
    out.extend_from_slice(literals);
    if let Some((offset, len)) = m {
        out.extend_from_slice(&offset.to_le_bytes());
        if len - MIN_MATCH >= 15 {
            write_varlen(out, len - MIN_MATCH - 15);
        }
    }
}

fn read_varlen(data: &[u8], pos: &mut usize, base: usize) -> Result<usize, DecompressError> {
    let mut total = base;
    if base == 15 {
        loop {
            let b = *data.get(*pos).ok_or(DecompressError { at: *pos })?;
            *pos += 1;
            total += b as usize;
            if b != 255 {
                break;
            }
        }
    }
    Ok(total)
}

/// Decompresses a stream produced by [`compress`].
///
/// # Errors
///
/// Returns [`DecompressError`] if the stream is truncated or references data
/// before the start of the output.
pub fn decompress(data: &[u8]) -> Result<Vec<u8>, DecompressError> {
    decompress_with_limit(data, usize::MAX)
}

/// Decompresses a stream produced by [`compress`], refusing to produce more
/// than `max_out` bytes of output.
///
/// Callers that know the original size (the dedup engine records it next to
/// each compressed chunk) use this to keep a corrupt or malicious stream
/// from allocating beyond that size: the output buffer never grows past
/// `max_out` (plus a few bytes of slack) before the error is returned.
///
/// # Errors
///
/// Returns [`DecompressError`] if the stream is truncated, references data
/// before the start of the output, or would expand past `max_out` bytes.
pub fn decompress_with_limit(data: &[u8], max_out: usize) -> Result<Vec<u8>, DecompressError> {
    // A limit the stream can reach is the caller's size hint (the engine
    // passes each chunk's raw length), so the buffer is sized once. A limit
    // past anything the stream can expand to (`decompress` passes
    // `usize::MAX`) says nothing: start at a small multiple and grow.
    let first = if max_out <= data.len().saturating_mul(MAX_EXPANSION) {
        max_out
    } else {
        data.len().saturating_mul(4)
    };
    // `out[..n]` is the decoded output; everything past it is scratch the
    // fixed-size copies may overrun. Before a run of `k` bytes is copied,
    // `reserve` makes `out.len() >= n + k + SLACK`.
    let mut out = vec![0u8; first + SLACK];
    let mut n = 0usize;
    let mut pos = 0usize;
    while pos < data.len() {
        let token = data[pos];
        pos += 1;
        let lit_len = read_varlen(data, &mut pos, (token >> 4) as usize)?;
        if lit_len > data.len() - pos || lit_len > max_out - n {
            return Err(DecompressError { at: pos });
        }
        reserve(&mut out, n + lit_len, max_out);
        if lit_len <= 16 && data.len() - pos >= 16 {
            out[n..n + 16].copy_from_slice(&data[pos..pos + 16]);
        } else {
            out[n..n + lit_len].copy_from_slice(&data[pos..pos + lit_len]);
        }
        n += lit_len;
        pos += lit_len;
        if pos == data.len() {
            break; // final sequence has no match part
        }
        if data.len() - pos < 2 {
            return Err(DecompressError { at: pos });
        }
        let offset = u16::from_le_bytes([data[pos], data[pos + 1]]) as usize;
        pos += 2;
        let match_len = read_varlen(data, &mut pos, (token & 0x0F) as usize)? + MIN_MATCH;
        if offset == 0 || offset > n || match_len > max_out - n {
            return Err(DecompressError { at: pos });
        }
        reserve(&mut out, n + match_len, max_out);
        copy_match(&mut out, n, offset, match_len);
        n += match_len;
    }
    out.truncate(n);
    Ok(out)
}

/// Grows `out` so bytes up to `end` plus the slack fit, doubling so a
/// stream that outgrows its first guess is copied `O(log n)` times.
#[inline]
fn reserve(out: &mut Vec<u8>, end: usize, max_out: usize) {
    if end + SLACK > out.len() {
        let len = out
            .len()
            .saturating_mul(2)
            .min(max_out.saturating_add(SLACK))
            .max(end + SLACK);
        out.resize(len, 0);
    }
}

/// Appends the `len`-byte match at distance `offset` behind `out[..n]`.
///
/// Copies 8 bytes per step, so it may write up to 7 bytes past the match
/// into the slack (the next copy, or the final truncate, overwrites
/// them). A step must read only final bytes: writing at `p` from distance
/// `d >= 8`, it reads `[p - d, p - d + 8)`, all below `p`. A shorter
/// distance is widened first: the match repeats with period `offset`, so
/// once `(m - 1) * offset` bytes are written byte by byte, every later byte
/// also equals the byte `m * offset >= 8` behind it.
#[inline]
fn copy_match(out: &mut [u8], n: usize, offset: usize, len: usize) {
    let end = n + len;
    let mut src = n - offset;
    let mut dst = n;
    if offset < 8 {
        let head = (8usize.div_ceil(offset) - 1) * offset;
        while dst < end.min(n + head) {
            out[dst] = out[dst - offset];
            dst += 1;
        }
    }
    while dst < end {
        let mut w = [0u8; 8];
        w.copy_from_slice(&out[src..src + 8]);
        out[dst..dst + 8].copy_from_slice(&w);
        src += 8;
        dst += 8;
    }
}

/// Compression statistics for one buffer, as reported by the capacity
/// accounting in the experiments.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CompressionStats {
    /// Input size in bytes.
    pub raw: u64,
    /// Output size in bytes.
    pub compressed: u64,
}

impl CompressionStats {
    /// Measures how well `data` compresses without keeping the output.
    pub fn measure(data: &[u8]) -> Self {
        CompressionStats {
            raw: data.len() as u64,
            compressed: compress(data).len() as u64,
        }
    }

    /// Ratio `raw / compressed`; 1.0 for empty input.
    pub fn ratio(&self) -> f64 {
        if self.compressed == 0 {
            return 1.0;
        }
        self.raw as f64 / self.compressed as f64
    }
}

/// The byte-at-a-time decoder the wild-copy one replaced, kept as the
/// oracle: both must agree on every input and limit, `Ok` bytes and `Err`
/// position alike.
#[cfg(test)]
fn reference_decompress(data: &[u8], max_out: usize) -> Result<Vec<u8>, DecompressError> {
    let mut out = Vec::new();
    let mut pos = 0usize;
    while pos < data.len() {
        let token = data[pos];
        pos += 1;
        let lit_len = read_varlen(data, &mut pos, (token >> 4) as usize)?;
        if pos + lit_len > data.len() {
            return Err(DecompressError { at: pos });
        }
        if lit_len > max_out - out.len() {
            return Err(DecompressError { at: pos });
        }
        out.extend_from_slice(&data[pos..pos + lit_len]);
        pos += lit_len;
        if pos == data.len() {
            break;
        }
        if pos + 2 > data.len() {
            return Err(DecompressError { at: pos });
        }
        let offset = u16::from_le_bytes([data[pos], data[pos + 1]]) as usize;
        pos += 2;
        let match_len = read_varlen(data, &mut pos, (token & 0x0F) as usize)? + MIN_MATCH;
        if offset == 0 || offset > out.len() {
            return Err(DecompressError { at: pos });
        }
        if match_len > max_out - out.len() {
            return Err(DecompressError { at: pos });
        }
        let start = out.len() - offset;
        for k in 0..match_len {
            let b = out[start + k];
            out.push(b);
        }
    }
    Ok(out)
}

/// The byte-compare encoder the word-at-a-time one replaced, kept as the
/// oracle for "the same bytes for every input".
#[cfg(test)]
fn reference_compress(data: &[u8]) -> Vec<u8> {
    let mut out = Vec::new();
    if data.is_empty() {
        return out;
    }
    let hash4 = |i: usize| hash(load4(data, i));
    let mut table = vec![usize::MAX; 1 << HASH_BITS];
    let mut literal_start = 0usize;
    let mut i = 0usize;
    while i + MIN_MATCH <= data.len() {
        let h = hash4(i);
        let candidate = table[h];
        table[h] = i;
        let is_match = candidate != usize::MAX
            && i - candidate <= MAX_OFFSET
            && data[candidate..candidate + MIN_MATCH] == data[i..i + MIN_MATCH];
        if !is_match {
            i += 1;
            continue;
        }
        let mut len = MIN_MATCH;
        while i + len < data.len() && data[candidate + len] == data[i + len] {
            len += 1;
        }
        emit_sequence(
            &mut out,
            &data[literal_start..i],
            Some(((i - candidate) as u16, len)),
        );
        let end = (i + len).min(data.len().saturating_sub(MIN_MATCH - 1));
        for j in i + 1..end {
            table[hash4(j)] = j;
        }
        i += len;
        literal_start = i;
    }
    if literal_start < data.len() {
        emit_sequence(&mut out, &data[literal_start..], None);
    }
    if out.len() > max_compressed_len(data.len()) {
        out.clear();
        emit_sequence(&mut out, data, None);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Every match shape the wild copy distinguishes: offsets on both
    /// sides of the 8-byte step and the widened short-offset head, match
    /// lengths across the 15 nibble and the 255 varlen boundaries, and
    /// literal runs on both sides of the 16-byte literal copy — each at
    /// the exact limit (where the slack is all that absorbs an overrun),
    /// one byte under it, and unlimited (where the buffer grows).
    #[test]
    fn wild_copies_agree_with_reference_at_every_boundary() {
        let history: Vec<u8> = (0..20u8).map(|b| b.wrapping_mul(37) ^ 0x5A).collect();
        for offset in 1..=20usize {
            for match_len in 4..=300usize {
                for lits in 0..=17usize {
                    for tail in [0usize, 5] {
                        let mut stream = Vec::new();
                        // 20 bytes of history, then a 4-byte match of them.
                        emit_sequence(&mut stream, &history, Some((20, 4)));
                        let literals: Vec<u8> = (0..lits).map(|k| 0xC0 | k as u8).collect();
                        emit_sequence(&mut stream, &literals, Some((offset as u16, match_len)));
                        if tail > 0 {
                            emit_sequence(&mut stream, b"tail!", None);
                        }
                        let exact = 24 + lits + match_len + tail;
                        let want = reference_decompress(&stream, exact).expect("valid");
                        assert_eq!(want.len(), exact);
                        for limit in [exact, exact - 1, usize::MAX] {
                            assert_eq!(
                                decompress_with_limit(&stream, limit),
                                reference_decompress(&stream, limit),
                                "offset {offset} len {match_len} lits {lits} tail {tail} limit {limit}"
                            );
                        }
                    }
                }
            }
        }
    }

    fn roundtrip(data: &[u8]) {
        let packed = compress(data);
        let got = decompress(&packed).expect("valid stream");
        assert_eq!(got, data, "round trip failed for len {}", data.len());
    }

    #[test]
    fn empty_and_tiny_inputs() {
        roundtrip(b"");
        roundtrip(b"a");
        roundtrip(b"abc");
        roundtrip(b"abcd");
    }

    #[test]
    fn incompressible_random_survives() {
        let mut state = 0x12345u64;
        let data: Vec<u8> = (0..10_000)
            .map(|_| {
                state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
                (state >> 33) as u8
            })
            .collect();
        let packed = compress(&data);
        roundtrip(&data);
        assert!(packed.len() < data.len() + data.len() / 100 + 16);
    }

    #[test]
    fn repetitive_data_compresses_well() {
        let data = b"the quick brown fox ".repeat(500);
        let packed = compress(&data);
        assert!(
            packed.len() * 10 < data.len(),
            "only {} -> {}",
            data.len(),
            packed.len()
        );
        roundtrip(&data);
    }

    #[test]
    fn all_zeroes_rle_case() {
        let data = vec![0u8; 100_000];
        let packed = compress(&data);
        assert!(
            packed.len() < 1000,
            "zeros should collapse: {}",
            packed.len()
        );
        roundtrip(&data);
    }

    /// The empty slot's key is 0 and `hash(0)` is slot 0, so the first
    /// all-zero window probes an empty slot whose key compare passes: only
    /// the distance test may reject it.
    #[test]
    fn zero_windows_never_match_the_empty_slot() {
        for zeros in [4, 5, 64, 70_000] {
            for other in [&b""[..], b"\x01", b"abcdefgh"] {
                for input in [
                    [&vec![0; zeros], other].concat(),
                    [other, &vec![0; zeros]].concat(),
                ] {
                    assert_eq!(
                        compress(&input),
                        reference_compress(&input),
                        "{zeros} zeros, {other:?}"
                    );
                }
            }
        }
    }

    #[test]
    fn long_literal_runs_use_varlen() {
        // >15 literals forces extended literal length encoding.
        let data: Vec<u8> = (0..=255u8).collect();
        roundtrip(&data);
        // >270 literals forces a 255-continuation byte.
        let data: Vec<u8> = (0..2000).map(|i| (i * 7 % 251) as u8).collect();
        roundtrip(&data);
    }

    #[test]
    fn long_matches_use_varlen() {
        let mut data = vec![7u8; 5000];
        data.extend_from_slice(b"tail");
        roundtrip(&data);
    }

    #[test]
    fn overlapping_match_copy() {
        // "abcabcabc..." produces matches with offset 3 < length.
        let data = b"abc".repeat(1000);
        roundtrip(&data);
    }

    #[test]
    fn truncated_stream_errors() {
        let packed = compress(&b"hello world hello world hello world".repeat(10));
        for cut in 1..packed.len().min(20) {
            let _ = decompress(&packed[..packed.len() - cut]); // must not panic
        }
        // A literal run promising more bytes than exist:
        assert!(decompress(&[0xF0, 200]).is_err());
    }

    #[test]
    fn bad_offset_errors() {
        // Token: 1 literal then a match with offset 9 into 1 byte of output.
        let stream = [0x10, b'x', 9, 0];
        assert!(decompress(&stream).is_err());
        // Zero offset is invalid too.
        let stream = [0x10, b'x', 0, 0];
        assert!(decompress(&stream).is_err());
    }

    #[test]
    fn random_bytes_bounded_by_stored_block_escape() {
        // Regression for the incompressible-data bound: random input must
        // never expand past the single-literal-run encoding.
        for (seed, len) in [(1u64, 1usize), (2, 14), (3, 15), (4, 270), (5, 65_536)] {
            let mut state = seed;
            let data: Vec<u8> = (0..len)
                .map(|_| {
                    state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
                    (state >> 33) as u8
                })
                .collect();
            let packed = compress(&data);
            assert!(
                packed.len() <= max_compressed_len(data.len()),
                "len {} expanded to {} (bound {})",
                data.len(),
                packed.len(),
                max_compressed_len(data.len())
            );
            roundtrip(&data);
        }
    }

    #[test]
    fn max_compressed_len_matches_literal_run_encoding() {
        for len in [0usize, 1, 14, 15, 16, 269, 270, 271, 1000, 65_536] {
            let data = vec![0xA5u8; len];
            let mut literal_run = Vec::new();
            if len > 0 {
                emit_sequence(&mut literal_run, &data, None);
            }
            assert_eq!(
                literal_run.len(),
                max_compressed_len(len),
                "bound must equal the escape encoding at len {len}"
            );
        }
    }

    #[test]
    fn truncated_varlen_header_errors() {
        // Token promising an extended literal run, then nothing.
        assert!(decompress(&[0xF0]).is_err());
        // Continuation byte chain cut mid-stream.
        assert!(decompress(&[0xF0, 255, 255]).is_err());
    }

    #[test]
    fn limit_caps_output_and_matches_unlimited() {
        let data = b"limitcase ".repeat(400);
        let packed = compress(&data);
        assert_eq!(
            decompress_with_limit(&packed, data.len()).expect("fits"),
            data
        );
        assert!(decompress_with_limit(&packed, data.len() - 1).is_err());
        // An RLE bomb (huge match length from a few input bytes) must stop
        // at the limit instead of allocating the full expansion.
        let bomb = compress(&vec![0u8; 1 << 20]);
        assert!(bomb.len() < 6000, "bomb input compresses: {}", bomb.len());
        assert!(decompress_with_limit(&bomb, 4096).is_err());
    }

    #[test]
    fn output_is_sized_once_for_a_reachable_limit_and_grows_without_one() {
        let data = b"limitcase ".repeat(400);
        let packed = compress(&data);
        let out = decompress_with_limit(&packed, data.len()).expect("fits");
        assert_eq!(out.capacity(), data.len() + SLACK, "one exact allocation");
        // No limit: start small and grow, never at the 255x worst case.
        let out = decompress(&packed).expect("valid");
        assert_eq!(out, data);
        assert!(out.capacity() <= 2 * (data.len() + SLACK));
        let tiny = decompress(&compress(b"abcdefgh")).expect("valid");
        assert!(tiny.capacity() < 4 * 9 + SLACK + 1, "{}", tiny.capacity());
    }

    #[test]
    fn stats_ratio() {
        let s = CompressionStats::measure(&b"aaaa".repeat(1000));
        assert!(s.ratio() > 10.0);
        let empty = CompressionStats {
            raw: 0,
            compressed: 0,
        };
        assert!((empty.ratio() - 1.0).abs() < f64::EPSILON);
    }

    #[test]
    fn vm_image_like_text_compresses_about_2x_or_more() {
        // Low-entropy config-file-like content, the Fig. 13 scenario.
        let mut data = Vec::new();
        for i in 0..2000 {
            data.extend_from_slice(
                format!(
                    "setting_{}=value_{}\npath=/usr/lib/module\n",
                    i % 37,
                    i % 11
                )
                .as_bytes(),
            );
        }
        let s = CompressionStats::measure(&data);
        assert!(s.ratio() > 2.0, "ratio {}", s.ratio());
        roundtrip(&data);
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        /// Round trip for arbitrary bytes, including pathological inputs.
        #[test]
        fn round_trips(data in proptest::collection::vec(any::<u8>(), 0..8192)) {
            let packed = compress(&data);
            prop_assert_eq!(decompress(&packed).expect("valid"), data);
        }

        /// Worst-case expansion is bounded by the stored-block escape:
        /// `len + len/255 + 2` for any input whatsoever.
        #[test]
        fn expansion_is_bounded(data in proptest::collection::vec(any::<u8>(), 0..8192)) {
            let packed = compress(&data);
            prop_assert!(packed.len() <= max_compressed_len(data.len()));
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        /// The word-at-a-time encoder emits the reference's bytes, on
        /// random input and on periodic input whose matches end at every
        /// alignment relative to the 8-byte compare and the input's end.
        #[test]
        fn encoder_matches_reference(
            data in proptest::collection::vec(any::<u8>(), 0..4096),
            period in 1usize..40,
            runs in 0usize..300,
            noise in proptest::collection::vec(any::<u8>(), 0..24),
        ) {
            prop_assert_eq!(compress(&data), reference_compress(&data));
            let mut periodic: Vec<u8> = data.iter().copied().cycle().take(period).collect();
            periodic = periodic.repeat(runs);
            periodic.extend_from_slice(&noise);
            let echo = periodic[..periodic.len() / 3].to_vec();
            periodic.extend_from_slice(&echo);
            prop_assert_eq!(compress(&periodic), reference_compress(&periodic));
        }

        /// Garbage at any limit: the decoder and the byte-at-a-time
        /// reference agree on the output or on the error position. The
        /// reference never exceeds the limit, so neither does the decoder,
        /// and neither panics.
        #[test]
        fn garbage_decodes_like_reference(
            garbage in proptest::collection::vec(any::<u8>(), 0..2048),
            limit in 0usize..16384,
        ) {
            prop_assert_eq!(
                decompress_with_limit(&garbage, limit),
                reference_decompress(&garbage, limit)
            );
            prop_assert_eq!(decompress(&garbage), reference_decompress(&garbage, usize::MAX));
        }

        /// Valid streams, possibly with one byte flipped, truncated
        /// anywhere (or not at all), decoded at limits around the true
        /// length and unlimited.
        #[test]
        fn damaged_streams_decode_like_reference(
            data in proptest::collection::vec(any::<u8>(), 1..2048),
            repeat in 1usize..8,
            flip in any::<bool>(),
            flip_at in any::<u16>(),
            flip_to in any::<u8>(),
            cut in any::<u16>(),
            slack in 0usize..64,
        ) {
            // Repeating the input gives the stream long matches to damage.
            let data = data.repeat(repeat);
            let mut packed = compress(&data);
            if flip {
                let at = flip_at as usize % packed.len();
                packed[at] = flip_to;
            }
            let cut = packed.len() - cut as usize % packed.len();
            let stream = &packed[..cut];
            for limit in [data.len().saturating_sub(slack), data.len() + slack, usize::MAX] {
                prop_assert_eq!(
                    decompress_with_limit(stream, limit),
                    reference_decompress(stream, limit)
                );
            }
        }
    }
}
