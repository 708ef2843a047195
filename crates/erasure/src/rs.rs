//! Systematic Reed–Solomon codec and whole-object striping.

use std::error::Error;
use std::fmt;

use crate::gf256::mul_acc;
use crate::matrix::Matrix;

/// Errors returned by the Reed–Solomon codec.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ErasureError {
    /// `k` or `m` is zero, or `k + m > 255`.
    InvalidParameters {
        /// Requested data shard count.
        k: usize,
        /// Requested parity shard count.
        m: usize,
    },
    /// Shard slices passed to encode/reconstruct differ in length.
    ShardSizeMismatch,
    /// The number of shards passed does not match `k` (encode) or `k + m`
    /// (reconstruct).
    WrongShardCount {
        /// How many shards the codec expected.
        expected: usize,
        /// How many were provided.
        actual: usize,
    },
    /// Fewer than `k` shards survive; the object is unrecoverable.
    TooFewShards {
        /// Shards needed.
        needed: usize,
        /// Shards present.
        present: usize,
    },
}

impl fmt::Display for ErasureError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ErasureError::InvalidParameters { k, m } => {
                write!(f, "invalid code parameters k={k}, m={m}")
            }
            ErasureError::ShardSizeMismatch => write!(f, "shards have differing lengths"),
            ErasureError::WrongShardCount { expected, actual } => {
                write!(f, "expected {expected} shards, got {actual}")
            }
            ErasureError::TooFewShards { needed, present } => {
                write!(f, "only {present} shards present, {needed} needed")
            }
        }
    }
}

impl Error for ErasureError {}

/// A systematic Reed–Solomon code with `k` data shards and `m` parity
/// shards.
///
/// The encode matrix is a Vandermonde matrix normalised so its top `k` rows
/// are the identity; data shards pass through unchanged and any `k`
/// surviving shards reconstruct the rest.
#[derive(Debug, Clone)]
pub struct ReedSolomon {
    k: usize,
    m: usize,
    /// `(k + m) × k`; top `k` rows are the identity.
    encode: Matrix,
}

impl ReedSolomon {
    /// Creates a codec for `k` data and `m` parity shards.
    ///
    /// # Errors
    ///
    /// Returns [`ErasureError::InvalidParameters`] if `k == 0`, `m == 0`, or
    /// `k + m > 255` (the field size bounds the total).
    pub fn new(k: usize, m: usize) -> Result<Self, ErasureError> {
        if k == 0 || m == 0 || k + m > 255 {
            return Err(ErasureError::InvalidParameters { k, m });
        }
        let vander = Matrix::vandermonde(k + m, k);
        let top = vander.select_rows(&(0..k).collect::<Vec<_>>());
        let top_inv = top
            .inverse()
            .expect("vandermonde top-k is always invertible");
        let encode = vander.mul(&top_inv);
        debug_assert_eq!(
            encode.select_rows(&(0..k).collect::<Vec<_>>()),
            Matrix::identity(k),
            "systematic property"
        );
        Ok(ReedSolomon { k, m, encode })
    }

    /// Data shard count.
    pub fn data_shards(&self) -> usize {
        self.k
    }

    /// Total shard count `k + m`.
    pub fn total_shards(&self) -> usize {
        self.k + self.m
    }

    /// Computes the `m` parity shards for `k` equal-length data shards.
    ///
    /// # Errors
    ///
    /// Returns an error if the shard count or lengths are inconsistent.
    pub fn encode(&self, data: &[&[u8]]) -> Result<Vec<Vec<u8>>, ErasureError> {
        if data.len() != self.k {
            return Err(ErasureError::WrongShardCount {
                expected: self.k,
                actual: data.len(),
            });
        }
        let len = data[0].len();
        if data.iter().any(|d| d.len() != len) {
            return Err(ErasureError::ShardSizeMismatch);
        }
        let mut parity = vec![vec![0u8; len]; self.m];
        for (p, row) in parity.iter_mut().zip(self.k..self.k + self.m) {
            for (c, shard) in data.iter().enumerate() {
                mul_acc(p, shard, self.encode.get(row, c));
            }
        }
        Ok(parity)
    }

    /// Rebuilds every missing shard in place. `shards` must have `k + m`
    /// entries ordered by shard index, with `None` marking erasures.
    ///
    /// # Errors
    ///
    /// Returns an error on inconsistent input or if fewer than `k` shards
    /// are present.
    pub fn reconstruct(&self, shards: &mut [Option<Vec<u8>>]) -> Result<(), ErasureError> {
        if shards.len() != self.total_shards() {
            return Err(ErasureError::WrongShardCount {
                expected: self.total_shards(),
                actual: shards.len(),
            });
        }
        let present: Vec<usize> = (0..shards.len()).filter(|&i| shards[i].is_some()).collect();
        if present.len() < self.k {
            return Err(ErasureError::TooFewShards {
                needed: self.k,
                present: present.len(),
            });
        }
        if present.len() == shards.len() {
            return Ok(()); // nothing missing
        }
        let len = shards[present[0]].as_ref().expect("present").len();
        if present
            .iter()
            .any(|&i| shards[i].as_ref().expect("present").len() != len)
        {
            return Err(ErasureError::ShardSizeMismatch);
        }

        // Decode matrix: rows of the encode matrix for k surviving shards,
        // inverted, reproduces the data shards from the survivors.
        let survivors = &present[..self.k];
        let sub = self.encode.select_rows(survivors);
        let decode = sub
            .inverse()
            .expect("any k rows of a systematic vandermonde code are independent");

        // Rebuild missing data shards.
        let mut data: Vec<Vec<u8>> = Vec::with_capacity(self.k);
        for (d, slot) in shards.iter().enumerate().take(self.k) {
            if let Some(shard) = slot {
                data.push(shard.clone());
            } else {
                let mut out = vec![0u8; len];
                for (j, &s) in survivors.iter().enumerate() {
                    let src = shards[s].as_ref().expect("survivor");
                    mul_acc(&mut out, src, decode.get(d, j));
                }
                data.push(out);
            }
        }
        for (d, rebuilt) in data.iter().enumerate() {
            if shards[d].is_none() {
                shards[d] = Some(rebuilt.clone());
            }
        }
        // Re-encode any missing parity from the (now complete) data.
        if (self.k..self.total_shards()).any(|p| shards[p].is_none()) {
            let refs: Vec<&[u8]> = data.iter().map(Vec::as_slice).collect();
            let parity = self.encode(&refs)?;
            for (i, p) in parity.into_iter().enumerate() {
                if shards[self.k + i].is_none() {
                    shards[self.k + i] = Some(p);
                }
            }
        }
        Ok(())
    }

    /// Shard length used to stripe an object of `object_len` bytes (at
    /// least one, so an empty object still stores a shard per device).
    pub fn shard_len(&self, object_len: usize) -> usize {
        object_len.div_ceil(self.k).max(1)
    }

    /// Stripes a whole object into `k + m` shards (data shards first),
    /// zero-padding the tail.
    ///
    /// # Errors
    ///
    /// Propagates encoding errors (cannot occur for well-formed codecs).
    pub fn encode_object(&self, object: &[u8]) -> Result<Vec<Vec<u8>>, ErasureError> {
        let shard_len = self.shard_len(object.len());
        let mut shards: Vec<Vec<u8>> = Vec::with_capacity(self.total_shards());
        for i in 0..self.k {
            let start = (i * shard_len).min(object.len());
            let end = ((i + 1) * shard_len).min(object.len());
            let mut s = object[start..end].to_vec();
            s.resize(shard_len, 0);
            shards.push(s);
        }
        let refs: Vec<&[u8]> = shards.iter().map(Vec::as_slice).collect();
        let parity = self.encode(&refs)?;
        shards.extend(parity);
        Ok(shards)
    }

    /// Stripes a whole object into one contiguous `(k + m) * shard_len`
    /// buffer (data shards first, zero-padded tail, then parity) and
    /// returns it with the shard length. Callers that hand shards to
    /// different devices can slice this buffer instead of allocating
    /// `k + m` separate vectors — the shards then share one parent.
    ///
    /// # Errors
    ///
    /// Kept for symmetry with [`ReedSolomon::encode_object`]; cannot
    /// occur for well-formed codecs.
    pub fn encode_object_striped(&self, object: &[u8]) -> Result<(Vec<u8>, usize), ErasureError> {
        let shard_len = self.shard_len(object.len());
        let mut buf = vec![0u8; shard_len * self.total_shards()];
        // Systematic code: the data shards are plain slices of the object.
        buf[..object.len()].copy_from_slice(object);
        let (data_part, parity_part) = buf.split_at_mut(shard_len * self.k);
        for (pi, parity) in parity_part.chunks_mut(shard_len).enumerate() {
            let row = self.k + pi;
            for c in 0..self.k {
                mul_acc(
                    parity,
                    &data_part[c * shard_len..(c + 1) * shard_len],
                    self.encode.get(row, c),
                );
            }
        }
        Ok((buf, shard_len))
    }

    /// Reassembles an object of `object_len` bytes from its shards,
    /// reconstructing erasures as needed.
    ///
    /// # Errors
    ///
    /// Returns an error if too few shards survive, lengths disagree, or
    /// the data shards hold fewer than `object_len` bytes.
    pub fn decode_object(
        &self,
        mut shards: Vec<Option<Vec<u8>>>,
        object_len: usize,
    ) -> Result<Vec<u8>, ErasureError> {
        self.reconstruct(&mut shards)?;
        let mut out = Vec::with_capacity(object_len);
        for shard in shards.iter().take(self.k) {
            out.extend_from_slice(shard.as_ref().expect("reconstructed"));
        }
        if out.len() < object_len {
            return Err(ErasureError::ShardSizeMismatch);
        }
        out.truncate(object_len);
        Ok(out)
    }

    /// Raw storage expansion factor of this code, `(k + m) / k`.
    pub fn overhead_factor(&self) -> f64 {
        self.total_shards() as f64 / self.k as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample(len: usize) -> Vec<u8> {
        (0..len).map(|i| (i * 31 + 7) as u8).collect()
    }

    #[test]
    fn invalid_parameters_rejected() {
        assert!(ReedSolomon::new(0, 1).is_err());
        assert!(ReedSolomon::new(1, 0).is_err());
        assert!(ReedSolomon::new(200, 56).is_err());
        assert!(ReedSolomon::new(2, 1).is_ok());
    }

    #[test]
    fn parity_is_deterministic() {
        let rs = ReedSolomon::new(3, 2).expect("valid");
        let d = [sample(64), sample(64), sample(64)];
        let refs: Vec<&[u8]> = d.iter().map(Vec::as_slice).collect();
        assert_eq!(rs.encode(&refs).expect("ok"), rs.encode(&refs).expect("ok"));
    }

    #[test]
    fn reconstruct_every_single_erasure() {
        let rs = ReedSolomon::new(4, 2).expect("valid");
        let obj = sample(1000);
        let full = rs.encode_object(&obj).expect("encode");
        for lost in 0..6 {
            let mut shards: Vec<Option<Vec<u8>>> = full.iter().cloned().map(Some).collect();
            shards[lost] = None;
            let got = rs.decode_object(shards, obj.len()).expect("decode");
            assert_eq!(got, obj, "losing shard {lost}");
        }
    }

    #[test]
    fn reconstruct_m_erasures_any_combination() {
        let rs = ReedSolomon::new(3, 2).expect("valid");
        let obj = sample(500);
        let full = rs.encode_object(&obj).expect("encode");
        for a in 0..5 {
            for b in (a + 1)..5 {
                let mut shards: Vec<Option<Vec<u8>>> = full.iter().cloned().map(Some).collect();
                shards[a] = None;
                shards[b] = None;
                let got = rs.decode_object(shards, obj.len()).expect("decode");
                assert_eq!(got, obj, "losing shards {a},{b}");
            }
        }
    }

    #[test]
    fn striped_encode_matches_per_shard_encode() {
        let rs = ReedSolomon::new(3, 2).expect("valid");
        for len in [0usize, 1, 7, 100, 1000] {
            let obj = sample(len);
            let shards = rs.encode_object(&obj).expect("encode");
            let (buf, shard_len) = rs.encode_object_striped(&obj).expect("striped");
            assert_eq!(buf.len(), shard_len * rs.total_shards());
            for (i, shard) in shards.iter().enumerate() {
                assert_eq!(
                    &buf[i * shard_len..(i + 1) * shard_len],
                    &shard[..],
                    "shard {i} at len {len}"
                );
            }
        }
    }

    /// Stored shards hold these bytes: parity changes only on purpose.
    #[test]
    fn striped_parity_is_pinned() {
        let mut state = 0x9E37_79B9_7F4A_7C15u64;
        let obj: Vec<u8> = (0..32 * 1024)
            .map(|_| {
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                state as u8
            })
            .collect();
        let fnv1a = |bytes: &[u8]| {
            bytes.iter().fold(0xcbf2_9ce4_8422_2325u64, |h, &b| {
                (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3)
            })
        };
        for (k, m, want) in [
            (2, 1, 0xe8b4_2d51_7c8a_0d03u64),
            (4, 2, 0x8d3c_ef7f_8476_cc15),
        ] {
            let rs = ReedSolomon::new(k, m).expect("valid");
            let (buf, shard_len) = rs.encode_object_striped(&obj).expect("striped");
            assert_eq!(shard_len, 32 * 1024 / k);
            assert_eq!(fnv1a(&buf), want, "{k}+{m}: {:#018x}", fnv1a(&buf));
        }
    }

    #[test]
    fn too_many_erasures_fail() {
        let rs = ReedSolomon::new(2, 1).expect("valid");
        let full = rs.encode_object(&sample(100)).expect("encode");
        let mut shards: Vec<Option<Vec<u8>>> = full.into_iter().map(Some).collect();
        shards[0] = None;
        shards[1] = None;
        let err = rs.reconstruct(&mut shards).expect_err("must fail");
        assert_eq!(
            err,
            ErasureError::TooFewShards {
                needed: 2,
                present: 1
            }
        );
    }

    #[test]
    fn systematic_data_shards_are_plain_slices() {
        let rs = ReedSolomon::new(2, 1).expect("valid");
        let obj = sample(64);
        let shards = rs.encode_object(&obj).expect("encode");
        assert_eq!(&shards[0][..], &obj[..32]);
        assert_eq!(&shards[1][..], &obj[32..]);
    }

    #[test]
    fn odd_lengths_pad_and_truncate() {
        let rs = ReedSolomon::new(3, 1).expect("valid");
        for len in [0usize, 1, 2, 3, 7, 100, 101] {
            let obj = sample(len);
            let shards = rs.encode_object(&obj).expect("encode");
            let got = rs
                .decode_object(shards.into_iter().map(Some).collect(), len)
                .expect("decode");
            assert_eq!(got, obj, "len {len}");
        }
    }

    #[test]
    fn object_longer_than_its_shards_errors() {
        let rs = ReedSolomon::new(2, 1).expect("valid");
        let shards = rs.encode_object(&sample(20)).expect("encode");
        let mut partial: Vec<Option<Vec<u8>>> = shards.into_iter().map(Some).collect();
        assert_eq!(
            rs.decode_object(partial.clone(), 21),
            Err(ErasureError::ShardSizeMismatch)
        );
        partial[0] = None;
        assert_eq!(
            rs.decode_object(partial.clone(), 21),
            Err(ErasureError::ShardSizeMismatch)
        );
        assert_eq!(rs.decode_object(partial, 20), Ok(sample(20)));
    }

    #[test]
    fn missing_parity_is_reencoded() {
        let rs = ReedSolomon::new(2, 2).expect("valid");
        let obj = sample(128);
        let full = rs.encode_object(&obj).expect("encode");
        let mut shards: Vec<Option<Vec<u8>>> = full.iter().cloned().map(Some).collect();
        shards[2] = None;
        shards[3] = None;
        rs.reconstruct(&mut shards).expect("ok");
        assert_eq!(shards[2].as_ref().expect("rebuilt"), &full[2]);
        assert_eq!(shards[3].as_ref().expect("rebuilt"), &full[3]);
    }

    #[test]
    fn wrong_shard_counts_error() {
        let rs = ReedSolomon::new(2, 1).expect("valid");
        let d = sample(10);
        assert!(matches!(
            rs.encode(&[&d]),
            Err(ErasureError::WrongShardCount { .. })
        ));
        let mut short: Vec<Option<Vec<u8>>> = vec![Some(d.clone())];
        assert!(matches!(
            rs.reconstruct(&mut short),
            Err(ErasureError::WrongShardCount { .. })
        ));
    }

    #[test]
    fn mismatched_shard_lengths_error() {
        let rs = ReedSolomon::new(2, 1).expect("valid");
        let a = sample(10);
        let b = sample(12);
        assert_eq!(
            rs.encode(&[&a, &b]).expect_err("mismatch"),
            ErasureError::ShardSizeMismatch
        );
    }

    #[test]
    fn overhead_factor() {
        let rs = ReedSolomon::new(2, 1).expect("valid");
        assert!((rs.overhead_factor() - 1.5).abs() < 1e-12);
    }
}
