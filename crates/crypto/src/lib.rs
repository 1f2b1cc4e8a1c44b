//! Cryptographic substrate for `catmark`.
//!
//! The watermarking scheme of *Proving Ownership over Categorical Data*
//! (Sion, ICDE 2004) leans on a single cryptographic primitive: a secure
//! one-way hash. The paper names MD5 and SHA as candidate instantiations
//! and builds its keyed construct as
//!
//! ```text
//! H(V, k) = crypto_hash(k ; V ; k)        (";" is concatenation)
//! ```
//!
//! This crate provides from-scratch, test-vector-validated
//! implementations of [`md5`], [`sha1`] and [`sha256`] (RFC 1321 and
//! FIPS 180-4), a streaming [`digest::Digest`] abstraction, the keyed
//! construct [`keyed::KeyedHash`], and small utilities ([`hex`]).
//!
//! None of the algorithms here are novel; they are fixed public
//! standards re-implemented because the build environment provides no
//! hash crates. Correctness is pinned by the official test vectors in
//! each module plus cross-property tests.
//!
//! # Example
//!
//! ```
//! use catmark_crypto::{keyed::KeyedHash, HashAlgorithm};
//!
//! let h = KeyedHash::new(HashAlgorithm::Sha256, b"secret-key-1");
//! let fit = h.hash_u64(&[b"tuple-primary-key"]) % 60 == 0;
//! let _ = fit;
//! ```

// `unsafe` is denied crate-wide; the two exceptions are the SHA-NI and
// AVX-512F intrinsics modules below, which opt back in explicitly and
// carry a safety comment on every unsafe block. (`deny` rather than
// `forbid` because `forbid` cannot be overridden at module scope.)
#![deny(unsafe_code)]
#![warn(missing_docs)]

pub mod backend;
pub mod digest;
pub mod hex;
pub mod keyed;
pub mod md5;
pub mod sha1;
pub mod sha256;
#[cfg(target_arch = "x86_64")]
#[allow(unsafe_code)]
#[deny(unsafe_op_in_unsafe_fn)] // every unsafe op gets an explicit, commented block
pub(crate) mod sha256_avx512;
#[cfg(target_arch = "x86_64")]
#[allow(unsafe_code)]
#[deny(unsafe_op_in_unsafe_fn)] // every unsafe op gets an explicit, commented block
pub(crate) mod sha256_shani;

pub use backend::Sha256Backend;
pub use digest::{Digest, DynDigest};
pub use keyed::{
    CanonicalInput, FixedLenKeyedHasher, FixedLenKeyedHasher4, KeyedHash, KeyedPrf, PrfCoins,
    SecretKey,
};

/// Selects one of the supported one-way hash functions.
///
/// The paper treats the hash as a pluggable primitive ("Examples of
/// potential candidates for `crypto_hash()` are the MD5 or SHA hash");
/// all of `catmark` is generic over this choice.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum HashAlgorithm {
    /// MD5 (RFC 1321), 128-bit output. Broken for collision resistance,
    /// kept for fidelity with the paper's 2004 setting.
    Md5,
    /// SHA-1 (FIPS 180-4), 160-bit output.
    Sha1,
    /// SHA-256 (FIPS 180-4), 256-bit output. The modern default.
    #[default]
    Sha256,
}

impl HashAlgorithm {
    /// Digest length in bytes.
    #[must_use]
    pub const fn output_len(self) -> usize {
        match self {
            HashAlgorithm::Md5 => 16,
            HashAlgorithm::Sha1 => 20,
            HashAlgorithm::Sha256 => 32,
        }
    }

    /// Instantiate a streaming hasher for this algorithm.
    #[must_use]
    pub fn hasher(self) -> DynDigest {
        match self {
            HashAlgorithm::Md5 => DynDigest::Md5(md5::Md5::new()),
            HashAlgorithm::Sha1 => DynDigest::Sha1(sha1::Sha1::new()),
            HashAlgorithm::Sha256 => DynDigest::Sha256(sha256::Sha256::new()),
        }
    }

    /// One-shot hash of `data`.
    #[must_use]
    pub fn digest(self, data: &[u8]) -> Vec<u8> {
        let mut h = self.hasher();
        h.update(data);
        h.finalize_vec()
    }

    /// All supported algorithms, for exhaustive tests and benches.
    pub const ALL: [HashAlgorithm; 3] =
        [HashAlgorithm::Md5, HashAlgorithm::Sha1, HashAlgorithm::Sha256];
}

impl std::fmt::Display for HashAlgorithm {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let name = match self {
            HashAlgorithm::Md5 => "md5",
            HashAlgorithm::Sha1 => "sha1",
            HashAlgorithm::Sha256 => "sha256",
        };
        f.write_str(name)
    }
}

impl std::str::FromStr for HashAlgorithm {
    type Err = UnknownAlgorithm;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s.to_ascii_lowercase().as_str() {
            "md5" => Ok(HashAlgorithm::Md5),
            "sha1" | "sha-1" => Ok(HashAlgorithm::Sha1),
            "sha256" | "sha-256" => Ok(HashAlgorithm::Sha256),
            _ => Err(UnknownAlgorithm(s.to_owned())),
        }
    }
}

/// Error returned when parsing an unrecognized algorithm name.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct UnknownAlgorithm(pub String);

impl std::fmt::Display for UnknownAlgorithm {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "unknown hash algorithm: {:?}", self.0)
    }
}

impl std::error::Error for UnknownAlgorithm {}

#[cfg(test)]
mod tests {
    use super::*;
    use std::str::FromStr;

    #[test]
    fn output_lengths_match_hashers() {
        for algo in HashAlgorithm::ALL {
            assert_eq!(algo.digest(b"x").len(), algo.output_len(), "{algo}");
        }
    }

    #[test]
    fn display_round_trips_through_from_str() {
        for algo in HashAlgorithm::ALL {
            let name = algo.to_string();
            assert_eq!(HashAlgorithm::from_str(&name).unwrap(), algo);
        }
    }

    #[test]
    fn from_str_accepts_dashed_variants() {
        assert_eq!(HashAlgorithm::from_str("SHA-256").unwrap(), HashAlgorithm::Sha256);
        assert_eq!(HashAlgorithm::from_str("Sha-1").unwrap(), HashAlgorithm::Sha1);
    }

    #[test]
    fn from_str_rejects_unknown() {
        let err = HashAlgorithm::from_str("blake3").unwrap_err();
        assert!(err.to_string().contains("blake3"));
    }

    #[test]
    fn default_is_sha256() {
        assert_eq!(HashAlgorithm::default(), HashAlgorithm::Sha256);
    }

    #[test]
    fn digests_differ_across_algorithms() {
        let d: Vec<_> = HashAlgorithm::ALL.iter().map(|a| a.digest(b"abc")).collect();
        assert_ne!(d[0], d[1]);
        assert_ne!(d[1], d[2]);
        assert_ne!(d[0], d[2]);
    }
}
