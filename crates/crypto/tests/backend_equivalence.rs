//! The SHA-NI backend is an accelerator, never an authority: for every
//! entry point with a hardware variant, this suite pins the hardware
//! output to the software golden reference bit for bit — one-shot
//! digests across message lengths (zero blocks through several,
//! including every padding boundary), the fixed-length keyed hasher,
//! the four-lane multibuffer across lane counts, and the 16-lane batch
//! (the AVX-512F kernel where the CPU reports `avx512f`).
//!
//! On CPUs without the SHA extensions the `ShaNi` requests fall back
//! to software inside the dispatch layer, so the assertions hold
//! trivially — the suite is meaningful exactly where the hardware
//! path exists, and never fails where it doesn't.

use catmark_crypto::sha256::{sha256, sha256_with_backend};
use catmark_crypto::{FixedLenKeyedHasher, HashAlgorithm, KeyedHash, SecretKey, Sha256Backend};
use proptest::prelude::*;

#[test]
fn backends_agree_on_padding_boundaries() {
    // 55/56/63/64 bytes exercise every "does the length field fit"
    // case of the padding rule; the longer sizes cover multi-block
    // streaming through the block buffer.
    for len in [0usize, 1, 8, 55, 56, 57, 63, 64, 65, 119, 120, 128, 129, 1000] {
        let data: Vec<u8> = (0..len).map(|i| (i * 131 + 7) as u8).collect();
        let soft = sha256_with_backend(Sha256Backend::Soft, &data);
        assert_eq!(soft, sha256(&data), "soft backend must be the default path, len={len}");
        assert_eq!(
            sha256_with_backend(Sha256Backend::ShaNi, &data),
            soft,
            "backends disagree at len={len}"
        );
    }
}

proptest! {
    /// One-shot SHA-256 over arbitrary messages: identical digests.
    #[test]
    fn sha256_backends_are_bit_identical(data in proptest::collection::vec(any::<u8>(), 0..600)) {
        prop_assert_eq!(
            sha256_with_backend(Sha256Backend::ShaNi, &data),
            sha256_with_backend(Sha256Backend::Soft, &data)
        );
    }

    /// The fixed-length keyed hasher (single stream, all four
    /// multibuffer lanes and the 16-lane batch) across key widths,
    /// value widths, and value content: identical truncated digests,
    /// and both agree with the generic streaming construct.
    #[test]
    fn fixed_len_keyed_backends_are_bit_identical(
        key in proptest::collection::vec(any::<u8>(), 1..48),
        vlen in 1usize..48,
        seed in any::<u64>(),
    ) {
        // The 16-lane batch, lane for lane against the soft single
        // stream, at the widths of a PRF index (8 bytes) and a
        // canonical integer (9), under every key length whose layout
        // qualifies, so the rounds folded into the hasher's prefix run
        // from 8 to 14; and at two widths past 13 bytes, which splice
        // their values byte by byte. `ShaNi` runs the AVX-512F kernel
        // only where `avx512f` is detected; elsewhere its four-lane
        // pairs.
        fn sixteen_lanes<const N: usize>(seed: u64) -> Result<(), TestCaseError> {
            for key_len in 0..=64 {
                let key: Vec<u8> =
                    (0..key_len).map(|i| seed.rotate_left(i as u32) as u8 ^ i as u8).collect();
                let h = KeyedHash::new(HashAlgorithm::Sha256, SecretKey::from_bytes(key));
                let Some(fast) = h.fixed_len_hasher(N) else { continue };
                let vs: [[u8; N]; 16] = std::array::from_fn(|lane| {
                    let lane_seed = seed ^ (lane as u64).wrapping_mul(0x9e37_79b9);
                    std::array::from_fn(|i| lane_seed.rotate_left(8 * i as u32) as u8)
                });
                let soft: Vec<u64> =
                    vs.iter().map(|v| fast.hash_u64_with(Sha256Backend::Soft, v)).collect();
                for backend in Sha256Backend::ALL {
                    prop_assert_eq!(fast.hash16_u64_with(backend, &vs).to_vec(), soft.clone());
                }
                prop_assert_eq!(fast.hash16_u64(&vs).to_vec(), soft);
            }
            Ok(())
        }
        sixteen_lanes::<8>(seed)?;
        sixteen_lanes::<9>(seed)?;
        sixteen_lanes::<24>(seed)?;
        sixteen_lanes::<40>(seed)?;

        let h = KeyedHash::new(HashAlgorithm::Sha256, SecretKey::from_bytes(key));
        let Some(fast) = h.fixed_len_hasher(vlen) else {
            // Layout doesn't qualify for the two-block fast path —
            // nothing to compare.
            return Ok(());
        };
        let vs: Vec<Vec<u8>> = (0..4u64)
            .map(|lane| {
                (0..vlen)
                    .map(|i| (seed ^ (lane << 56)).wrapping_mul(i as u64 + 1) as u8)
                    .collect()
            })
            .collect();
        for v in &vs {
            let soft = fast.hash_u64_with(Sha256Backend::Soft, v);
            prop_assert_eq!(fast.hash_u64_with(Sha256Backend::ShaNi, v), soft);
            prop_assert_eq!(h.hash_canonical_u64(v.as_slice()), soft);
        }
        let quad = [vs[0].as_slice(), vs[1].as_slice(), vs[2].as_slice(), vs[3].as_slice()];
        let soft4 = fast.hash4_u64_with(Sha256Backend::Soft, quad);
        prop_assert_eq!(fast.hash4_u64_with(Sha256Backend::ShaNi, quad), soft4);
        // The multibuffer lanes themselves must match the single
        // stream on both backends.
        for (lane, v) in soft4.iter().zip(&vs) {
            prop_assert_eq!(*lane, fast.hash_u64(v));
        }
    }

    /// The multi-key quad (one value under four different keys) across
    /// key content and value content: identical truncated digests on
    /// both backends, and every lane agrees with its own single-stream
    /// hasher.
    #[test]
    fn multi_key_quad_backends_are_bit_identical(
        key_len in 1usize..48,
        vlen in 1usize..48,
        seed in any::<u64>(),
    ) {
        let hashes: Vec<KeyedHash> = (0..4u64)
            .map(|lane| {
                let key: Vec<u8> = (0..key_len)
                    .map(|i| (seed ^ (lane << 48)).wrapping_mul(i as u64 + 3) as u8)
                    .collect();
                KeyedHash::new(HashAlgorithm::Sha256, SecretKey::from_bytes(key))
            })
            .collect();
        let fasts: Vec<_> = hashes.iter().filter_map(|h| h.fixed_len_hasher(vlen)).collect();
        if fasts.len() < 4 {
            // Layout doesn't qualify for the two-block fast path.
            return Ok(());
        }
        let quad = FixedLenKeyedHasher::quad([&fasts[0], &fasts[1], &fasts[2], &fasts[3]])
            .expect("same key length and value width");
        let v: Vec<u8> = (0..vlen).map(|i| seed.wrapping_mul(i as u64 + 7) as u8).collect();
        let soft = quad.hash4_u64_with(Sha256Backend::Soft, &v);
        prop_assert_eq!(quad.hash4_u64_with(Sha256Backend::ShaNi, &v), soft);
        for (lane, fast) in soft.iter().zip(&fasts) {
            prop_assert_eq!(*lane, fast.hash_u64(&v));
        }
    }
}
