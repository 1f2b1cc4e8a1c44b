//! The paper's keyed one-way construct `H(V, k) = crypto_hash(k ; V ; k)`
//! (Section 2.2) and a small keyed PRF built on top of it.
//!
//! The construct sandwiches the value between two copies of the secret
//! key before hashing. Its one-wayness is what defeats the court-time
//! attack in which Mallory claims the watermark is an artifact of a key
//! searched for *after* the fact: finding a key that makes an arbitrary
//! data set decode to a chosen mark requires inverting the hash.

use crate::HashAlgorithm;

/// A hash input with a canonical, injective byte encoding that can be
/// **streamed** into a writer instead of materialized.
///
/// This is the zero-allocation path under the watermarking hot loops:
/// `KeyedHash::hash_canonical_u64` streams `write_canonical` output
/// straight into the digest state, so hashing a tuple key costs no
/// heap traffic (the historical path built a `Vec<u8>` per call).
///
/// Implementations must uphold two contracts:
///
/// * `write_canonical` emits exactly [`CanonicalInput::canonical_len`]
///   bytes — the keyed construct length-prefixes the encoding, and a
///   mismatch would silently change every hash;
/// * the encoding is injective across all values that may share a hash
///   domain (distinct values ⇒ distinct byte strings).
pub trait CanonicalInput {
    /// Exact length in bytes of the canonical encoding.
    fn canonical_len(&self) -> usize;

    /// Stream the canonical encoding into `out`.
    ///
    /// # Errors
    ///
    /// Propagates writer errors; digest writers are infallible.
    fn write_canonical<W: std::io::Write + ?Sized>(&self, out: &mut W) -> std::io::Result<()>;
}

impl CanonicalInput for [u8] {
    fn canonical_len(&self) -> usize {
        self.len()
    }

    fn write_canonical<W: std::io::Write + ?Sized>(&self, out: &mut W) -> std::io::Result<()> {
        out.write_all(self)
    }
}

impl CanonicalInput for str {
    fn canonical_len(&self) -> usize {
        self.len()
    }

    fn write_canonical<W: std::io::Write + ?Sized>(&self, out: &mut W) -> std::io::Result<()> {
        out.write_all(self.as_bytes())
    }
}

/// A secret watermarking key.
///
/// The paper works with `max(b(N), b(A))`-bit keys; we generalize to an
/// arbitrary byte string. Two independent keys (`k1` for tuple fitness
/// and value selection, `k2` for watermark-bit position selection) are
/// used by the encoder; [`SecretKey::derive`] provides a convenient way
/// to obtain domain-separated subkeys from one master secret.
#[derive(Clone, PartialEq, Eq, Hash)]
pub struct SecretKey {
    bytes: Vec<u8>,
}

impl SecretKey {
    /// Key from raw bytes. Empty keys are permitted but pointless.
    #[must_use]
    pub fn from_bytes(bytes: impl Into<Vec<u8>>) -> Self {
        SecretKey { bytes: bytes.into() }
    }

    /// Key from a 64-bit integer (big-endian encoding).
    #[must_use]
    pub fn from_u64(v: u64) -> Self {
        SecretKey { bytes: v.to_be_bytes().to_vec() }
    }

    /// Derive a domain-separated subkey: `hash(label ; 0x00 ; key)`.
    ///
    /// Used to obtain the independent `k1`/`k2` pair from a single
    /// master secret, and fresh per-pass keys for the experiment
    /// harness's averaged runs.
    #[must_use]
    pub fn derive(&self, algo: HashAlgorithm, label: &str) -> SecretKey {
        let mut h = algo.hasher();
        h.update(label.as_bytes());
        h.update(&[0u8]);
        h.update(&self.bytes);
        SecretKey { bytes: h.finalize_vec() }
    }

    /// Raw key material.
    #[must_use]
    pub fn as_bytes(&self) -> &[u8] {
        &self.bytes
    }
}

impl std::fmt::Debug for SecretKey {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        // Never leak key material through Debug output.
        write!(f, "SecretKey({} bytes, redacted)", self.bytes.len())
    }
}

impl From<u64> for SecretKey {
    fn from(v: u64) -> Self {
        SecretKey::from_u64(v)
    }
}

impl From<&str> for SecretKey {
    fn from(s: &str) -> Self {
        SecretKey::from_bytes(s.as_bytes().to_vec())
    }
}

impl From<&[u8]> for SecretKey {
    fn from(bytes: &[u8]) -> Self {
        SecretKey::from_bytes(bytes.to_vec())
    }
}

impl<const N: usize> From<&[u8; N]> for SecretKey {
    fn from(bytes: &[u8; N]) -> Self {
        SecretKey::from_bytes(bytes.to_vec())
    }
}

/// The keyed hash `H(V, k) = crypto_hash(k ; V ; k)`.
///
/// Cloning is cheap relative to hashing; instances are immutable and
/// thread-safe.
#[derive(Debug, Clone)]
pub struct KeyedHash {
    algo: HashAlgorithm,
    key: SecretKey,
}

impl KeyedHash {
    /// Keyed hash over `algo` with secret `key`.
    pub fn new(algo: HashAlgorithm, key: impl Into<SecretKey>) -> Self {
        KeyedHash { algo, key: key.into() }
    }

    /// The underlying algorithm.
    #[must_use]
    pub fn algorithm(&self) -> HashAlgorithm {
        self.algo
    }

    /// Full digest of `H(parts..., k)`; `parts` are concatenated with a
    /// length prefix each, preventing ambiguity between e.g.
    /// `("ab", "c")` and `("a", "bc")`.
    #[must_use]
    pub fn hash_parts(&self, parts: &[&[u8]]) -> Vec<u8> {
        let mut h = self.algo.hasher();
        h.update(self.key.as_bytes());
        for part in parts {
            h.update(&(part.len() as u64).to_be_bytes());
            h.update(part);
        }
        h.update(self.key.as_bytes());
        h.finalize_vec()
    }

    /// `H(parts..., k)` truncated to the first 8 digest bytes,
    /// interpreted big-endian.
    ///
    /// This is the integer the algorithms reduce (`mod e` for fitness,
    /// `mod nA` for value selection, `mod |wm_data|` for position
    /// selection).
    #[must_use]
    pub fn hash_u64(&self, parts: &[&[u8]]) -> u64 {
        let digest = self.hash_parts(parts);
        let mut first = [0u8; 8];
        first.copy_from_slice(&digest[..8]);
        u64::from_be_bytes(first)
    }

    /// Convenience for the common single-value case.
    #[must_use]
    pub fn hash_value_u64(&self, value: &[u8]) -> u64 {
        self.hash_u64(&[value])
    }

    /// One-shot `H(value, k)` over a borrowed canonical encoding,
    /// truncated to the first 8 digest bytes (big-endian).
    ///
    /// Byte-identical to `hash_u64(&[&value.canonical_bytes()])` but
    /// allocation-free: the encoding streams straight into the digest
    /// state and the truncated integer is read from the fixed output
    /// array. This is the hot path under fit-tuple selection, where it
    /// runs once (or twice, for the position hash) per tuple of the
    /// relation.
    #[must_use]
    pub fn hash_canonical_u64<V: CanonicalInput + ?Sized>(&self, value: &V) -> u64 {
        let key = self.key.as_bytes();
        let vlen = value.canonical_len();
        let total = 2 * key.len() + 8 + vlen;
        // Small inputs (every integer tuple key, most text keys)
        // assemble on the stack so the digest absorbs one contiguous
        // slice — same bytes, fewer block-buffer round trips.
        if total <= 128 {
            let mut buf = [0u8; 128];
            buf[..key.len()].copy_from_slice(key);
            buf[key.len()..key.len() + 8].copy_from_slice(&(vlen as u64).to_be_bytes());
            let mut tail = &mut buf[key.len() + 8..];
            value.write_canonical(&mut tail).expect("slice writers hold canonical_len bytes");
            buf[key.len() + 8 + vlen..total].copy_from_slice(key);
            let mut h = self.algo.hasher();
            h.update(&buf[..total]);
            return h.finalize_u64();
        }
        let mut h = self.algo.hasher();
        h.update(key);
        h.update(&(vlen as u64).to_be_bytes());
        value.write_canonical(&mut h).expect("digest writers are infallible");
        h.update(key);
        h.finalize_u64()
    }

    /// A precompiled hasher for messages whose canonical encoding is
    /// **exactly** `vlen` bytes — the columnar scan path, where every
    /// key of an integer column encodes to the same width.
    ///
    /// The keyed message `key ‖ len ‖ V ‖ key` then has a fixed layout:
    /// everything except the `vlen` value bytes is constant across
    /// calls. When the algorithm is SHA-256, the value fits entirely in
    /// the first block, and the whole message (with padding) spans
    /// exactly two blocks, the returned hasher pre-renders the first
    /// block's template and pre-expands the *constant* second block's
    /// message schedule, cutting per-hash work by roughly a third.
    /// Returns `None` when the layout doesn't qualify; callers fall
    /// back to [`KeyedHash::hash_canonical_u64`].
    ///
    /// Output is bit-identical to `hash_canonical_u64` over a value
    /// with the same canonical bytes (pinned by test).
    #[must_use]
    pub fn fixed_len_hasher(&self, vlen: usize) -> Option<FixedLenKeyedHasher> {
        self.fixed_len_hasher_after(&[], vlen)
    }

    /// [`KeyedHash::fixed_len_hasher`] for `hash_u64(&[lead.., V])`:
    /// the leading parts and their length prefixes join the constant
    /// prefix, and `V` of exactly `vlen` bytes is the hole. The same
    /// layout rule applies to the whole message.
    fn fixed_len_hasher_after(&self, lead: &[&[u8]], vlen: usize) -> Option<FixedLenKeyedHasher> {
        if self.algo != HashAlgorithm::Sha256 {
            return None;
        }
        let key = self.key.as_bytes();
        let mut prefix = key.to_vec();
        for part in lead {
            prefix.extend_from_slice(&(part.len() as u64).to_be_bytes());
            prefix.extend_from_slice(part);
        }
        prefix.extend_from_slice(&(vlen as u64).to_be_bytes());
        let v_offset = prefix.len();
        let total = v_offset + vlen + key.len();
        // The value must sit entirely in block 1 and the padded message
        // must close in block 2 (0x80 marker + 8-byte bit length).
        if v_offset + vlen > 64 || !(65..=119).contains(&total) {
            return None;
        }
        let mut msg = [0u8; 128];
        msg[..v_offset].copy_from_slice(&prefix);
        // Value region msg[v_offset..v_offset + vlen] left as a hole.
        msg[v_offset + vlen..total].copy_from_slice(key);
        let mut block1 = [0u8; 64];
        block1.copy_from_slice(&msg[..64]);
        let mut block2 = [0u8; 64];
        block2[..total - 64].copy_from_slice(&msg[64..total]);
        block2[total - 64] = 0x80;
        block2[56..64].copy_from_slice(&((total as u64) * 8).to_be_bytes());
        let block2_schedule = crate::sha256::expand_schedule(&block2);
        let words = block_words(&block1);
        Some(FixedLenKeyedHasher {
            block1,
            v_offset,
            vlen,
            block2_schedule,
            prefix_state: crate::sha256::prefix_rounds(&words, v_offset / 4),
            block2_wk: std::array::from_fn(|t| {
                block2_schedule[t].wrapping_add(crate::sha256::K[t])
            }),
        })
    }
}

/// A 64-byte block as its 16 big-endian words.
fn block_words(block: &[u8; 64]) -> [u32; 16] {
    std::array::from_fn(|j| {
        u32::from_be_bytes([block[4 * j], block[4 * j + 1], block[4 * j + 2], block[4 * j + 3]])
    })
}

/// See [`KeyedHash::fixed_len_hasher`]. Immutable and `Send + Sync`;
/// one instance serves a whole (possibly chunked) column scan.
#[derive(Debug, Clone)]
pub struct FixedLenKeyedHasher {
    /// First message block with the value region zeroed.
    block1: [u8; 64],
    v_offset: usize,
    vlen: usize,
    /// Pre-expanded schedule of the constant second block (key tail +
    /// padding + length).
    block2_schedule: [u32; 64],
    /// The working variables after block 1's rounds over the words
    /// before the value, which every message shares: the 16-lane
    /// kernel starts there.
    prefix_state: [u32; 8],
    /// `block2_schedule[t] + K[t]`, for the 16-lane kernel.
    block2_wk: [u32; 64],
}

impl FixedLenKeyedHasher {
    /// `H(V, k)` truncated to the leading 8 digest bytes (big-endian),
    /// where `v` is the value's canonical encoding.
    ///
    /// # Panics
    ///
    /// Panics when `v.len()` differs from the length the hasher was
    /// compiled for.
    #[must_use]
    pub fn hash_u64(&self, v: &[u8]) -> u64 {
        self.hash_u64_with(crate::Sha256Backend::active(), v)
    }

    /// [`Self::hash_u64`] on an explicit backend — used by the
    /// equivalence proptests and the bench harness; production callers
    /// go through [`Self::hash_u64`], which uses the process-wide
    /// selection. Falls back to software when `backend` is unavailable
    /// on this CPU.
    ///
    /// # Panics
    ///
    /// Panics when `v.len()` differs from the length the hasher was
    /// compiled for.
    #[must_use]
    pub fn hash_u64_with(&self, backend: crate::Sha256Backend, v: &[u8]) -> u64 {
        assert_eq!(v.len(), self.vlen, "fixed-length hasher fed a different value width");
        let mut block1 = self.block1;
        block1[self.v_offset..self.v_offset + self.vlen].copy_from_slice(v);
        #[cfg(target_arch = "x86_64")]
        if backend == crate::Sha256Backend::ShaNi && crate::Sha256Backend::ShaNi.is_available() {
            // SAFETY: `is_available` verified the `sha`/`ssse3`/
            // `sse4.1` CPU features at runtime.
            #[allow(unsafe_code)]
            unsafe {
                return crate::sha256_shani::digest_two_blocks_u64(&block1, &self.block2_schedule);
            }
        }
        let _ = backend;
        let mut state = crate::sha256::INITIAL_STATE;
        let w1 = crate::sha256::expand_schedule(&block1);
        crate::sha256::compress_schedule(&mut state, &w1);
        crate::sha256::compress_schedule(&mut state, &self.block2_schedule);
        (u64::from(state[0]) << 32) | u64::from(state[1])
    }

    /// Four independent hashes in one interleaved (multibuffer) pass —
    /// roughly 2–3× the single-stream throughput, because a lone
    /// SHA-256 stream is latency-bound on its round dependency chain.
    /// Bit-identical, lane for lane, to four [`Self::hash_u64`] calls
    /// (pinned by test).
    ///
    /// # Panics
    ///
    /// Panics when any value's width differs from the compiled one.
    #[must_use]
    pub fn hash4_u64(&self, vs: [&[u8]; 4]) -> [u64; 4] {
        self.hash4_u64_with(crate::Sha256Backend::active(), vs)
    }

    /// [`Self::hash4_u64`] on an explicit backend — see
    /// [`Self::hash_u64_with`] for the contract.
    ///
    /// # Panics
    ///
    /// Panics when any value's width differs from the compiled one.
    #[must_use]
    pub fn hash4_u64_with(&self, backend: crate::Sha256Backend, vs: [&[u8]; 4]) -> [u64; 4] {
        let mut block1s = [self.block1; 4];
        for (block, v) in block1s.iter_mut().zip(vs) {
            assert_eq!(v.len(), self.vlen, "fixed-length hasher fed a different value width");
            block[self.v_offset..self.v_offset + self.vlen].copy_from_slice(v);
        }
        crate::sha256::digest4_two_blocks_u64_with(backend, &block1s, &self.block2_schedule)
    }

    /// Sixteen independent hashes in one call, bit-identical, lane for
    /// lane, to sixteen [`Self::hash_u64`] calls (pinned by test). On
    /// the `ShaNi` backend of a CPU with AVX-512F they run side by side
    /// in the 16-lane kernel; everywhere else as four
    /// [`Self::hash4_u64`] batches.
    ///
    /// # Panics
    ///
    /// Panics when `N` differs from the width the hasher was compiled
    /// for.
    #[must_use]
    pub fn hash16_u64<const N: usize>(&self, vs: &[[u8; N]; 16]) -> [u64; 16] {
        self.hash16_u64_with(crate::Sha256Backend::active(), vs)
    }

    /// [`Self::hash16_u64`] on an explicit backend — see
    /// [`Self::hash_u64_with`] for the contract.
    ///
    /// # Panics
    ///
    /// Panics when `N` differs from the width the hasher was compiled
    /// for.
    #[must_use]
    pub fn hash16_u64_with<const N: usize>(
        &self,
        backend: crate::Sha256Backend,
        vs: &[[u8; N]; 16],
    ) -> [u64; 16] {
        assert_eq!(N, self.vlen, "fixed-length hasher fed a different value width");
        #[cfg(target_arch = "x86_64")]
        if backend.runs_avx512() {
            let words = self.block1_words16(vs);
            // SAFETY: `runs_avx512` verified the `avx512f` CPU feature
            // at runtime.
            #[allow(unsafe_code)]
            unsafe {
                return crate::sha256_avx512::digest16_two_blocks_u64(
                    &words,
                    self.v_offset / 4,
                    &self.prefix_state,
                    &self.block2_wk,
                );
            }
        }
        let mut out = [0u64; 16];
        for (lanes, quad) in out.chunks_exact_mut(4).zip(vs.chunks_exact(4)) {
            let quad = [&quad[0][..], &quad[1], &quad[2], &quad[3]];
            lanes.copy_from_slice(&self.hash4_u64_with(backend, quad));
        }
        out
    }

    /// The 16 lanes' first blocks, word-major (`words[j][lane]`): the
    /// template's words, with each lane's value ORed into the words it
    /// covers (the template holds zeros there).
    #[cfg(target_arch = "x86_64")]
    fn block1_words16<const N: usize>(&self, vs: &[[u8; N]; 16]) -> [[u32; 16]; 16] {
        let mut words = block_words(&self.block1).map(|word| [word; 16]);
        let (first, skip) = (self.v_offset / 4, self.v_offset % 4);
        let covered = &mut words[first..(self.v_offset + N).div_ceil(4)];
        for (lane, v) in vs.iter().enumerate() {
            if skip + N <= 16 {
                // The covered words as one big-endian 128-bit window,
                // built in registers.
                let window =
                    v.iter().fold(0u128, |x, &b| x << 8 | u128::from(b)) << (8 * (16 - skip - N));
                for (i, row) in covered.iter_mut().enumerate() {
                    row[lane] |= (window >> (96 - 32 * i)) as u32;
                }
            } else {
                let mut window = [0u8; 64];
                window[skip..skip + N].copy_from_slice(v);
                for (row, bytes) in covered.iter_mut().zip(window.chunks_exact(4)) {
                    row[lane] |= u32::from_be_bytes([bytes[0], bytes[1], bytes[2], bytes[3]]);
                }
            }
        }
        words
    }

    /// Bundle four fixed-length hashers — four *different* keys sharing
    /// one message layout — into a [`FixedLenKeyedHasher4`] that hashes
    /// a single value under all four keys in one multibuffer pass.
    ///
    /// This is the transpose of [`Self::hash4_u64`]: instead of four
    /// values under one key (lanes across *tuples*), it runs one value
    /// under four keys (lanes across *recipients*), which is what lets
    /// a single scan of a key column serve a whole recipient batch.
    /// Returns `None` unless all four hashers were compiled for the
    /// same value width and key length (the derived-key deployments
    /// always qualify: every derived key is one digest wide).
    #[must_use]
    pub fn quad(hashers: [&FixedLenKeyedHasher; 4]) -> Option<FixedLenKeyedHasher4> {
        let (v_offset, vlen) = (hashers[0].v_offset, hashers[0].vlen);
        if hashers.iter().any(|h| h.v_offset != v_offset || h.vlen != vlen) {
            return None;
        }
        let block1s = [hashers[0].block1, hashers[1].block1, hashers[2].block1, hashers[3].block1];
        let w2s = [
            hashers[0].block2_schedule,
            hashers[1].block2_schedule,
            hashers[2].block2_schedule,
            hashers[3].block2_schedule,
        ];
        let mut w2_lanes = [[0u32; 4]; 64];
        for (i, word) in w2_lanes.iter_mut().enumerate() {
            for lane in 0..4 {
                word[lane] = w2s[lane][i];
            }
        }
        Some(FixedLenKeyedHasher4 { block1s, v_offset, vlen, w2s, w2_lanes })
    }
}

/// Four fixed-length keyed hashers under four *different* keys, fused
/// for the multi-key multibuffer: one value in, four truncated digests
/// out — bit-identical, lane for lane, to four independent
/// [`FixedLenKeyedHasher::hash_u64`] calls (pinned by test). Built via
/// [`FixedLenKeyedHasher::quad`]; immutable and `Send + Sync`, one
/// instance serves a whole column scan for a recipient quad.
#[derive(Debug, Clone)]
pub struct FixedLenKeyedHasher4 {
    /// Per-lane first message blocks with the value regions zeroed.
    block1s: [[u8; 64]; 4],
    v_offset: usize,
    vlen: usize,
    /// Per-lane pre-expanded constant second-block schedules (the
    /// layout the SHA-NI stream pairs consume).
    w2s: [[u32; 64]; 4],
    /// The same schedules transposed word-major (the layout the soft
    /// multibuffer consumes).
    w2_lanes: [[u32; 4]; 64],
}

impl FixedLenKeyedHasher4 {
    /// `[H(V, k_0), H(V, k_1), H(V, k_2), H(V, k_3)]`, each truncated
    /// to the leading 8 digest bytes (big-endian), where `v` is the
    /// value's canonical encoding.
    ///
    /// # Panics
    ///
    /// Panics when `v.len()` differs from the length the hashers were
    /// compiled for.
    #[must_use]
    pub fn hash4_u64(&self, v: &[u8]) -> [u64; 4] {
        self.hash4_u64_with(crate::Sha256Backend::active(), v)
    }

    /// [`Self::hash4_u64`] on an explicit backend — used by the
    /// equivalence proptests and the bench harness; production callers
    /// go through [`Self::hash4_u64`], which uses the process-wide
    /// selection. Falls back to software when `backend` is unavailable
    /// on this CPU.
    ///
    /// # Panics
    ///
    /// Panics when `v.len()` differs from the length the hashers were
    /// compiled for.
    #[must_use]
    pub fn hash4_u64_with(&self, backend: crate::Sha256Backend, v: &[u8]) -> [u64; 4] {
        assert_eq!(v.len(), self.vlen, "fixed-length hasher fed a different value width");
        let mut block1s = self.block1s;
        for block in &mut block1s {
            block[self.v_offset..self.v_offset + self.vlen].copy_from_slice(v);
        }
        crate::sha256::digest4_two_blocks_u64_multikey_with(
            backend,
            &block1s,
            &self.w2s,
            &self.w2_lanes,
        )
    }
}

/// Deterministic keyed PRF coins.
///
/// Provides an unlimited stream of pseudorandom bits/integers derived
/// from a key and a consumer-chosen index. Used for the decoder's
/// `RandomFill` erasure policy and for synthetic fit-tuple generation,
/// where reproducibility across runs matters.
#[derive(Debug, Clone)]
pub struct KeyedPrf {
    inner: KeyedHash,
}

impl KeyedPrf {
    /// PRF over `algo` keyed with `key`.
    pub fn new(algo: HashAlgorithm, key: impl Into<SecretKey>) -> Self {
        KeyedPrf { inner: KeyedHash::new(algo, key) }
    }

    /// Pseudorandom 64-bit integer for position `index` in domain `label`.
    #[must_use]
    pub fn value(&self, label: &str, index: u64) -> u64 {
        self.inner.hash_u64(&[label.as_bytes(), &index.to_be_bytes()])
    }

    /// Unbiased pseudorandom bit for position `index` in domain `label`.
    #[must_use]
    pub fn bit(&self, label: &str, index: u64) -> bool {
        self.value(label, index) & 1 == 1
    }

    /// The values of domain `label`, precompiled: for one label the
    /// keyed message differs only in its 8-byte index, so a label of at
    /// most 8 bytes under a 32-byte key hashes through a
    /// [`FixedLenKeyedHasher`] with the index as its hole, 16 indices
    /// at a time. Each value equals [`KeyedPrf::value`].
    #[must_use]
    pub fn coins<'a>(&'a self, label: &'a str) -> PrfCoins<'a> {
        PrfCoins {
            prf: self,
            label,
            fast: self.inner.fixed_len_hasher_after(&[label.as_bytes()], 8),
        }
    }

    /// Pseudorandom integer uniform in `[0, bound)`.
    ///
    /// Uses 64-bit modulo reduction; the bias is ≤ bound/2^64, far
    /// below anything observable here.
    ///
    /// # Panics
    ///
    /// Panics if `bound == 0`.
    #[must_use]
    pub fn below(&self, label: &str, index: u64, bound: u64) -> u64 {
        assert!(bound > 0, "bound must be positive");
        self.value(label, index) % bound
    }
}

/// See [`KeyedPrf::coins`].
#[derive(Debug, Clone)]
pub struct PrfCoins<'a> {
    prf: &'a KeyedPrf,
    label: &'a str,
    fast: Option<FixedLenKeyedHasher>,
}

impl PrfCoins<'_> {
    /// `KeyedPrf::value(label, index)`.
    #[must_use]
    pub fn value(&self, index: u64) -> u64 {
        match &self.fast {
            Some(fast) => fast.hash_u64(&index.to_be_bytes()),
            None => self.prf.value(self.label, index),
        }
    }

    /// Calls `f(index, value)` for each of `indices` in order, hashing
    /// them 16 at a time through [`FixedLenKeyedHasher::hash16_u64`].
    pub fn for_each(&self, indices: impl IntoIterator<Item = u64>, mut f: impl FnMut(u64, u64)) {
        let Some(fast) = &self.fast else {
            for index in indices {
                f(index, self.prf.value(self.label, index));
            }
            return;
        };
        let mut indices = indices.into_iter();
        let mut batch = [0u64; 16];
        loop {
            let mut filled = 0;
            for (slot, index) in batch.iter_mut().zip(&mut indices) {
                *slot = index;
                filled += 1;
            }
            if filled == 0 {
                return;
            }
            // A short last batch hashes the previous batch's tail too,
            // and ignores it.
            let values = fast.hash16_u64(&batch.map(u64::to_be_bytes));
            for (&index, &value) in batch[..filled].iter().zip(&values) {
                f(index, value);
            }
            if filled < batch.len() {
                return;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn kh() -> KeyedHash {
        KeyedHash::new(HashAlgorithm::Sha256, SecretKey::from_u64(0xDEAD_BEEF))
    }

    #[test]
    fn deterministic() {
        assert_eq!(kh().hash_u64(&[b"tuple-1"]), kh().hash_u64(&[b"tuple-1"]));
    }

    #[test]
    fn key_separates() {
        let a = KeyedHash::new(HashAlgorithm::Sha256, SecretKey::from_u64(1));
        let b = KeyedHash::new(HashAlgorithm::Sha256, SecretKey::from_u64(2));
        assert_ne!(a.hash_u64(&[b"v"]), b.hash_u64(&[b"v"]));
    }

    #[test]
    fn hash_canonical_matches_hash_u64() {
        // The zero-allocation one-shot path must produce the same
        // stream (and therefore the same digest) as the part-based
        // path with a single materialized part.
        for algo in HashAlgorithm::ALL {
            let h = KeyedHash::new(algo, SecretKey::from_u64(42));
            for payload in [&b""[..], b"x", b"some-longer-tuple-key-payload"] {
                assert_eq!(
                    h.hash_canonical_u64(payload),
                    h.hash_u64(&[payload]),
                    "{algo}: {payload:?}"
                );
            }
            assert_eq!(h.hash_canonical_u64("text"), h.hash_u64(&[b"text"]));
        }
    }

    #[test]
    fn fixed_len_hasher_matches_generic_path() {
        // Every qualifying (key length, value length) combination must
        // reproduce the streaming path bit for bit; non-qualifying
        // combinations must decline rather than mis-hash.
        for key_len in [1usize, 8, 16, 32, 48, 56] {
            let key = SecretKey::from_bytes((0..key_len).map(|i| i as u8).collect::<Vec<u8>>());
            let h = KeyedHash::new(HashAlgorithm::Sha256, key);
            for vlen in [1usize, 5, 9, 24, 40, 64] {
                let v: Vec<u8> = (0..vlen).map(|i| (i * 37 + 11) as u8).collect();
                let generic = h.hash_canonical_u64(v.as_slice());
                match h.fixed_len_hasher(vlen) {
                    Some(fast) => {
                        assert_eq!(fast.hash_u64(&v), generic, "key={key_len} vlen={vlen}");
                    }
                    None => {
                        let v_offset = key_len + 8;
                        let total = 2 * key_len + 8 + vlen;
                        assert!(
                            v_offset + vlen > 64 || !(65..=119).contains(&total),
                            "declined a qualifying layout: key={key_len} vlen={vlen}"
                        );
                    }
                }
            }
        }
        // Non-SHA-256 algorithms always decline.
        for algo in [HashAlgorithm::Md5, HashAlgorithm::Sha1] {
            assert!(KeyedHash::new(algo, SecretKey::from_u64(1)).fixed_len_hasher(9).is_none());
        }
    }

    #[test]
    fn four_lane_hashing_matches_single_stream() {
        let master = SecretKey::from_bytes(b"lanes".to_vec());
        let h = KeyedHash::new(HashAlgorithm::Sha256, master.derive(HashAlgorithm::Sha256, "k1"));
        let fast = h.fixed_len_hasher(9).expect("derived key qualifies");
        let keys: Vec<[u8; 9]> = (0..64i64)
            .map(|i| {
                let mut b = [0u8; 9];
                b[0] = 0x01;
                b[1..].copy_from_slice(&(i * 7_919 - 3).to_be_bytes());
                b
            })
            .collect();
        for quad in keys.chunks_exact(4) {
            let lanes = fast.hash4_u64([&quad[0], &quad[1], &quad[2], &quad[3]]);
            for (lane, key) in lanes.iter().zip(quad) {
                assert_eq!(*lane, fast.hash_u64(key));
                assert_eq!(*lane, h.hash_canonical_u64(key.as_slice()));
            }
        }
    }

    #[test]
    fn fixed_len_hasher_covers_derived_int_keys() {
        // The deployment-critical layout: 32-byte derived keys hashing
        // 9-byte canonical integers (tag + big-endian i64).
        let master = SecretKey::from_bytes(b"master".to_vec());
        let k1 = master.derive(HashAlgorithm::Sha256, "k1");
        let h = KeyedHash::new(HashAlgorithm::Sha256, k1);
        let fast = h.fixed_len_hasher(9).expect("32-byte key + 9-byte value qualifies");
        for i in [0i64, 1, -1, 42, i64::MAX, i64::MIN, 1_000_003] {
            let mut buf = [0u8; 9];
            buf[0] = 0x01;
            buf[1..].copy_from_slice(&i.to_be_bytes());
            assert_eq!(fast.hash_u64(&buf), h.hash_canonical_u64(buf.as_slice()), "i={i}");
        }
    }

    #[test]
    fn multi_key_quad_matches_four_single_streams() {
        // The recipient-batched layout: four different derived keys
        // hashing the same 9-byte canonical integer must reproduce the
        // four independent single-stream hashes lane for lane, on
        // every backend the CPU offers.
        let master = SecretKey::from_bytes(b"recipients".to_vec());
        let hashes: Vec<KeyedHash> = (0..4)
            .map(|i| {
                KeyedHash::new(
                    HashAlgorithm::Sha256,
                    master.derive(HashAlgorithm::Sha256, &format!("buyer:{i}")),
                )
            })
            .collect();
        let fasts: Vec<FixedLenKeyedHasher> =
            hashes.iter().map(|h| h.fixed_len_hasher(9).expect("derived key qualifies")).collect();
        let quad = FixedLenKeyedHasher::quad([&fasts[0], &fasts[1], &fasts[2], &fasts[3]])
            .expect("uniform layout");
        for i in [0i64, 1, -1, 42, i64::MAX, i64::MIN, 7_919] {
            let mut buf = [0u8; 9];
            buf[0] = 0x01;
            buf[1..].copy_from_slice(&i.to_be_bytes());
            for backend in crate::Sha256Backend::ALL {
                let lanes = quad.hash4_u64_with(backend, &buf);
                for (lane, fast) in lanes.iter().zip(&fasts) {
                    assert_eq!(*lane, fast.hash_u64(&buf), "i={i} backend={backend}");
                }
            }
            assert_eq!(
                quad.hash4_u64(&buf),
                quad.hash4_u64_with(crate::Sha256Backend::active(), &buf)
            );
        }
    }

    #[test]
    fn multi_key_quad_declines_mismatched_layouts() {
        let h = KeyedHash::new(HashAlgorithm::Sha256, SecretKey::from_bytes([7u8; 32].to_vec()));
        let h9 = h.fixed_len_hasher(9).unwrap();
        let h5 = h.fixed_len_hasher(5).unwrap();
        assert!(FixedLenKeyedHasher::quad([&h9, &h9, &h5, &h9]).is_none());
        // Different key lengths shift v_offset, so they must decline
        // even at equal value widths.
        let short =
            KeyedHash::new(HashAlgorithm::Sha256, SecretKey::from_bytes([3u8; 24].to_vec()))
                .fixed_len_hasher(9)
                .unwrap();
        assert!(FixedLenKeyedHasher::quad([&short, &h9, &short, &h9]).is_none());
        assert!(FixedLenKeyedHasher::quad([&h9, &h9, &h9, &h9]).is_some());
    }

    #[test]
    fn part_boundaries_are_unambiguous() {
        // Without length prefixes these two calls would collide.
        assert_ne!(kh().hash_u64(&[b"ab", b"c"]), kh().hash_u64(&[b"a", b"bc"]));
    }

    #[test]
    fn works_for_all_algorithms() {
        for algo in HashAlgorithm::ALL {
            let h = KeyedHash::new(algo, SecretKey::from_u64(7));
            assert_eq!(h.hash_parts(&[b"x"]).len(), algo.output_len());
        }
    }

    #[test]
    fn derive_is_label_separated() {
        let master = SecretKey::from_bytes(b"master".to_vec());
        let k1 = master.derive(HashAlgorithm::Sha256, "k1");
        let k2 = master.derive(HashAlgorithm::Sha256, "k2");
        assert_ne!(k1.as_bytes(), k2.as_bytes());
        // Deterministic.
        assert_eq!(k1.as_bytes(), master.derive(HashAlgorithm::Sha256, "k1").as_bytes());
    }

    #[test]
    fn debug_redacts_key_material() {
        let key = SecretKey::from_bytes(b"super-secret".to_vec());
        let dbg = format!("{key:?}");
        assert!(!dbg.contains("super-secret"));
        assert!(dbg.contains("redacted"));
    }

    #[test]
    fn prf_bits_are_roughly_balanced() {
        let prf = KeyedPrf::new(HashAlgorithm::Sha256, SecretKey::from_u64(99));
        let ones = (0..2000).filter(|&i| prf.bit("test", i)).count();
        assert!((800..1200).contains(&ones), "ones={ones}");
    }

    #[test]
    fn prf_coins_match_the_keyed_hash() {
        // The decoder's three labels under a derived 32-byte key, drawn
        // one at a time and 16 at a time (the AVX-512F kernel where
        // `avx512f` is detected) over index runs ending in a partial
        // batch. A label too long for the precompiled layout, and MD5,
        // take the streaming path.
        let key = SecretKey::from_bytes(b"coins".to_vec()).derive(HashAlgorithm::Sha256, "k2");
        for (algo, label) in [
            (HashAlgorithm::Sha256, "erasure"),
            (HashAlgorithm::Sha256, "pos-tie"),
            (HashAlgorithm::Sha256, "wm-tie"),
            (HashAlgorithm::Sha256, "label-past-eight-bytes"),
            (HashAlgorithm::Md5, "erasure"),
        ] {
            let prf = KeyedPrf::new(algo, key.clone());
            let hash = KeyedHash::new(algo, key.clone());
            for count in [0usize, 1, 16, 37] {
                let indices: Vec<u64> = (0..count as u64).map(|i| i * 0x9e37_79b9 + 3).collect();
                let expected: Vec<(u64, u64)> = indices
                    .iter()
                    .map(|&i| (i, hash.hash_u64(&[label.as_bytes(), &i.to_be_bytes()])))
                    .collect();
                let mut drawn = Vec::new();
                prf.coins(label).for_each(indices.iter().copied(), |i, v| drawn.push((i, v)));
                assert_eq!(drawn, expected, "{algo} {label} count={count}");
                for &(i, v) in &expected {
                    assert_eq!(prf.coins(label).value(i), v, "{algo} {label} i={i}");
                }
            }
            assert_eq!(prf.coins(label).value(u64::MAX), prf.value(label, u64::MAX));
        }
    }

    #[test]
    fn prf_below_respects_bound() {
        let prf = KeyedPrf::new(HashAlgorithm::Sha256, SecretKey::from_u64(3));
        for i in 0..500 {
            assert!(prf.below("b", i, 17) < 17);
        }
    }

    #[test]
    #[should_panic(expected = "bound must be positive")]
    fn prf_below_zero_bound_panics() {
        let prf = KeyedPrf::new(HashAlgorithm::Sha256, SecretKey::from_u64(3));
        let _ = prf.below("b", 0, 0);
    }

    #[test]
    fn hash_u64_spreads_over_residues() {
        // The fitness test is `H mod e == 0`; check the residues of a
        // keyed hash look uniform enough that ~1/e of tuples qualify.
        let h = kh();
        let e = 10u64;
        let hits =
            (0..5000u64).filter(|i| h.hash_u64(&[&i.to_be_bytes()]).is_multiple_of(e)).count();
        // Expect ~500; allow generous slack.
        assert!((380..630).contains(&hits), "hits={hits}");
    }
}
