//! SHA-256 (FIPS 180-4).
//!
//! The default instantiation of the paper's `crypto_hash()` primitive
//! in this library: collision-resistant by current knowledge, which is
//! what the court-time "exhaustive key search" argument of Section 2.2
//! leans on.

use crate::backend::Sha256Backend;
use crate::digest::{BlockBuffer, Digest};

/// Round constants: first 32 bits of the fractional parts of the cube
/// roots of the first 64 primes (FIPS 180-4 section 4.2.2). Shared
/// with the SHA-NI backend, which loads them four at a time.
pub(crate) const K: [u32; 64] = [
    0x428a_2f98,
    0x7137_4491,
    0xb5c0_fbcf,
    0xe9b5_dba5,
    0x3956_c25b,
    0x59f1_11f1,
    0x923f_82a4,
    0xab1c_5ed5,
    0xd807_aa98,
    0x1283_5b01,
    0x2431_85be,
    0x550c_7dc3,
    0x72be_5d74,
    0x80de_b1fe,
    0x9bdc_06a7,
    0xc19b_f174,
    0xe49b_69c1,
    0xefbe_4786,
    0x0fc1_9dc6,
    0x240c_a1cc,
    0x2de9_2c6f,
    0x4a74_84aa,
    0x5cb0_a9dc,
    0x76f9_88da,
    0x983e_5152,
    0xa831_c66d,
    0xb003_27c8,
    0xbf59_7fc7,
    0xc6e0_0bf3,
    0xd5a7_9147,
    0x06ca_6351,
    0x1429_2967,
    0x27b7_0a85,
    0x2e1b_2138,
    0x4d2c_6dfc,
    0x5338_0d13,
    0x650a_7354,
    0x766a_0abb,
    0x81c2_c92e,
    0x9272_2c85,
    0xa2bf_e8a1,
    0xa81a_664b,
    0xc24b_8b70,
    0xc76c_51a3,
    0xd192_e819,
    0xd699_0624,
    0xf40e_3585,
    0x106a_a070,
    0x19a4_c116,
    0x1e37_6c08,
    0x2748_774c,
    0x34b0_bcb5,
    0x391c_0cb3,
    0x4ed8_aa4a,
    0x5b9c_ca4f,
    0x682e_6ff3,
    0x748f_82ee,
    0x78a5_636f,
    0x84c8_7814,
    0x8cc7_0208,
    0x90be_fffa,
    0xa450_6ceb,
    0xbef9_a3f7,
    0xc671_78f2,
];

/// Initial hash value: first 32 bits of the fractional parts of the
/// square roots of the first 8 primes.
const INIT: [u32; 8] = [
    0x6a09_e667,
    0xbb67_ae85,
    0x3c6e_f372,
    0xa54f_f53a,
    0x510e_527f,
    0x9b05_688c,
    0x1f83_d9ab,
    0x5be0_cd19,
];

/// Streaming SHA-256 hasher.
#[derive(Debug, Clone)]
pub struct Sha256 {
    state: [u32; 8],
    buffer: BlockBuffer,
}

impl Sha256 {
    /// Fresh hasher with the FIPS 180-4 initial state.
    #[must_use]
    pub fn new() -> Self {
        Sha256 { state: INIT, buffer: BlockBuffer::new() }
    }

    fn compress(state: &mut [u32; 8], block: &[u8; 64]) {
        compress_with(Sha256Backend::active(), state, block);
    }
}

/// Fold one message block into `state` on an explicit backend.
///
/// The `ShaNi` arm is gated on a fresh availability check (a cached
/// boolean), so requesting an unavailable backend degrades to the
/// software rounds rather than executing unsupported instructions —
/// the digests are bit-identical either way.
pub(crate) fn compress_with(backend: Sha256Backend, state: &mut [u32; 8], block: &[u8; 64]) {
    #[cfg(target_arch = "x86_64")]
    if backend == Sha256Backend::ShaNi && Sha256Backend::ShaNi.is_available() {
        // SAFETY: `is_available` verified the `sha`/`ssse3`/`sse4.1`
        // CPU features at runtime.
        #[allow(unsafe_code)]
        unsafe {
            crate::sha256_shani::compress_block(state, block);
        }
        return;
    }
    let _ = backend;
    let w = expand_schedule(block);
    compress_schedule(state, &w);
}

/// One-shot SHA-256 on an explicit backend — the software path is the
/// golden reference, the SHA-NI path must match it bit for bit
/// (enforced by proptest). Falls back to software when `backend` is
/// unavailable on this CPU.
#[must_use]
pub fn sha256_with_backend(backend: Sha256Backend, data: &[u8]) -> [u8; 32] {
    let mut state = INIT;
    let mut buffer = BlockBuffer::new();
    buffer.update(data, |block| compress_with(backend, &mut state, block));
    buffer.finalize(false, |block| compress_with(backend, &mut state, block));
    let mut out = [0u8; 32];
    for (i, word) in state.iter().enumerate() {
        out[4 * i..4 * i + 4].copy_from_slice(&word.to_be_bytes());
    }
    out
}

/// FIPS 180-4 initial hash value, exposed for the fixed-length keyed
/// fast path in [`crate::keyed`].
pub(crate) const INITIAL_STATE: [u32; 8] = INIT;

/// Four-lane SHA-256 (multibuffer): hash four independent 2-block
/// messages in one interleaved pass.
///
/// A single SHA-256 stream is *latency*-bound — every round depends on
/// the previous one, leaving most ALU throughput idle. Interleaving
/// four independent states breaks the dependency chain four ways (and
/// the `[u32; 4]` lane ops below auto-vectorize to 128-bit SIMD where
/// available). This is what makes the columnar key-column scan fast:
/// a flat slice of keys supplies four messages at a time.
///
/// `block1s` are the four (already padded-into-place) first blocks;
/// `w2` is the shared, pre-expanded schedule of the constant second
/// block. Returns each lane's leading 8 digest bytes, big-endian.
///
/// This is the software multibuffer — the golden reference the SHA-NI
/// variant is checked against. Dispatch happens in
/// [`digest4_two_blocks_u64_with`].
fn digest4_two_blocks_u64_soft(block1s: &[[u8; 64]; 4], w2: &[u32; 64]) -> [u64; 4] {
    multibuffer_two_blocks_u64(block1s, |i| [w2[i]; 4])
}

/// Multi-key variant of the software multibuffer: each lane carries its
/// own constant second block (four *different* keys hashing one value),
/// supplied pre-transposed as `w2_lanes[i][lane]`. This is what lets a
/// single pass over a key column serve four recipients at once.
fn digest4_two_blocks_u64_multikey_soft(
    block1s: &[[u8; 64]; 4],
    w2_lanes: &[[u32; 4]; 64],
) -> [u64; 4] {
    multibuffer_two_blocks_u64(block1s, |i| w2_lanes[i])
}

/// Shared core of the two soft multibuffer entry points above: block 1
/// is transposed and expanded per lane; block 2's schedule words are
/// produced by `w2_lane(i)` — a broadcast of one shared schedule for
/// the single-key case, a transposed per-lane read for the multi-key
/// case. `#[inline(always)]` so each wrapper monomorphizes to straight
/// vectorizable code with no closure call.
#[inline(always)]
fn multibuffer_two_blocks_u64(
    block1s: &[[u8; 64]; 4],
    w2_lane: impl Fn(usize) -> [u32; 4],
) -> [u64; 4] {
    type Lane = [u32; 4];

    #[inline(always)]
    fn splat(x: u32) -> Lane {
        [x; 4]
    }
    #[inline(always)]
    fn add(a: Lane, b: Lane) -> Lane {
        [
            a[0].wrapping_add(b[0]),
            a[1].wrapping_add(b[1]),
            a[2].wrapping_add(b[2]),
            a[3].wrapping_add(b[3]),
        ]
    }
    #[inline(always)]
    fn xor(a: Lane, b: Lane) -> Lane {
        [a[0] ^ b[0], a[1] ^ b[1], a[2] ^ b[2], a[3] ^ b[3]]
    }
    #[inline(always)]
    fn and(a: Lane, b: Lane) -> Lane {
        [a[0] & b[0], a[1] & b[1], a[2] & b[2], a[3] & b[3]]
    }
    #[inline(always)]
    fn andnot(a: Lane, b: Lane) -> Lane {
        [!a[0] & b[0], !a[1] & b[1], !a[2] & b[2], !a[3] & b[3]]
    }
    #[inline(always)]
    fn rotr(a: Lane, n: u32) -> Lane {
        [a[0].rotate_right(n), a[1].rotate_right(n), a[2].rotate_right(n), a[3].rotate_right(n)]
    }
    #[inline(always)]
    fn shr(a: Lane, n: u32) -> Lane {
        [a[0] >> n, a[1] >> n, a[2] >> n, a[3] >> n]
    }

    // Transposed schedule of the four first blocks.
    let mut w = [[0u32; 4]; 64];
    for (i, word) in w.iter_mut().take(16).enumerate() {
        for lane in 0..4 {
            let b = &block1s[lane];
            word[lane] = u32::from_be_bytes([b[4 * i], b[4 * i + 1], b[4 * i + 2], b[4 * i + 3]]);
        }
    }
    for i in 16..64 {
        let s0 = xor(xor(rotr(w[i - 15], 7), rotr(w[i - 15], 18)), shr(w[i - 15], 3));
        let s1 = xor(xor(rotr(w[i - 2], 17), rotr(w[i - 2], 19)), shr(w[i - 2], 10));
        w[i] = add(add(w[i - 16], s0), add(w[i - 7], s1));
    }

    let mut state: [Lane; 8] = [
        splat(INIT[0]),
        splat(INIT[1]),
        splat(INIT[2]),
        splat(INIT[3]),
        splat(INIT[4]),
        splat(INIT[5]),
        splat(INIT[6]),
        splat(INIT[7]),
    ];

    macro_rules! rounds_over {
        ($get:expr, $state:ident) => {{
            let [mut a, mut b, mut c, mut d, mut e, mut f, mut g, mut h] = $state;
            macro_rules! r4 {
                ($aa:ident,$bb:ident,$cc:ident,$dd:ident,$ee:ident,$ff:ident,$gg:ident,$hh:ident,$i:expr) => {
                    let s1 = xor(xor(rotr($ee, 6), rotr($ee, 11)), rotr($ee, 25));
                    let ch = xor(and($ee, $ff), andnot($ee, $gg));
                    let wk = add($get($i), splat(K[$i]));
                    let t1 = add(add($hh, s1), add(ch, wk));
                    let s0 = xor(xor(rotr($aa, 2), rotr($aa, 13)), rotr($aa, 22));
                    let maj = xor(xor(and($aa, $bb), and($aa, $cc)), and($bb, $cc));
                    $dd = add($dd, t1);
                    $hh = add(t1, add(s0, maj));
                };
            }
            let mut i = 0;
            while i < 64 {
                r4!(a, b, c, d, e, f, g, h, i);
                r4!(h, a, b, c, d, e, f, g, i + 1);
                r4!(g, h, a, b, c, d, e, f, i + 2);
                r4!(f, g, h, a, b, c, d, e, i + 3);
                r4!(e, f, g, h, a, b, c, d, i + 4);
                r4!(d, e, f, g, h, a, b, c, i + 5);
                r4!(c, d, e, f, g, h, a, b, i + 6);
                r4!(b, c, d, e, f, g, h, a, i + 7);
                i += 8;
            }
            $state = [
                add($state[0], a),
                add($state[1], b),
                add($state[2], c),
                add($state[3], d),
                add($state[4], e),
                add($state[5], f),
                add($state[6], g),
                add($state[7], h),
            ];
        }};
    }

    rounds_over!(|i: usize| w[i], state);
    rounds_over!(|i: usize| w2_lane(i), state);

    let mut out = [0u64; 4];
    for (lane, o) in out.iter_mut().enumerate() {
        *o = (u64::from(state[0][lane]) << 32) | u64::from(state[1][lane]);
    }
    out
}

/// Four-lane two-block keyed digest on an explicit backend: the
/// software multibuffer or two interleaved SHA-NI stream pairs. Falls
/// back to software when `backend` is unavailable on this CPU; both
/// paths are bit-identical lane for lane (enforced by proptest).
pub(crate) fn digest4_two_blocks_u64_with(
    backend: Sha256Backend,
    block1s: &[[u8; 64]; 4],
    w2: &[u32; 64],
) -> [u64; 4] {
    #[cfg(target_arch = "x86_64")]
    if backend == Sha256Backend::ShaNi && Sha256Backend::ShaNi.is_available() {
        // SAFETY: `is_available` verified the `sha`/`ssse3`/`sse4.1`
        // CPU features at runtime.
        #[allow(unsafe_code)]
        unsafe {
            return crate::sha256_shani::digest4_two_blocks_u64(block1s, w2);
        }
    }
    let _ = backend;
    digest4_two_blocks_u64_soft(block1s, w2)
}

/// Multi-key four-lane two-block keyed digest on an explicit backend:
/// lane `i` compresses `block1s[i]` then lane `i`'s *own* constant
/// second block. The schedules arrive in both layouts so neither
/// backend transposes per call: `w2s[lane]` feeds the SHA-NI stream
/// pairs, `w2_lanes[i][lane]` feeds the soft multibuffer. Callers
/// ([`crate::keyed::FixedLenKeyedHasher4`]) precompute both once per
/// key quad. Falls back to software when `backend` is unavailable on
/// this CPU; both paths are bit-identical lane for lane (enforced by
/// proptest).
pub(crate) fn digest4_two_blocks_u64_multikey_with(
    backend: Sha256Backend,
    block1s: &[[u8; 64]; 4],
    w2s: &[[u32; 64]; 4],
    w2_lanes: &[[u32; 4]; 64],
) -> [u64; 4] {
    #[cfg(target_arch = "x86_64")]
    if backend == Sha256Backend::ShaNi && Sha256Backend::ShaNi.is_available() {
        // SAFETY: `is_available` verified the `sha`/`ssse3`/`sse4.1`
        // CPU features at runtime.
        #[allow(unsafe_code)]
        unsafe {
            return crate::sha256_shani::digest4_two_blocks_u64_multikey(block1s, w2s);
        }
    }
    let _ = (backend, w2s);
    digest4_two_blocks_u64_multikey_soft(block1s, w2_lanes)
}

/// Expand one message block into the 64-word schedule `W`.
///
/// Split out of the compression function so callers hashing many
/// messages that share a *constant* trailing block (the fixed-length
/// keyed construct: the second block is pure key tail + padding) can
/// expand that block's schedule once and replay only the rounds.
pub(crate) fn expand_schedule(block: &[u8; 64]) -> [u32; 64] {
    let mut w = [0u32; 64];
    for (i, word) in w.iter_mut().take(16).enumerate() {
        *word = u32::from_be_bytes([
            block[4 * i],
            block[4 * i + 1],
            block[4 * i + 2],
            block[4 * i + 3],
        ]);
    }
    for i in 16..64 {
        let s0 = w[i - 15].rotate_right(7) ^ w[i - 15].rotate_right(18) ^ (w[i - 15] >> 3);
        let s1 = w[i - 2].rotate_right(17) ^ w[i - 2].rotate_right(19) ^ (w[i - 2] >> 10);
        w[i] = w[i - 16].wrapping_add(s0).wrapping_add(w[i - 7]).wrapping_add(s1);
    }
    w
}

/// One SHA-256 round in the rotationless formulation: instead of
/// shifting all eight working variables each round, the variables'
/// *roles* rotate through the macro's argument order, eliminating
/// seven register moves per round. Identical arithmetic to FIPS
/// 180-4 (pinned by the test vectors below).
macro_rules! sha256_round {
    ($a:ident,$b:ident,$c:ident,$d:ident,$e:ident,$f:ident,$g:ident,$h:ident,$k:expr,$w:expr) => {
        let s1 = $e.rotate_right(6) ^ $e.rotate_right(11) ^ $e.rotate_right(25);
        let ch = ($e & $f) ^ (!$e & $g);
        let t1 = $h.wrapping_add(s1).wrapping_add(ch).wrapping_add($k).wrapping_add($w);
        let s0 = $a.rotate_right(2) ^ $a.rotate_right(13) ^ $a.rotate_right(22);
        let maj = ($a & $b) ^ ($a & $c) ^ ($b & $c);
        $d = $d.wrapping_add(t1);
        $h = t1.wrapping_add(s0.wrapping_add(maj));
    };
}

/// The working variables after the first `rounds` rounds of a block
/// whose leading words are `w[..rounds]`, from the initial state and
/// before any feed-forward. Messages that share those words share this
/// state, so the 16-lane kernel starts from it.
pub(crate) fn prefix_rounds(w: &[u32; 16], rounds: usize) -> [u32; 8] {
    let mut state = INIT;
    for t in 0..rounds {
        let [a, b, c, mut d, e, f, g, mut h] = state;
        sha256_round!(a, b, c, d, e, f, g, h, K[t], w[t]);
        state = [h, a, b, c, d, e, f, g];
    }
    state
}

/// The 64 SHA-256 rounds over a pre-expanded schedule.
pub(crate) fn compress_schedule(state: &mut [u32; 8], w: &[u32; 64]) {
    let [mut a, mut b, mut c, mut d, mut e, mut f, mut g, mut h] = *state;
    let mut i = 0;
    while i < 64 {
        sha256_round!(a, b, c, d, e, f, g, h, K[i], w[i]);
        sha256_round!(h, a, b, c, d, e, f, g, K[i + 1], w[i + 1]);
        sha256_round!(g, h, a, b, c, d, e, f, K[i + 2], w[i + 2]);
        sha256_round!(f, g, h, a, b, c, d, e, K[i + 3], w[i + 3]);
        sha256_round!(e, f, g, h, a, b, c, d, K[i + 4], w[i + 4]);
        sha256_round!(d, e, f, g, h, a, b, c, K[i + 5], w[i + 5]);
        sha256_round!(c, d, e, f, g, h, a, b, K[i + 6], w[i + 6]);
        sha256_round!(b, c, d, e, f, g, h, a, K[i + 7], w[i + 7]);
        i += 8;
    }
    state[0] = state[0].wrapping_add(a);
    state[1] = state[1].wrapping_add(b);
    state[2] = state[2].wrapping_add(c);
    state[3] = state[3].wrapping_add(d);
    state[4] = state[4].wrapping_add(e);
    state[5] = state[5].wrapping_add(f);
    state[6] = state[6].wrapping_add(g);
    state[7] = state[7].wrapping_add(h);
}

impl Default for Sha256 {
    fn default() -> Self {
        Self::new()
    }
}

impl Digest for Sha256 {
    type Output = [u8; 32];

    fn update(&mut self, data: &[u8]) {
        let state = &mut self.state;
        self.buffer.update(data, |block| Self::compress(state, block));
    }

    fn finalize(mut self) -> [u8; 32] {
        let state = &mut self.state;
        self.buffer.finalize(false, |block| Self::compress(state, block));
        let mut out = [0u8; 32];
        for (i, word) in self.state.iter().enumerate() {
            out[4 * i..4 * i + 4].copy_from_slice(&word.to_be_bytes());
        }
        out
    }

    fn reset(&mut self) {
        self.state = INIT;
        self.buffer.reset();
    }
}

/// One-shot SHA-256 digest.
#[must_use]
pub fn sha256(data: &[u8]) -> [u8; 32] {
    Sha256::digest(data)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hex::to_hex;

    #[test]
    fn fips_test_vectors() {
        let cases: [(&[u8], &str); 3] = [
            (b"", "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
            (b"abc", "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad"),
            (
                b"abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq",
                "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1",
            ),
        ];
        for (input, expected) in cases {
            assert_eq!(to_hex(&sha256(input)), expected);
        }
    }

    #[test]
    fn million_a_vector() {
        let mut h = Sha256::new();
        let chunk = [b'a'; 10_000];
        for _ in 0..100 {
            h.update(&chunk);
        }
        assert_eq!(
            to_hex(&h.finalize()),
            "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0"
        );
    }

    #[test]
    fn streaming_equals_one_shot() {
        let data: Vec<u8> = (0u32..1000).map(|i| (i * 31 % 256) as u8).collect();
        let mut h = Sha256::new();
        for chunk in data.chunks(17) {
            h.update(chunk);
        }
        assert_eq!(h.finalize(), sha256(&data));
    }

    #[test]
    fn reset_restores_initial_state() {
        let mut h = Sha256::new();
        h.update(b"noise");
        h.reset();
        h.update(b"abc");
        assert_eq!(
            to_hex(&h.finalize()),
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad"
        );
    }

    #[test]
    fn single_bit_changes_avalanche() {
        let a = sha256(b"categorical data 0");
        let b = sha256(b"categorical data 1");
        let differing: u32 = a.iter().zip(b.iter()).map(|(x, y)| (x ^ y).count_ones()).sum();
        // Expect roughly half of the 256 bits to differ; anything above
        // 80 is a comfortable avalanche check.
        assert!(differing > 80, "only {differing} bits differ");
    }
}
