//! Sixteen fixed-layout keyed SHA-256 hashes at once on AVX-512F.
//!
//! The integer key scan hashes one two-block message per key, and the
//! messages differ only in a few words of block 1 (the key's canonical
//! bytes). This kernel runs sixteen such messages side by side, one
//! per 32-bit lane of a `__m512i`: the working variables and the
//! message schedule are word-major, `vprord` does the rotations and
//! `vpternlogd` folds each three-input Σ, σ, Ch and Maj into one
//! instruction. Per message it also skips what does not vary:
//!
//! * the rounds over block 1's words *before* the value (the key and
//!   the length prefix) are run once per hasher, and the kernel starts
//!   from that state ([`crate::sha256::prefix_rounds`]);
//! * block 2 is constant, so its `W + K` is expanded once per hasher.
//!
//! Like `sha256_shani`, this module is an accelerator, never an
//! authority: its digests are pinned lane for lane to the software
//! reference (`tests/backend_equivalence.rs`), and callers reach it
//! only through [`crate::backend::Sha256Backend`] dispatch after
//! runtime feature detection.
//!
//! # Safety
//!
//! Every function here is `unsafe` with the contract that the CPU
//! supports `avx512f`, which the dispatch verifies with
//! `is_x86_feature_detected!`. Memory is touched only through
//! unaligned loads and stores of whole `[u32; 16]` arrays.

use core::arch::x86_64::{
    __m512i, _mm512_add_epi32, _mm512_loadu_si512, _mm512_ror_epi32, _mm512_set1_epi32,
    _mm512_srli_epi32, _mm512_storeu_si512, _mm512_ternarylogic_epi32,
};

use crate::sha256::{INITIAL_STATE, K};

/// `vpternlogd` truth tables: the bit of `a ^ b ^ c`, of `a ? b : c`
/// (Ch) and of the majority of `a, b, c` (Maj), indexed by
/// `a << 2 | b << 1 | c`.
const XOR3: i32 = 0x96;
const CHOOSE: i32 = 0xca;
const MAJORITY: i32 = 0xe8;

#[inline]
#[target_feature(enable = "avx512f")]
fn splat(x: u32) -> __m512i {
    _mm512_set1_epi32(x as i32)
}

#[inline]
#[target_feature(enable = "avx512f")]
fn add(a: __m512i, b: __m512i) -> __m512i {
    _mm512_add_epi32(a, b)
}

/// `Σ0(a) = ror(a, 2) ^ ror(a, 13) ^ ror(a, 22)`.
#[inline]
#[target_feature(enable = "avx512f")]
fn big_sigma0(a: __m512i) -> __m512i {
    _mm512_ternarylogic_epi32::<XOR3>(
        _mm512_ror_epi32::<2>(a),
        _mm512_ror_epi32::<13>(a),
        _mm512_ror_epi32::<22>(a),
    )
}

/// `Σ1(e) = ror(e, 6) ^ ror(e, 11) ^ ror(e, 25)`.
#[inline]
#[target_feature(enable = "avx512f")]
fn big_sigma1(e: __m512i) -> __m512i {
    _mm512_ternarylogic_epi32::<XOR3>(
        _mm512_ror_epi32::<6>(e),
        _mm512_ror_epi32::<11>(e),
        _mm512_ror_epi32::<25>(e),
    )
}

/// The schedule recurrence `W[t] = σ1(W[t-2]) + W[t-7] + σ0(W[t-15]) +
/// W[t-16]`, given those four words.
#[inline]
#[target_feature(enable = "avx512f")]
fn next_word(w16: __m512i, w15: __m512i, w7: __m512i, w2: __m512i) -> __m512i {
    let s0 = _mm512_ternarylogic_epi32::<XOR3>(
        _mm512_ror_epi32::<7>(w15),
        _mm512_ror_epi32::<18>(w15),
        _mm512_srli_epi32::<3>(w15),
    );
    let s1 = _mm512_ternarylogic_epi32::<XOR3>(
        _mm512_ror_epi32::<17>(w2),
        _mm512_ror_epi32::<19>(w2),
        _mm512_srli_epi32::<10>(w2),
    );
    add(add(w16, s0), add(w7, s1))
}

/// One round in the rotationless form of `crate::sha256`'s
/// `sha256_round!`: the variables' roles rotate through the argument
/// order, so no register moves between rounds. `$wk` is `W[t] + K[t]`.
macro_rules! round {
    ($a:ident, $b:ident, $c:ident, $d:ident, $e:ident, $f:ident, $g:ident, $h:ident, $wk:expr) => {
        let t1 =
            add(add($h, big_sigma1($e)), add(_mm512_ternarylogic_epi32::<CHOOSE>($e, $f, $g), $wk));
        let t2 = add(big_sigma0($a), _mm512_ternarylogic_epi32::<MAJORITY>($a, $b, $c));
        $d = add($d, t1);
        $h = add(t1, t2);
    };
}

/// Sixteen two-block keyed digests, each truncated to its leading
/// 8 bytes as a big-endian `u64`.
///
/// `w1[j][lane]` is word `j` of lane `lane`'s first block. `mid` is
/// the state after rounds `0..first` of block 1, which read only
/// words every lane shares; the kernel runs rounds `first..64` of
/// block 1, the feed-forward, then block 2's 64 rounds from its
/// constant `wk2[t] = W[t] + K[t]`.
///
/// # Safety
///
/// The CPU must support `avx512f` (see module docs).
#[target_feature(enable = "avx512f")]
pub(crate) unsafe fn digest16_two_blocks_u64(
    w1: &[[u32; 16]; 16],
    first: usize,
    mid: &[u32; 8],
    wk2: &[u32; 64],
) -> [u64; 16] {
    let mut w = [splat(0); 16];
    for (word, row) in w.iter_mut().zip(w1) {
        // SAFETY: the unaligned 64-byte load reads one whole
        // `[u32; 16]` row of `w1`.
        *word = unsafe { _mm512_loadu_si512(row.as_ptr().cast()) };
    }
    let [mut a, mut b, mut c, mut d, mut e, mut f, mut g, mut h] = [
        splat(mid[0]),
        splat(mid[1]),
        splat(mid[2]),
        splat(mid[3]),
        splat(mid[4]),
        splat(mid[5]),
        splat(mid[6]),
        splat(mid[7]),
    ];

    // Block 1, rounds `first..16`: a runtime start, so the roles are
    // rotated by moves here and every round ends in canonical order.
    // The words come from `w1` itself, so `w` is only ever indexed by
    // constants and stays in registers.
    for (t, row) in w1.iter().enumerate().skip(first) {
        // SAFETY: the unaligned 64-byte load reads one whole
        // `[u32; 16]` row of `w1`.
        let word = unsafe { _mm512_loadu_si512(row.as_ptr().cast()) };
        round!(a, b, c, d, e, f, g, h, add(word, splat(K[t])));
        (a, b, c, d, e, f, g, h) = (h, a, b, c, d, e, f, g);
    }
    // Rounds 16..64, the schedule in a 16-word ring: each group of 16
    // rounds starts with the ring in order, so every index is constant.
    for k in K[16..].chunks_exact(16) {
        macro_rules! scheduled {
            ($a:ident, $b:ident, $c:ident, $d:ident, $e:ident, $f:ident, $g:ident, $h:ident, $j:expr) => {
                w[$j] = next_word(w[$j], w[($j + 1) % 16], w[($j + 9) % 16], w[($j + 14) % 16]);
                round!($a, $b, $c, $d, $e, $f, $g, $h, add(w[$j], splat(k[$j])));
            };
        }
        scheduled!(a, b, c, d, e, f, g, h, 0);
        scheduled!(h, a, b, c, d, e, f, g, 1);
        scheduled!(g, h, a, b, c, d, e, f, 2);
        scheduled!(f, g, h, a, b, c, d, e, 3);
        scheduled!(e, f, g, h, a, b, c, d, 4);
        scheduled!(d, e, f, g, h, a, b, c, 5);
        scheduled!(c, d, e, f, g, h, a, b, 6);
        scheduled!(b, c, d, e, f, g, h, a, 7);
        scheduled!(a, b, c, d, e, f, g, h, 8);
        scheduled!(h, a, b, c, d, e, f, g, 9);
        scheduled!(g, h, a, b, c, d, e, f, 10);
        scheduled!(f, g, h, a, b, c, d, e, 11);
        scheduled!(e, f, g, h, a, b, c, d, 12);
        scheduled!(d, e, f, g, h, a, b, c, 13);
        scheduled!(c, d, e, f, g, h, a, b, 14);
        scheduled!(b, c, d, e, f, g, h, a, 15);
    }
    let init = INITIAL_STATE;
    (a, b, c, d) = (
        add(a, splat(init[0])),
        add(b, splat(init[1])),
        add(c, splat(init[2])),
        add(d, splat(init[3])),
    );
    (e, f, g, h) = (
        add(e, splat(init[4])),
        add(f, splat(init[5])),
        add(g, splat(init[6])),
        add(h, splat(init[7])),
    );

    // Block 2 from its constant W + K. Only A and B feed the truncated
    // digest, so only they get the feed-forward.
    let (save_a, save_b) = (a, b);
    for t in (0..64).step_by(8) {
        round!(a, b, c, d, e, f, g, h, splat(wk2[t]));
        round!(h, a, b, c, d, e, f, g, splat(wk2[t + 1]));
        round!(g, h, a, b, c, d, e, f, splat(wk2[t + 2]));
        round!(f, g, h, a, b, c, d, e, splat(wk2[t + 3]));
        round!(e, f, g, h, a, b, c, d, splat(wk2[t + 4]));
        round!(d, e, f, g, h, a, b, c, splat(wk2[t + 5]));
        round!(c, d, e, f, g, h, a, b, splat(wk2[t + 6]));
        round!(b, c, d, e, f, g, h, a, splat(wk2[t + 7]));
    }
    let (mut high, mut low) = ([0u32; 16], [0u32; 16]);
    // SAFETY: each unaligned 64-byte store writes one whole local
    // `[u32; 16]`.
    unsafe {
        _mm512_storeu_si512(high.as_mut_ptr().cast(), add(a, save_a));
        _mm512_storeu_si512(low.as_mut_ptr().cast(), add(b, save_b));
    }
    core::array::from_fn(|lane| (u64::from(high[lane]) << 32) | u64::from(low[lane]))
}
