//! Adversarial tamper suite for `CMKEVD1` evidence bundles.
//!
//! The promise under test: a serialized evidence bundle either verifies
//! exactly as produced, or any mutation — a single flipped byte, a
//! truncation, a tally record spliced in from a different bundle (even
//! with a freshly recomputed checksum) — is rejected with the typed
//! `CoreError::EvidenceInvalid`. `verify_evidence` must never accept a
//! tampered bundle and must never panic on one.

use std::sync::OnceLock;

use catmark::core::evidence::verify_evidence;
use catmark::core::{CoreError, MarkSession, VoteCache, Watermark, WatermarkSpec};
use catmark::crypto::HashAlgorithm;
use catmark::datagen::{ItemScanConfig, SalesGenerator};
use catmark::relation::{ContentStore, Relation, SegmentedRelation, VersionLog};
use proptest::prelude::*;

const TUPLES: usize = 3_000;
const E: u64 = 10;
const WM_LEN: usize = 10;
const WM_DATA_LEN: usize = 120;
const SEGMENT_ROWS: usize = 500;
const SEGMENTS: usize = TUPLES / SEGMENT_ROWS;

/// `CMKEVD1` framing: magic (8) + payload SHA-256 (32) + length (8).
const HEADER: usize = 48;
/// Payload bytes before the relation identity: key commitment (32) +
/// algo (1) + e (8) + wm_len (4) + wm_data_len (4) + erasure (1) +
/// ecc (1).
const SPEC_BYTES: usize = 51;
/// Whole-relation identity: tag (1) + rows (8) + content hash (32).
const WHOLE_IDENTITY: usize = 41;
/// Versioned identity: tag (1) + version (8) + segment count (4) +
/// per-segment hash (32) + rows (8).
const VERSIONED_IDENTITY: usize = 13 + SEGMENTS * 40;
/// One tally record: fit (8) + votes (8) + foreign (8) + per-position
/// ones (4) and zeros (4).
const TALLY_BYTES: usize = 24 + 8 * WM_DATA_LEN;

struct Fixtures {
    /// Label + bundle, every one of which verifies as produced.
    bundles: Vec<(&'static str, Vec<u8>)>,
    /// Whole-relation detect bundles for the mark and its complement,
    /// over the same base relation — identical layout, opposite votes.
    whole: Vec<u8>,
    whole_flipped: Vec<u8>,
    /// Segmented detect bundles for the same pair of marks.
    segmented: Vec<u8>,
    segmented_flipped: Vec<u8>,
}

fn spec_for(gen: &SalesGenerator) -> WatermarkSpec {
    WatermarkSpec::builder(gen.item_domain())
        .master_key("tamper-suite")
        .e(E)
        .wm_len(WM_LEN)
        .wm_data_len(WM_DATA_LEN)
        .build()
        .unwrap()
}

fn session_for(gen: &SalesGenerator, rel: &Relation) -> MarkSession {
    MarkSession::builder(spec_for(gen))
        .key_column("visit_nbr")
        .target_column("item_nbr")
        .bind(rel)
        .unwrap()
}

/// Embed `wm`, segment, commit and produce the certified segmented
/// detection for a fresh copy of the base relation.
fn segmented_bundle(gen: &SalesGenerator, base: &Relation, wm: &Watermark) -> Vec<u8> {
    let mut rel = base.clone();
    let session = session_for(gen, &rel);
    session.embed(&mut rel, wm).unwrap();
    let store = ContentStore::in_memory();
    let mut log = VersionLog::new();
    let mut seg = SegmentedRelation::builder(rel.schema().clone())
        .segment_rows(SEGMENT_ROWS)
        .store(Box::new(store.clone()))
        .from_relation(&rel)
        .unwrap();
    let v = log.commit(&mut seg, &store).unwrap();
    let manifest = log.get(v).unwrap().clone();
    session
        .detect_certified_incremental(&mut seg, wm, &manifest, &mut VoteCache::new())
        .unwrap()
        .bundle
}

fn fixtures() -> &'static Fixtures {
    static FIXTURES: OnceLock<Fixtures> = OnceLock::new();
    FIXTURES.get_or_init(|| {
        let gen = SalesGenerator::new(ItemScanConfig { tuples: TUPLES, ..Default::default() });
        let base = gen.generate();
        let wm = Watermark::from_u64(0b1011001110, WM_LEN);
        let flipped = Watermark::from_u64(0b1011001110 ^ 0x3FF, WM_LEN);

        let mut marked = base.clone();
        let session = session_for(&gen, &marked);
        session.embed(&mut marked, &wm).unwrap();
        let whole = session.detect_certified(&marked, &wm).unwrap().bundle;
        let decode = session.decode_certified(&marked).unwrap().bundle;

        let mut marked_flipped = base.clone();
        let session_flipped = session_for(&gen, &marked_flipped);
        session_flipped.embed(&mut marked_flipped, &flipped).unwrap();
        let whole_flipped = session_flipped.detect_certified(&marked_flipped, &wm).unwrap().bundle;

        let segmented = segmented_bundle(&gen, &base, &wm);
        let segmented_flipped = segmented_bundle(&gen, &base, &flipped);

        // An incremental (vote-cache) bundle rides along for byte-flip
        // and truncation coverage of the warm path's output.
        let store = ContentStore::in_memory();
        let mut log = VersionLog::new();
        let mut seg = SegmentedRelation::builder(marked.schema().clone())
            .segment_rows(SEGMENT_ROWS)
            .store(Box::new(store.clone()))
            .from_relation(&marked)
            .unwrap();
        let v = log.commit(&mut seg, &store).unwrap();
        let manifest = log.get(v).unwrap().clone();
        let mut cache = VoteCache::new();
        session.detect_certified_incremental(&mut seg, &wm, &manifest, &mut cache).unwrap();
        let warm =
            session.detect_certified_incremental(&mut seg, &wm, &manifest, &mut cache).unwrap();

        let bundles = vec![
            ("whole detect", whole.clone()),
            ("whole decode", decode),
            ("whole detect (complement mark)", whole_flipped.clone()),
            ("segmented detect", segmented.clone()),
            ("segmented detect (complement mark)", segmented_flipped.clone()),
            ("incremental detect", warm.bundle),
        ];
        for (label, bundle) in &bundles {
            verify_evidence(bundle).unwrap_or_else(|err| panic!("{label} fixture invalid: {err}"));
        }
        assert_eq!(whole.len(), whole_flipped.len(), "complement bundles must share layout");
        assert_eq!(segmented.len(), segmented_flipped.len());

        Fixtures { bundles, whole, whole_flipped, segmented, segmented_flipped }
    })
}

/// Re-frame a payload with a correct checksum, so a tampered payload
/// reaches the semantic consistency checks instead of dying on the
/// digest comparison.
fn reframe(payload: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(HEADER + payload.len());
    out.extend_from_slice(b"CMKEVD1\0");
    out.extend_from_slice(&HashAlgorithm::Sha256.digest(payload));
    out.extend_from_slice(&(payload.len() as u64).to_le_bytes());
    out.extend_from_slice(payload);
    out
}

fn assert_rejected(bytes: &[u8], what: &str) -> Result<(), TestCaseError> {
    match verify_evidence(bytes) {
        Err(CoreError::EvidenceInvalid { .. }) => Ok(()),
        Err(other) => {
            prop_assert!(false, "{what}: rejected with untyped error {other}");
            Ok(())
        }
        Ok(summary) => {
            prop_assert!(false, "{what}: tampered bundle ACCEPTED ({summary})");
            Ok(())
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Flipping any single byte — header, identity, tallies, decoded
    /// bits, claim, contest — must yield `EvidenceInvalid`, never a
    /// verified summary, never a panic.
    #[test]
    fn single_byte_flips_never_verify(seed in any::<u64>()) {
        for (i, (label, bundle)) in fixtures().bundles.iter().enumerate() {
            let salt = seed ^ (i as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
            let at = (salt % bundle.len() as u64) as usize;
            let mask = ((salt >> 24) % 255 + 1) as u8; // never a no-op
            let mut tampered = bundle.clone();
            tampered[at] ^= mask;
            assert_rejected(&tampered, &format!("{label}: byte {at} ^ {mask:#04x}"))?;
        }
    }

    /// Every strict prefix of a bundle must be rejected, from the empty
    /// slice up to one byte short of the full frame.
    #[test]
    fn truncations_never_verify(seed in any::<u64>()) {
        for (i, (label, bundle)) in fixtures().bundles.iter().enumerate() {
            let salt = seed ^ (i as u64).wrapping_mul(0x2545_F491_4F6C_DD1D);
            let keep = (salt % bundle.len() as u64) as usize;
            assert_rejected(&bundle[..keep], &format!("{label}: truncated to {keep} bytes"))?;
        }
    }

    /// Appending trailing garbage must be rejected even when the frame
    /// is re-checksummed over the padded payload.
    #[test]
    fn trailing_bytes_never_verify(seed in any::<u64>()) {
        let fx = fixtures();
        let extra = (seed % 64 + 1) as usize;
        let mut padded = fx.whole[HEADER..].to_vec();
        padded.extend(std::iter::repeat_n(seed as u8, extra));
        assert_rejected(&reframe(&padded), &format!("{extra} trailing bytes"))?;
        let mut raw = fx.whole.clone();
        raw.extend(std::iter::repeat_n(seed as u8, extra));
        assert_rejected(&raw, "trailing bytes without reframing")?;
    }

    /// Splicing the tally record of one bundle into another — with the
    /// checksum honestly recomputed over the forged payload — must trip
    /// the semantic re-derivation: the foreign votes contradict the
    /// recorded per-position slots, conflict counters, decoded bits, or
    /// claim recount. The two donor bundles embed complementary marks
    /// over the same relation, so every vote disagrees.
    #[test]
    fn spliced_tallies_never_verify(seed in any::<u64>()) {
        let fx = fixtures();

        // Whole-relation bundles carry exactly one tally; swap it.
        let range = SPEC_BYTES + WHOLE_IDENTITY + 4..SPEC_BYTES + WHOLE_IDENTITY + 4 + TALLY_BYTES;
        let (dst, src) = if seed.is_multiple_of(2) {
            (&fx.whole, &fx.whole_flipped)
        } else {
            (&fx.whole_flipped, &fx.whole)
        };
        let mut payload = dst[HEADER..].to_vec();
        payload[range.clone()].copy_from_slice(&src[HEADER + range.start..HEADER + range.end]);
        assert_rejected(&reframe(&payload), "whole-relation tally splice")?;

        // Segmented bundles carry one tally per segment; swap segment k.
        let k = (seed >> 8) as usize % SEGMENTS;
        let base = SPEC_BYTES + VERSIONED_IDENTITY + 4 + k * TALLY_BYTES;
        let range = base..base + TALLY_BYTES;
        let (dst, src) = if seed.is_multiple_of(2) {
            (&fx.segmented, &fx.segmented_flipped)
        } else {
            (&fx.segmented_flipped, &fx.segmented)
        };
        let mut payload = dst[HEADER..].to_vec();
        payload[range.clone()].copy_from_slice(&src[HEADER + range.start..HEADER + range.end]);
        assert_rejected(&reframe(&payload), &format!("segment {k} tally splice"))?;
    }
}

/// A tally spliced across bundle *shapes* — a segmented bundle's tally
/// section pasted into a whole-relation bundle — must be rejected on
/// the structural invariant (whole-relation evidence carries exactly
/// one tally) before any vote arithmetic runs.
#[test]
fn cross_shape_tally_splice_is_rejected() {
    let fx = fixtures();
    let mut payload = fx.whole[HEADER..].to_vec();
    let whole_tail = SPEC_BYTES + WHOLE_IDENTITY + 4 + TALLY_BYTES..payload.len();
    let seg_payload = &fx.segmented[HEADER..];
    let seg_tallies = SPEC_BYTES + VERSIONED_IDENTITY
        ..SPEC_BYTES + VERSIONED_IDENTITY + 4 + SEGMENTS * TALLY_BYTES;
    let tail = payload[whole_tail].to_vec();
    payload.truncate(SPEC_BYTES + WHOLE_IDENTITY);
    payload.extend_from_slice(&seg_payload[seg_tallies]);
    payload.extend_from_slice(&tail);
    let err = verify_evidence(&reframe(&payload)).unwrap_err();
    assert!(
        matches!(err, CoreError::EvidenceInvalid { .. }),
        "cross-shape splice must be EvidenceInvalid, got {err}"
    );
}

/// Add `delta` to the little-endian u64 at `at`, wrapping.
fn add_u64(payload: &mut [u8], at: usize, delta: u64) {
    let field: &mut [u8; 8] = (&mut payload[at..at + 8]).try_into().unwrap();
    *field = u64::from_le_bytes(*field).wrapping_add(delta).to_le_bytes();
}

/// `fx.segmented` reframed after adding `delta` to the fit and foreign
/// counts of each listed segment's tally, so each tally still balances
/// (votes + foreign = fit). With `rows`, each segment's row count in
/// the identity grows by `delta` too.
fn inflate_segments(segments: &[usize], delta: u64, rows: bool) -> Vec<u8> {
    let mut payload = fixtures().segmented[HEADER..].to_vec();
    for &k in segments {
        let tally = SPEC_BYTES + VERSIONED_IDENTITY + 4 + k * TALLY_BYTES;
        add_u64(&mut payload, tally, delta);
        add_u64(&mut payload, tally + 16, delta);
        if rows {
            add_u64(&mut payload, SPEC_BYTES + 13 + k * 40 + 32, delta);
        }
    }
    reframe(&payload)
}

/// A tally that counts more fit tuples than the rows it covers is
/// rejected, even when its votes and foreign values still add up and
/// the checksum is recomputed.
#[test]
fn tallies_with_more_fit_tuples_than_rows_are_rejected() -> Result<(), TestCaseError> {
    assert_rejected(&inflate_segments(&[2], 1_000_000, false), "segment 2 fit +1,000,000")?;
    let mut payload = fixtures().whole[HEADER..].to_vec();
    let tally = SPEC_BYTES + WHOLE_IDENTITY + 4;
    add_u64(&mut payload, tally, TUPLES as u64);
    add_u64(&mut payload, tally + 16, TUPLES as u64);
    assert_rejected(&reframe(&payload), "whole-relation fit +3,000")
}

/// Counts whose sum over the tallies overflows 64 bits are rejected,
/// not wrapped back to the genuine totals: 2^63 more fit and foreign
/// tuples in two segments, with and without their row counts raised
/// to match.
#[test]
fn tally_counts_that_overflow_when_folded_are_rejected() -> Result<(), TestCaseError> {
    for rows in [false, true] {
        let forged = inflate_segments(&[1, 4], 1 << 63, rows);
        assert_rejected(&forged, &format!("segments 1 and 4 fit +2^63, rows raised: {rows}"))?;
    }
    Ok(())
}

/// The rejection reason is carried in the typed error and is specific
/// enough to name the failed check.
#[test]
fn rejection_reasons_name_the_failed_check() {
    let fx = fixtures();

    let mut bad_magic = fx.whole.clone();
    bad_magic[0] ^= 0x20;
    let err = verify_evidence(&bad_magic).unwrap_err();
    assert!(err.to_string().contains("magic"), "magic tamper said: {err}");

    let mut bad_sum = fx.whole.clone();
    bad_sum[8] ^= 0x01; // inside the stored checksum
    let err = verify_evidence(&bad_sum).unwrap_err();
    assert!(err.to_string().contains("checksum"), "checksum tamper said: {err}");

    let err = verify_evidence(&fx.whole[..HEADER - 1]).unwrap_err();
    assert!(
        matches!(err, CoreError::EvidenceInvalid { .. }),
        "short header must be EvidenceInvalid, got {err}"
    );
}
