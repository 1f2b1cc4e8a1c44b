//! Byte-identity pins: embed / decode / detect outputs against golden
//! values captured from the pre-columnar (row-store) implementation.
//!
//! The columnar storage engine must be an *invisible* substrate swap:
//! with a fixed master key and a fixed datagen seed, the marked
//! relation's bytes, the decoded watermark bits, and the detection
//! statistics are pinned here bit for bit. Any drift in the canonical
//! value encoding, the keyed-hash inputs, the fit-tuple selection, or
//! the vote aggregation shows up as a golden mismatch.

use catmark::core::{detect, MarkSession, Watermark, WatermarkSpec};
use catmark::datagen::{ItemScanConfig, SalesGenerator};
use catmark::relation::Relation;

/// FNV-1a over every value's canonical bytes in row-major order — a
/// storage-independent content fingerprint of a relation.
fn content_fnv(rel: &Relation) -> u64 {
    let mut h = 0xCBF2_9CE4_8422_2325u64;
    let mut write = |bytes: &[u8]| {
        for &b in bytes {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x1000_0000_01B3);
        }
    };
    for row in 0..rel.len() {
        for attr in 0..rel.schema().arity() {
            write(&rel.value(row, attr).unwrap().canonical_bytes());
        }
    }
    h
}

fn wm_bits(wm: &Watermark) -> String {
    (0..wm.len()).map(|i| if wm.bit(i) { '1' } else { '0' }).collect()
}

struct GoldenRun {
    marked_fnv: u64,
    decoded_bits: String,
    fit_tuples: usize,
    altered: usize,
    matched_bits: usize,
}

fn run(tuples: usize, e: u64, wm_pattern: u64, with_city: bool, target: &str) -> GoldenRun {
    let gen = SalesGenerator::new(ItemScanConfig { tuples, with_city, ..Default::default() });
    let mut rel = gen.generate();
    let domain = if target == "store_city" { gen.city_domain() } else { gen.item_domain() };
    let spec = WatermarkSpec::builder(domain)
        .master_key("golden-byte-identity")
        .e(e)
        .wm_len(10)
        .expected_tuples(tuples)
        .erasure(catmark::core::decode::ErasurePolicy::Abstain)
        .build()
        .unwrap();
    let wm = Watermark::from_u64(wm_pattern, 10);
    let session = MarkSession::builder(spec)
        .key_column("visit_nbr")
        .target_column(target)
        .bind(&rel)
        .unwrap();
    let report = session.embed(&mut rel, &wm).unwrap();
    let decode = session.decode(&rel).unwrap();
    let detection = detect(&decode.watermark, &wm);
    GoldenRun {
        marked_fnv: content_fnv(&rel),
        decoded_bits: wm_bits(&decode.watermark),
        fit_tuples: report.fit_tuples,
        altered: report.altered,
        matched_bits: detection.matched_bits,
    }
}

/// `(tuples, e, wm, with_city, target, marked_fnv, decoded, fit, altered)`
/// — captured from the pre-columnar row-store implementation.
#[allow(clippy::type_complexity)]
const GOLDENS: &[(usize, u64, u64, bool, &str, u64, &str, usize, usize)] = &[
    (3_000, 15, 0b10_1100_1110, false, "item_nbr", 0x1b05_60c6_c681_fbfd, "1011001110", 200, 200),
    (3_000, 30, 0b01_0011_0001, false, "item_nbr", 0x8457_665b_c259_d39e, "0100110001", 95, 95),
    (6_000, 10, 0b11_1111_1111, false, "item_nbr", 0xc185_cb37_53bd_eaf1, "1111111111", 598, 598),
    (6_000, 60, 0b00_0000_0001, false, "item_nbr", 0x55e4_af5c_3549_37d0, "0000000001", 112, 112),
    (2_000, 10, 0b10_1010_1010, true, "store_city", 0xe8e1_6542_daa2_e43f, "1010101010", 204, 200),
    (2_000, 20, 0b01_1001_0110, true, "item_nbr", 0xc2b8_aec1_b073_f0bb, "0110010110", 110, 110),
];

#[test]
fn embed_decode_detect_match_pre_refactor_goldens() {
    if std::env::var("GOLDEN_PRINT").is_ok() {
        for &(tuples, e, wm, with_city, target, ..) in GOLDENS {
            let g = run(tuples, e, wm, with_city, target);
            println!(
                "    ({tuples}, {e}, {wm:#012b}, {with_city}, {target:?}, {:#018x}, {:?}, {}, {}),",
                g.marked_fnv, g.decoded_bits, g.fit_tuples, g.altered
            );
        }
        return;
    }
    for &(tuples, e, wm, with_city, target, marked_fnv, decoded, fit, altered) in GOLDENS {
        let g = run(tuples, e, wm, with_city, target);
        let label = format!("tuples={tuples} e={e} wm={wm:#b} target={target}");
        assert_eq!(g.marked_fnv, marked_fnv, "content drift: {label}");
        assert_eq!(g.decoded_bits, decoded, "decode drift: {label}");
        assert_eq!(g.fit_tuples, fit, "fitness drift: {label}");
        assert_eq!(g.altered, altered, "alteration drift: {label}");
        // Every golden config decodes its own mark completely.
        assert_eq!(g.matched_bits, 10, "detection drift: {label}");
    }
}

/// Out-of-core golden: every pinned configuration re-run through the
/// segmented pipeline — the relation split into segments behind a
/// spill store with a resident budget of **1/4 of its columnar
/// footprint** — must reproduce the exact golden bytes the in-memory
/// path is pinned to, while the pager honors the budget.
#[test]
fn out_of_core_embed_decode_matches_the_same_goldens() {
    use catmark::relation::SegmentedRelation;
    for &(tuples, e, wm_pattern, with_city, target, marked_fnv, decoded, fit, altered) in GOLDENS {
        let gen = SalesGenerator::new(ItemScanConfig { tuples, with_city, ..Default::default() });
        let rel = gen.generate();
        let domain = if target == "store_city" { gen.city_domain() } else { gen.item_domain() };
        let spec = WatermarkSpec::builder(domain)
            .master_key("golden-byte-identity")
            .e(e)
            .wm_len(10)
            .expected_tuples(tuples)
            .erasure(catmark::core::decode::ErasurePolicy::Abstain)
            .build()
            .unwrap();
        let wm = Watermark::from_u64(wm_pattern, 10);
        let session = MarkSession::builder(spec)
            .key_column("visit_nbr")
            .target_column(target)
            .bind(&rel)
            .unwrap();
        let budget = rel.resident_bytes() / 4;
        let mut seg = SegmentedRelation::builder(rel.schema().clone())
            .segment_rows(tuples.div_ceil(16))
            .budget_bytes(budget)
            .from_relation(&rel)
            .unwrap();
        let report = session.embed_segmented(&mut seg, &wm).unwrap();
        let decode = session.decode_segmented(&mut seg).unwrap();
        let label = format!("out-of-core tuples={tuples} e={e} wm={wm_pattern:#b} target={target}");
        assert_eq!(content_fnv(&seg.to_relation().unwrap()), marked_fnv, "content drift: {label}");
        assert_eq!(wm_bits(&decode.watermark), decoded, "decode drift: {label}");
        assert_eq!(report.fit_tuples, fit, "fitness drift: {label}");
        assert_eq!(report.altered, altered, "alteration drift: {label}");
        assert!(
            seg.peak_pageable_bytes() <= budget,
            "budget violated: peak {} > {budget} ({label})",
            seg.peak_pageable_bytes()
        );
        assert!(seg.spilled_bytes() > 0, "nothing spilled under a quarter budget ({label})");
    }
}

/// Incremental golden: for every pinned configuration, mark the
/// relation inside the content-addressed versioned store, churn a few
/// segments, and re-mark with `embed_incremental` (clean segments
/// skipped, dirty segments re-embedded). The result must be
/// byte-identical to the monolithic in-memory `embed` of the same
/// churned rows — the pinned paths and the incremental path may never
/// diverge, and the cached-vote decode must report the same bits as
/// the monolithic decode.
#[test]
fn incremental_remark_matches_the_monolithic_path_on_goldens() {
    use catmark::core::VoteCache;
    use catmark::relation::{ContentStore, SegmentedRelation, VersionLog};
    for &(tuples, e, wm_pattern, with_city, target, ..) in GOLDENS {
        let gen = SalesGenerator::new(ItemScanConfig { tuples, with_city, ..Default::default() });
        let rel = gen.generate();
        let domain = if target == "store_city" { gen.city_domain() } else { gen.item_domain() };
        let values = domain.values().to_vec();
        let spec = WatermarkSpec::builder(domain)
            .master_key("golden-byte-identity")
            .e(e)
            .wm_len(10)
            .expected_tuples(tuples)
            .erasure(catmark::core::decode::ErasurePolicy::Abstain)
            .build()
            .unwrap();
        let wm = Watermark::from_u64(wm_pattern, 10);
        let session = MarkSession::builder(spec)
            .key_column("visit_nbr")
            .target_column(target)
            .bind(&rel)
            .unwrap();
        let attr = rel.schema().index_of(target).unwrap();
        let segment_rows = tuples.div_ceil(16);
        let store = ContentStore::in_memory();
        let mut log = VersionLog::new();
        let mut seg = SegmentedRelation::builder(rel.schema().clone())
            .segment_rows(segment_rows)
            .store(Box::new(store.clone()))
            .from_relation(&rel)
            .unwrap();
        session.embed_segmented(&mut seg, &wm).unwrap();
        let marked = log.commit(&mut seg, &store).unwrap();

        // Churn two segments, mirrored row-for-row onto a monolithic
        // twin of the marked bytes.
        let mut mono = seg.to_relation().unwrap();
        for (victim, step) in [(2usize, 3usize), (9, 5)] {
            for k in 0..20 {
                let row = k * step;
                let value = values[(victim + k) % values.len()].clone();
                seg.with_segment_mut(victim, |r| r.update_value(row, attr, value.clone()))
                    .unwrap()
                    .unwrap();
                mono.update_value(victim * segment_rows + row, attr, value).unwrap();
            }
        }
        let current = log.commit(&mut seg, &store).unwrap();

        let marked_m = log.get(marked).unwrap().clone();
        let current_m = log.get(current).unwrap().clone();
        let inc = session.embed_incremental(&mut seg, &wm, &marked_m, &current_m).unwrap();
        let label = format!("incremental tuples={tuples} e={e} wm={wm_pattern:#b} target={target}");
        assert!(!inc.full_fallback, "fell back: {label}");
        assert_eq!(inc.dirty_segments, 2, "dirty drift: {label}");
        assert!(inc.clean_segments >= 14, "clean drift: {label}");

        // The monolithic re-embed of the same churned relation is the
        // reference for byte identity.
        session.embed(&mut mono, &wm).unwrap();
        assert_eq!(
            content_fnv(&seg.to_relation().unwrap()),
            content_fnv(&mono),
            "incremental re-mark diverged from the monolithic embed: {label}"
        );

        let remarked = log.commit(&mut seg, &store).unwrap();
        let remarked_m = log.get(remarked).unwrap().clone();
        let mut votes = VoteCache::new();
        let inc_decode = session.decode_incremental(&mut seg, &remarked_m, &mut votes).unwrap();
        let mono_decode = session.decode(&mono).unwrap();
        assert_eq!(
            wm_bits(&inc_decode.report.watermark),
            wm_bits(&mono_decode.watermark),
            "cached-vote decode drift: {label}"
        );
    }
}

/// The unmarked generator output itself is pinned: datagen must stay
/// seed-deterministic across storage layouts or every golden above
/// would drift for the wrong reason.
#[test]
fn datagen_content_is_pinned() {
    if std::env::var("GOLDEN_PRINT").is_ok() {
        let plain = SalesGenerator::new(ItemScanConfig { tuples: 3_000, ..Default::default() });
        let city = SalesGenerator::new(ItemScanConfig {
            tuples: 2_000,
            with_city: true,
            ..Default::default()
        });
        println!("plain: {:#018x}", content_fnv(&plain.generate()));
        println!("city:  {:#018x}", content_fnv(&city.generate()));
        return;
    }
    let plain = SalesGenerator::new(ItemScanConfig { tuples: 3_000, ..Default::default() });
    assert_eq!(content_fnv(&plain.generate()), GOLDEN_DATAGEN_PLAIN);
    let city = SalesGenerator::new(ItemScanConfig {
        tuples: 2_000,
        with_city: true,
        ..Default::default()
    });
    assert_eq!(content_fnv(&city.generate()), GOLDEN_DATAGEN_CITY);
}

const GOLDEN_DATAGEN_PLAIN: u64 = 0x2211_08da_077a_8d0e;
const GOLDEN_DATAGEN_CITY: u64 = 0xce18_0b2b_394e_b3bd;

/// FNV-1a over a raw byte string — pins serialized artifacts (delta
/// blobs) the same way `content_fnv` pins relation content.
fn fnv64(bytes: &[u8]) -> u64 {
    let mut h = 0xCBF2_9CE4_8422_2325u64;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x1000_0000_01B3);
    }
    h
}

/// `(buyer, blob_fnv, blob_len, patches, rebuilt_fnv)` — the
/// serialized `MarkDelta` wire bytes and the rebuilt copy's content,
/// captured when delta distribution landed. Blob drift means the wire
/// format changed (readers in the field break); rebuilt drift means
/// `apply_delta` no longer reproduces `mark_copy`.
const DELTA_GOLDENS: &[(&str, u64, usize, usize, u64)] = &[
    ("alice", 0x6793_fa9a_fe72_2e9b, 3089, 153, 0x0132_40ed_c3d6_74b4),
    ("bob", 0x1524_588c_612c_1075, 3009, 149, 0x13ca_4633_cf09_3482),
    ("carol", 0x7b29_4b29_2c09_d321, 3009, 149, 0xe52c_c9ad_43ba_881a),
];

#[test]
fn delta_blobs_and_rebuilt_copies_match_goldens() {
    use catmark::core::fingerprint::FingerprintRegistry;
    let tuples = 3_000;
    let gen = SalesGenerator::new(ItemScanConfig { tuples, ..Default::default() });
    let rel = gen.generate();
    let spec = WatermarkSpec::builder(gen.item_domain())
        .master_key("golden-byte-identity")
        .e(20)
        .wm_len(10)
        .expected_tuples(tuples)
        .erasure(catmark::core::decode::ErasurePolicy::Abstain)
        .build()
        .unwrap();
    let mut registry = FingerprintRegistry::new(spec);
    let buyers: Vec<&str> = DELTA_GOLDENS.iter().map(|g| g.0).collect();
    let deltas = registry.mark_deltas(&rel, &buyers, "visit_nbr", "item_nbr").unwrap();
    if std::env::var("GOLDEN_PRINT").is_ok() {
        for (buyer, (delta, _)) in buyers.iter().zip(&deltas) {
            let blob = delta.encode();
            let rebuilt = rel.apply_delta(delta).unwrap();
            println!(
                "    ({buyer:?}, {:#018x}, {}, {}, {:#018x}),",
                fnv64(&blob),
                blob.len(),
                delta.patch_count(),
                content_fnv(&rebuilt)
            );
        }
        return;
    }
    for (&(buyer, blob_fnv, blob_len, patches, rebuilt_fnv), (delta, _)) in
        DELTA_GOLDENS.iter().zip(&deltas)
    {
        let blob = delta.encode();
        assert_eq!(fnv64(&blob), blob_fnv, "wire-format drift: buyer {buyer}");
        assert_eq!(blob.len(), blob_len, "blob size drift: buyer {buyer}");
        assert_eq!(delta.patch_count(), patches, "patch-set drift: buyer {buyer}");
        let rebuilt = rel.apply_delta(delta).unwrap();
        assert_eq!(content_fnv(&rebuilt), rebuilt_fnv, "rebuilt-copy drift: buyer {buyer}");
        // The delta rebuild and the full-copy API stay in lockstep.
        let (copy, _) = registry.mark_copy(&rel, buyer, "visit_nbr", "item_nbr").unwrap();
        assert_eq!(content_fnv(&copy), rebuilt_fnv, "mark_copy drift: buyer {buyer}");
    }
}

struct GoldenGuardedRun {
    marked_fnv: u64,
    altered: usize,
    vetoed: usize,
    decoded_bits: String,
}

/// Guarded embed through the constraint language: budgets, frequency
/// drift, and the `preserve count` queries of
/// `core::query_preserve`. Pinned from the value-space (row-tuple)
/// constraint path so the code-space port must admit and veto the
/// exact same alterations.
fn run_guarded(tuples: usize, e: u64, wm_pattern: u64, program: &str) -> GoldenGuardedRun {
    let gen = SalesGenerator::new(ItemScanConfig { tuples, ..Default::default() });
    let mut rel = gen.generate();
    let domain = gen.item_domain();
    let spec = WatermarkSpec::builder(domain.clone())
        .master_key("golden-byte-identity")
        .e(e)
        .wm_len(10)
        .expected_tuples(tuples)
        .erasure(catmark::core::decode::ErasurePolicy::Abstain)
        .build()
        .unwrap();
    let wm = Watermark::from_u64(wm_pattern, 10);
    let session = MarkSession::builder(spec)
        .key_column("visit_nbr")
        .target_column("item_nbr")
        .bind(&rel)
        .unwrap();
    let mut guard = catmark::core::constraint_lang::compile(program, &rel, 1, &domain).unwrap();
    let report = session.embed_guarded(&mut rel, &wm, &mut guard).unwrap();
    let decode = session.decode(&rel).unwrap();
    GoldenGuardedRun {
        marked_fnv: content_fnv(&rel),
        altered: report.altered,
        vetoed: report.vetoed,
        decoded_bits: wm_bits(&decode.watermark),
    }
}

/// Constraint programs exercised by the guarded golden: every clause
/// kind the language compiles (budget, drift, immutable, allow,
/// preserve-count in/range forms).
const GUARDED_PROGRAMS: &[&str] = &[
    "budget 3%\n\
     drift <= 0.08\n\
     preserve count in (10005, 10017, 10042) tolerance 2\n\
     preserve count range 10100..10160 tolerance 1%\n",
    "budget 150\n\
     immutable 0..500\n\
     allow in (10003, 10010, 10011, 10024, 10101, 10102, 10500, 10501, 10502, 10777)\n\
     preserve count in (10003) tolerance 0\n",
];

/// `(tuples, e, wm, program_idx, marked_fnv, altered, vetoed, decoded)`
/// — captured from the value-space (pre-query-engine) guarded path.
#[allow(clippy::type_complexity)]
const GUARDED_GOLDENS: &[(usize, u64, u64, usize, u64, usize, usize, &str)] = &[
    (6_000, 20, 0b10_1100_1110, 0, 0x358b_9c26_5f49_9aad, 180, 144, "1011001110"),
    (6_000, 20, 0b10_1100_1110, 1, 0x434f_9275_9020_dd3b, 1, 323, "0100000000"),
    (4_000, 40, 0b01_0011_0001, 0, 0x1a36_bde1_b270_dce1, 94, 0, "0100110001"),
];

#[test]
fn guarded_embed_matches_pre_query_engine_goldens() {
    if std::env::var("GOLDEN_PRINT").is_ok() {
        for &(tuples, e, wm, prog, ..) in GUARDED_GOLDENS {
            let g = run_guarded(tuples, e, wm, GUARDED_PROGRAMS[prog]);
            println!(
                "    ({tuples}, {e}, {wm:#012b}, {prog}, {:#018x}, {}, {}, {:?}),",
                g.marked_fnv, g.altered, g.vetoed, g.decoded_bits
            );
        }
        return;
    }
    for &(tuples, e, wm, prog, marked_fnv, altered, vetoed, decoded) in GUARDED_GOLDENS {
        let g = run_guarded(tuples, e, wm, GUARDED_PROGRAMS[prog]);
        let label = format!("tuples={tuples} e={e} wm={wm:#b} program={prog}");
        assert_eq!(g.marked_fnv, marked_fnv, "guarded content drift: {label}");
        assert_eq!(g.altered, altered, "guarded alteration drift: {label}");
        assert_eq!(g.vetoed, vetoed, "guarded veto drift: {label}");
        assert_eq!(g.decoded_bits, decoded, "guarded decode drift: {label}");
    }
}

/// `(name, tuples, e, wm, bundle_fnv, bundle_len)` — certified
/// detection evidence pinned the same way the delta blobs are: the
/// `CMKEVD1` bundle is a wire format, so its exact bytes are golden.
/// The `tests/golden/<name>.evd` files hold those bytes verbatim; CI
/// feeds them to `catmark verify-evidence` as an external, keyless
/// auditor would. Both SHA dispatch backends must produce these exact
/// bytes — the `CATMARK_SHA_BACKEND=soft` CI pass re-runs this test.
/// `versioned` entries pin the per-segment layout: a committed
/// version's manifest identity plus one tally per segment.
const EVIDENCE_GOLDENS: &[(&str, usize, u64, u64, u64, usize)] = &[
    ("detect_e15", 3_000, 15, 0b10_1100_1110, 0xcf83_7b5a_1c11_84a7, 2018),
    ("detect_e30", 3_000, 30, 0b01_0011_0001, 0xf3fc_15be_3eac_257f, 1118),
    ("detect_e60", 6_000, 60, 0b00_0000_0001, 0x0c76_f166_25e4_0dcc, 1118),
    ("detect_versioned_e15", 3_000, 15, 0b10_1100_1110, 0x9e29_528f_d639_3eb8, 13678),
];

/// The certified detection for one pinned configuration, plus the
/// fast-path verdict it must stay in lockstep with. A `versioned`
/// configuration marks the relation segment by segment inside a
/// content-addressed pile, commits it as one `VersionLog` version, and
/// certifies that version with `detect_certified_incremental` over a
/// fresh vote cache; the others certify the in-memory relation.
fn certified_run(
    name: &str,
    tuples: usize,
    e: u64,
    wm_pattern: u64,
) -> (catmark::core::Certified<catmark::core::Verdict>, catmark::core::Verdict) {
    let gen = SalesGenerator::new(ItemScanConfig { tuples, ..Default::default() });
    let mut rel = gen.generate();
    let spec = WatermarkSpec::builder(gen.item_domain())
        .master_key("golden-byte-identity")
        .e(e)
        .wm_len(10)
        .expected_tuples(tuples)
        .erasure(catmark::core::decode::ErasurePolicy::Abstain)
        .build()
        .unwrap();
    let wm = Watermark::from_u64(wm_pattern, 10);
    let session = MarkSession::builder(spec)
        .key_column("visit_nbr")
        .target_column("item_nbr")
        .bind(&rel)
        .unwrap();
    if name.contains("versioned") {
        use catmark::core::VoteCache;
        use catmark::relation::{ContentStore, SegmentedRelation, VersionLog};
        let store = ContentStore::in_memory();
        let mut log = VersionLog::new();
        let mut seg = SegmentedRelation::builder(rel.schema().clone())
            .segment_rows(tuples.div_ceil(8))
            .store(Box::new(store.clone()))
            .from_relation(&rel)
            .unwrap();
        session.embed_segmented(&mut seg, &wm).unwrap();
        let version = log.commit(&mut seg, &store).unwrap();
        let manifest = log.get(version).unwrap().clone();
        let fast = session.detect(&seg.to_relation().unwrap(), &wm).unwrap();
        let certified = session
            .detect_certified_incremental(&mut seg, &wm, &manifest, &mut VoteCache::new())
            .unwrap();
        return (certified, fast);
    }
    session.embed(&mut rel, &wm).unwrap();
    let fast = session.detect(&rel, &wm).unwrap();
    (session.detect_certified(&rel, &wm).unwrap(), fast)
}

/// Byte offset flipped to fabricate `corrupted.evd` — inside the
/// payload, past the framing, so the checksum is what catches it.
const CORRUPT_AT: usize = 100;

#[test]
fn certified_detection_bundles_match_goldens() {
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/golden");
    if std::env::var("GOLDEN_PRINT").is_ok() {
        std::fs::create_dir_all(&dir).unwrap();
        for &(name, tuples, e, wm, ..) in EVIDENCE_GOLDENS {
            let (certified, _) = certified_run(name, tuples, e, wm);
            std::fs::write(dir.join(format!("{name}.evd")), &certified.bundle).unwrap();
            println!(
                "    ({name:?}, {tuples}, {e}, {wm:#012b}, {:#018x}, {}),",
                fnv64(&certified.bundle),
                certified.bundle.len()
            );
        }
        // The negative fixture: the first golden with one payload byte
        // flipped, which `catmark verify-evidence` must refuse.
        let (name, tuples, e, wm, ..) = EVIDENCE_GOLDENS[0];
        let (certified, _) = certified_run(name, tuples, e, wm);
        let mut corrupted = certified.bundle;
        corrupted[CORRUPT_AT] ^= 0x01;
        std::fs::write(dir.join("corrupted.evd"), &corrupted).unwrap();
        return;
    }
    for &(name, tuples, e, wm, bundle_fnv, bundle_len) in EVIDENCE_GOLDENS {
        let (certified, fast) = certified_run(name, tuples, e, wm);
        let label = format!("evidence {name}: tuples={tuples} e={e} wm={wm:#b}");
        assert_eq!(fnv64(&certified.bundle), bundle_fnv, "bundle drift: {label}");
        assert_eq!(certified.bundle.len(), bundle_len, "bundle size drift: {label}");
        // Certified and fast-path verdicts stay in lockstep.
        assert_eq!(certified.outcome, fast, "verdict drift: {label}");
        // The checked-in court copy is the exact regenerated bytes.
        let on_disk = std::fs::read(dir.join(format!("{name}.evd")))
            .unwrap_or_else(|e| panic!("{label}: missing tests/golden/{name}.evd ({e})"));
        assert_eq!(on_disk, certified.bundle, "stale checked-in bundle: {label}");
        // And it verifies keylessly, agreeing with the fast path.
        let summary = catmark::core::verify_evidence(&certified.bundle).unwrap();
        let claim = summary.claim.as_ref().expect("detect evidence carries a claim");
        assert_eq!(claim.matched_bits, fast.detection.matched_bits, "claim drift: {label}");
        assert_eq!(claim.total_bits, 10, "claim width drift: {label}");
    }
    // The corrupted twin must be refused, not reinterpreted.
    let corrupted = std::fs::read(dir.join("corrupted.evd")).unwrap();
    let err = catmark::core::verify_evidence(&corrupted).unwrap_err();
    assert!(
        matches!(err, catmark::core::CoreError::EvidenceInvalid { .. }),
        "corrupted.evd must be EvidenceInvalid, got {err}"
    );
}

/// The relation behind `tests/golden/csv_edge.csv`: a text key with a
/// duplicate, fields that need quoting (commas, quotes, newlines,
/// carriage returns), empty strings, leading spaces, non-ASCII text and
/// the `i64` extremes.
fn csv_edge_relation() -> Relation {
    use catmark::relation::{AttrType, Schema, Value};
    let schema = Schema::builder()
        .key_attr("name", AttrType::Text)
        .categorical_attr("city", AttrType::Text)
        .attr("n", AttrType::Integer)
        .build()
        .unwrap();
    let mut rel = Relation::new(schema);
    for (name, city, n) in [
        ("alice", "san, jose", i64::MIN),
        ("bob", "o\"hare", i64::MAX),
        ("carol", "line\nbreak", 0),
        ("", "", -1),
        ("  dave", " leading space", 42),
        ("zoë", "München", 7),
        ("alice", "chicago", 1),
        ("\"quoted\"", "a,\"b\",\nc", -42),
        ("trailing ", "\"", 1_000_000),
        ("carriage\r", "return\r\nnewline", 3),
    ] {
        rel.push_unchecked_key(vec![
            Value::Text(name.into()),
            Value::Text(city.into()),
            Value::Int(n),
        ])
        .unwrap();
    }
    rel
}

fn csv_bytes(rel: &Relation) -> Vec<u8> {
    let mut out = Vec::new();
    catmark::relation::csv::write_csv(rel, &mut out).unwrap();
    out
}

/// `(name, fnv, len)` of `write_csv` output: the 120k-row sales
/// relation with and without its text column, an empty relation, and
/// header-only input read back and written again.
const CSV_GOLDENS: &[(&str, u64, usize)] = &[
    ("sales_120k", 0xf1c2_7cea_d1ef_2210, 1_680_019),
    ("sales_city_120k", 0x833e_0620_b6aa_def6, 2_810_245),
    ("empty", 0x97b7_a258_d8e5_e69b, 12),
    ("header_only", 0x6d99_fca0_0661_026d, 19),
];

fn csv_golden_input(name: &str) -> Vec<u8> {
    use catmark::relation::{AttrType, Schema};
    let sales = |with_city| {
        SalesGenerator::new(ItemScanConfig { tuples: 120_000, with_city, ..Default::default() })
            .generate()
    };
    match name {
        "sales_120k" => csv_bytes(&sales(false)),
        "sales_city_120k" => csv_bytes(&sales(true)),
        "empty" => csv_bytes(&Relation::new(csv_edge_relation().schema().clone())),
        "header_only" => {
            let schema = Schema::builder()
                .key_attr("visit_nbr", AttrType::Integer)
                .categorical_attr("item_nbr", AttrType::Integer)
                .build()
                .unwrap();
            let input = b"visit_nbr,item_nbr\r\n";
            let rel = catmark::relation::csv::read_csv(schema, &mut &input[..]).unwrap();
            assert!(rel.is_empty());
            csv_bytes(&rel)
        }
        other => unreachable!("no CSV golden named {other}"),
    }
}

/// The exact bytes `write_csv` produces. `csv_edge.csv` holds every
/// quoting case verbatim; the larger outputs are pinned by FNV and
/// length.
#[test]
fn csv_output_matches_goldens() {
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/golden/csv_edge.csv");
    let edge = csv_bytes(&csv_edge_relation());
    if std::env::var("GOLDEN_PRINT").is_ok() {
        std::fs::write(&path, &edge).unwrap();
        for name in ["sales_120k", "sales_city_120k", "empty", "header_only"] {
            let bytes = csv_golden_input(name);
            println!("    ({name:?}, {:#018x}, {}),", fnv64(&bytes), bytes.len());
        }
        return;
    }
    let on_disk = std::fs::read(&path).expect("tests/golden/csv_edge.csv is checked in");
    assert_eq!(edge, on_disk, "write_csv drifted from tests/golden/csv_edge.csv");
    // And every case reads back as written.
    let rel = csv_edge_relation();
    let back = catmark::relation::csv::read_csv(rel.schema().clone(), &mut &on_disk[..]).unwrap();
    assert!(back == rel, "csv_edge.csv does not read back");
    for &(name, fnv, len) in CSV_GOLDENS {
        let bytes = csv_golden_input(name);
        assert_eq!(fnv64(&bytes), fnv, "CSV drift: {name}");
        assert_eq!(bytes.len(), len, "CSV size drift: {name}");
    }
}
