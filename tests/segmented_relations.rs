//! Segment-boundary properties: a [`SegmentedRelation`] must be an
//! invisible re-packaging of a [`Relation`]. For random data, random
//! segment sizes (including size 1, sizes that leave tuples straddling
//! segment edges, and sizes larger than the relation) and explicit
//! empty trailing segments, the out-of-core embed/decode drivers must
//! produce output identical to their whole-relation counterparts —
//! under a resident-byte budget a quarter of the columnar footprint,
//! with the enforced ceiling asserted.

use catmark::core::{detect, MarkSession, Walk, Watermark, WatermarkSpec};
use catmark::relation::spill::FileStore;
use catmark::relation::{AttrType, Schema};
use catmark::relation::{Relation, SegmentedRelation, Value};
use proptest::prelude::*;

/// Deterministic xorshift closure for structure generation.
fn rng_from(seed: u64) -> impl FnMut() -> u64 {
    let mut state = seed | 1;
    move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        state
    }
}

const TEXT_POOL: &[&str] = &["red", "green", "blue", "cyan", "violet", "umber"];

/// A relation with an integer key, an integer categorical and a text
/// categorical, driven entirely by the seed.
fn relation_for(seed: u64, tuples: usize) -> Relation {
    let schema = Schema::builder()
        .key_attr("k", AttrType::Integer)
        .categorical_attr("a", AttrType::Integer)
        .categorical_attr("c", AttrType::Text)
        .build()
        .unwrap();
    let mut next = rng_from(seed);
    let mut rel = Relation::with_capacity(schema, tuples);
    for i in 0..tuples as i64 {
        let a = (next() % 9) as i64 - 2;
        let c = TEXT_POOL[(next() % TEXT_POOL.len() as u64) as usize];
        rel.push(vec![
            Value::Int(i * 7 + (next() % 5) as i64),
            Value::Int(a),
            Value::Text(c.into()),
        ])
        .unwrap();
    }
    rel
}

/// Segment `rel` with a quarter-of-footprint budget, optionally with
/// trailing empty segments.
fn segmented(rel: &Relation, segment_rows: usize, empty_tail: bool) -> SegmentedRelation {
    let budget = (rel.resident_bytes() / 4).max(1);
    let mut seg = SegmentedRelation::builder(rel.schema().clone())
        .segment_rows(segment_rows)
        .budget_bytes(budget)
        .from_relation(rel)
        .unwrap();
    if empty_tail {
        seg.seal_tail().unwrap();
        seg.seal_tail().unwrap(); // stacking empty segments is legal too
    }
    seg
}

fn assert_same(a: &Relation, b: &Relation, what: &str) {
    assert_eq!(a.len(), b.len(), "{what}: row counts differ");
    assert!(a == b, "{what}: rows differ");
}

/// The sales-shaped fixture the watermarking proptest uses.
fn marked_fixture(tuples: usize) -> (Relation, MarkSession, Watermark) {
    let gen = catmark::datagen::SalesGenerator::new(catmark::datagen::ItemScanConfig {
        tuples,
        ..Default::default()
    });
    let rel = gen.generate();
    let spec = WatermarkSpec::builder(gen.item_domain())
        .master_key("segment-boundary-proptests")
        .e(8)
        .wm_len(10)
        .expected_tuples(tuples)
        .erasure(catmark::core::decode::ErasurePolicy::Abstain)
        .build()
        .unwrap();
    let session = MarkSession::builder(spec)
        .key_column("visit_nbr")
        .target_column("item_nbr")
        .bind(&rel)
        .unwrap();
    (rel, session, Watermark::from_u64(0b1001110011, 10))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Re-packaging is invisible: over random segment sizes — including
    /// 1 (every tuple straddles an edge) and sizes larger than the
    /// relation — and optional empty trailing segments, the segments
    /// materialize to the source rows, and the pager's working set
    /// never exceeds the budget except for the one pinned segment in
    /// flight (random segmentation may make a single segment bigger
    /// than the whole quarter budget).
    #[test]
    fn round_trip_is_segmentation_invariant(seed in any::<u64>()) {
        let mut next = rng_from(seed);
        let tuples = 40 + (next() % 160) as usize;
        let rel = relation_for(next(), tuples);
        let segment_rows = 1 + (next() % (tuples as u64 + 20)) as usize;
        let mut seg = segmented(&rel, segment_rows, next().is_multiple_of(2));
        assert_same(&rel, &seg.to_relation().unwrap(), "round trip");
        let budget = (rel.resident_bytes() / 4).max(1);
        let ceiling = budget.max(seg.peak_segment_bytes());
        prop_assert!(seg.peak_pageable_bytes() <= ceiling,
            "peak {} > ceiling {}", seg.peak_pageable_bytes(), ceiling);
    }

    /// Out-of-core embed + decode over random segment sizes is
    /// byte-identical to the in-memory session path — reports, marked
    /// bytes, and decoded bits — with the quarter budget enforced.
    #[test]
    fn out_of_core_embed_decode_is_segmentation_invariant(seed in any::<u64>()) {
        let mut next = rng_from(seed);
        let tuples = 300 + (next() % 900) as usize;
        let (rel, session, wm) = marked_fixture(tuples);
        let segment_rows = 1 + (next() % (tuples as u64)) as usize;
        let mut seg = segmented(&rel, segment_rows, next().is_multiple_of(2));

        let mut mono = rel.clone();
        let mono_report = session.embed(&mut mono, &wm).unwrap();
        let seg_report = session.embed_segmented(&mut seg, &wm).unwrap();
        prop_assert_eq!(&seg_report, &mono_report);

        let mono_decode = session.decode(&mono).unwrap();
        let seg_decode = session.decode_segmented(&mut seg).unwrap();
        prop_assert_eq!(&seg_decode, &mono_decode);

        let budget = (rel.resident_bytes() / 4).max(1);
        let ceiling = budget.max(seg.peak_segment_bytes());
        prop_assert!(seg.peak_pageable_bytes() <= ceiling,
            "peak {} > ceiling {}", seg.peak_pageable_bytes(), ceiling);
        assert_same(&mono, &seg.to_relation().unwrap(), "marked relation");
    }

    /// The pipelined segment walk (plan prefetched one segment ahead
    /// on a worker thread) is byte-identical to the sequential walk
    /// over random segment sizes, and its memory contract holds: the
    /// pager's ceiling is unchanged, and the pipeline's only addition
    /// is a single in-flight segment clone — never larger than the
    /// largest segment.
    #[test]
    fn pipelined_drivers_match_sequential_segmented(seed in any::<u64>()) {
        let mut next = rng_from(seed);
        let tuples = 300 + (next() % 900) as usize;
        let (rel, session, wm) = marked_fixture(tuples);
        let segment_rows = 1 + (next() % (tuples as u64)) as usize;
        let empty_tail = next().is_multiple_of(2);

        let mut seq = segmented(&rel, segment_rows, empty_tail);
        let (seq_report, _) =
            session.embed_segmented_with(&mut seq, &wm, None, Walk::Sequential).unwrap();
        let (seq_decode, _) = session.decode_segmented_with(&mut seq, Walk::Sequential).unwrap();

        let mut piped = segmented(&rel, segment_rows, empty_tail);
        let (pipe_report, embed_stats) =
            session.embed_segmented_with(&mut piped, &wm, None, Walk::Pipelined).unwrap();
        prop_assert_eq!(&pipe_report, &seq_report);
        let (pipe_decode, decode_stats) =
            session.decode_segmented_with(&mut piped, Walk::Pipelined).unwrap();
        prop_assert_eq!(&pipe_decode, &seq_decode);
        assert_same(
            &seq.to_relation().unwrap(),
            &piped.to_relation().unwrap(),
            "pipelined marked relation",
        );

        // Ceiling contract: resident segments still bounded by the
        // pager budget (modulo the one pinned segment, as always) plus
        // at most one off-pager clone in flight.
        let budget = (rel.resident_bytes() / 4).max(1);
        let ceiling = budget.max(piped.peak_segment_bytes());
        prop_assert!(piped.peak_pageable_bytes() <= ceiling,
            "pipelined peak {} > ceiling {}", piped.peak_pageable_bytes(), ceiling);
        for stats in [embed_stats, decode_stats] {
            prop_assert_eq!(stats.segments, piped.segment_count());
            prop_assert!(stats.peak_inflight_bytes <= piped.peak_segment_bytes(),
                "in-flight clone {} > largest segment {}",
                stats.peak_inflight_bytes, piped.peak_segment_bytes());
        }
    }
}

/// A file-backed spill store round-trips the whole pipeline; the
/// spill file lives under `target/` (hermetic to the build tree).
#[test]
fn out_of_core_round_trip_through_a_file_store() {
    let dir = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join("segmented-relations");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("round-trip.spill");

    let (rel, session, wm) = marked_fixture(3_000);
    let budget = rel.resident_bytes() / 4;
    let mut seg = SegmentedRelation::builder(rel.schema().clone())
        .segment_rows(150)
        .budget_bytes(budget)
        .store(Box::new(FileStore::create(&path).unwrap()))
        .from_relation(&rel)
        .unwrap();

    let mut mono = rel.clone();
    session.embed(&mut mono, &wm).unwrap();
    session.embed_segmented(&mut seg, &wm).unwrap();
    let decoded = session.decode_segmented(&mut seg).unwrap();
    assert!(detect(&decoded.watermark, &wm).is_significant(1e-3));
    assert_eq!(decoded, session.decode(&mono).unwrap());
    assert!(seg.peak_pageable_bytes() <= budget, "budget not honored via the file store");
    assert!(seg.spilled_bytes() > 0);
    assert_same(&mono, &seg.to_relation().unwrap(), "file-store marked relation");

    let _ = std::fs::remove_file(&path);
}

/// Tuples pushed one by one (the streaming ingest path) land in the
/// same segments `from_relation` produces, with the same rows, and
/// each segment codes its text column the same way on both paths: a
/// segment's dictionary follows its own rows, not the order of the
/// relation it was cut from.
#[test]
fn push_and_from_relation_agree() {
    let rel = relation_for(42, 137);
    let mut pushed = SegmentedRelation::builder(rel.schema().clone()).segment_rows(25).build();
    for row in 0..rel.len() {
        let values = (0..rel.schema().arity()).map(|attr| rel.value(row, attr).unwrap());
        pushed.push(values.collect()).unwrap();
    }
    pushed.seal_tail().unwrap();
    let mut gathered = SegmentedRelation::builder(rel.schema().clone())
        .segment_rows(25)
        .from_relation(&rel)
        .unwrap();
    assert_eq!(pushed.segment_count(), gathered.segment_count());
    assert_same(&rel, &pushed.to_relation().unwrap(), "pushed segments");
    assert_same(&rel, &gathered.to_relation().unwrap(), "gathered segments");
    for i in 0..pushed.segment_count() {
        let a = pushed.with_segment(i, Relation::clone).unwrap();
        let b = gathered.with_segment(i, Relation::clone).unwrap();
        let ((a_codes, a_dict), (b_codes, b_dict)) =
            (a.column(2).as_text().unwrap(), b.column(2).as_text().unwrap());
        assert_eq!(a_codes, b_codes, "segment {i}: text codes differ");
        assert_eq!(a_dict.entries(), b_dict.entries(), "segment {i}: dictionaries differ");
    }
}

/// Nothing that grows with the data stays resident: with a distinct
/// text key per row, paging through every segment under a budget of an
/// eighth of the relation leaves only per-segment bookkeeping pinned.
#[test]
fn resident_overhead_stays_bounded_for_text_keys() {
    let schema = Schema::builder()
        .key_attr("k", AttrType::Text)
        .categorical_attr("a", AttrType::Integer)
        .build()
        .unwrap();
    let tuples = 100_000;
    let mut rel = Relation::with_capacity(schema, tuples);
    for i in 0..tuples as i64 {
        rel.push(vec![Value::Text(format!("key-{i:06}")), Value::Int(i % 9)]).unwrap();
    }
    let budget = rel.resident_bytes() / 8;
    let mut seg = SegmentedRelation::builder(rel.schema().clone())
        .segment_rows(1024)
        .budget_bytes(budget)
        .from_relation(&rel)
        .unwrap();
    for i in 0..seg.segment_count() {
        seg.with_segment(i, |_| ()).unwrap();
    }
    assert!(seg.peak_pageable_bytes() <= budget);
    let overhead = seg.resident_overhead_bytes();
    assert!(overhead <= 64 * 1024, "{overhead} B stay resident (budget {budget} B)");
}
