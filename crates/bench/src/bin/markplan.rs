//! Plan-on vs plan-off throughput of the embed + blind-decode round
//! trip, proving the `MarkPlan` layer, the `MarkSession` API, and the
//! columnar storage engine end to end.
//!
//! Four scenarios over the same workload:
//!
//! * **baseline** re-implements the seed code path faithfully — per
//!   row it materializes the key, builds its canonical bytes per hash
//!   call, evaluates `H(·, k1)` once for the fitness test and *again*
//!   for the value base, and re-scans every row at decode time;
//! * **plan-on** drives embed and decode from one
//!   [`catmark_core::plan::MarkPlan`] through a
//!   [`catmark_core::MarkSession`]'s shared cache, on columnar
//!   storage;
//! * **session-reuse** times the full court run (embed → blind decode
//!   → detect) twice: once with a fresh session per step (every
//!   operator replans — the pre-session surface), once on a single
//!   bound session sharing one cached plan;
//! * **columnar** isolates the storage engine: the planned round trip
//!   re-run over an emulated row store (per-row `Value`
//!   materialization + generic streaming hashing, the pre-columnar
//!   cost profile) against the columnar flat-slice scan, plus
//!   `Relation::clone` cost and resident bytes per tuple for both
//!   layouts;
//! * **select** compares the historical row-tuple `ops::select` (a
//!   materialized `Tuple` plus an interpreted `Predicate::eval` with
//!   a linear IN-list scan per row) against the compiled query
//!   engine (dictionary-code truth tables, sorted IN lookup,
//!   vectorized masks, gather output);
//! * **join** compares the historical `Value`-keyed, tuple-at-a-time
//!   hash join against the code-space build/probe with column-copy
//!   output assembly;
//! * **out_of_core** streams the embed + blind-decode round trip over
//!   a [`catmark_relation::SegmentedRelation`] — the relation split
//!   into 16 spilled segments behind a file-backed
//!   [`catmark_relation::spill::FileStore`] with a resident budget of
//!   **1/4 of the columnar footprint** — and asserts the enforced
//!   resident-bytes ceiling plus byte-identity against the in-memory
//!   path, via an explicit *sequential* walk;
//! * **pipeline** re-runs the out-of-core round trip through a
//!   pipelined segment walk (a worker thread plans segment
//!   `i + 1` from an off-pager clone while the main thread
//!   embeds/serializes segment `i`) and asserts byte-identity, the
//!   unchanged pager ceiling, the one-in-flight-clone bound, and
//!   that the overlap does not regress the sequential streaming
//!   path;
//! * **hash** measures the keyed two-block fast path's four-lane
//!   multibuffer throughput per SHA-256 backend (software golden
//!   reference vs the SHA-NI intrinsics path where the CPU has it),
//!   asserting the hardware path's ≥1.5x floor when present;
//! * **plan_threads** times `MarkPlan::build_with_threads` across
//!   thread counts on the same relation, pinning byte-identity of
//!   the threaded plans against the sequential build;
//! * **guarded_embed** compares a Section 4.1 guarded embedding
//!   (count-query preservation + allow-list + budget) driven through
//!   the historical row-tuple path — owned `Value` alterations
//!   hashed against `HashSet<Value>` query sets per proposal —
//!   against the code-bound guard, whose goodness loop runs entirely
//!   on domain-code table lookups. The run enforces the ≥2x target
//!   on this scenario;
//! * **fingerprint_batch** registers 1000 recipients on one
//!   fingerprint session and traces a leaked copy on a warm service,
//!   batched (`trace`: four recipient keys per tuple scan, the whole
//!   recipient set cached as one `MultiPlanCache` entry) against the
//!   per-recipient reference (`trace_sequential`: one `PlanCache`
//!   probe per recipient, which at 1000 recipients thrashes the
//!   64-entry cache and replans every buyer on every call). The run
//!   gates identical rankings first and enforces a ≥2x floor;
//! * **fingerprint_delta** extracts 1000 recipients' fingerprinted
//!   copies as [`catmark_relation::MarkDelta`] patch sets against the
//!   shared base (one `MultiKeyPlan` scan, zero base clones) instead
//!   of materializing full copies. The run gates
//!   `apply_delta`-rebuilt copies byte-identical to the independent
//!   embed-on-a-clone reference for sampled recipients, then records
//!   bytes-per-recipient, recipients/s, and the delta-vs-copy bytes
//!   ratio with an ≥8x reduction floor. The extraction pass itself
//!   must also stay within 1.2x of the full-copy materialization
//!   time, pinning the batch-shared domain-table fast path;
//! * **churn** seals the marked relation into the content-addressed
//!   versioned store ([`catmark_relation::ContentStore`] +
//!   [`catmark_relation::VersionLog`]), then per round applies 10%
//!   random-row updates confined to a rotating window of ~10% of the
//!   segments, commits the version, and re-marks it both ways: the
//!   full segmented re-pass over a twin reopened from the committed
//!   manifest against `embed_incremental`/`decode_incremental`, which
//!   diff manifests, re-embed only dirty segments, and fold memoized
//!   [`catmark_core::VoteCache`] tallies for clean blobs. The run
//!   gates byte-identity before timing, enforces the ≥5x incremental
//!   floor, and asserts versions share unchanged blobs
//!   (`dedup_hits > 0`, unique blobs < referenced blobs).
//!
//! The run asserts the paths produce byte-identical marked relations
//! and decodes before timing anything, then writes
//! `BENCH_markplan.json` (machine-readable, one object per run) into
//! the working directory so the perf trajectory is tracked from PR to
//! PR.
//!
//! Usage: `cargo run --release -p catmark_bench --bin markplan
//! [tuples]` (default 120 000).

use std::collections::{HashMap, HashSet};
use std::time::Instant;

use catmark_core::ecc::{ErrorCorrectingCode, MajorityVotingEcc};
use catmark_core::fitness::FitnessSelector;
use catmark_core::quality::{
    AllowedReplacements, Alteration, AlterationBudget, QualityConstraint, QualityGuard,
};
use catmark_core::query_preserve::{CountQuery, CountQueryPreservation, Tolerance, ValueSet};
use catmark_core::{
    detect, verify_evidence, MarkPlan, MarkSession, VoteCache, Walk, Watermark, WatermarkSpec,
};
use catmark_crypto::Sha256Backend;
use catmark_datagen::{ItemScanConfig, SalesGenerator};
use catmark_relation::spill::FileStore;
use catmark_relation::{
    join, ops, CategoricalDomain, ContentStore, Predicate, Relation, SegmentedRelation, Tuple,
    Value, VersionLog,
};

const E: u64 = 60;
/// The guarded scenario uses a denser mark (more fit tuples → more
/// guard proposals) so the goodness loop dominates the measurement.
const E_GUARD: u64 = 6;
const WM_LEN: usize = 10;
const ITERS: usize = 5;

fn main() {
    let tuples: usize = std::env::args()
        .nth(1)
        .map(|a| a.parse().expect("tuples must be an integer"))
        .unwrap_or(120_000);
    let gen = SalesGenerator::new(ItemScanConfig { tuples, ..Default::default() });
    let rel = gen.generate();
    let spec = WatermarkSpec::builder(gen.item_domain())
        .master_key("markplan-bench")
        .e(E)
        .wm_len(WM_LEN)
        .expected_tuples(tuples)
        .build()
        .expect("bench parameters are valid");
    let wm = Watermark::from_u64(0b10_1100_1110, WM_LEN);
    let key_idx = 0;
    let attr_idx = 1;
    let session = bind(&spec, &rel);

    // Correctness gate: the planned/session path must reproduce the
    // seed path byte for byte before any timing is worth reporting.
    let mut seed_marked = rel.clone();
    baseline_embed(&spec, &mut seed_marked, key_idx, attr_idx, &wm);
    let seed_decoded = baseline_decode(&spec, &seed_marked, key_idx, attr_idx);
    let mut plan_marked = rel.clone();
    session.embed(&mut plan_marked, &wm).expect("embedding succeeds");
    let plan_decoded = session.decode(&plan_marked).expect("decoding succeeds");
    let row_tuples: Vec<Tuple> = rel.iter().collect();
    let mut row_marked = row_tuples.clone();
    let row_plan = rowstore_plan(&spec, &row_marked, key_idx);
    rowstore_embed(&spec, &mut row_marked, attr_idx, &wm, &row_plan);
    let row_decoded = rowstore_decode(&spec, &row_marked, attr_idx, &row_plan);
    let byte_identical = seed_marked.len() == plan_marked.len()
        && seed_marked.iter().zip(plan_marked.iter()).all(|(a, b)| a == b)
        && seed_marked.iter().zip(row_marked.iter()).all(|(a, b)| a == *b)
        && seed_decoded == plan_decoded.watermark
        && row_decoded == plan_decoded.watermark
        && plan_decoded.watermark == wm;
    assert!(byte_identical, "planned/columnar paths diverged from the seed path");

    // Timed round trips (embed a fresh copy + blind decode), best of
    // ITERS to damp scheduler noise.
    let mut baseline_best = f64::MAX;
    for _ in 0..ITERS {
        let mut marked = rel.clone();
        let start = Instant::now();
        baseline_embed(&spec, &mut marked, key_idx, attr_idx, &wm);
        let decoded = baseline_decode(&spec, &marked, key_idx, attr_idx);
        let elapsed = start.elapsed().as_secs_f64() * 1e3;
        assert_eq!(decoded, wm);
        baseline_best = baseline_best.min(elapsed);
    }

    let mut planned_best = f64::MAX;
    let mut stage_plan = f64::MAX;
    let mut stage_embed = f64::MAX;
    let mut stage_decode = f64::MAX;
    for _ in 0..ITERS {
        // A fresh session per iteration: nothing pre-planned.
        let session = bind(&spec, &rel);
        let mut marked = rel.clone();
        let start = Instant::now();
        let plan = session.plan(&marked).expect("planning succeeds");
        let t_plan = start.elapsed().as_secs_f64() * 1e3;
        session.embed_planned(&mut marked, &wm, &plan).expect("embedding succeeds");
        let t_embed = start.elapsed().as_secs_f64() * 1e3;
        let decoded = session.decode(&marked).expect("decoding succeeds");
        let elapsed = start.elapsed().as_secs_f64() * 1e3;
        assert_eq!(decoded.watermark, wm);
        planned_best = planned_best.min(elapsed);
        stage_plan = stage_plan.min(t_plan);
        stage_embed = stage_embed.min(t_embed - t_plan);
        stage_decode = stage_decode.min(elapsed - t_embed);
    }

    // Session-reuse scenario: the full court run (embed → blind decode
    // → detect), fresh-session-per-operator (each step replans) vs one
    // session handle (plan shared).
    let mut per_operator_best = f64::MAX;
    for _ in 0..ITERS {
        let mut marked = rel.clone();
        let start = Instant::now();
        bind(&spec, &marked).embed(&mut marked, &wm).expect("embedding succeeds");
        let verdict = bind(&spec, &marked).detect(&marked, &wm).expect("detection succeeds");
        assert_eq!(verdict.detection.matched_bits, WM_LEN);
        per_operator_best = per_operator_best.min(start.elapsed().as_secs_f64() * 1e3);
    }
    let mut session_best = f64::MAX;
    for _ in 0..ITERS {
        let session = bind(&spec, &rel);
        let mut marked = rel.clone();
        let start = Instant::now();
        session.embed(&mut marked, &wm).expect("embedding succeeds");
        let verdict = session.detect(&marked, &wm).expect("detection succeeds");
        assert_eq!(verdict.detection.matched_bits, WM_LEN);
        session_best = session_best.min(start.elapsed().as_secs_f64() * 1e3);
    }

    // Columnar scenario — storage engine isolated. The row-store
    // emulation reproduces the pre-columnar plan path's cost profile:
    // one keyed-hash pass, but every access through per-row Value
    // materialization and the generic streaming hashers.
    let mut rowstore_best = f64::MAX;
    for _ in 0..ITERS {
        let mut marked = row_tuples.clone();
        let start = Instant::now();
        // Faithful to the pre-columnar session round trip: one
        // fingerprint pass + one hash pass at plan time, the embed
        // write pass, then the decode's cache lookup (a second
        // fingerprint pass) and vote pass — all over genuine
        // row-tuple storage.
        std::hint::black_box(rowstore_fingerprint(&marked, key_idx));
        let plan = rowstore_plan(&spec, &marked, key_idx);
        rowstore_embed(&spec, &mut marked, attr_idx, &wm, &plan);
        std::hint::black_box(rowstore_fingerprint(&marked, key_idx));
        let decoded = rowstore_decode(&spec, &marked, attr_idx, &plan);
        let elapsed = start.elapsed().as_secs_f64() * 1e3;
        assert_eq!(decoded, wm);
        rowstore_best = rowstore_best.min(elapsed);
    }
    let columnar_best = planned_best;

    // Clone cost: columnar `Relation::clone` vs the row store
    // (Vec<Tuple> + key index), which is what the seed layout cloned.
    let row_index: HashMap<Value, usize> =
        (0..rel.len()).map(|r| (rel.value(r, key_idx).expect("row in range"), r)).collect();
    let mut clone_row_best = f64::MAX;
    let mut clone_col_best = f64::MAX;
    for _ in 0..ITERS {
        let start = Instant::now();
        let cloned = (row_tuples.clone(), row_index.clone());
        clone_row_best = clone_row_best.min(start.elapsed().as_secs_f64() * 1e3);
        assert_eq!(cloned.0.len(), rel.len());
        let start = Instant::now();
        let cloned = rel.clone();
        clone_col_best = clone_col_best.min(start.elapsed().as_secs_f64() * 1e3);
        assert_eq!(cloned.len(), rel.len());
    }

    let columnar_bytes_per_tuple = rel.resident_bytes() as f64 / rel.len() as f64;
    let rowstore_bytes_per_tuple =
        rowstore_resident_bytes(&row_tuples, &row_index) as f64 / rel.len() as f64;

    // Select scenario — interpreted row-tuple filter vs the compiled
    // query engine, over a predicate with a deliberately unsorted
    // 150-value IN-list (the historical linear-scan worst case) plus
    // a range clause.
    let in_list: Vec<Value> =
        (0..150).rev().map(|i| Value::Int(10_000 + (i * 7) % 1_000)).collect();
    let select_pred = Predicate::In("item_nbr".into(), in_list).or(Predicate::Ge(
        "item_nbr".into(),
        Value::Int(10_900),
    )
    .and(Predicate::Le("item_nbr".into(), Value::Int(10_950))));
    let select_reference = rowstore_select(&rel, &select_pred);
    let select_columnar_out = ops::select(&rel, &select_pred).expect("bench predicate compiles");
    assert!(
        select_reference.len() == select_columnar_out.len()
            && select_reference.iter().zip(select_columnar_out.iter()).all(|(a, b)| a == b),
        "compiled select diverged from the interpreted row-tuple select"
    );
    let mut select_row_best = f64::MAX;
    let mut select_col_best = f64::MAX;
    for _ in 0..ITERS {
        let start = Instant::now();
        let out = rowstore_select(&rel, &select_pred);
        select_row_best = select_row_best.min(start.elapsed().as_secs_f64() * 1e3);
        std::hint::black_box(out.len());
        let start = Instant::now();
        let out = ops::select(&rel, &select_pred).expect("bench predicate compiles");
        select_col_best = select_col_best.min(start.elapsed().as_secs_f64() * 1e3);
        std::hint::black_box(out.len());
    }

    // Join scenario — Value-keyed tuple-at-a-time probe vs the
    // code-space build/probe with column-copy output assembly.
    let catalog = catalog_for(&spec.domain);
    let join_reference = rowstore_join(&rel, &catalog, 1, 0);
    let join_columnar_out =
        join::hash_join(&rel, &catalog, "item_nbr", "item_nbr").expect("bench join is valid");
    assert!(
        join_reference.len() == join_columnar_out.len()
            && join_reference.iter().zip(join_columnar_out.iter()).all(|(a, b)| a == b),
        "code-space join diverged from the row-tuple join"
    );
    let mut join_row_best = f64::MAX;
    let mut join_col_best = f64::MAX;
    for _ in 0..ITERS {
        let start = Instant::now();
        let out = rowstore_join(&rel, &catalog, 1, 0);
        join_row_best = join_row_best.min(start.elapsed().as_secs_f64() * 1e3);
        std::hint::black_box(out.len());
        let start = Instant::now();
        let out = join::hash_join(&rel, &catalog, "item_nbr", "item_nbr").expect("valid join");
        join_col_best = join_col_best.min(start.elapsed().as_secs_f64() * 1e3);
        std::hint::black_box(out.len());
    }

    // Guarded-embed scenario — the query_preserve goodness loop. Text
    // target (store_city) so the historical path pays its true cost:
    // one owned `Value::Text` pair per proposal, hashed against
    // `HashSet<Value>` query sets; the code-bound guard answers every
    // proposal with domain-code table loads.
    let city_gen =
        SalesGenerator::new(ItemScanConfig { tuples, with_city: true, ..Default::default() });
    let city_rel = city_gen.generate();
    let city_domain = city_gen.city_domain();
    let city_spec = WatermarkSpec::builder(city_domain.clone())
        .master_key("markplan-bench-guarded")
        .e(E_GUARD)
        .wm_len(WM_LEN)
        .expected_tuples(tuples)
        .build()
        .expect("bench parameters are valid");
    let city_attr = 2;
    let city_session = MarkSession::builder(city_spec.clone())
        .key_column("visit_nbr")
        .target_column("store_city")
        .bind(&city_rel)
        .expect("bench schema binds");
    let city_tuples: Vec<Tuple> = city_rel.iter().collect();
    let city_plan = rowstore_plan(&city_spec, &city_tuples, key_idx);
    city_session.plan(&city_rel).expect("planning succeeds"); // warm the cache

    // Correctness gate: both guarded paths admit/veto identically and
    // produce byte-identical marked relations.
    let (guarded_byte_identical, guarded_altered, guarded_vetoed) = {
        let mut row_marked = city_tuples.clone();
        let mut row_guard = city_guard(&city_rel, &city_domain, city_attr);
        let (row_altered, row_vetoed) = rowstore_guarded_embed(
            &city_spec,
            &mut row_marked,
            city_attr,
            &wm,
            &city_plan,
            &mut row_guard,
        );
        let mut col_marked = city_rel.clone();
        let mut col_guard = city_guard(&city_rel, &city_domain, city_attr);
        let report = city_session
            .embed_guarded(&mut col_marked, &wm, &mut col_guard)
            .expect("guarded embedding succeeds");
        let identical = row_altered == report.altered
            && row_vetoed == report.vetoed
            && col_marked.len() == row_marked.len()
            && col_marked.iter().zip(row_marked.iter()).all(|(a, b)| a == *b);
        (identical, report.altered, report.vetoed)
    };
    assert!(guarded_byte_identical, "guarded paths diverged (admit/veto or content drift)");

    let mut guarded_row_best = f64::MAX;
    for _ in 0..ITERS {
        let mut marked = city_tuples.clone();
        let mut guard = city_guard(&city_rel, &city_domain, city_attr);
        let start = Instant::now();
        std::hint::black_box(rowstore_fingerprint(&marked, key_idx));
        let counts =
            rowstore_guarded_embed(&city_spec, &mut marked, city_attr, &wm, &city_plan, &mut guard);
        guarded_row_best = guarded_row_best.min(start.elapsed().as_secs_f64() * 1e3);
        std::hint::black_box(counts);
    }
    let mut guarded_col_best = f64::MAX;
    for _ in 0..ITERS {
        let mut marked = city_rel.clone();
        let mut guard = city_guard(&city_rel, &city_domain, city_attr);
        let start = Instant::now();
        let report = city_session
            .embed_guarded(&mut marked, &wm, &mut guard)
            .expect("guarded embedding succeeds");
        guarded_col_best = guarded_col_best.min(start.elapsed().as_secs_f64() * 1e3);
        std::hint::black_box(report.altered);
    }

    // Out-of-core scenario — segment streaming under a quarter
    // resident budget, cold segments spilled to a file store. The
    // segmentation is rebuilt per iteration (fresh spill file), but
    // only the embed + decode round trip is timed, mirroring the
    // in-memory scenarios which exclude `rel.clone()`.
    let ooc_total_bytes = rel.resident_bytes();
    let ooc_budget = ooc_total_bytes / 4;
    let ooc_segment_rows = tuples.div_ceil(16).max(1);
    std::fs::create_dir_all("target").expect("can create target dir for the spill file");
    let spill_path = "target/markplan_out_of_core.spill";
    let ooc_segmented = || -> SegmentedRelation {
        SegmentedRelation::builder(rel.schema().clone())
            .segment_rows(ooc_segment_rows)
            .budget_bytes(ooc_budget)
            .store(Box::new(FileStore::create(spill_path).expect("spill file is creatable")))
            .from_relation(&rel)
            .expect("segmentation succeeds")
    };

    // Correctness gate: the streamed path must reproduce the
    // in-memory marked relation and decode byte for byte, under the
    // enforced ceiling.
    let (ooc_peak, ooc_overhead, ooc_spilled, ooc_segments, ooc_identical) = {
        let mut seg = ooc_segmented();
        let report = session.embed_segmented(&mut seg, &wm).expect("segmented embedding succeeds");
        let decode = session.decode_segmented(&mut seg).expect("segmented decoding succeeds");
        let materialized = seg.to_relation().expect("segments materialize");
        let identical = decode.watermark == wm
            && report.altered > 0
            && materialized.len() == plan_marked.len()
            && materialized.iter().zip(plan_marked.iter()).all(|(a, b)| a == b);
        (
            seg.peak_pageable_bytes(),
            seg.resident_overhead_bytes(),
            seg.spilled_bytes(),
            seg.segment_count(),
            identical,
        )
    };
    assert!(ooc_identical, "out-of-core round trip diverged from the in-memory path");
    assert!(
        ooc_peak <= ooc_budget,
        "out-of-core resident ceiling violated: peak {ooc_peak} > budget {ooc_budget}"
    );

    let mut ooc_best = f64::MAX;
    for _ in 0..ITERS {
        // Fresh session per iteration, like the plan-on scenario:
        // nothing pre-planned across iterations. Within the round
        // trip the session cache still lets decode reuse the plans
        // embed built — the same reuse the in-memory path gets. The
        // explicit sequential walk keeps this scenario the fixed
        // reference point the pipeline is measured against.
        let ooc_session = bind(&spec, &rel);
        let mut seg = ooc_segmented();
        let start = Instant::now();
        ooc_session
            .embed_segmented_with(&mut seg, &wm, None, Walk::Sequential)
            .expect("segmented embedding succeeds");
        let (decoded, _) = ooc_session
            .decode_segmented_with(&mut seg, Walk::Sequential)
            .expect("segmented decoding succeeds");
        let elapsed = start.elapsed().as_secs_f64() * 1e3;
        assert_eq!(decoded.watermark, wm);
        ooc_best = ooc_best.min(elapsed);
    }

    // Pipeline scenario — the same streamed round trip through a
    // pipelined segment walk. Correctness gate first: identical
    // bytes, the pager ceiling unchanged, and at most one segment
    // clone in flight.
    let (pipe_peak, pipe_inflight, pipe_prefetched, pipe_identical) = {
        let mut seg = ooc_segmented();
        let (report, embed_stats) = session
            .embed_segmented_with(&mut seg, &wm, None, Walk::Pipelined)
            .expect("pipelined segmented embedding succeeds");
        let (decode, decode_stats) = session
            .decode_segmented_with(&mut seg, Walk::Pipelined)
            .expect("pipelined segmented decoding succeeds");
        let materialized = seg.to_relation().expect("segments materialize");
        let identical = decode.watermark == wm
            && report.altered > 0
            && materialized.len() == plan_marked.len()
            && materialized.iter().zip(plan_marked.iter()).all(|(a, b)| a == b);
        let inflight = embed_stats.peak_inflight_bytes.max(decode_stats.peak_inflight_bytes);
        assert!(
            inflight <= seg.peak_segment_bytes(),
            "pipeline in-flight clone {inflight} exceeds the largest segment {}",
            seg.peak_segment_bytes()
        );
        (seg.peak_pageable_bytes(), inflight, embed_stats.prefetched, identical)
    };
    assert!(pipe_identical, "pipelined out-of-core round trip diverged from the in-memory path");
    assert!(
        pipe_peak <= ooc_budget,
        "pipelined resident ceiling violated: peak {pipe_peak} > budget {ooc_budget}"
    );

    let mut pipeline_best = f64::MAX;
    for _ in 0..ITERS {
        let ooc_session = bind(&spec, &rel);
        let mut seg = ooc_segmented();
        let start = Instant::now();
        ooc_session
            .embed_segmented_with(&mut seg, &wm, None, Walk::Pipelined)
            .expect("pipelined segmented embedding succeeds");
        let (decoded, _) = ooc_session
            .decode_segmented_with(&mut seg, Walk::Pipelined)
            .expect("pipelined segmented decoding succeeds");
        let elapsed = start.elapsed().as_secs_f64() * 1e3;
        assert_eq!(decoded.watermark, wm);
        pipeline_best = pipeline_best.min(elapsed);
    }
    let _ = std::fs::remove_file(spill_path);

    // Certified-evidence scenario — the segmented court-time detect
    // with a `CMKEVD1` bundle emitted, against the sequential detect
    // it mirrors (decode + compare, no serialization). Like the
    // out-of-core loops, each iteration starts from a cold session —
    // a court-time detection has no embed-warmed plans — so the gate
    // pins the evidence emission as a fraction of a real detection,
    // not of a cache hit.
    let ev_store = ContentStore::in_memory();
    let mut ev_log = VersionLog::new();
    let mut ev_seg = SegmentedRelation::builder(plan_marked.schema().clone())
        .segment_rows(ooc_segment_rows)
        .store(Box::new(ev_store.clone()))
        .from_relation(&plan_marked)
        .expect("segmentation succeeds");
    let ev_version = ev_log.commit(&mut ev_seg, &ev_store).expect("version commit succeeds");
    let ev_manifest = ev_log.get(ev_version).expect("committed manifest exists").clone();
    let ev_session = bind(&spec, &plan_marked);

    // Correctness gate first: the certified verdict is the plain
    // verdict, and the emitted bundle convinces the keyless verifier.
    let (plain_decode, _) = ev_session
        .decode_segmented_with(&mut ev_seg, Walk::Sequential)
        .expect("segmented decode succeeds");
    let plain_verdict = catmark_core::session::Verdict {
        detection: detect(&plain_decode.watermark, &wm),
        decode: plain_decode,
    };
    let ev_certified = ev_session
        .detect_certified_incremental(&mut ev_seg, &wm, &ev_manifest, &mut VoteCache::new())
        .expect("certified segmented detect succeeds");
    assert_eq!(
        ev_certified.outcome, plain_verdict,
        "certified verdict diverged from the plain segmented detect"
    );
    let ev_summary = verify_evidence(&ev_certified.bundle).expect("fresh evidence verifies");
    assert_eq!(ev_summary.segments, ev_seg.segment_count());
    let evidence_bundle_bytes = ev_certified.bundle.len();

    let mut detect_plain_best = f64::MAX;
    let mut detect_certified_best = f64::MAX;
    for _ in 0..ITERS {
        let cold = bind(&spec, &plan_marked);
        let start = Instant::now();
        let (report, _) = cold
            .decode_segmented_with(&mut ev_seg, Walk::Sequential)
            .expect("segmented decode succeeds");
        let verdict = detect(&report.watermark, &wm);
        detect_plain_best = detect_plain_best.min(start.elapsed().as_secs_f64() * 1e3);
        std::hint::black_box(verdict.matched_bits);

        let cold = bind(&spec, &plan_marked);
        let start = Instant::now();
        let certified = cold
            .detect_certified_incremental(&mut ev_seg, &wm, &ev_manifest, &mut VoteCache::new())
            .expect("certified segmented detect succeeds");
        detect_certified_best = detect_certified_best.min(start.elapsed().as_secs_f64() * 1e3);
        std::hint::black_box(certified.bundle.len());
    }
    let evidence_overhead = detect_certified_best / detect_plain_best;

    // Hash scenario — the keyed two-block fast path's four-lane
    // multibuffer, per backend. 8-byte values splice into the derived
    // 32-byte keys' fixed layout (two SHA-256 blocks = 128 message
    // bytes per lane-hash). The software figure is always measured;
    // the SHA-NI figure only where the CPU has the extensions, and
    // there the ≥1.5x floor is enforced.
    let fast = spec
        .keyed1()
        .fixed_len_hasher(8)
        .expect("derived keys qualify for the two-block fast path");
    let hash_batches = (tuples * 2).max(100_000);
    let hash_mb_per_s = |backend: Sha256Backend| -> f64 {
        // Cross-backend agreement is pinned by the crypto proptests;
        // the cheap spot check here guards the bench's own wiring.
        let probe = [&b"lane-one"[..], b"lane-two", b"lane-3__", b"lane-4__"];
        assert_eq!(
            fast.hash4_u64_with(backend, probe),
            fast.hash4_u64_with(Sha256Backend::Soft, probe),
            "hash backends disagree"
        );
        let mut best = f64::MAX;
        for _ in 0..ITERS {
            let mut acc = 0u64;
            let start = Instant::now();
            for i in 0..hash_batches as u64 {
                let vs = [
                    (i * 4).to_le_bytes(),
                    (i * 4 + 1).to_le_bytes(),
                    (i * 4 + 2).to_le_bytes(),
                    (i * 4 + 3).to_le_bytes(),
                ];
                let out = fast.hash4_u64_with(backend, [&vs[0][..], &vs[1], &vs[2], &vs[3]]);
                acc ^= out[0] ^ out[1] ^ out[2] ^ out[3];
            }
            best = best.min(start.elapsed().as_secs_f64());
            std::hint::black_box(acc);
        }
        (hash_batches * 4 * 128) as f64 / best / 1e6
    };
    let hash_soft_mb_per_s = hash_mb_per_s(Sha256Backend::Soft);
    let shani_available = Sha256Backend::ShaNi.is_available();
    let hash_shani_mb_per_s =
        if shani_available { hash_mb_per_s(Sha256Backend::ShaNi) } else { 0.0 };
    let sha_backend = Sha256Backend::active().name();
    if shani_available {
        let ratio = hash_shani_mb_per_s / hash_soft_mb_per_s;
        assert!(
            ratio >= 1.5,
            "SHA-NI keyed-hash throughput fell below the 1.5x floor: {ratio:.2}x"
        );
    }

    // Plan-threads scenario — the threaded plan build across thread
    // counts on the one relation, pinned byte-identical to the
    // sequential build first.
    let seq_plan = MarkPlan::build_sequential(&spec, &rel, key_idx);
    let plan_thread_counts = [1usize, 2, 4];
    let mut plan_threads_ms = [0f64; 3];
    for (slot, &threads) in plan_threads_ms.iter_mut().zip(&plan_thread_counts) {
        let built = MarkPlan::build_with_threads(&spec, &rel, key_idx, threads);
        assert_eq!(
            built.fit(),
            seq_plan.fit(),
            "threaded plan (threads={threads}) diverged from the sequential build"
        );
        let mut best = f64::MAX;
        for _ in 0..ITERS {
            let start = Instant::now();
            let built = MarkPlan::build_with_threads(&spec, &rel, key_idx, threads);
            best = best.min(start.elapsed().as_secs_f64() * 1e3);
            std::hint::black_box(built.fit().len());
        }
        *slot = best;
    }

    // Fingerprint-batch scenario — 1000-recipient tracing on a warm
    // service. The batched trace plans all recipients through
    // `MultiKeyPlan` (four recipient keys per tuple scan) and caches
    // the whole recipient set as ONE `MultiPlanCache` entry, so a warm
    // repeat re-plans nothing; the per-recipient reference walks the
    // ordinary `PlanCache`, whose 64-entry capacity cannot hold 1000
    // buyer plans — every call replans every recipient. That cache
    // shape, not the hash lanes alone, is what the ≥2x floor pins.
    const FP_BUYERS: usize = 1_000;
    // 24 mark bits: with 1000 recipients a 10-bit fingerprint would
    // let an honest buyer match every bit by chance (p ≈ 1/1024 per
    // buyer), so the ranking gate below needs a wider mark.
    const FP_WM_LEN: usize = 24;
    let fp_tuples = (tuples / 30).clamp(1_000, 4_000);
    let fp_gen = SalesGenerator::new(ItemScanConfig { tuples: fp_tuples, ..Default::default() });
    let fp_rel = fp_gen.generate();
    let fp_spec = WatermarkSpec::builder(fp_gen.item_domain())
        .master_key("markplan-bench-fingerprint")
        .e(8)
        .wm_len(FP_WM_LEN)
        .expected_tuples(fp_tuples)
        .build()
        .expect("bench parameters are valid");
    let fp_session = bind(&fp_spec, &fp_rel);
    let buyer_names: Vec<String> = (0..FP_BUYERS).map(|i| format!("recipient-{i:04}")).collect();
    let buyer_refs: Vec<&str> = buyer_names.iter().map(String::as_str).collect();
    let leaker = buyer_refs[667];
    let mut fingerprints = fp_session.fingerprint();
    for buyer in &buyer_refs {
        fingerprints.register(buyer);
    }
    let (leaked, _) = fingerprints.mark_copy(&fp_rel, leaker).expect("fingerprinted copy embeds");

    // Correctness gate: the batched trace must reproduce the
    // per-recipient reference exactly — same ranking, same bit
    // counts, same court-time odds — and finger the right recipient.
    let batched_results = fingerprints.trace(&leaked).expect("batched trace succeeds");
    let sequential_results =
        fingerprints.trace_sequential(&leaked).expect("sequential trace succeeds");
    assert_eq!(batched_results.len(), FP_BUYERS);
    let fp_identical = batched_results.len() == sequential_results.len()
        && batched_results.iter().zip(&sequential_results).all(|(a, b)| {
            a.buyer == b.buyer
                && a.detection.matched_bits == b.detection.matched_bits
                && a.detection.false_positive_probability == b.detection.false_positive_probability
        });
    assert!(fp_identical, "batched trace diverged from the per-recipient reference");
    assert_eq!(batched_results[0].buyer, leaker, "trace must rank the leaking recipient first");

    let mut fp_batch_best = f64::MAX;
    for _ in 0..ITERS {
        let start = Instant::now();
        let results = fingerprints.trace(&leaked).expect("batched trace succeeds");
        fp_batch_best = fp_batch_best.min(start.elapsed().as_secs_f64() * 1e3);
        std::hint::black_box(results.len());
    }
    let mut fp_sequential_best = f64::MAX;
    for _ in 0..ITERS {
        let start = Instant::now();
        let results = fingerprints.trace_sequential(&leaked).expect("sequential trace succeeds");
        fp_sequential_best = fp_sequential_best.min(start.elapsed().as_secs_f64() * 1e3);
        std::hint::black_box(results.len());
    }
    let fp_speedup = fp_sequential_best / fp_batch_best;
    let fp_recipients_per_s = FP_BUYERS as f64 / (fp_batch_best / 1e3);

    // Fingerprint-delta scenario — delta-encoded distribution at 1000
    // recipients over the same 4k-tuple base. One `MultiKeyPlan` scan
    // emits per-recipient `MarkDelta` patch sets against the shared
    // base instead of materializing 1000 full clones; shipping a
    // recipient costs the patch bytes, not the relation. The headline
    // metrics are bytes-per-recipient and recipients/s, with an ≥8x
    // bytes-reduction floor against full copies. e = 16 keeps the fit
    // set (≈ tuples/16 patch records) well under 1/8 of the base's
    // columnar footprint.
    let d_spec = WatermarkSpec::builder(fp_gen.item_domain())
        .master_key("markplan-bench-delta")
        .e(16)
        .wm_len(FP_WM_LEN)
        .expected_tuples(fp_tuples)
        .build()
        .expect("bench parameters are valid");
    let mut delta_registry = catmark_core::fingerprint::FingerprintRegistry::new(d_spec);
    let deltas = delta_registry
        .mark_deltas(&fp_rel, &buyer_refs, "visit_nbr", "item_nbr")
        .expect("delta extraction succeeds");
    assert_eq!(deltas.len(), FP_BUYERS);
    // Byte-identity gate for sampled recipients: `apply_delta` against
    // the independent embed-on-a-clone reference (the pre-delta
    // `mark_copy` semantics), same alteration reports included.
    for &b in &[0usize, 500, 999] {
        let (delta, report) = &deltas[b];
        let reference_session = bind(&delta_registry.spec_for(buyer_refs[b]), &fp_rel);
        let mut reference = fp_rel.clone();
        let reference_report = reference_session
            .embed(&mut reference, &delta_registry.mark_for(buyer_refs[b]))
            .expect("reference embed succeeds");
        assert_eq!(report, &reference_report, "delta report diverged for recipient {b}");
        let rebuilt = fp_rel.apply_delta(delta).expect("delta applies to its base");
        assert!(
            rebuilt.iter().zip(reference.iter()).all(|(x, y)| x == y),
            "delta rebuild diverged from the embed reference for recipient {b}"
        );
        assert_eq!(delta.encode().len(), delta.serialized_len());
    }
    let delta_bytes_total: usize = deltas.iter().map(|(d, _)| d.serialized_len()).sum();
    let delta_bytes_per_recipient = delta_bytes_total as f64 / FP_BUYERS as f64;
    let copy_bytes_per_recipient = fp_rel.resident_bytes() as f64;
    let delta_vs_copy_bytes_ratio = copy_bytes_per_recipient / delta_bytes_per_recipient;
    let mut delta_best = f64::MAX;
    for _ in 0..ITERS {
        let start = Instant::now();
        let batch = delta_registry
            .mark_deltas(&fp_rel, &buyer_refs, "visit_nbr", "item_nbr")
            .expect("delta extraction succeeds");
        delta_best = delta_best.min(start.elapsed().as_secs_f64() * 1e3);
        std::hint::black_box(batch.len());
    }
    let delta_recipients_per_s = FP_BUYERS as f64 / (delta_best / 1e3);
    // Reference cost: materializing the same 1000 recipients as full
    // copies (clone + patch per recipient).
    let mut delta_copies_best = f64::MAX;
    for _ in 0..ITERS {
        let start = Instant::now();
        let copies = delta_registry
            .mark_copies(&fp_rel, &buyer_refs, "visit_nbr", "item_nbr")
            .expect("copy materialization succeeds");
        delta_copies_best = delta_copies_best.min(start.elapsed().as_secs_f64() * 1e3);
        std::hint::black_box(copies.len());
    }

    // Churn scenario — the content-addressed versioned store under
    // localized updates. The marked relation lives as sealed segment
    // blobs in a `ContentStore` with a `VersionLog` of manifests; each
    // round applies 10% random-row updates confined to a rotating
    // window of ~10% of the segments (churn is local in real update
    // workloads), commits the new version, and re-marks it two ways:
    // the full segmented re-pass over a twin opened from the same
    // committed version, and `embed_incremental`, which diffs the
    // manifests and re-embeds only the dirty segments. Detection runs
    // `decode_incremental` over a warm `VoteCache` that folds memoized
    // tallies for every clean blob. Byte-identity of the two re-marked
    // relations is gated before timing; the run then enforces the ≥5x
    // incremental floor and that versions share unchanged blobs.
    let churn_segment_rows = tuples.div_ceil(64).max(1);
    let churn_store = ContentStore::in_memory();
    let mut churn_log = VersionLog::new();
    let mut churn_seg = SegmentedRelation::builder(rel.schema().clone())
        .segment_rows(churn_segment_rows)
        .store(Box::new(churn_store.clone()))
        .from_relation(&rel)
        .expect("segmentation succeeds");
    session
        .embed_segmented_with(&mut churn_seg, &wm, None, Walk::Sequential)
        .expect("base embed succeeds");
    let mut marked_id = churn_log.commit(&mut churn_seg, &churn_store).expect("commit succeeds");

    let churn_seg_count = churn_seg.segment_count();
    let churn_updates = tuples / 10;
    let window_segs = churn_seg_count.div_ceil(10).max(1);
    let domain_values = spec.domain.values();
    let mut churn_rng: u64 = 0xDEAD_BEEF | 1;
    let churn_round = |seg: &mut SegmentedRelation, round: usize, state: &mut u64| {
        let base = (round * window_segs) % churn_seg_count;
        for k in 0..churn_updates {
            *state ^= *state << 13;
            *state ^= *state >> 7;
            *state ^= *state << 17;
            let s = (base + (*state as usize) % window_segs) % churn_seg_count;
            let rows = seg.segment_len(s);
            let local = ((*state >> 21) as usize) % rows;
            let value = domain_values[(k + local) % domain_values.len()].clone();
            seg.with_segment_mut(s, |r| r.update_value(local, attr_idx, value))
                .expect("segment pages in")
                .expect("churn value is domain-typed");
        }
    };

    // Correctness gate: one un-timed round, full byte-identity between
    // the incremental re-mark and the full re-pass, plus blob sharing
    // between the re-marked commit and its marked ancestor.
    let mut vote_cache = VoteCache::new();
    let (churn_dirty, churn_clean, churn_identical) = {
        churn_round(&mut churn_seg, 0, &mut churn_rng);
        let current_id = churn_log.commit(&mut churn_seg, &churn_store).expect("commit succeeds");
        let marked_m = churn_log.get(marked_id).expect("logged").clone();
        let current_m = churn_log.get(current_id).expect("logged").clone();
        let mut twin = churn_log
            .open_version(current_id, rel.schema(), &churn_store, None)
            .expect("version reopens");
        session
            .embed_segmented_with(&mut twin, &wm, None, Walk::Sequential)
            .expect("full re-pass succeeds");
        let inc = session
            .embed_incremental(&mut churn_seg, &wm, &marked_m, &current_m)
            .expect("incremental re-mark succeeds");
        assert!(!inc.full_fallback, "same-geometry manifests must not fall back");
        assert!(inc.dirty_segments > 0 && inc.clean_segments > 0, "churn must be partial");
        let ours = churn_seg.to_relation().expect("segments materialize");
        let theirs = twin.to_relation().expect("segments materialize");
        let identical =
            ours.len() == theirs.len() && ours.iter().zip(theirs.iter()).all(|(a, b)| a == b);
        marked_id = churn_log.commit(&mut churn_seg, &churn_store).expect("commit succeeds");
        let remarked_m = churn_log.get(marked_id).expect("logged").clone();
        let still_dirty = remarked_m.dirty_against(&marked_m).expect("same geometry diffs");
        assert!(
            still_dirty.len() <= inc.dirty_segments,
            "re-marked commit must share every clean blob with its marked ancestor"
        );
        // The twin's full re-pass produced byte-identical marked
        // segments, so committing it into the same pile must dedup
        // every blob against the incremental commit.
        churn_log.commit(&mut twin, &churn_store).expect("commit succeeds");
        // Warm the vote cache and gate the incremental decode against
        // the full streaming decode.
        let (full_decode, _) = session
            .decode_segmented_with(&mut churn_seg, Walk::Sequential)
            .expect("full decode succeeds");
        let inc_decode = session
            .decode_incremental(&mut churn_seg, &remarked_m, &mut vote_cache)
            .expect("incremental decode succeeds");
        assert_eq!(inc_decode.report, full_decode, "incremental decode diverged");
        (inc.dirty_segments, inc.clean_segments, identical)
    };
    assert!(churn_identical, "incremental re-mark diverged from the full re-pass");

    const CHURN_ROUNDS: usize = 4;
    let mut churn_full_best = f64::MAX;
    let mut churn_inc_best = f64::MAX;
    for round in 1..=CHURN_ROUNDS {
        churn_round(&mut churn_seg, round, &mut churn_rng);
        let current_id = churn_log.commit(&mut churn_seg, &churn_store).expect("commit succeeds");
        let marked_m = churn_log.get(marked_id).expect("logged").clone();
        let current_m = churn_log.get(current_id).expect("logged").clone();
        let mut twin = churn_log
            .open_version(current_id, rel.schema(), &churn_store, None)
            .expect("version reopens");

        // Full re-pass + full streaming decode over the twin.
        let start = Instant::now();
        let (full_report, _) = session
            .embed_segmented_with(&mut twin, &wm, None, Walk::Sequential)
            .expect("full re-pass succeeds");
        let (full_decode, _) = session
            .decode_segmented_with(&mut twin, Walk::Sequential)
            .expect("full decode succeeds");
        churn_full_best = churn_full_best.min(start.elapsed().as_secs_f64() * 1e3);
        std::hint::black_box(full_report.altered);

        // Incremental re-mark + commit + cached decode — the commit
        // (hashing the dirty blobs) is part of the incremental
        // pipeline's honest cost.
        let start = Instant::now();
        let inc = session
            .embed_incremental(&mut churn_seg, &wm, &marked_m, &current_m)
            .expect("incremental re-mark succeeds");
        let remarked_id = churn_log.commit(&mut churn_seg, &churn_store).expect("commit succeeds");
        let remarked_m = churn_log.get(remarked_id).expect("logged").clone();
        let inc_decode = session
            .decode_incremental(&mut churn_seg, &remarked_m, &mut vote_cache)
            .expect("incremental decode succeeds");
        churn_inc_best = churn_inc_best.min(start.elapsed().as_secs_f64() * 1e3);

        assert!(!inc.full_fallback, "churn round {round} fell back to the full pass");
        assert_eq!(inc_decode.report, full_decode, "decode diverged on round {round}");
        assert_eq!(inc_decode.report.watermark, wm);
        marked_id = remarked_id;
    }
    let churn_speedup = churn_full_best / churn_inc_best;
    let churn_unique_blobs = churn_store.unique_blobs();
    let churn_dedup_hits = churn_store.dedup_hits();
    let churn_manifest_refs: usize = churn_log.manifests().iter().map(|m| m.segments.len()).sum();
    assert!(
        churn_unique_blobs < churn_manifest_refs as u64,
        "versions must share unchanged blobs: {churn_unique_blobs} unique >= {churn_manifest_refs} referenced"
    );
    assert!(churn_dedup_hits > 0, "content addressing must dedup identical blobs");

    // Cache observability, as the service reports it: the session's
    // plan cache, the churn run's vote cache, and the segment pager.
    let plan_cache_stats = session.cache().stats();
    let vote_cache_stats = vote_cache.stats();
    let pager_stats = churn_seg.cache_stats();

    let speedup = baseline_best / planned_best;
    let session_speedup = per_operator_best / session_best;
    let columnar_speedup = rowstore_best / columnar_best;
    let clone_speedup = clone_row_best / clone_col_best;
    let select_speedup = select_row_best / select_col_best;
    let join_speedup = join_row_best / join_col_best;
    let guarded_speedup = guarded_row_best / guarded_col_best;
    let throughput = tuples as f64 / (planned_best / 1e3);
    println!("markplan round trip over {tuples} tuples (e = {E}, best of {ITERS}):");
    println!("  plan-off (seed path): {baseline_best:9.2} ms");
    println!("  plan-on  (session):   {planned_best:9.2} ms   {throughput:.0} tuples/s");
    println!(
        "    stages: plan {stage_plan:.2} ms, embed {stage_embed:.2} ms, decode {stage_decode:.2} ms"
    );
    println!("  speedup:              {speedup:9.2}x");
    println!("court run (embed + decode + detect):");
    println!("  session per operator: {per_operator_best:9.2} ms   (every operator replans)");
    println!("  one MarkSession:      {session_best:9.2} ms   (plan shared across operators)");
    println!("  session speedup:      {session_speedup:9.2}x");
    println!("columnar storage engine:");
    println!("  row-store emulation:  {rowstore_best:9.2} ms   (per-row Value materialization)");
    println!("  columnar scan:        {columnar_best:9.2} ms   (flat slices + fixed-len hashing)");
    println!("  columnar speedup:     {columnar_speedup:9.2}x");
    println!(
        "  clone: row-store {clone_row_best:.2} ms, columnar {clone_col_best:.2} ms ({clone_speedup:.1}x)"
    );
    println!(
        "  resident bytes/tuple: row-store {rowstore_bytes_per_tuple:.0}, columnar {columnar_bytes_per_tuple:.0}"
    );
    println!("  byte-identical:       {byte_identical}");
    println!("query engine (select / join / guarded embed):");
    println!(
        "  select: row-tuple {select_row_best:8.2} ms, compiled {select_col_best:8.2} ms ({select_speedup:.2}x, {} rows)",
        select_columnar_out.len()
    );
    println!(
        "  join:   row-tuple {join_row_best:8.2} ms, code-space {join_col_best:8.2} ms ({join_speedup:.2}x, {} rows)",
        join_columnar_out.len()
    );
    println!(
        "  guarded embed (query_preserve, e = {E_GUARD}): row-tuple {guarded_row_best:8.2} ms, coded {guarded_col_best:8.2} ms ({guarded_speedup:.2}x)"
    );
    println!(
        "    altered {guarded_altered}, vetoed {guarded_vetoed}, byte-identical {guarded_byte_identical}"
    );
    let ooc_slowdown = ooc_best / planned_best;
    let pipeline_vs_sequential = pipeline_best / ooc_best;
    let pipeline_vs_inmemory = pipeline_best / planned_best;
    let host_threads = std::thread::available_parallelism().map_or(1, std::num::NonZero::get);
    println!("out-of-core (segment streaming, file-backed spill):");
    println!(
        "  {ooc_segments} segments x {ooc_segment_rows} rows, budget {ooc_budget} of {ooc_total_bytes} columnar bytes (1/4)"
    );
    println!("  sequential:           {ooc_best:9.2} ms   ({ooc_slowdown:.2}x the in-memory path)");
    println!(
        "  pipelined:            {pipeline_best:9.2} ms   ({pipeline_vs_sequential:.2}x sequential, {pipeline_vs_inmemory:.2}x in-memory)"
    );
    println!(
        "    prefetched {pipe_prefetched} plans, peak in-flight clone {pipe_inflight} bytes, peak pageable {pipe_peak} <= budget {ooc_budget}"
    );
    println!(
        "  resident ceiling:     peak pageable {ooc_peak} <= budget {ooc_budget} (always-resident overhead {ooc_overhead})"
    );
    println!("  spilled:              {ooc_spilled} bytes   byte-identical: {ooc_identical}");
    println!("certified evidence (segmented court-time detect, {ooc_segments} segments):");
    println!("  plain detect:         {detect_plain_best:9.2} ms");
    println!(
        "  certified detect:     {detect_certified_best:9.2} ms   ({evidence_overhead:.2}x plain, {evidence_bundle_bytes}-byte bundle)"
    );
    println!("hash backends (keyed two-block fast path, 4-lane multibuffer):");
    println!("  active backend:       {sha_backend}   (SHA-NI available: {shani_available})");
    println!("  software:             {hash_soft_mb_per_s:9.1} MB/s");
    if shani_available {
        println!(
            "  sha-ni:               {hash_shani_mb_per_s:9.1} MB/s   ({:.2}x software)",
            hash_shani_mb_per_s / hash_soft_mb_per_s
        );
    }
    println!("plan build across thread counts ({host_threads} host threads):");
    for (&threads, &ms) in plan_thread_counts.iter().zip(&plan_threads_ms) {
        println!("  threads={threads}:            {ms:9.2} ms");
    }
    println!("fingerprint batch ({FP_BUYERS} recipients over {fp_tuples} tuples, warm service):");
    println!(
        "  per-recipient trace:  {fp_sequential_best:9.2} ms   (PlanCache thrashes, replans all)"
    );
    println!(
        "  batched trace:        {fp_batch_best:9.2} ms   {fp_recipients_per_s:.0} recipients/s"
    );
    println!("  batch speedup:        {fp_speedup:9.2}x");
    println!("fingerprint delta ({FP_BUYERS} recipients over {fp_tuples} tuples, e = 16):");
    println!(
        "  full copies:          {delta_copies_best:9.2} ms   {:.1} KB/recipient",
        copy_bytes_per_recipient / 1024.0
    );
    println!(
        "  delta patches:        {delta_best:9.2} ms   {delta_bytes_per_recipient:.0} bytes/recipient, {delta_recipients_per_s:.0} recipients/s"
    );
    println!("  bytes reduction:      {delta_vs_copy_bytes_ratio:9.2}x  (floor 8x)");
    let delta_extract_vs_copies = delta_best / delta_copies_best;
    println!(
        "  extract vs copies:    {delta_extract_vs_copies:9.2}x  (ceiling 1.2x of full copies)"
    );
    println!(
        "versioned churn ({churn_seg_count} segments x {churn_segment_rows} rows, {churn_updates} updates/round, {CHURN_ROUNDS} rounds):"
    );
    println!(
        "  full re-pass:         {churn_full_best:9.2} ms   (re-embed + re-decode every segment)"
    );
    println!(
        "  incremental:          {churn_inc_best:9.2} ms   ({churn_dirty} dirty, {churn_clean} clean segments)"
    );
    println!("  churn speedup:        {churn_speedup:9.2}x  (floor 5x)   byte-identical: {churn_identical}");
    println!(
        "  store:                {churn_unique_blobs} unique blobs / {churn_manifest_refs} referenced, {churn_dedup_hits} dedup hits"
    );
    println!(
        "  caches:               plan {}/{} hit/miss, votes {}/{} hit/miss ({} evicted), pager {}/{} hit/miss",
        plan_cache_stats.hits,
        plan_cache_stats.misses,
        vote_cache_stats.hits,
        vote_cache_stats.misses,
        vote_cache_stats.evictions,
        pager_stats.hits,
        pager_stats.misses
    );
    assert!(
        delta_vs_copy_bytes_ratio >= 8.0,
        "delta distribution fell below the 8x bytes-per-recipient floor: {delta_vs_copy_bytes_ratio:.2}x"
    );
    assert!(
        delta_extract_vs_copies <= 1.2,
        "delta extraction regressed past 1.2x the full-copy pass: {delta_extract_vs_copies:.2}x"
    );
    assert!(
        churn_speedup >= 5.0,
        "incremental re-mark fell below the 5x floor over the full re-pass: {churn_speedup:.2}x"
    );
    assert!(
        guarded_speedup >= 2.0,
        "guarded-embed scenario regressed below the 2x target: {guarded_speedup:.2}x"
    );
    assert!(
        fp_speedup >= 2.0,
        "batched fingerprint trace regressed below the 2x target: {fp_speedup:.2}x"
    );
    // On a multi-core host the overlap must pay for the clone; on a
    // single core there is nothing to overlap with, so only gross
    // regressions (the clone dominating the round trip) are an error.
    let pipeline_slack = if host_threads > 1 { 1.05 } else { 1.30 };
    assert!(
        pipeline_vs_sequential <= pipeline_slack,
        "pipelined out-of-core regressed the sequential path: {pipeline_vs_sequential:.2}x (limit {pipeline_slack:.2}x on {host_threads} threads)"
    );
    assert!(
        evidence_overhead <= 1.15,
        "certified evidence emission exceeded the 1.15x gate over the plain segmented detect: {evidence_overhead:.2}x"
    );

    let json = format!(
        "{{\n  \"bench\": \"markplan_round_trip\",\n  \"tuples\": {tuples},\n  \"e\": {E},\n  \"wm_len\": {WM_LEN},\n  \"iterations\": {ITERS},\n  \"baseline_round_trip_ms\": {baseline_best:.3},\n  \"plan_round_trip_ms\": {planned_best:.3},\n  \"plan_tuples_per_second\": {throughput:.0},\n  \"speedup\": {speedup:.3},\n  \"per_operator_court_run_ms\": {per_operator_best:.3},\n  \"session_court_run_ms\": {session_best:.3},\n  \"session_speedup\": {session_speedup:.3},\n  \"rowstore_round_trip_ms\": {rowstore_best:.3},\n  \"columnar_round_trip_ms\": {columnar_best:.3},\n  \"columnar_speedup\": {columnar_speedup:.3},\n  \"clone_rowstore_ms\": {clone_row_best:.3},\n  \"clone_columnar_ms\": {clone_col_best:.3},\n  \"clone_speedup\": {clone_speedup:.3},\n  \"rowstore_bytes_per_tuple\": {rowstore_bytes_per_tuple:.0},\n  \"columnar_bytes_per_tuple\": {columnar_bytes_per_tuple:.0},\n  \"select_rowtuple_ms\": {select_row_best:.3},\n  \"select_compiled_ms\": {select_col_best:.3},\n  \"select_speedup\": {select_speedup:.3},\n  \"join_rowtuple_ms\": {join_row_best:.3},\n  \"join_codespace_ms\": {join_col_best:.3},\n  \"join_speedup\": {join_speedup:.3},\n  \"guarded_e\": {E_GUARD},\n  \"guarded_rowtuple_ms\": {guarded_row_best:.3},\n  \"guarded_coded_ms\": {guarded_col_best:.3},\n  \"guarded_speedup\": {guarded_speedup:.3},\n  \"guarded_altered\": {guarded_altered},\n  \"guarded_vetoed\": {guarded_vetoed},\n  \"guarded_byte_identical\": {guarded_byte_identical},\n  \"out_of_core_segments\": {ooc_segments},\n  \"out_of_core_segment_rows\": {ooc_segment_rows},\n  \"out_of_core_total_columnar_bytes\": {ooc_total_bytes},\n  \"out_of_core_budget_bytes\": {ooc_budget},\n  \"out_of_core_peak_pageable_bytes\": {ooc_peak},\n  \"out_of_core_resident_overhead_bytes\": {ooc_overhead},\n  \"out_of_core_spilled_bytes\": {ooc_spilled},\n  \"out_of_core_round_trip_ms\": {ooc_best:.3},\n  \"out_of_core_vs_inmemory\": {ooc_slowdown:.3},\n  \"out_of_core_identical\": {ooc_identical},\n  \"pipeline_round_trip_ms\": {pipeline_best:.3},\n  \"pipeline_vs_sequential\": {pipeline_vs_sequential:.3},\n  \"pipeline_vs_inmemory\": {pipeline_vs_inmemory:.3},\n  \"pipeline_prefetched\": {pipe_prefetched},\n  \"pipeline_peak_inflight_bytes\": {pipe_inflight},\n  \"pipeline_identical\": {pipe_identical},\n  \"fingerprint_batch_buyers\": {FP_BUYERS},\n  \"fingerprint_batch_tuples\": {fp_tuples},\n  \"fingerprint_batch_trace_ms\": {fp_batch_best:.3},\n  \"fingerprint_batch_sequential_ms\": {fp_sequential_best:.3},\n  \"fingerprint_batch_recipients_per_s\": {fp_recipients_per_s:.0},\n  \"fingerprint_batch_speedup\": {fp_speedup:.3},\n  \"delta_bytes_per_recipient\": {delta_bytes_per_recipient:.1},\n  \"delta_recipients_per_s\": {delta_recipients_per_s:.0},\n  \"delta_vs_copy_bytes_ratio\": {delta_vs_copy_bytes_ratio:.3},\n  \"delta_extract_ms\": {delta_best:.3},\n  \"delta_full_copies_ms\": {delta_copies_best:.3},\n  \"delta_extract_vs_copies\": {delta_extract_vs_copies:.3},\n  \"churn_segments\": {churn_seg_count},\n  \"churn_segment_rows\": {churn_segment_rows},\n  \"churn_updates_per_round\": {churn_updates},\n  \"churn_rounds\": {CHURN_ROUNDS},\n  \"churn_dirty_segments\": {churn_dirty},\n  \"churn_clean_segments\": {churn_clean},\n  \"churn_full_repass_ms\": {churn_full_best:.3},\n  \"churn_incremental_ms\": {churn_inc_best:.3},\n  \"churn_speedup\": {churn_speedup:.3},\n  \"churn_identical\": {churn_identical},\n  \"churn_unique_blobs\": {churn_unique_blobs},\n  \"churn_referenced_blobs\": {churn_manifest_refs},\n  \"churn_dedup_hits\": {churn_dedup_hits},\n  \"plan_cache_hits\": {plan_hits},\n  \"plan_cache_misses\": {plan_misses},\n  \"plan_cache_evictions\": {plan_evictions},\n  \"vote_cache_hits\": {vote_hits},\n  \"vote_cache_misses\": {vote_misses},\n  \"vote_cache_evictions\": {vote_evictions},\n  \"pager_hits\": {pager_hits},\n  \"pager_misses\": {pager_misses},\n  \"pager_evictions\": {pager_evictions},\n  \"evidence_detect_plain_ms\": {detect_plain_best:.3},\n  \"evidence_detect_certified_ms\": {detect_certified_best:.3},\n  \"evidence_overhead\": {evidence_overhead:.3},\n  \"evidence_bundle_bytes\": {evidence_bundle_bytes},\n  \"sha_backend\": \"{sha_backend}\",\n  \"sha_ni_available\": {shani_available},\n  \"hash_soft_mb_per_s\": {hash_soft_mb_per_s:.1},\n  \"hash_shani_mb_per_s\": {hash_shani_mb_per_s:.1},\n  \"plan_threads_scaling\": {{ \"t1_ms\": {t1:.3}, \"t2_ms\": {t2:.3}, \"t4_ms\": {t4:.3} }},\n  \"host_threads\": {host_threads},\n  \"byte_identical\": {byte_identical}\n}}\n",
        t1 = plan_threads_ms[0],
        t2 = plan_threads_ms[1],
        t4 = plan_threads_ms[2],
        plan_hits = plan_cache_stats.hits,
        plan_misses = plan_cache_stats.misses,
        plan_evictions = plan_cache_stats.evictions,
        vote_hits = vote_cache_stats.hits,
        vote_misses = vote_cache_stats.misses,
        vote_evictions = vote_cache_stats.evictions,
        pager_hits = pager_stats.hits,
        pager_misses = pager_stats.misses,
        pager_evictions = pager_stats.evictions,
    );
    std::fs::write("BENCH_markplan.json", &json).expect("can write BENCH_markplan.json");
    println!("wrote BENCH_markplan.json");
}

fn bind(spec: &WatermarkSpec, rel: &Relation) -> MarkSession {
    MarkSession::builder(spec.clone())
        .key_column("visit_nbr")
        .target_column("item_nbr")
        .bind(rel)
        .expect("bench schema binds")
}

/// The seed embedding loop, reproduced verbatim in structure: one
/// `H(key, k1)` for the fitness test, a second for the value base, a
/// key materialization per row, and a canonical-bytes allocation per
/// hash call.
fn baseline_embed(
    spec: &WatermarkSpec,
    rel: &mut Relation,
    key_idx: usize,
    attr_idx: usize,
    wm: &Watermark,
) {
    let keyed1 = spec.keyed1();
    let keyed2 = spec.keyed2();
    let wm_data = MajorityVotingEcc.encode(wm, spec.wm_data_len);
    let n = spec.domain.len() as u64;
    for row in 0..rel.len() {
        let key = rel.value(row, key_idx).expect("row in range");
        if !keyed1.hash_u64(&[&key.canonical_bytes()]).is_multiple_of(spec.e) {
            continue;
        }
        let idx = (keyed2.hash_u64(&[&key.canonical_bytes()]) % spec.wm_data_len as u64) as usize;
        let bit = wm_data[idx];
        let base = (keyed1.hash_u64(&[&key.canonical_bytes()]) >> 32) % n;
        let t = catmark_core::bits::force_lsb_in_domain(base, bit, n);
        let new_value = spec.domain.value_at(t as usize).clone();
        let old_value = rel.value(row, attr_idx).expect("row in range");
        if old_value == new_value {
            continue;
        }
        rel.update_value(row, attr_idx, new_value).expect("value in domain");
    }
}

/// The seed decoding loop: full re-scan, rehashing every key.
fn baseline_decode(
    spec: &WatermarkSpec,
    rel: &Relation,
    key_idx: usize,
    attr_idx: usize,
) -> Watermark {
    let keyed1 = spec.keyed1();
    let keyed2 = spec.keyed2();
    let len = spec.wm_data_len;
    let mut ones = vec![0u32; len];
    let mut zeros = vec![0u32; len];
    for row in 0..rel.len() {
        let key = rel.value(row, key_idx).expect("row in range");
        if !keyed1.hash_u64(&[&key.canonical_bytes()]).is_multiple_of(spec.e) {
            continue;
        }
        let Ok(t) = spec.domain.index_of(&rel.value(row, attr_idx).expect("row in range")) else {
            continue;
        };
        let idx = (keyed2.hash_u64(&[&key.canonical_bytes()]) % len as u64) as usize;
        if t & 1 == 1 {
            ones[idx] += 1;
        } else {
            zeros[idx] += 1;
        }
    }
    let wm_data: Vec<Option<bool>> = (0..len)
        .map(|i| match (ones[i], zeros[i]) {
            (0, 0) => None,
            (o, z) => Some(o > z),
        })
        .collect();
    let mut tie_break = |_: usize| false;
    MajorityVotingEcc.decode(&wm_data, spec.wm_len, &mut tie_break)
}

/// The pre-columnar *plan* path, emulated: one keyed-hash pass (no
/// double `H(·, k1)`) but every access through per-row `Value`
/// materialization and the generic streaming hashers — the cost
/// profile of `MarkPlan` over the old `Vec<Tuple>` storage.
fn rowstore_plan(
    spec: &WatermarkSpec,
    tuples: &[Tuple],
    key_idx: usize,
) -> Vec<(usize, usize, u64)> {
    let sel = FitnessSelector::new(spec);
    let n = spec.domain.len() as u64;
    let mut fit = Vec::with_capacity(tuples.len() / spec.e as usize + 64);
    for (row, tuple) in tuples.iter().enumerate() {
        if let Some(facts) = sel.facts(tuple.get(key_idx)) {
            fit.push((row, facts.position, facts.value_base(n)));
        }
    }
    fit
}

/// The old plan cache's key-column content fingerprint, through
/// per-row Value materialization (FNV-1a per value, SplitMix fold).
fn rowstore_fingerprint(tuples: &[Tuple], key_idx: usize) -> u64 {
    fn mix(h: u64, v: u64) -> u64 {
        (h ^ v).wrapping_mul(0x9E37_79B9_7F4A_7C15).rotate_left(23)
    }
    let mut h = 0xCBF2_9CE4_8422_2325u64;
    for tuple in tuples {
        let f = match tuple.get(key_idx) {
            Value::Int(i) => *i as u64 ^ 0x0100_0000_0000_0000,
            Value::Text(s) => {
                let mut f = 0xCBF2_9CE4_8422_2325u64;
                for &b in s.as_bytes() {
                    f = (f ^ u64::from(b)).wrapping_mul(0x1000_0000_01B3);
                }
                f
            }
        };
        h = mix(h, f);
    }
    h
}

fn rowstore_embed(
    spec: &WatermarkSpec,
    tuples: &mut [Tuple],
    attr_idx: usize,
    wm: &Watermark,
    plan: &[(usize, usize, u64)],
) {
    let wm_data = MajorityVotingEcc.encode(wm, spec.wm_data_len);
    let n = spec.domain.len() as u64;
    for &(row, position, value_base) in plan {
        let bit = wm_data[position];
        let t = catmark_core::bits::force_lsb_in_domain(value_base, bit, n);
        let new_value = spec.domain.value_at(t as usize);
        if tuples[row].get(attr_idx) == new_value {
            continue;
        }
        tuples[row].set(attr_idx, new_value.clone());
    }
}

fn rowstore_decode(
    spec: &WatermarkSpec,
    tuples: &[Tuple],
    attr_idx: usize,
    plan: &[(usize, usize, u64)],
) -> Watermark {
    let len = spec.wm_data_len;
    let mut ones = vec![0u32; len];
    let mut zeros = vec![0u32; len];
    for &(row, position, _) in plan {
        let Some(t) = spec.domain.code_of(tuples[row].get(attr_idx)) else {
            continue;
        };
        if t & 1 == 1 {
            ones[position] += 1;
        } else {
            zeros[position] += 1;
        }
    }
    let wm_data: Vec<Option<bool>> = (0..len)
        .map(|i| match (ones[i], zeros[i]) {
            (0, 0) => None,
            (o, z) => Some(o > z),
        })
        .collect();
    let mut tie_break = |_: usize| false;
    MajorityVotingEcc.decode(&wm_data, spec.wm_len, &mut tie_break)
}

/// The historical `ops::select`: materialize a row [`Tuple`] per row
/// and run the interpreted predicate over it.
fn rowstore_select(rel: &Relation, pred: &Predicate) -> Relation {
    let mut rows = Vec::new();
    for row in 0..rel.len() {
        let tuple = rel.tuple(row).expect("row in range");
        if pred.eval(rel.schema(), &tuple).expect("bench predicate is valid") {
            rows.push(row);
        }
    }
    rel.gather(&rows)
}

/// A catalog relation keyed by product code with a text department,
/// for the join scenario (~17 departments over the item domain).
fn catalog_for(domain: &CategoricalDomain) -> Relation {
    let schema = catmark_relation::Schema::builder()
        .key_attr("item_nbr", catmark_relation::AttrType::Integer)
        .categorical_attr("dept", catmark_relation::AttrType::Text)
        .build()
        .expect("static schema is valid");
    let mut rel = Relation::with_capacity(schema, domain.len());
    for (i, v) in domain.values().iter().enumerate() {
        rel.push(vec![v.clone(), Value::Text(format!("dept-{}", i % 17))])
            .expect("catalog rows are valid");
    }
    rel
}

/// The historical hash join: `Value`-keyed build map, tuple-at-a-time
/// probe, per-row output assembly through `push_unchecked_key`.
fn rowstore_join(left: &Relation, right: &Relation, l_idx: usize, r_idx: usize) -> Relation {
    let mut build: HashMap<Value, Vec<usize>> = HashMap::new();
    for (row, v) in right.column_iter(r_idx).enumerate() {
        build.entry(v).or_default().push(row);
    }
    let schema = join::hash_join(
        &Relation::new(left.schema().clone()),
        &Relation::new(right.schema().clone()),
        left.schema().attr(l_idx).name.as_str(),
        right.schema().attr(r_idx).name.as_str(),
    )
    .expect("bench schemas join")
    .schema()
    .clone();
    let mut out = Relation::with_capacity(schema, left.len());
    for l_tuple in left.iter() {
        let Some(matches) = build.get(l_tuple.get(l_idx)) else {
            continue;
        };
        for &r_row in matches {
            let r_tuple = right.tuple(r_row).expect("build rows in range");
            let mut values = Vec::with_capacity(l_tuple.values().len() + r_tuple.values().len());
            values.extend_from_slice(l_tuple.values());
            values.extend_from_slice(r_tuple.values());
            out.push_unchecked_key(values).expect("joined tuple matches joined schema");
        }
    }
    out
}

/// The guarded scenario's constraint stack: an effectively unlimited
/// budget, a 4/5 allow-list, and three `preserve count` queries
/// (in-set, range, equality) over the city attribute — the
/// Section 4.1 + Gross-Amblard query-preservation contract.
fn city_guard(rel: &Relation, domain: &CategoricalDomain, attr: usize) -> QualityGuard {
    let pick = |i: usize| domain.value_at(i % domain.len()).clone();
    let in_set: HashSet<Value> = (0..8).map(|i| pick(i * 5)).collect();
    let allowed: Vec<Value> =
        (0..domain.len()).filter(|i| i % 5 != 0).map(|i| domain.value_at(i).clone()).collect();
    let constraints: Vec<Box<dyn QualityConstraint>> = vec![
        Box::new(AlterationBudget::new(usize::MAX / 2)),
        Box::new(AllowedReplacements::new(allowed)),
        Box::new(CountQueryPreservation::from_relation(
            rel,
            vec![
                CountQuery::new("set", attr, ValueSet::In(in_set), Tolerance::Relative(0.02)),
                CountQuery::new(
                    "range",
                    attr,
                    ValueSet::Range(pick(3), pick(30)),
                    Tolerance::Relative(0.05),
                ),
                CountQuery::new("eq", attr, ValueSet::Eq(pick(12)), Tolerance::Absolute(50)),
            ],
        )),
    ];
    QualityGuard::new(constraints)
}

/// The historical guarded embedding loop: owned `Value` alterations
/// proposed through the value-space guard, over genuine row-tuple
/// storage. Returns (altered, vetoed).
fn rowstore_guarded_embed(
    spec: &WatermarkSpec,
    tuples: &mut [Tuple],
    attr_idx: usize,
    wm: &Watermark,
    plan: &[(usize, usize, u64)],
    guard: &mut QualityGuard,
) -> (usize, usize) {
    let wm_data = MajorityVotingEcc.encode(wm, spec.wm_data_len);
    let n = spec.domain.len() as u64;
    let mut altered = 0usize;
    let mut vetoed = 0usize;
    for &(row, position, value_base) in plan {
        let bit = wm_data[position];
        let t = catmark_core::bits::force_lsb_in_domain(value_base, bit, n);
        let new_value = spec.domain.value_at(t as usize);
        let old = tuples[row].get(attr_idx);
        if old == new_value {
            continue;
        }
        let change = Alteration { row, attr: attr_idx, old: old.clone(), new: new_value.clone() };
        if guard.propose(change) {
            tuples[row].set(attr_idx, new_value.clone());
            altered += 1;
        } else {
            vetoed += 1;
        }
    }
    (altered, vetoed)
}

/// Heap footprint of the emulated row store (what the seed layout held
/// resident): one `Vec<Value>` allocation per tuple plus the key index
/// re-owning every key.
fn rowstore_resident_bytes(tuples: &[Tuple], index: &HashMap<Value, usize>) -> usize {
    let per_tuple: usize = tuples
        .iter()
        .map(|t| {
            std::mem::size_of::<Tuple>()
                + std::mem::size_of_val(t.values())
                + t.values()
                    .iter()
                    .map(|v| match v {
                        Value::Int(_) => 0,
                        Value::Text(s) => s.capacity(),
                    })
                    .sum::<usize>()
        })
        .sum();
    per_tuple + index.capacity() * (std::mem::size_of::<Value>() + 16)
}
