//! Manifest round-trip properties for the content-addressed versioned
//! store: seal → commit → reopen must rebuild relations byte-identical
//! to the monolithic original across random geometries (segment sizes
//! of 1, sizes that straddle segment edges, explicit empty trailing
//! segments), the `CMKVER1` log must survive encode/decode, and a
//! reopen → mutate → commit must share every clean segment blob with
//! its ancestor manifest while both versions stay independently
//! rebuildable.

use catmark::relation::{
    AttrType, ContentStore, Relation, Schema, SegmentedRelation, Value, VersionLog,
};
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

/// Segment `rel` into the content-addressed pile, optionally sealing
/// empty trailing segments.
fn versioned(
    rel: &Relation,
    segment_rows: usize,
    empty_tail: bool,
    store: &ContentStore,
) -> SegmentedRelation {
    let mut seg = SegmentedRelation::builder(rel.schema().clone())
        .segment_rows(segment_rows)
        .store(Box::new(store.clone()))
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

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// seal → commit → encode → decode → reopen rebuilds the original
    /// relation byte-for-byte under random geometry, including
    /// segment sizes of 1, sizes larger than the relation, and empty
    /// trailing segments.
    #[test]
    fn commit_reopen_is_byte_identical(seed in any::<u64>()) {
        let mut next = rng_from(seed);
        let tuples = 30 + (next() % 120) as usize;
        let rel = relation_for(next(), tuples);
        let segment_rows = 1 + (next() % (tuples as u64 + 10)) as usize;
        let empty_tail = next().is_multiple_of(2);
        let store = ContentStore::in_memory();
        let mut log = VersionLog::new();
        let mut seg = versioned(&rel, segment_rows, empty_tail, &store);
        let v1 = log.commit(&mut seg, &store).unwrap();

        let log = VersionLog::decode(&log.encode()).unwrap();
        prop_assert_eq!(log.manifests().len(), 1);
        let manifest = log.get(v1).unwrap();
        prop_assert_eq!(manifest.rows() as usize, tuples);
        prop_assert_eq!(manifest.segments.len(), seg.segment_count());

        let mut reopened = log.open_version(v1, rel.schema(), &store, None).unwrap();
        prop_assert_eq!(reopened.segment_count(), seg.segment_count());
        assert_same(&rel, &reopened.to_relation().unwrap(), "reopened v1");
    }

    /// reopen → mutate one segment → commit: the child manifest shares
    /// every clean blob hash with its ancestor, `dirty_against` names
    /// at most the mutated segment, and both versions keep rebuilding
    /// their own bytes from the shared pile.
    #[test]
    fn mutated_commit_shares_clean_blobs_with_ancestor(seed in any::<u64>()) {
        let mut next = rng_from(seed);
        let tuples = 40 + (next() % 120) as usize;
        let rel = relation_for(next(), tuples);
        // Keep at least two segments so "clean" is non-empty.
        let segment_rows = 1 + (next() % (tuples as u64 / 2)) as usize;
        let store = ContentStore::in_memory();
        let mut log = VersionLog::new();
        let mut seg = versioned(&rel, segment_rows, false, &store);
        let v1 = log.commit(&mut seg, &store).unwrap();

        let mut child = log.open_version(v1, rel.schema(), &store, None).unwrap();
        let victim = (next() as usize) % child.segment_count();
        let new_a = Value::Int((next() % 9) as i64 - 2);
        child
            .with_segment_mut(victim, |r| r.update_value(0, 1, new_a.clone()))
            .unwrap()
            .unwrap();
        let v2 = log.commit(&mut child, &store).unwrap();

        let m1 = log.get(v1).unwrap().clone();
        let m2 = log.get(v2).unwrap().clone();
        prop_assert_eq!(m2.parent, Some(v1));
        let dirty = m2.dirty_against(&m1).expect("same geometry diffs");
        prop_assert!(dirty.iter().all(|&i| i == victim), "only the victim may dirty");
        for (i, (a, b)) in m1.segments.iter().zip(&m2.segments).enumerate() {
            if i != victim {
                prop_assert_eq!(a.hash, b.hash, "clean segment {} must share its blob", i);
            }
        }
        // The pile holds at most one extra blob for the mutation.
        prop_assert!(store.unique_blobs() <= (m1.segments.len() + 1) as u64);

        let mut expected = rel.clone();
        expected.update_value(victim * segment_rows, 1, new_a).unwrap();
        assert_same(
            &expected,
            &log.open_version(v2, rel.schema(), &store, None).unwrap().to_relation().unwrap(),
            "reopened v2",
        );
        assert_same(
            &rel,
            &log.open_version(v1, rel.schema(), &store, None).unwrap().to_relation().unwrap(),
            "reopened v1 after the mutated commit",
        );
    }
}

/// Single-row segments: every tuple is its own blob and the manifest
/// still round-trips, with duplicate rows deduplicating to one blob.
#[test]
fn segment_rows_one_round_trips() {
    let rel = relation_for(7, 23);
    let store = ContentStore::in_memory();
    let mut log = VersionLog::new();
    let mut seg = versioned(&rel, 1, false, &store);
    let v1 = log.commit(&mut seg, &store).unwrap();
    let manifest = log.get(v1).unwrap();
    assert_eq!(manifest.segments.len(), 23);
    assert!(manifest.segments.iter().all(|s| s.rows == 1));
    let mut reopened = log.open_version(v1, rel.schema(), &store, None).unwrap();
    assert_same(&rel, &reopened.to_relation().unwrap(), "single-row segments");
}

/// Empty trailing segments survive commit and reopen: the manifest
/// records the zero-row geometry, the identical empty blobs dedup to
/// one pile entry, and the rebuilt relation is unchanged.
#[test]
fn empty_trailing_segments_survive_the_round_trip() {
    let rel = relation_for(11, 37);
    let store = ContentStore::in_memory();
    let mut log = VersionLog::new();
    let mut seg = versioned(&rel, 10, true, &store);
    let v1 = log.commit(&mut seg, &store).unwrap();
    let manifest = log.get(v1).unwrap();
    assert_eq!(manifest.segments.len(), 6, "4 data segments + 2 sealed empties");
    assert_eq!(manifest.segments[4].rows, 0);
    assert_eq!(manifest.segments[5].rows, 0);
    assert_eq!(
        manifest.segments[4].hash, manifest.segments[5].hash,
        "identical empty blobs content-address to one hash"
    );
    let mut reopened = log.open_version(v1, rel.schema(), &store, None).unwrap();
    assert_eq!(reopened.segment_count(), 6);
    assert_same(&rel, &reopened.to_relation().unwrap(), "empty-tail round trip");
}

/// A file-backed pile round-trips across process-style reopen: write
/// two versions, drop every handle, reopen pile and log from bytes,
/// and rebuild both versions byte-identically.
#[test]
fn file_backed_pile_reopens_every_version() {
    let dir = std::path::Path::new(env!("CARGO_TARGET_TMPDIR"));
    std::fs::create_dir_all(dir).unwrap();
    let pile = dir.join("versioned_store_pile.blob");
    let _ = std::fs::remove_file(&pile);

    let rel = relation_for(19, 64);
    let log_bytes;
    {
        let store = ContentStore::create_file(&pile).unwrap();
        let mut log = VersionLog::new();
        let mut seg = versioned(&rel, 9, false, &store);
        let v1 = log.commit(&mut seg, &store).unwrap();
        let mut child = log.open_version(v1, rel.schema(), &store, None).unwrap();
        child.with_segment_mut(2, |r| r.update_value(0, 1, Value::Int(5))).unwrap().unwrap();
        log.commit(&mut child, &store).unwrap();
        log_bytes = log.encode();
    }

    let store = ContentStore::open_file(&pile).unwrap();
    let log = VersionLog::decode(&log_bytes).unwrap();
    assert_eq!(log.manifests().len(), 2);
    let mut expected = rel.clone();
    expected.update_value(18, 1, Value::Int(5)).unwrap();
    let mut v1 = log.open_version(0, rel.schema(), &store, None).unwrap();
    let mut v2 = log.open_version(1, rel.schema(), &store, None).unwrap();
    assert_same(&rel, &v1.to_relation().unwrap(), "file-backed v1");
    assert_same(&expected, &v2.to_relation().unwrap(), "file-backed v2");

    let _ = std::fs::remove_file(&pile);
}

/// A two-version file pile and `CMKVER1` log with a text column,
/// checked in under `tests/golden/`. They were written by a commit log
/// whose manifests carried a relation-level dictionary section (tag 1)
/// for every text attribute: `relation_for(0x601D, 40)` cut into
/// 10-row segments and committed, then row 10's `c` set to "saffron"
/// and committed again. They are fixed bytes, never regenerated; the
/// test opens copies so the checked-in files stay untouched. Current
/// readers skip those sections, and current writers emit tag 0.
#[test]
fn pre_change_pile_and_log_reopen() {
    let golden = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/golden");
    let pile = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join("versioned_text.pile");
    std::fs::copy(golden.join("versioned_text.pile"), &pile).unwrap();
    let log =
        VersionLog::decode(&std::fs::read(golden.join("versioned_text.log")).unwrap()).unwrap();
    let store = ContentStore::open_file(&pile).unwrap();

    let v0 = relation_for(0x601D, 40);
    let mut v1 = v0.clone();
    v1.update_value(10, 2, Value::Text("saffron".into())).unwrap();
    assert_eq!(log.manifests().len(), 2);
    for (id, expected) in [(0, &v0), (1, &v1)] {
        let mut reopened = log.open_version(id, v0.schema(), &store, None).unwrap();
        assert_same(expected, &reopened.to_relation().unwrap(), "pre-change version");
    }
    let (m0, m1) = (log.get(0).unwrap(), log.get(1).unwrap());
    assert_eq!(m1.dirty_against(m0), Some(vec![1]));
    assert_eq!(store.unique_blobs(), 5);

    // Re-encoding drops the sections: 40 header bytes, one tag byte
    // per attribute, then 4 segments of (hash, rows).
    let reencoded = log.encode();
    let record = 40 + 3 + 4 * 40;
    assert_eq!(reencoded.len(), 2 * record);
    for r in reencoded.chunks(record) {
        assert_eq!(&r[40..43], &[0, 0, 0], "every attribute is written as tag 0");
    }
    assert_eq!(VersionLog::decode(&reencoded).unwrap(), log);
    let _ = std::fs::remove_file(&pile);
}

/// A segment blob depends only on the segment's rows. Following the
/// daemon's `update` storage steps (CSV → `read_csv_inferred` →
/// 1024-row segments → commit), a churn confined to segment 0 of an
/// 8192-row table moves the order in which its 50 text values first
/// appear in the whole CSV; only segment 0 may come out dirty, and the
/// pile gains exactly one blob.
#[test]
fn churn_in_segment_zero_dirties_only_segment_zero() {
    use catmark::relation::csv::read_csv_inferred;

    let mut next = rng_from(0xC5_u64);
    let items: Vec<u64> = (0..8_192).map(|_| next() % 50).collect();
    let csv = |items: &[u64]| {
        let mut text = String::from("id,item\n");
        for (i, item) in items.iter().enumerate() {
            text.push_str(&format!("{i},item-{item}\n"));
        }
        text
    };
    let mut churned = items.clone();
    for item in &mut churned[..100] {
        *item = (*item + 1) % 50;
    }
    let store = ContentStore::in_memory();
    let mut log = VersionLog::new();
    for items in [&items, &churned] {
        let rel = read_csv_inferred(&csv(items), &["item"]).unwrap();
        let mut seg = versioned(&rel, 1024, false, &store);
        log.commit(&mut seg, &store).unwrap();
    }
    let (m0, m1) = (log.get(0).unwrap(), log.get(1).unwrap());
    assert_eq!(m1.dirty_against(m0), Some(vec![0]));
    assert_eq!(store.unique_blobs(), 9);
}

/// A segment's vote tally depends on which columns a session binds as
/// key and target, not only on the blob and the spec. Two sessions
/// over one spec — keyed on `k` and on `p`, both targeting `a` — must
/// not share tallies through one cache: after the `k` session filled
/// it, the `p` session decodes and certifies exactly what a fresh
/// cache gives it.
#[test]
fn vote_cache_keeps_column_bindings_apart() {
    use catmark::core::{MarkSession, VoteCache, Watermark, WatermarkSpec};
    use catmark::relation::CategoricalDomain;

    let schema = Schema::builder()
        .key_attr("k", AttrType::Integer)
        .attr("p", AttrType::Integer)
        .categorical_attr("a", AttrType::Integer)
        .build()
        .unwrap();
    let tuples = 2_000;
    let mut next = rng_from(0xB17D);
    let mut rel = Relation::with_capacity(schema, tuples);
    for i in 0..tuples as i64 {
        let (p, a) = ((next() % 1_000_000) as i64, (next() % 9) as i64);
        rel.push(vec![Value::Int(i * 7 + 3), Value::Int(p), Value::Int(a)]).unwrap();
    }
    let spec =
        WatermarkSpec::builder(CategoricalDomain::new((0..9).map(Value::Int).collect()).unwrap())
            .master_key("column-bindings")
            .e(4)
            .wm_len(8)
            .expected_tuples(tuples)
            .build()
            .unwrap();
    let bind = |key: &str| {
        MarkSession::builder(spec.clone()).key_column(key).target_column("a").bind(&rel).unwrap()
    };
    let (by_k, by_p) = (bind("k"), bind("p"));
    let wm = Watermark::from_u64(0b1011_0010, 8);
    by_k.embed(&mut rel, &wm).unwrap();

    let store = ContentStore::in_memory();
    let mut log = VersionLog::new();
    let mut seg = versioned(&rel, tuples / 8, false, &store);
    let v = log.commit(&mut seg, &store).unwrap();
    let manifest = log.get(v).unwrap().clone();

    let fresh = by_p.decode_incremental(&mut seg, &manifest, &mut VoteCache::new()).unwrap();
    let mut shared = VoteCache::new();
    by_k.decode_incremental(&mut seg, &manifest, &mut shared).unwrap();
    let after_k = by_p.decode_incremental(&mut seg, &manifest, &mut shared).unwrap();
    assert_eq!(after_k.cached_segments, 0, "the p session reused the k session's tallies");
    assert_eq!(after_k.report, fresh.report);

    let shared_bundle =
        by_p.detect_certified_incremental(&mut seg, &wm, &manifest, &mut shared).unwrap().bundle;
    let fresh_bundle = by_p
        .detect_certified_incremental(&mut seg, &wm, &manifest, &mut VoteCache::new())
        .unwrap()
        .bundle;
    assert_eq!(shared_bundle, fresh_bundle);
}

/// Certified detection over a committed version must produce
/// byte-identical `CMKEVD1` evidence no matter which execution path
/// walked the data: the incremental vote cache cold or warm, or a cold
/// reopen of the same version from the pile — and the verdict it
/// carries is the in-memory detect's. One (version, key, spec) triple
/// → one bundle.
mod certified_cross_path {
    use catmark::core::evidence::verify_evidence;
    use catmark::core::{MarkSession, VoteCache, Watermark, WatermarkSpec};
    use catmark::relation::CategoricalDomain;

    use super::*;

    /// The domain `relation_for` draws attribute `a` from.
    fn domain() -> CategoricalDomain {
        CategoricalDomain::new((-2..=6).map(Value::Int).collect()).unwrap()
    }

    fn session_over(rel: &Relation, master_key: &str, tuples: usize) -> MarkSession {
        let spec = WatermarkSpec::builder(domain())
            .master_key(master_key)
            .e(4)
            .wm_len(8)
            .expected_tuples(tuples)
            .build()
            .unwrap();
        MarkSession::builder(spec).key_column("k").target_column("a").bind(rel).unwrap()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]

        /// Random relation, random mark, random segment geometry
        /// (including empty trailing segments): the certified paths
        /// agree byte-for-byte and the bundle verifies keylessly.
        #[test]
        fn certified_bundles_are_path_independent(seed in any::<u64>()) {
            let mut next = rng_from(seed);
            let tuples = 300 + (next() % 400) as usize;
            let mut rel = relation_for(next(), tuples);
            let session = session_over(&rel, "cross-path", tuples);
            let wm = Watermark::from_u64(next() & 0xFF, 8);
            session.embed(&mut rel, &wm).unwrap();

            let segment_rows = 1 + (next() % (tuples as u64 / 2 + 1)) as usize;
            let store = ContentStore::in_memory();
            let mut log = VersionLog::new();
            let mut seg = versioned(&rel, segment_rows, next().is_multiple_of(2), &store);
            let v = log.commit(&mut seg, &store).unwrap();
            let manifest = log.get(v).unwrap().clone();

            let mut cache = VoteCache::new();
            let cold = session
                .detect_certified_incremental(&mut seg, &wm, &manifest, &mut cache)
                .unwrap();
            let warm = session
                .detect_certified_incremental(&mut seg, &wm, &manifest, &mut cache)
                .unwrap();
            let mut reopened = log.open_version(v, rel.schema(), &store, None).unwrap();
            let reopened_cold = session
                .detect_certified_incremental(&mut reopened, &wm, &manifest, &mut VoteCache::new())
                .unwrap();
            let mono = reopened.to_relation().unwrap();

            prop_assert_eq!(&cold.bundle, &warm.bundle, "cold vs warm incremental");
            prop_assert_eq!(&cold.bundle, &reopened_cold.bundle, "live vs reopened version");

            // The certified verdict is the fast path's verdict.
            let fast = session.detect(&mono, &wm).unwrap();
            prop_assert_eq!(&cold.outcome, &fast);

            // And the bundle stands alone: no relation, no keys.
            let summary = verify_evidence(&cold.bundle).unwrap();
            prop_assert_eq!(summary.segments, seg.segment_count());
            prop_assert!(summary.relation.starts_with(&format!("version {v}")));
        }

        /// Same version, two different owner keys: both certify and
        /// verify, but the bundles commit to different key material
        /// and are not interchangeable.
        #[test]
        fn certified_bundles_commit_to_the_key(seed in any::<u64>()) {
            let mut next = rng_from(seed);
            let tuples = 240 + (next() % 160) as usize;
            let mut rel = relation_for(next(), tuples);
            let alice = session_over(&rel, "alice-key", tuples);
            let wm = Watermark::from_u64(next() & 0xFF, 8);
            alice.embed(&mut rel, &wm).unwrap();

            let store = ContentStore::in_memory();
            let mut log = VersionLog::new();
            let mut seg = versioned(&rel, 64, false, &store);
            let v = log.commit(&mut seg, &store).unwrap();
            let manifest = log.get(v).unwrap().clone();

            let bob = session_over(&rel, "bob-key", tuples);
            let a = alice
                .detect_certified_incremental(&mut seg, &wm, &manifest, &mut VoteCache::new())
                .unwrap();
            let b = bob
                .detect_certified_incremental(&mut seg, &wm, &manifest, &mut VoteCache::new())
                .unwrap();
            let sa = verify_evidence(&a.bundle).unwrap();
            let sb = verify_evidence(&b.bundle).unwrap();
            prop_assert!(sa.key_commitment != sb.key_commitment);
            prop_assert!(a.bundle != b.bundle);
        }
    }
}
