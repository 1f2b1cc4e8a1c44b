//! Cross-crate integration tests: the full embed → attack → blind
//! decode → detect pipeline, exercised through the public facade's
//! `MarkSession` API.

use catmark::prelude::*;
use std::io::BufReader;

fn marked_fixture(tuples: usize, e: u64) -> (Relation, MarkSession, Watermark) {
    let gen = SalesGenerator::new(ItemScanConfig { tuples, ..Default::default() });
    let mut rel = gen.generate();
    let spec = WatermarkSpec::builder(gen.item_domain())
        .master_key("end-to-end")
        .e(e)
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
    let wm = Watermark::from_u64(0b1001110101, 10);
    session.embed(&mut rel, &wm).unwrap();
    (rel, session, wm)
}

fn significant_after(
    attack: &Attack,
    rel: &Relation,
    session: &MarkSession,
    wm: &Watermark,
) -> bool {
    let suspect = attack.apply(rel).unwrap();
    session.detect(&suspect, wm).unwrap().is_significant(1e-2)
}

#[test]
fn resilience_matrix_single_attacks() {
    let (rel, session, wm) = marked_fixture(6_000, 20);
    let attacks = [
        Attack::HorizontalLoss { keep: 0.5, seed: 1 },
        Attack::SubsetAddition { fraction: 0.3, seed: 2 },
        Attack::RandomAlteration { attr: "item_nbr".into(), fraction: 0.2, seed: 3 },
        Attack::Shuffle { seed: 4 },
        Attack::SortBy { attr: "item_nbr".into(), ascending: false },
    ];
    for attack in &attacks {
        assert!(
            significant_after(attack, &rel, &session, &wm),
            "ownership lost under {}",
            attack.label()
        );
    }
}

#[test]
fn resilience_under_composite_attack() {
    let (rel, session, wm) = marked_fixture(10_000, 20);
    let steps = catmark::attacks::composite::determined_adversary("item_nbr", 77);
    let suspect = catmark::attacks::composite::pipeline(&rel, &steps).unwrap();
    let verdict = session.detect(&suspect, &wm).unwrap();
    assert!(verdict.is_significant(1e-2), "composite attack defeated the mark: {verdict}");
}

#[test]
fn watermark_survives_csv_round_trip() {
    let (rel, session, wm) = marked_fixture(3_000, 20);
    let mut buf = Vec::new();
    catmark::relation::csv::write_csv(&rel, &mut buf).unwrap();
    let parsed =
        catmark::relation::csv::read_csv(rel.schema().clone(), &mut BufReader::new(buf.as_slice()))
            .unwrap();
    let decoded = session.decode(&parsed).unwrap();
    assert_eq!(decoded.watermark, wm);
}

#[test]
fn incremental_updates_extend_the_mark() {
    // Section 4.3: "as updates occur to the data, the resulting tuples
    // can be evaluated on the fly for fitness and watermarked
    // accordingly."
    let (mut rel, session, wm) = marked_fixture(4_000, 20);
    // A month of new sales arrives, marked on the fly through the
    // session's stream marker.
    let marker = session.stream(&wm).unwrap();
    let fresh =
        SalesGenerator::new(ItemScanConfig { tuples: 1_000, seed: 0xBEEF, ..Default::default() })
            .generate();
    let mut marked_on_ingest = 0usize;
    for row in 0..fresh.len() {
        let mut values: Vec<Value> =
            (0..fresh.schema().arity()).map(|attr| fresh.value(row, attr).unwrap()).collect();
        // Shift keys into a fresh range to avoid collisions.
        if let Value::Int(k) = values[0] {
            values[0] = Value::Int(k + 50_000_000);
        }
        if marker.ingest(&mut rel, values).unwrap().marked {
            marked_on_ingest += 1;
        }
    }
    assert!(marked_on_ingest > 0, "new fit tuples should be marked");
    // A batch re-pass finds nothing left to do (stream == batch).
    let report = session.embed(&mut rel, &wm).unwrap();
    assert_eq!(report.altered, 0, "stream marking must leave nothing for the batch pass");
    let decoded = session.decode(&rel).unwrap();
    assert_eq!(decoded.watermark, wm);
    // And the updated relation carries more witnesses than before.
    assert!(decoded.fit_tuples > 150, "fit tuples: {}", decoded.fit_tuples);
}

#[test]
fn frequency_channel_survives_extreme_partition_after_association_channel_dies() {
    use catmark::core::freq::FreqCodec;
    let gen =
        SalesGenerator::new(ItemScanConfig { tuples: 12_000, items: 300, ..Default::default() });
    let mut rel = gen.generate();
    let spec = WatermarkSpec::builder(gen.item_domain())
        .master_key("combined-channels")
        .e(30)
        .wm_len(10)
        .expected_tuples(rel.len())
        .build()
        .unwrap();
    let session = MarkSession::builder(spec)
        .key_column("visit_nbr")
        .target_column("item_nbr")
        .bind(&rel)
        .unwrap();
    let wm = Watermark::from_u64(0b0101010101, 10);
    session.embed(&mut rel, &wm).unwrap();
    let codec =
        FreqCodec::new(HashAlgorithm::Sha256, SecretKey::from_bytes(b"freq-key".to_vec()), 50, 10)
            .unwrap();
    codec.embed(&mut rel, "item_nbr", &gen.item_domain(), &wm).unwrap();

    // Both channels decode on intact data.
    assert!(session.detect(&rel, &wm).unwrap().is_significant(1e-2));
    assert_eq!(codec.decode(&rel, "item_nbr", &gen.item_domain()).unwrap(), wm);

    // Extreme A5: only item_nbr survives. The association channel is
    // structurally dead (no key attribute) — the session reports the
    // missing binding with the surviving attributes listed — while the
    // frequency channel still testifies.
    let alone = catmark::attacks::vertical::keep_attributes(&rel, &["item_nbr"]).unwrap();
    let err = session.decode(&alone).unwrap_err();
    assert!(err.to_string().contains("visit_nbr"), "unactionable error: {err}");
    assert_eq!(codec.decode(&alone, "item_nbr", &gen.item_domain()).unwrap(), wm);
}

#[test]
fn remap_attack_and_recovery_end_to_end() {
    let gen = SalesGenerator::new(ItemScanConfig {
        tuples: 20_000,
        items: 80,
        zipf_exponent: 1.2,
        ..Default::default()
    });
    let mut rel = gen.generate();
    let spec = WatermarkSpec::builder(gen.item_domain())
        .master_key("remap-e2e")
        .e(15)
        .wm_len(10)
        .expected_tuples(rel.len())
        .build()
        .unwrap();
    let session = MarkSession::builder(spec)
        .key_column("visit_nbr")
        .target_column("item_nbr")
        .bind(&rel)
        .unwrap();
    let wm = Watermark::from_u64(0b1100110011, 10);
    session.embed(&mut rel, &wm).unwrap();
    let reference = FrequencyHistogram::from_relation(&rel, 1, &gen.item_domain()).unwrap();

    let suspect = Attack::BijectiveRemap { attr: "item_nbr".into(), seed: 5 }.apply(&rel).unwrap();
    let recovery = catmark::core::remap::recover_mapping(&reference, &suspect, "item_nbr").unwrap();
    let restored = catmark::core::remap::apply_inverse(&suspect, "item_nbr", &recovery).unwrap();
    assert!(session.detect(&restored, &wm).unwrap().is_significant(1e-3));
}

#[test]
fn two_owners_marks_do_not_collide() {
    // Two different rights holders mark *different copies* of the same
    // data; each detects their own mark and not the other's.
    let gen = SalesGenerator::new(ItemScanConfig { tuples: 6_000, ..Default::default() });
    let bind = |master: &str, rel: &Relation| {
        let spec = WatermarkSpec::builder(gen.item_domain())
            .master_key(master)
            .e(20)
            .wm_len(10)
            .expected_tuples(6_000)
            .erasure(catmark::core::decode::ErasurePolicy::Abstain)
            .build()
            .unwrap();
        MarkSession::builder(spec)
            .key_column("visit_nbr")
            .target_column("item_nbr")
            .bind(rel)
            .unwrap()
    };
    let wm_a = Watermark::from_u64(0b1111100000, 10);
    let wm_b = Watermark::from_u64(0b0000011111, 10);

    let mut copy_a = gen.generate();
    let session_a = bind("owner-a", &copy_a);
    session_a.embed(&mut copy_a, &wm_a).unwrap();
    let mut copy_b = gen.generate();
    let session_b = bind("owner-b", &copy_b);
    session_b.embed(&mut copy_b, &wm_b).unwrap();

    // Own key on own copy: exact.
    assert_eq!(session_a.decode(&copy_a).unwrap().watermark, wm_a);
    // Other key on the copy: chance-level.
    assert!(
        !session_b.detect(&copy_a, &wm_b).unwrap().is_significant(1e-3),
        "owner B must not find their mark in A's copy"
    );
}

#[test]
fn survives_value_biased_bestseller_partition() {
    // "Keep only the bestsellers": erases whole domain values, a
    // harsher partition than uniform loss. With Zipf skew the top-200
    // of 1000 items still covers most rows.
    let (rel, session, wm) = marked_fixture(12_000, 15);
    let kept = catmark::attacks::horizontal::value_biased_selection(&rel, "item_nbr", 200).unwrap();
    assert!(kept.len() > rel.len() / 2, "top-200 should keep most rows, kept {}", kept.len());
    let verdict = session.detect(&kept, &wm).unwrap();
    assert!(verdict.is_significant(1e-2), "bestseller partition defeated the mark: {verdict}");
}

#[test]
fn deletions_behave_like_data_loss() {
    // §4.3's update model includes deletes: dropping every third
    // tuple (a gather of the survivors) must leave surviving votes
    // untouched.
    let (rel, session, wm) = marked_fixture(6_000, 15);
    let survivors: Vec<usize> = (0..rel.len()).filter(|row| row % 3 != 0).collect();
    let rel = rel.gather(&survivors);
    assert!(rel.len() < 4_100);
    let decoded = session.decode(&rel).unwrap();
    assert_eq!(decoded.watermark, wm, "1/3 deletion must not corrupt the mark");
}

#[test]
fn power_score_summarizes_a_full_run() {
    use catmark::core::power::score_run;
    let gen = SalesGenerator::new(ItemScanConfig { tuples: 6_000, ..Default::default() });
    let original = gen.generate();
    let spec = WatermarkSpec::builder(gen.item_domain())
        .master_key("power-e2e")
        .e(20)
        .wm_len(10)
        .expected_tuples(original.len())
        .erasure(catmark::core::decode::ErasurePolicy::Abstain)
        .build()
        .unwrap();
    let session = MarkSession::builder(spec.clone())
        .key_column("visit_nbr")
        .target_column("item_nbr")
        .bind(&original)
        .unwrap();
    let wm = Watermark::from_u64(0b1011100011, 10);
    let mut marked = original.clone();
    session.embed(&mut marked, &wm).unwrap();
    let suspect = Attack::HorizontalLoss { keep: 0.6, seed: 3 }.apply(&marked).unwrap();
    let score =
        score_run(&original, &marked, &suspect, &spec, &wm, "visit_nbr", "item_nbr").unwrap();
    assert!(score.distortion_rate < 0.06, "{score:?}");
    assert!(score.resilience > 0.8, "{score:?}");
    assert!(score.composite() > 0.7, "{score:?}");
}

#[test]
fn decoder_is_total_on_junk_data() {
    // Blind detection must never panic or error on arbitrary suspect
    // data: wrong schema shapes aside, any relation with the named
    // attributes decodes to *something*, at chance level.
    let (_, session, wm) = marked_fixture(100, 20);
    // Junk 1: completely unrelated synthetic data, different seed and
    // larger size.
    let junk = SalesGenerator::new(ItemScanConfig {
        tuples: 5_000,
        items: 17,
        seed: 0x1234,
        ..Default::default()
    })
    .generate();
    assert!(
        !session.detect(&junk, &wm).unwrap().is_significant(1e-3),
        "junk data must not prove ownership"
    );
    // Junk 2: empty relation.
    let empty = Relation::new(junk.schema().clone());
    let report = session.decode(&empty).unwrap();
    assert_eq!(report.fit_tuples, 0);
    // Junk 3: all values outside the domain.
    let mut foreign = Relation::new(junk.schema().clone());
    for i in 0..500 {
        foreign.push(vec![Value::Int(i), Value::Int(-1_000_000 - i)]).unwrap();
    }
    let report = session.decode(&foreign).unwrap();
    assert_eq!(report.votes_cast, 0);
}

#[test]
fn fingerprint_tracing_across_crates() {
    let gen = SalesGenerator::new(ItemScanConfig { tuples: 6_000, ..Default::default() });
    let master = gen.generate();
    let base = WatermarkSpec::builder(gen.item_domain())
        .master_key("e2e-fingerprints")
        .e(15)
        .wm_len(10)
        .expected_tuples(master.len())
        .erasure(catmark::core::decode::ErasurePolicy::Abstain)
        .build()
        .unwrap();
    let session = MarkSession::builder(base)
        .key_column("visit_nbr")
        .target_column("item_nbr")
        .bind(&master)
        .unwrap();
    let mut registry = session.fingerprint();
    let (copy, _) = registry.mark_copy(&master, "buyer-7").unwrap();
    for other in ["buyer-1", "buyer-2", "buyer-3"] {
        registry.register(other);
    }
    // The leak passes through a composite attack before tracing.
    let steps = catmark::attacks::composite::determined_adversary("item_nbr", 55);
    let leaked = catmark::attacks::composite::pipeline(&copy, &steps).unwrap();
    assert_eq!(registry.accuse(&leaked, 1e-2).unwrap(), Some("buyer-7".to_owned()));
}

#[test]
fn detection_confidence_degrades_gracefully_not_cliff() {
    // Sweep alteration intensity; matched bits should fall gradually
    // (the paper's "graceful degradation"), never jump from 10 to 0.
    let (rel, session, wm) = marked_fixture(6_000, 20);
    let mut previous = 10usize;
    for pct in [0u64, 20, 40, 60, 80] {
        let attack = Attack::RandomAlteration {
            attr: "item_nbr".into(),
            fraction: pct as f64 / 100.0,
            seed: 1_000 + pct,
        };
        let suspect = attack.apply(&rel).unwrap();
        let matched = session.detect(&suspect, &wm).unwrap().detection.matched_bits;
        assert!(
            matched + 4 >= previous.saturating_sub(4),
            "cliff between steps: {previous} -> {matched} at {pct}%"
        );
        previous = matched;
    }
}

#[test]
fn one_session_serves_the_whole_court_run_with_one_plan() {
    // The headline property of the session API: embed → attack (target
    // column only) → decode → detect on one handle builds exactly one
    // plan, because the key column never changed.
    let (rel, session, wm) = marked_fixture(6_000, 20);
    assert_eq!(session.cache().len(), 1, "embed should have planned exactly once");
    let altered = Attack::RandomAlteration { attr: "item_nbr".into(), fraction: 0.2, seed: 9 }
        .apply(&rel)
        .unwrap();
    let verdict = session.detect(&altered, &wm).unwrap();
    assert!(verdict.is_significant(1e-2));
    assert_eq!(
        session.cache().len(),
        1,
        "a target-column attack must not force a replan (key column unchanged)"
    );
    // A key-set-changing attack (loss) legitimately replans.
    let lossy = Attack::HorizontalLoss { keep: 0.5, seed: 10 }.apply(&rel).unwrap();
    session.detect(&lossy, &wm).unwrap();
    assert_eq!(session.cache().len(), 2);
}
