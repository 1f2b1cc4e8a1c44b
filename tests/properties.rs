//! Property-based tests over the core invariants, spanning crates.

use catmark::prelude::*;
use proptest::prelude::*;

/// Generate a relation deterministically from a seed.
fn relation_for(seed: u64, tuples: usize) -> (Relation, CategoricalDomain) {
    let gen =
        SalesGenerator::new(ItemScanConfig { tuples, items: 200, seed, ..Default::default() });
    (gen.generate(), gen.item_domain())
}

/// Fresh per-operator calls (the pre-session usage pattern): every
/// helper binds a brand-new session, so each step re-resolves columns
/// and replans. The byte-identity properties below pin the reused
/// session API against these.
mod legacy {
    use super::*;
    use catmark::core::{DecodeReport, EmbedReport};

    fn fresh(spec: &WatermarkSpec, rel: &Relation) -> MarkSession {
        MarkSession::builder(spec.clone())
            .key_column("visit_nbr")
            .target_column("item_nbr")
            .bind(rel)
            .unwrap()
    }

    pub fn embed(spec: &WatermarkSpec, rel: &mut Relation, wm: &Watermark) -> EmbedReport {
        fresh(spec, rel).embed(rel, wm).unwrap()
    }

    pub fn decode(spec: &WatermarkSpec, rel: &Relation) -> DecodeReport {
        fresh(spec, rel).decode(rel).unwrap()
    }

    pub fn stream_marker(
        spec: &WatermarkSpec,
        template: &Relation,
        wm: &Watermark,
    ) -> catmark::core::stream::StreamMarker {
        fresh(spec, template).stream(wm).unwrap()
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Embed → blind decode is the identity for any watermark, key,
    /// and modulus, given adequate carrier density (fit ≈ 8 × |wm_data|
    /// keeps the erasure probability negligible).
    #[test]
    fn embed_decode_round_trip(
        wm_bits in 1u64..=0xFFFF,
        wm_len in 4usize..=16,
        e in 4u64..=8,
        master in any::<u64>(),
    ) {
        let (mut rel, domain) = relation_for(0xCAFE, 2_000);
        let spec = WatermarkSpec::builder(domain)
            .master_key(SecretKey::from_u64(master))
            .e(e)
            .wm_len(wm_len)
            .wm_data_len(32.max(wm_len))
            .erasure(catmark::core::decode::ErasurePolicy::Abstain)
            .build()
            .unwrap();
        let wm = Watermark::from_u64(wm_bits & ((1 << wm_len) - 1), wm_len);
        let session = MarkSession::builder(spec)
            .key_column("visit_nbr")
            .target_column("item_nbr")
            .bind(&rel)
            .unwrap();
        session.embed(&mut rel, &wm).unwrap();
        let decoded = session.decode(&rel).unwrap();
        prop_assert_eq!(decoded.watermark, wm);
    }

    /// Re-sorting never changes the decode result (A4 immunity is
    /// structural, not statistical).
    #[test]
    fn decode_is_order_invariant(shuffle_seed in any::<u64>()) {
        let (mut rel, domain) = relation_for(0xBEEF, 1_500);
        let spec = WatermarkSpec::builder(domain)
            .master_key("order-invariance")
            .e(10)
            .wm_len(8)
            .expected_tuples(1_500)
            .build()
            .unwrap();
        let wm = Watermark::from_u64(0xA5, 8);
        let session = MarkSession::builder(spec)
            .key_column("visit_nbr")
            .target_column("item_nbr")
            .bind(&rel)
            .unwrap();
        session.embed(&mut rel, &wm).unwrap();
        let shuffled = catmark::relation::ops::shuffle(&rel, shuffle_seed);
        let a = session.decode(&rel).unwrap();
        let b = session.decode(&shuffled).unwrap();
        prop_assert_eq!(a.watermark, b.watermark);
        prop_assert_eq!(a.votes_cast, b.votes_cast);
    }

    /// Fit-tuple density tracks 1/e for any key.
    #[test]
    fn fitness_density_tracks_e(e in 5u64..=50, master in any::<u64>()) {
        let (rel, domain) = relation_for(0xF00D, 5_000);
        let spec = WatermarkSpec::builder(domain)
            .master_key(SecretKey::from_u64(master))
            .e(e)
            .wm_len(8)
            .expected_tuples(5_000)
            .build()
            .unwrap();
        let fit = catmark::core::FitnessSelector::new(&spec).fit_rows(&rel, 0).len() as f64;
        let expected = 5_000.0 / e as f64;
        // Binomial noise: allow 5 standard deviations.
        let sd = (5_000.0 * (1.0 / e as f64) * (1.0 - 1.0 / e as f64)).sqrt();
        prop_assert!((fit - expected).abs() <= 5.0 * sd + 1.0,
            "e={}, fit={}, expected={}", e, fit, expected);
    }

    /// Majority-vote ECC tolerates any corruption strictly below half
    /// of every bit's copies.
    #[test]
    fn ecc_tolerates_minority_corruption(
        wm_bits in 0u64..=0x3FF,
        corrupt in prop::collection::vec(0usize..10, 0..=4),
    ) {
        use catmark::core::ecc::{ErrorCorrectingCode, MajorityVotingEcc};
        let ecc = MajorityVotingEcc;
        let wm = Watermark::from_u64(wm_bits, 10);
        let mut data = ecc.encode(&wm, 100);
        // Corrupt ≤ 4 copies (of 10) of each listed bit index.
        for (round, &bit) in corrupt.iter().enumerate() {
            data[bit + 10 * round] = !data[bit + 10 * round];
        }
        let positions: Vec<Option<bool>> = data.into_iter().map(Some).collect();
        let decoded = ecc.decode(&positions, 10, &mut |_| unreachable!("no ties possible"));
        prop_assert_eq!(decoded, wm);
    }

    /// Watermark `from_u64` and bit accessors agree.
    #[test]
    fn watermark_bit_representation(value in any::<u64>(), len in 1usize..=64) {
        let masked = if len == 64 { value } else { value & ((1u64 << len) - 1) };
        let wm = Watermark::from_u64(masked, len);
        prop_assert_eq!(wm.len(), len);
        let reconstructed = wm
            .bits()
            .iter()
            .fold(0u64, |acc, &b| (acc << 1) | u64::from(b));
        prop_assert_eq!(reconstructed, masked);
    }

    /// Hamming distance is a metric (symmetry, identity, triangle).
    #[test]
    fn hamming_is_a_metric(a in 0u64..=0xFFF, b in 0u64..=0xFFF, c in 0u64..=0xFFF) {
        let (wa, wb, wc) = (
            Watermark::from_u64(a, 12),
            Watermark::from_u64(b, 12),
            Watermark::from_u64(c, 12),
        );
        prop_assert_eq!(wa.hamming_distance(&wb), wb.hamming_distance(&wa));
        prop_assert_eq!(wa.hamming_distance(&wa), 0);
        prop_assert!(
            wa.hamming_distance(&wc) <= wa.hamming_distance(&wb) + wb.hamming_distance(&wc)
        );
    }

    /// Horizontal loss never corrupts surviving tuples, only removes.
    #[test]
    fn subset_selection_is_pure_erasure(keep in 0.1f64..=1.0, seed in any::<u64>()) {
        let (rel, _) = relation_for(7, 1_000);
        let kept = catmark::attacks::horizontal::subset_selection(&rel, keep, seed);
        let rows: Vec<usize> = kept
            .column_iter(0)
            .map(|key| rel.find_by_key(&key).expect("survivor from original"))
            .collect();
        prop_assert!(rel.gather(&rows) == kept);
    }

    /// Random alteration changes exactly the requested fraction and
    /// nothing else.
    #[test]
    fn alteration_budget_is_exact(fraction in 0.0f64..=1.0, seed in any::<u64>()) {
        let (rel, _) = relation_for(8, 800);
        let attacked =
            catmark::attacks::alteration::random_alteration(&rel, "item_nbr", fraction, seed)
                .unwrap();
        let changed =
            rel.column_iter(1).zip(attacked.column_iter(1)).filter(|(a, b)| a != b).count();
        let expected = ((800.0 * fraction).round() as usize).min(800);
        prop_assert_eq!(changed, expected);
        prop_assert_eq!(rel.column(0), attacked.column(0));
    }

    /// CSV round-trips arbitrary text content, including separators,
    /// quotes and unicode.
    #[test]
    fn csv_round_trips_arbitrary_text(values in prop::collection::vec("[^\r\n]{0,30}", 1..20)) {
        let schema = Schema::builder()
            .key_attr("k", AttrType::Integer)
            .categorical_attr("text", AttrType::Text)
            .build()
            .unwrap();
        let mut rel = Relation::new(schema.clone());
        for (i, v) in values.iter().enumerate() {
            rel.push(vec![Value::Int(i as i64), Value::Text(v.clone())]).unwrap();
        }
        let mut buf = Vec::new();
        catmark::relation::csv::write_csv(&rel, &mut buf).unwrap();
        let parsed = catmark::relation::csv::read_csv(
            schema,
            &mut std::io::BufReader::new(buf.as_slice()),
        )
        .unwrap();
        prop_assert!(parsed == rel);
    }

    /// Hex encoding round-trips arbitrary bytes.
    #[test]
    fn hex_round_trip(bytes in prop::collection::vec(any::<u8>(), 0..64)) {
        let hex = catmark::crypto::hex::to_hex(&bytes);
        prop_assert_eq!(catmark::crypto::hex::from_hex(&hex).unwrap(), bytes);
    }

    /// Categorical domains are order-insensitive bijections.
    #[test]
    fn domain_is_a_bijection(mut values in prop::collection::hash_set(any::<i64>(), 2..50)) {
        let vec: Vec<Value> = values.drain().map(Value::Int).collect();
        let domain = CategoricalDomain::new(vec.clone()).unwrap();
        prop_assert_eq!(domain.len(), vec.len());
        for t in 0..domain.len() {
            prop_assert_eq!(domain.index_of(domain.value_at(t)).unwrap(), t);
        }
    }

    /// Frequency-domain codec round-trips arbitrary watermarks for
    /// any key and reasonable step size.
    #[test]
    fn freq_codec_round_trip(
        wm_bits in 0u64..=0xFF,
        key in any::<u64>(),
        step in 20u64..=80,
    ) {
        use catmark::core::freq::FreqCodec;
        let (mut rel, domain) = relation_for(0xFEED, 8_000);
        let codec = FreqCodec::new(
            HashAlgorithm::Sha256,
            SecretKey::from_u64(key),
            step,
            8,
        )
        .unwrap();
        let wm = Watermark::from_u64(wm_bits, 8);
        codec.embed(&mut rel, "item_nbr", &domain, &wm).unwrap();
        prop_assert_eq!(codec.decode(&rel, "item_nbr", &domain).unwrap(), wm);
    }

    /// Key files round-trip arbitrary spec parameters.
    #[test]
    fn keyfile_round_trip(
        master in any::<u64>(),
        e in 1u64..=500,
        wm_len in 1usize..=32,
        extra in 0usize..=64,
    ) {
        use catmark::core::keyfile::{from_key_file, to_key_file};
        let domain = CategoricalDomain::new((0..40).map(Value::Int).collect()).unwrap();
        let spec = WatermarkSpec::builder(domain)
            .master_key(SecretKey::from_u64(master))
            .e(e)
            .wm_len(wm_len)
            .wm_data_len(wm_len + extra)
            .build()
            .unwrap();
        let restored = from_key_file(&to_key_file(&spec)).unwrap();
        prop_assert_eq!(restored.k1, spec.k1);
        prop_assert_eq!(restored.k2, spec.k2);
        prop_assert_eq!(restored.e, spec.e);
        prop_assert_eq!(restored.wm_len, spec.wm_len);
        prop_assert_eq!(restored.wm_data_len, spec.wm_data_len);
        prop_assert_eq!(restored.domain, spec.domain);
    }

    /// The binomial tail used for court-time odds is a valid
    /// complementary CDF: within [0,1] and monotone in k.
    #[test]
    fn detection_tail_is_a_ccdf(n in 1usize..=64) {
        use catmark::core::detect::binomial_tail_half;
        let mut prev = 1.0f64;
        for k in 0..=n {
            let p = binomial_tail_half(n, k);
            prop_assert!((0.0..=1.0).contains(&p));
            prop_assert!(p <= prev + 1e-12);
            prev = p;
        }
        prop_assert_eq!(binomial_tail_half(n, 0), 1.0);
    }

    /// MarkPlan-driven embedding and decoding — sequential, parallel
    /// at any thread count, and cache-served — are byte-identical to
    /// the seed sequential path for any key, modulus, and watermark.
    #[test]
    fn plan_paths_are_byte_identical(
        master in any::<u64>(),
        e in 4u64..=40,
        wm_bits in 0u64..=0x3FF,
        threads in 2usize..=8,
    ) {
        use catmark::core::{MarkPlan, PlanCache};
        let (rel, domain) = relation_for(0xD1CE, 2_000);
        let spec = WatermarkSpec::builder(domain)
            .master_key(SecretKey::from_u64(master))
            .e(e)
            .wm_len(10)
            .expected_tuples(2_000)
            .build()
            .unwrap();
        let wm = Watermark::from_u64(wm_bits, 10);
        // Seed path: name-resolved per-operator embed + decode, no
        // shared plan.
        let mut seed_marked = rel.clone();
        let seed_report = legacy::embed(&spec, &mut seed_marked, &wm);
        let seed_decode = legacy::decode(&spec, &seed_marked);
        // Plan paths.
        let sequential = MarkPlan::build_sequential(&spec, &rel, 0);
        let parallel = MarkPlan::build_with_threads(&spec, &rel, 0, threads);
        prop_assert_eq!(sequential.fit(), parallel.fit());
        let cache = PlanCache::new();
        let cached = cache.plan_for(&spec, &rel, 0).unwrap();
        let session = MarkSession::builder(spec.clone())
            .key_column("visit_nbr")
            .target_column("item_nbr")
            .bind(&rel)
            .unwrap();
        for plan in [&sequential, &parallel, &*cached] {
            let mut marked = rel.clone();
            let report = session.embed_planned(&mut marked, &wm, plan).unwrap();
            prop_assert_eq!(&report, &seed_report);
            prop_assert!(marked == seed_marked);
            let plan_after = cache.plan_for(&spec, &marked, 0).unwrap();
            let decode = session.decode_planned(&marked, &plan_after).unwrap();
            prop_assert_eq!(&decode, &seed_decode);
        }
    }

    /// The satellite pin: a reused `MarkSession` — embed, blind
    /// decode, court-time detect, and a two-party contest all on one
    /// handle — is byte-identical to fresh per-operator calls, for
    /// any key, modulus, and watermark.
    #[test]
    fn session_reuse_is_byte_identical_to_fresh_operators(
        master in any::<u64>(),
        e in 4u64..=40,
        wm_bits in 0u64..=0x3FF,
    ) {
        use catmark::core::contest::{resolve, Claim};
        let (rel, domain) = relation_for(0xAB1E, 2_000);
        let spec = WatermarkSpec::builder(domain)
            .master_key(SecretKey::from_u64(master))
            .e(e)
            .wm_len(10)
            .expected_tuples(2_000)
            .build()
            .unwrap();
        let wm = Watermark::from_u64(wm_bits, 10);
        let rival_wm = Watermark::from_u64(!wm_bits & 0x3FF, 10);
        let rival_spec = spec.derived("rival");

        // Fresh per-operator calls: every step re-resolves columns
        // and replans.
        let mut op_marked = rel.clone();
        let op_report = legacy::embed(&spec, &mut op_marked, &wm);
        let op_decode = legacy::decode(&spec, &op_marked);
        let op_detect = detect(&op_decode.watermark, &wm);

        // One session handle for the same run.
        let session = MarkSession::builder(spec.clone())
            .key_column("visit_nbr")
            .target_column("item_nbr")
            .bind(&rel)
            .unwrap();
        let mut s_marked = rel.clone();
        let s_report = session.embed(&mut s_marked, &wm).unwrap();
        prop_assert_eq!(&s_report, &op_report);
        prop_assert!(s_marked == op_marked);
        let s_verdict = session.detect(&s_marked, &wm).unwrap();
        prop_assert_eq!(&s_verdict.decode, &op_decode);
        prop_assert_eq!(&s_verdict.detection, &op_detect);

        // Contest: session-cached vs free-function resolution.
        let mine = session.claim("owner", &wm);
        let rival = Claim {
            claimant: "rival".into(),
            spec: rival_spec,
            watermark: rival_wm,
        };
        let (s_outcome, s_ev_a, s_ev_b) =
            session.contest(&mine, &rival, &s_marked, 1e-2, 0.01).unwrap();
        let (op_outcome, op_ev_a, op_ev_b) =
            resolve(&mine, &rival, &op_marked, "visit_nbr", "item_nbr", 1e-2, 0.01).unwrap();
        prop_assert_eq!(s_outcome, op_outcome);
        prop_assert_eq!(s_ev_a.vote_unanimity, op_ev_a.vote_unanimity);
        prop_assert_eq!(s_ev_b.vote_unanimity, op_ev_b.vote_unanimity);
        prop_assert_eq!(s_ev_a.decode, op_ev_a.decode);
        prop_assert_eq!(s_ev_b.decode, op_ev_b.decode);
    }

    /// Streaming ingestion through a StreamMarker matches a batch
    /// Embedder pass tuple for tuple, for any key and modulus.
    #[test]
    fn stream_ingest_matches_batch_embed(master in any::<u64>(), e in 4u64..=40) {
        let (rel, domain) = relation_for(0xFACE, 1_500);
        let spec = WatermarkSpec::builder(domain)
            .master_key(SecretKey::from_u64(master))
            .e(e)
            .wm_len(10)
            .expected_tuples(1_500)
            .build()
            .unwrap();
        let wm = Watermark::from_u64(0b1001101011, 10);
        let mut batch = rel.clone();
        legacy::embed(&spec, &mut batch, &wm);
        let marker = legacy::stream_marker(&spec, &rel, &wm);
        let mut streamed = Relation::new(rel.schema().clone());
        for row in 0..rel.len() {
            let values = (0..rel.schema().arity()).map(|attr| rel.value(row, attr).unwrap());
            marker.ingest(&mut streamed, values.collect()).unwrap();
        }
        prop_assert_eq!(streamed.len(), batch.len());
        prop_assert!(streamed == batch);
    }

    /// A batched `fingerprint_batch` call (multi-key plans: four
    /// recipient keys hashed per tuple scan) produces copies
    /// byte-identical to N sequential `mark_copy` calls, across the
    /// awkward shapes: a single recipient, batch sizes that are not a
    /// multiple of the 4-lane width, duplicate buyer ids, and
    /// watermark lengths from 1 bit up.
    #[test]
    fn fingerprint_batch_matches_sequential_mark_copies(
        n_buyers in 1usize..=9,
        dup in any::<bool>(),
        wm_len in 1usize..=16,
        master in any::<u64>(),
    ) {
        let (rel, domain) = relation_for(0xF1B, 1_200);
        let spec = WatermarkSpec::builder(domain)
            .master_key(SecretKey::from_u64(master))
            .e(4)
            .wm_len(wm_len)
            .wm_data_len(64.max(wm_len))
            .erasure(catmark::core::decode::ErasurePolicy::Abstain)
            .build()
            .unwrap();
        let session = MarkSession::builder(spec)
            .key_column("visit_nbr")
            .target_column("item_nbr")
            .bind(&rel)
            .unwrap();
        let mut buyers: Vec<String> = (0..n_buyers).map(|i| format!("buyer-{i}")).collect();
        if dup && n_buyers > 1 {
            buyers[n_buyers - 1] = buyers[0].clone();
        }
        let buyer_refs: Vec<&str> = buyers.iter().map(String::as_str).collect();

        let (_, batch) = session.fingerprint_batch(&rel, &buyer_refs).unwrap();
        prop_assert_eq!(batch.len(), buyer_refs.len());

        // The per-recipient reference: one sequential mark_copy per
        // buyer on a fresh fingerprint session.
        let mut sequential = session.fingerprint();
        for (buyer, (copy, report)) in buyer_refs.iter().zip(&batch) {
            let (expected, expected_report) = sequential.mark_copy(&rel, buyer).unwrap();
            prop_assert_eq!(report, &expected_report);
            prop_assert_eq!(copy.len(), expected.len());
            prop_assert!(&expected == copy);
        }
    }

    /// Delta distribution pin: `apply_delta(extract_delta(...))` is
    /// byte-identical to embedding the buyer's derived mark on a full
    /// clone — the pre-delta `mark_copy` semantics — across watermark
    /// length edges, duplicate buyers, and the wire encoding.
    #[test]
    fn mark_deltas_rebuild_copies_byte_identically(
        n_buyers in 1usize..=6,
        dup in any::<bool>(),
        wm_len in 1usize..=16,
        master in any::<u64>(),
    ) {
        use catmark::core::fingerprint::FingerprintRegistry;
        use catmark::relation::MarkDelta;
        let (rel, domain) = relation_for(0xDE17A, 1_200);
        let spec = WatermarkSpec::builder(domain)
            .master_key(SecretKey::from_u64(master))
            .e(4)
            .wm_len(wm_len)
            .wm_data_len(64.max(wm_len))
            .erasure(catmark::core::decode::ErasurePolicy::Abstain)
            .build()
            .unwrap();
        let mut buyers: Vec<String> = (0..n_buyers).map(|i| format!("buyer-{i}")).collect();
        if dup && n_buyers > 1 {
            buyers[n_buyers - 1] = buyers[0].clone();
        }
        let buyer_refs: Vec<&str> = buyers.iter().map(String::as_str).collect();

        let mut registry = FingerprintRegistry::new(spec);
        let deltas =
            registry.mark_deltas(&rel, &buyer_refs, "visit_nbr", "item_nbr").unwrap();
        prop_assert_eq!(deltas.len(), buyer_refs.len());
        for (buyer, (delta, report)) in buyer_refs.iter().zip(&deltas) {
            // Independent reference: embed the buyer's derived mark
            // on a full clone, bypassing the delta machinery.
            let reference_session = MarkSession::builder(registry.spec_for(buyer))
                .key_column("visit_nbr")
                .target_column("item_nbr")
                .bind(&rel)
                .unwrap();
            let mut reference = rel.clone();
            let reference_report =
                reference_session.embed(&mut reference, &registry.mark_for(buyer)).unwrap();
            prop_assert_eq!(report, &reference_report);
            let rebuilt = rel.apply_delta(delta).unwrap();
            prop_assert_eq!(rebuilt.len(), reference.len());
            prop_assert!(reference == rebuilt);
            prop_assert_eq!(rebuilt.column(1), reference.column(1));
            // And the wire encoding is lossless.
            prop_assert_eq!(&MarkDelta::decode(&delta.encode()).unwrap(), delta);
        }
    }

    /// Delta extraction on text targets: domain values foreign to the
    /// base dictionary travel in the delta's extension section, and
    /// the rebuilt dictionary matches the embed path's exactly —
    /// including interned-but-unwritten entries.
    #[test]
    fn text_deltas_carry_foreign_dictionary_entries(
        present in 2usize..=9,
        wm_len in 1usize..=8,
        master in any::<u64>(),
    ) {
        use catmark::core::fingerprint::FingerprintRegistry;
        let schema = Schema::builder()
            .key_attr("visit_nbr", AttrType::Integer)
            .categorical_attr("item", AttrType::Text)
            .build()
            .unwrap();
        let names: Vec<String> = (0..10).map(|i| format!("sku-{i:02}")).collect();
        let mut rel = Relation::new(schema);
        for i in 0..900usize {
            rel.push(vec![
                Value::Int(i as i64 * 11 + 5),
                Value::Text(names[i % present].clone()),
            ])
            .unwrap();
        }
        // The domain holds all ten names; the base dictionary only the
        // `present` ones that occur in the data.
        let domain =
            CategoricalDomain::new(names.iter().cloned().map(Value::Text).collect()).unwrap();
        let spec = WatermarkSpec::builder(domain)
            .master_key(SecretKey::from_u64(master))
            .e(3)
            .wm_len(wm_len)
            .wm_data_len(32.max(wm_len))
            .erasure(catmark::core::decode::ErasurePolicy::Abstain)
            .build()
            .unwrap();
        let mut registry = FingerprintRegistry::new(spec);
        let (delta, _) = registry.mark_delta(&rel, "leaker", "visit_nbr", "item").unwrap();
        prop_assert_eq!(delta.extension_len(), 10 - present,
            "every domain value outside the base dictionary travels in the extension");
        let reference_session = MarkSession::builder(registry.spec_for("leaker"))
            .key_column("visit_nbr")
            .target_column("item")
            .bind(&rel)
            .unwrap();
        let mut reference = rel.clone();
        reference_session.embed(&mut reference, &registry.mark_for("leaker")).unwrap();
        let rebuilt = rel.apply_delta(&delta).unwrap();
        // Column views compare codes *and* dictionaries, so this is
        // the byte-level claim, not just value equality.
        prop_assert_eq!(rebuilt.column(1), reference.column(1));
    }

    /// The frequency histogram always sums to 1 on non-empty columns
    /// and L1 distance is bounded by 2.
    #[test]
    fn histogram_axioms(seed in any::<u64>()) {
        let (rel, domain) = relation_for(seed, 500);
        let h = FrequencyHistogram::from_relation(&rel, 1, &domain).unwrap();
        let total: f64 = h.frequencies().iter().sum();
        prop_assert!((total - 1.0).abs() < 1e-9);
        let (other_rel, _) = relation_for(seed.wrapping_add(1), 500);
        let g = FrequencyHistogram::from_relation(&other_rel, 1, &domain).unwrap();
        let d = h.l1_distance(&g);
        prop_assert!((0.0..=2.0 + 1e-9).contains(&d));
    }
}
