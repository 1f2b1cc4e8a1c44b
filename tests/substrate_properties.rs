//! Property-based tests over the substrate extensions: Apriori mining,
//! collusion merges, the pair closure, and count-query preservation.

use std::collections::{HashMap, HashSet};

use catmark::core::closure::build_closure;
use catmark::core::quality::{Alteration, QualityConstraint};
use catmark::core::query_preserve::{CountQuery, CountQueryPreservation, Tolerance, ValueSet};
use catmark::mining::apriori::{mine, AprioriConfig};
use catmark::mining::item::Transactions;
use catmark::prelude::*;
use proptest::prelude::*;

/// A two-categorical-attribute relation driven entirely by the seed.
fn relation_for(seed: u64, tuples: usize, a_card: i64, b_card: i64) -> Relation {
    let schema = Schema::builder()
        .key_attr("k", AttrType::Integer)
        .categorical_attr("a", AttrType::Integer)
        .categorical_attr("b", AttrType::Integer)
        .build()
        .unwrap();
    let mut rel = Relation::with_capacity(schema, tuples);
    let mut state = seed | 1;
    let mut next = move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        state
    };
    for i in 0..tuples as i64 {
        let a = (next() % a_card as u64) as i64;
        let b = (next() % b_card as u64) as i64;
        rel.push(vec![Value::Int(i), Value::Int(a), Value::Int(100 + b)]).unwrap();
    }
    rel
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Apriori respects downward closure and min-support on random
    /// data, at every level.
    #[test]
    fn apriori_invariants(seed in any::<u64>(), min_support in 0.02f64..0.3) {
        let rel = relation_for(seed, 400, 6, 6);
        let tx = Transactions::from_relation(&rel, &["a", "b"]).unwrap();
        let freq = mine(&tx, &AprioriConfig { min_support, max_len: 2 });
        let min_count = (min_support * 400.0).ceil() as u64;
        for f in freq.iter() {
            prop_assert!(f.count >= min_count.max(1));
            // Recount from scratch: the miner's count is exact.
            prop_assert_eq!(f.count, tx.support_count(&f.set));
            for i in 0..f.set.len() {
                if f.set.len() >= 2 {
                    let sub = f.set.without(i);
                    let sub_count = freq.count_of(&sub).expect("downward closure");
                    prop_assert!(sub_count >= f.count);
                }
            }
        }
    }

    /// Majority-merging identical copies is the identity, regardless
    /// of the tie-break seed (there are never ties).
    #[test]
    fn collusion_of_clones_is_identity(seed in any::<u64>(), merge_seed in any::<u64>()) {
        let rel = relation_for(seed, 200, 10, 10);
        let merged =
            catmark::attacks::collusion::majority_merge(&[&rel, &rel, &rel], merge_seed)
                .unwrap();
        prop_assert_eq!(merged.len(), rel.len());
        prop_assert!(rel == merged);
    }

    /// The closure always covers every unordered attribute pair
    /// exactly once (nothing dropped when every attribute has ≥ 2
    /// values), and never targets the key.
    #[test]
    fn closure_covers_all_pairs(seed in any::<u64>()) {
        let rel = relation_for(seed, 300, 5, 7);
        let c = build_closure(&rel).unwrap();
        prop_assert!(c.dropped.is_empty());
        prop_assert_eq!(c.len(), 3); // (k,a), (k,b), (a,b)
        prop_assert!(c.pairs.iter().all(|p| p.target != "k"));
        let unordered: HashSet<(String, String)> = c
            .pairs
            .iter()
            .map(|p| {
                let mut v = [p.pseudo_key.clone(), p.target.clone()];
                v.sort();
                (v[0].clone(), v[1].clone())
            })
            .collect();
        prop_assert_eq!(unordered.len(), 3);
    }

    /// Hamming ECC: clean round trip for arbitrary watermark lengths
    /// and bandwidths, and correction of any single wiped position
    /// class per block.
    #[test]
    fn hamming_ecc_invariants(
        wm_bits in any::<u64>(),
        wm_len in 4usize..=16,
        copies in 3usize..=12,
        wiped_class in 0usize..7,
    ) {
        use catmark::core::ecc::{ErrorCorrectingCode, HammingMajorityEcc};
        let ecc = HammingMajorityEcc;
        let wm = Watermark::from_u64(wm_bits & ((1 << wm_len) - 1), wm_len);
        let l = HammingMajorityEcc::codeword_len(wm_len);
        let out_len = l * copies;
        let data = ecc.encode(&wm, out_len);
        let mut no_ties = |_: usize| false;
        // Clean round trip.
        let positions: Vec<Option<bool>> = data.iter().copied().map(Some).collect();
        prop_assert_eq!(ecc.decode(&positions, wm_len, &mut no_ties), wm.clone());
        // Wipe one position class in every block (all copies flipped):
        // still decodes exactly.
        let flipped: Vec<Option<bool>> = data
            .iter()
            .enumerate()
            .map(|(i, &b)| Some(if (i % l) % 7 == wiped_class { !b } else { b }))
            .collect();
        prop_assert_eq!(ecc.decode(&flipped, wm_len, &mut no_ties), wm);
    }

    /// OneR's training accuracy is never below the majority-class
    /// baseline: a per-value rule can only refine the global majority.
    #[test]
    fn oner_beats_majority_baseline(seed in any::<u64>(), card in 2i64..10) {
        use catmark::mining::classify::{accuracy, OneR};
        let rel = relation_for(seed, 300, card, 4);
        let clf = OneR::train(&rel, "b", &["a"]).unwrap();
        let acc = accuracy(&clf, &rel);
        // Majority baseline over attribute b.
        let mut counts: HashMap<Value, usize> = HashMap::new();
        for b in rel.column_iter(2) {
            *counts.entry(b).or_default() += 1;
        }
        let majority = counts.values().copied().max().unwrap_or(0);
        let baseline = majority as f64 / rel.len() as f64;
        prop_assert!(acc >= baseline - 1e-12, "acc {acc} < baseline {baseline}");
    }

    /// Count-query tracking: any sequence of commits followed by
    /// rollbacks in reverse order restores the baseline exactly.
    #[test]
    fn count_query_rollback_is_exact(seed in any::<u64>(), moves in 1usize..30) {
        let rel = relation_for(seed, 300, 8, 8);
        let q = CountQuery::new(
            "a-low",
            1,
            ValueSet::Range(Value::Int(0), Value::Int(3)),
            Tolerance::Absolute(u64::MAX), // tracking only, never veto
        );
        let mut c = CountQueryPreservation::from_relation(&rel, vec![q]);
        let baseline = c.baseline(0);
        let mut log = Vec::new();
        let mut state = seed | 3;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        for _ in 0..moves {
            let row = (next() % 300) as usize;
            let old = rel.value(row, 1).unwrap();
            let new = Value::Int((next() % 8) as i64);
            let change = Alteration { row, attr: 1, old, new };
            c.commit(&change);
            log.push(change);
        }
        for change in log.iter().rev() {
            c.rollback(change);
        }
        prop_assert_eq!(c.current(0), baseline);
    }
}

/// Non-proptest integration: the full semantic pipeline survives an
/// attack chain while preserving mined rules.
#[test]
fn guarded_embedding_survives_attacks_and_preserves_rules() {
    use catmark::core::quality::QualityGuard;
    use catmark::mining::constraints::AssociationRulePreserved;
    use catmark::mining::rules::RuleSet;

    // Strong a ⇒ b structure.
    let schema = Schema::builder()
        .key_attr("k", AttrType::Integer)
        .categorical_attr("a", AttrType::Integer)
        .categorical_attr("b", AttrType::Integer)
        .build()
        .unwrap();
    let mut rel = Relation::with_capacity(schema, 8_000);
    for i in 0..8_000i64 {
        let a = i % 8;
        let b = if i % 25 == 24 { (a + 3) % 8 } else { a };
        rel.push(vec![Value::Int(i), Value::Int(a), Value::Int(100 + b)]).unwrap();
    }
    let domain =
        CategoricalDomain::new((0..8).map(|v| Value::Int(100 + v)).collect::<Vec<_>>()).unwrap();

    let tx = Transactions::from_relation(&rel, &["a", "b"]).unwrap();
    let freq = mine(&tx, &AprioriConfig { min_support: 0.02, max_len: 2 });
    let rules = RuleSet::derive(&freq, 0.9);
    assert!(!rules.is_empty());

    let spec = WatermarkSpec::builder(domain)
        .master_key("integration")
        .e(25)
        .wm_len(10)
        .expected_tuples(rel.len())
        .erasure(catmark::core::decode::ErasurePolicy::Abstain)
        .build()
        .unwrap();
    let wm = Watermark::from_u64(0b1101001011, 10);
    let mut guard =
        QualityGuard::new(vec![Box::new(AssociationRulePreserved::new(&rel, &rules, 0.06))]);
    let session = MarkSession::builder(spec).key_column("k").target_column("b").bind(&rel).unwrap();
    session.embed_guarded(&mut rel, &wm, &mut guard).unwrap();

    // Rules hold on the marked copy.
    let tx_after = Transactions::from_relation(&rel, &["a", "b"]).unwrap();
    let drift = rules.drift_against(&tx_after);
    assert!(
        drift.max_confidence_drop <= 0.06 + 1e-9,
        "drop {} exceeds guard",
        drift.max_confidence_drop
    );

    // Mark survives shuffle + 40% loss.
    let suspect = Attack::HorizontalLoss { keep: 0.6, seed: 5 }
        .apply(&Attack::Shuffle { seed: 5 }.apply(&rel).unwrap())
        .unwrap();
    assert!(session.detect(&suspect, &wm).unwrap().is_significant(1e-2));
}
