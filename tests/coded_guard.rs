//! The code-space quality-guard fast path must admit and veto exactly
//! like the value-space path, and a guarded embed must not depend on
//! which of the two representations its constraints run in.

use catmark::core::quality::{
    AllowedReplacements, Alteration, AlterationBudget, CodedAlteration, FrequencyDriftLimit,
    ImmutableRows, QualityConstraint, QualityGuard,
};
use catmark::core::query_preserve::{CountQuery, CountQueryPreservation, Tolerance, ValueSet};
use catmark::prelude::*;
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

const TEXT_POOL: &[&str] = &["red", "green", "blue"];

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
        let a = (next() % 12) as i64 - 3;
        let c = TEXT_POOL[(next() % 3) as usize];
        rel.push(vec![Value::Int(i), Value::Int(a), Value::Text(c.into())]).unwrap();
    }
    rel
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The guard's coded fast path and the value path make identical
    /// admit/veto decisions and leave identical rollback logs, over a
    /// full constraint stack (budget, immutable rows, allow-list,
    /// frequency drift, count-query preservation).
    #[test]
    fn coded_guard_decides_like_value_guard(seed in any::<u64>()) {
        let mut next = rng_from(seed);
        let rel = relation_for(next(), 300);
        let domain = CategoricalDomain::new((-3..9).map(Value::Int).collect()).unwrap();
        let attr = 1; // the integer categorical "a"
        let build_stack = || -> Vec<Box<dyn QualityConstraint>> {
            vec![
                Box::new(AlterationBudget::new(40)),
                Box::new(ImmutableRows::new([2, 3, 5, 8, 13])),
                Box::new(AllowedReplacements::new((-3..6).map(Value::Int))),
                Box::new(FrequencyDriftLimit::new(&rel, attr, &domain, 0.15).unwrap()),
                Box::new(CountQueryPreservation::from_relation(
                    &rel,
                    vec![
                        CountQuery::new(
                            "low",
                            attr,
                            ValueSet::Range(Value::Int(-3), Value::Int(1)),
                            Tolerance::Absolute(4),
                        ),
                        CountQuery::new(
                            "pair",
                            attr,
                            ValueSet::In([Value::Int(4), Value::Int(7)].into_iter().collect()),
                            Tolerance::Relative(0.05),
                        ),
                    ],
                )),
            ]
        };
        let mut value_guard = QualityGuard::new(build_stack());
        let mut coded_guard = QualityGuard::new(build_stack());
        coded_guard.bind_codes(attr, &domain);
        prop_assert!(coded_guard.fully_coded());
        for _ in 0..120 {
            let row = (next() % 300) as usize;
            let old = rel.value(row, attr).unwrap();
            let old_code = domain.index_of(&old).unwrap() as u32;
            let new_code = (next() % domain.len() as u64) as u32;
            let value_admitted = value_guard.propose(Alteration {
                row,
                attr,
                old: old.clone(),
                new: domain.value_at(new_code as usize).clone(),
            });
            let coded_admitted = coded_guard.propose_coded(CodedAlteration {
                row,
                attr,
                old: old_code,
                new: new_code,
            });
            prop_assert_eq!(value_admitted, coded_admitted, "row {} {:?}", row, old);
        }
        prop_assert_eq!(value_guard.vetoes(), coded_guard.vetoes());
        prop_assert_eq!(value_guard.log().entries(), coded_guard.log().entries());
    }
}

/// One deterministic end-to-end check: a guarded session embed with a
/// mixed constraint stack (some coded-capable, mining constraints
/// bridging through decoded values) equals the same embed driven
/// through value-space-only constraints.
#[test]
fn guarded_embed_is_representation_independent() {
    use catmark::mining::apriori::{mine, AprioriConfig};
    use catmark::mining::constraints::AssociationRulePreserved;
    use catmark::mining::item::Transactions;
    use catmark::mining::rules::RuleSet;

    let gen = SalesGenerator::new(ItemScanConfig { tuples: 4_000, ..Default::default() });
    let rel = gen.generate();
    let domain = gen.item_domain();
    let spec = WatermarkSpec::builder(domain.clone())
        .master_key("query-engine-tests")
        .e(25)
        .wm_len(10)
        .expected_tuples(rel.len())
        .build()
        .unwrap();
    let wm = Watermark::from_u64(0b01_1011_0100, 10);
    let session = MarkSession::builder(spec)
        .key_column("visit_nbr")
        .target_column("item_nbr")
        .bind(&rel)
        .unwrap();

    let tx = Transactions::from_relation(&rel, &["item_nbr"]).unwrap();
    let freq = mine(&tx, &AprioriConfig { min_support: 0.01, max_len: 1 });
    let rules = RuleSet::derive(&freq, 0.0);
    let stack = |rel: &Relation| -> Vec<Box<dyn QualityConstraint>> {
        vec![
            Box::new(AlterationBudget::new(100)),
            Box::new(AssociationRulePreserved::new(rel, &rules, 0.5)),
            Box::new(CountQueryPreservation::from_relation(
                rel,
                vec![CountQuery::new(
                    "top",
                    1,
                    ValueSet::Range(Value::Int(10_000), Value::Int(10_050)),
                    Tolerance::Absolute(3),
                )],
            )),
        ]
    };

    let mut a = rel.clone();
    let mut guard_a = QualityGuard::new(stack(&rel));
    let report_a = session.embed_guarded(&mut a, &wm, &mut guard_a).unwrap();

    // The same stack with every constraint wrapped to *decline* code
    // binding: the guard must decode each coded proposal and drive
    // the wrapped constraints' value-space methods, so this run
    // exercises `admits`/`commit` where run A exercised
    // `admits_coded`/`commit_coded` — a divergence between a
    // constraint's two representations shows up as a report or
    // content mismatch.
    struct ValueOnly(Box<dyn QualityConstraint>);
    impl QualityConstraint for ValueOnly {
        fn name(&self) -> &str {
            self.0.name()
        }
        fn admits(&self, c: &Alteration) -> bool {
            self.0.admits(c)
        }
        fn commit(&mut self, c: &Alteration) {
            self.0.commit(c)
        }
        fn rollback(&mut self, c: &Alteration) {
            self.0.rollback(c)
        }
        // bind_codes keeps the default `false`: never coded.
    }
    let mut b = rel.clone();
    let constraints: Vec<Box<dyn QualityConstraint>> = stack(&rel)
        .into_iter()
        .map(|c| Box::new(ValueOnly(c)) as Box<dyn QualityConstraint>)
        .collect();
    let mut guard_b = QualityGuard::new(constraints);
    let report_b = session.embed_guarded(&mut b, &wm, &mut guard_b).unwrap();

    assert_eq!(report_a.altered, report_b.altered);
    assert_eq!(report_a.vetoed, report_b.vetoed);
    assert_eq!(b, a);
    assert_eq!(guard_a.log().entries(), guard_b.log().entries());
    assert!(report_a.vetoed > 0, "the stack should veto something to make this meaningful");
}
