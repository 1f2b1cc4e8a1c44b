//! Retail relations with *planted semantics* for the mining substrate.
//!
//! The semantic-consistency experiments (`catmark-mining`, the
//! `mining_tradeoff` bench, the `semantic_rules` example) need data
//! whose value is not just the tuple multiset but a *learnable
//! structure*: association rules a buyer would mine and a decision
//! boundary a classifier would fit. [`BasketGenerator`] plants a
//! controllable `dept ⇒ aisle` functional dependency: every department
//! maps to one home aisle, except a configurable fraction of rows
//! shelved elsewhere (end-caps, promotions — the realistic noise that
//! keeps rule confidence below 1).

use catmark_relation::{AttrType, CategoricalDomain, Column, Relation, Schema, Value};
use rand::{rngs::StdRng, Rng, SeedableRng};

/// Configuration for [`BasketGenerator`].
#[derive(Debug, Clone)]
pub struct BasketConfig {
    /// Number of tuples.
    pub tuples: usize,
    /// Number of departments (and of home aisles).
    pub depts: usize,
    /// Fraction of rows shelved off their home aisle, in `[0, 1)`.
    pub noise_rate: f64,
    /// RNG seed for exact reproducibility.
    pub seed: u64,
}

impl Default for BasketConfig {
    fn default() -> Self {
        BasketConfig { tuples: 12_000, depts: 16, noise_rate: 0.05, seed: 0xB00C }
    }
}

/// Generator of `(sku, dept, aisle)` relations with a planted
/// `dept ⇒ aisle` rule of confidence ≈ `1 − noise_rate`.
#[derive(Debug, Clone)]
pub struct BasketGenerator {
    config: BasketConfig,
}

impl BasketGenerator {
    /// Generator for `config`.
    ///
    /// # Panics
    ///
    /// Panics when `depts == 0` or `noise_rate` is outside `[0, 1)`.
    #[must_use]
    pub fn new(config: BasketConfig) -> Self {
        assert!(config.depts > 0, "need at least one department");
        assert!((0.0..1.0).contains(&config.noise_rate), "noise_rate is a fraction below 1");
        BasketGenerator { config }
    }

    /// The aisle domain (aisle codes `100 .. 100 + depts`).
    #[must_use]
    pub fn aisle_domain(&self) -> CategoricalDomain {
        CategoricalDomain::new(
            (0..self.config.depts as i64).map(|d| Value::Int(100 + d)).collect::<Vec<_>>(),
        )
        .expect("aisle codes are distinct")
    }

    /// The dept domain (`0 .. depts`).
    #[must_use]
    pub fn dept_domain(&self) -> CategoricalDomain {
        CategoricalDomain::new((0..self.config.depts as i64).map(Value::Int).collect::<Vec<_>>())
            .expect("departments are distinct")
    }

    /// Home aisle of `dept` (the planted rule's consequent).
    #[must_use]
    pub fn home_aisle(&self, dept: i64) -> i64 {
        100 + dept
    }

    /// Generate the relation: schema
    /// `(sku INTEGER KEY, dept CATEGORICAL, aisle CATEGORICAL)`, built
    /// as three flat integer columns with no intermediate row vectors.
    #[must_use]
    pub fn generate(&self) -> Relation {
        let schema = Schema::builder()
            .key_attr("sku", AttrType::Integer)
            .categorical_attr("dept", AttrType::Integer)
            .categorical_attr("aisle", AttrType::Integer)
            .build()
            .expect("static schema is valid");
        let mut rng = StdRng::seed_from_u64(self.config.seed);
        let depts = self.config.depts as i64;
        let n = self.config.tuples;
        let mut skus = Vec::with_capacity(n);
        let mut dept_col = Vec::with_capacity(n);
        let mut aisle_col = Vec::with_capacity(n);
        for i in 0..n as i64 {
            let dept = rng.gen_range(0..depts);
            let aisle = if rng.gen_bool(self.config.noise_rate) {
                // Off-aisle placement: any aisle but the home one.
                let offset = rng.gen_range(1..depts.max(2));
                100 + (dept + offset) % depts
            } else {
                self.home_aisle(dept)
            };
            skus.push(i);
            dept_col.push(dept);
            aisle_col.push(aisle);
        }
        Relation::from_columns(
            schema,
            vec![Column::Int(skus), Column::Int(dept_col), Column::Int(aisle_col)],
        )
        .expect("generated columns match the static schema")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn planted_rule_has_expected_confidence() {
        let gen = BasketGenerator::new(BasketConfig {
            tuples: 20_000,
            depts: 8,
            noise_rate: 0.1,
            seed: 7,
        });
        let rel = gen.generate();
        assert_eq!(rel.len(), 20_000);
        // Measure dept=0 ⇒ aisle=100 confidence directly.
        let (mut ant, mut full) = (0u64, 0u64);
        for (dept, aisle) in rel.column_iter(1).zip(rel.column_iter(2)) {
            if dept == Value::Int(0) {
                ant += 1;
                if aisle == Value::Int(100) {
                    full += 1;
                }
            }
        }
        let conf = full as f64 / ant as f64;
        assert!((conf - 0.9).abs() < 0.03, "confidence {conf}");
    }

    #[test]
    fn zero_noise_is_a_functional_dependency() {
        let gen = BasketGenerator::new(BasketConfig {
            tuples: 1_000,
            depts: 4,
            noise_rate: 0.0,
            seed: 1,
        });
        let rel = gen.generate();
        for (dept, aisle) in rel.column_iter(1).zip(rel.column_iter(2)) {
            assert_eq!(aisle, Value::Int(gen.home_aisle(dept.as_int().unwrap())));
        }
    }

    #[test]
    fn noise_never_lands_on_the_home_aisle() {
        let gen = BasketGenerator::new(BasketConfig {
            tuples: 5_000,
            depts: 6,
            noise_rate: 0.5,
            seed: 3,
        });
        let rel = gen.generate();
        // Off-aisle rows exist and every aisle is in the domain.
        let domain = gen.aisle_domain();
        let mut off = 0;
        for (dept, aisle) in rel.column_iter(1).zip(rel.column_iter(2)) {
            assert!(domain.index_of(&aisle).is_ok());
            if aisle != Value::Int(gen.home_aisle(dept.as_int().unwrap())) {
                off += 1;
            }
        }
        let frac = off as f64 / rel.len() as f64;
        assert!((frac - 0.5).abs() < 0.05, "off-aisle fraction {frac}");
    }

    #[test]
    fn generation_is_seed_deterministic() {
        let config = BasketConfig { tuples: 500, ..Default::default() };
        let a = BasketGenerator::new(config.clone()).generate();
        let b = BasketGenerator::new(config).generate();
        assert_eq!(b, a);
    }

    #[test]
    fn domains_match_generated_values() {
        let gen = BasketGenerator::new(BasketConfig::default());
        let rel = gen.generate();
        let aisles = gen.aisle_domain();
        let depts = gen.dept_domain();
        for (dept, aisle) in rel.column_iter(1).zip(rel.column_iter(2)) {
            assert!(depts.index_of(&dept).is_ok());
            assert!(aisles.index_of(&aisle).is_ok());
        }
    }

    #[test]
    #[should_panic(expected = "fraction below 1")]
    fn rejects_full_noise() {
        let _ = BasketGenerator::new(BasketConfig { noise_rate: 1.0, ..Default::default() });
    }
}
