//! Synthetic `ItemScan`-style sales relations.
//!
//! [`SalesGenerator`] reproduces the shape of the paper's experimental
//! relation: a `Visit_Nbr` integer primary key and an `Item_Nbr`
//! categorical attribute drawn from a finite product-code set with a
//! Zipf-skewed popularity profile. An optional `Store_City` attribute
//! provides a second categorical column for the multi-attribute
//! embedding demos of Section 3.3.

use catmark_relation::{AttrType, CategoricalDomain, Column, Dictionary, Relation, Schema};
use rand::{rngs::StdRng, Rng, SeedableRng};

use crate::domains;
use crate::zipf::Zipf;

/// Configuration for [`SalesGenerator`].
#[derive(Debug, Clone)]
pub struct ItemScanConfig {
    /// Number of tuples `N`. The paper's figures used subsets around
    /// 6 000 tuples (its analysis examples use N = 6000 explicitly);
    /// up to 141 000 were drawn from the original database.
    pub tuples: usize,
    /// Number of distinct products `nA`.
    pub items: usize,
    /// Zipf exponent of item popularity (0 = uniform, ~1 = typical
    /// retail skew).
    pub zipf_exponent: f64,
    /// Include a `store_city` categorical attribute.
    pub with_city: bool,
    /// RNG seed for exact reproducibility.
    pub seed: u64,
}

impl Default for ItemScanConfig {
    fn default() -> Self {
        ItemScanConfig {
            tuples: 6_000,
            items: 1_000,
            zipf_exponent: 1.0,
            with_city: false,
            seed: 0xCAFE,
        }
    }
}

/// Generator of synthetic sales relations.
#[derive(Debug, Clone)]
pub struct SalesGenerator {
    config: ItemScanConfig,
}

impl SalesGenerator {
    /// Generator for `config`.
    #[must_use]
    pub fn new(config: ItemScanConfig) -> Self {
        SalesGenerator { config }
    }

    /// The `item_nbr` domain this generator draws from (product codes
    /// starting at 10 000, matching typical retail numbering).
    #[must_use]
    pub fn item_domain(&self) -> CategoricalDomain {
        domains::product_codes(self.config.items, 10_000)
    }

    /// The `store_city` domain used when `with_city` is set.
    #[must_use]
    pub fn city_domain(&self) -> CategoricalDomain {
        domains::cities()
    }

    /// The generated schema: `visit_nbr` key, `item_nbr` categorical,
    /// optionally `store_city` categorical.
    #[must_use]
    pub fn schema(&self) -> Schema {
        let b = Schema::builder()
            .key_attr("visit_nbr", AttrType::Integer)
            .categorical_attr("item_nbr", AttrType::Integer);
        let b = if self.config.with_city {
            b.categorical_attr("store_city", AttrType::Text)
        } else {
            b
        };
        b.build().expect("static schema is valid")
    }

    /// Generate the relation, building columns directly (no
    /// intermediate row vectors): flat `i64` key/item columns and,
    /// when enabled, a city column whose dictionary is seeded from the
    /// domain so each Zipf draw *is* the stored code.
    ///
    /// Visit numbers are unique but non-sequential (drawn from a wide
    /// integer space), mimicking production surrogate keys; item
    /// numbers follow the configured Zipf profile; cities, when
    /// present, follow a milder skew.
    #[must_use]
    pub fn generate(&self) -> Relation {
        let mut rng = StdRng::seed_from_u64(self.config.seed);
        let item_zipf = Zipf::new(self.config.items, self.config.zipf_exponent);
        let city_domain = self.city_domain();
        let city_zipf = Zipf::new(city_domain.len(), 0.5);
        let item_domain = self.item_domain();
        let item_values: Vec<i64> = item_domain
            .values()
            .iter()
            .map(|v| v.as_int().expect("product codes are integers"))
            .collect();
        let n = self.config.tuples;
        let mut visits = Vec::with_capacity(n);
        let mut items = Vec::with_capacity(n);
        let mut city_dict = Dictionary::new();
        for city in city_domain.values() {
            city_dict.intern(city.as_text().expect("cities are text"));
        }
        let mut city_codes = Vec::with_capacity(if self.config.with_city { n } else { 0 });
        let mut next_visit: i64 = 1_000_000;
        for _ in 0..n {
            // Strictly increasing with random gaps: unique by
            // construction, non-trivially distributed for hashing.
            next_visit += 1 + rng.gen_range(0..97);
            visits.push(next_visit);
            items.push(item_values[item_zipf.sample(&mut rng)]);
            if self.config.with_city {
                // The dictionary was seeded in domain order, so the
                // sampled domain index is the stored code.
                city_codes.push(city_zipf.sample(&mut rng) as u32);
            }
        }
        let mut columns = vec![Column::Int(visits), Column::Int(items)];
        if self.config.with_city {
            columns.push(Column::Text { codes: city_codes, dict: city_dict });
        }
        Relation::from_columns(self.schema(), columns)
            .expect("generated columns match the static schema")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use catmark_relation::FrequencyHistogram;

    #[test]
    fn generates_requested_size_with_unique_keys() {
        let gen = SalesGenerator::new(ItemScanConfig { tuples: 500, ..Default::default() });
        let rel = gen.generate();
        assert_eq!(rel.len(), 500);
        assert_eq!(rel.distinct_keys(), 500);
    }

    #[test]
    fn is_seed_deterministic() {
        let cfg = ItemScanConfig { tuples: 200, seed: 7, ..Default::default() };
        let a = SalesGenerator::new(cfg.clone()).generate();
        let b = SalesGenerator::new(cfg).generate();
        assert_eq!(b, a);
    }

    #[test]
    fn different_seeds_differ() {
        let a = SalesGenerator::new(ItemScanConfig { tuples: 200, seed: 1, ..Default::default() })
            .generate();
        let b = SalesGenerator::new(ItemScanConfig { tuples: 200, seed: 2, ..Default::default() })
            .generate();
        assert_ne!(a, b);
    }

    #[test]
    fn items_stay_in_domain() {
        let gen =
            SalesGenerator::new(ItemScanConfig { tuples: 300, items: 50, ..Default::default() });
        let rel = gen.generate();
        let domain = gen.item_domain();
        for v in rel.column_iter(1) {
            assert!(domain.index_of(&v).is_ok());
        }
    }

    #[test]
    fn zipf_skew_shows_in_frequencies() {
        let gen = SalesGenerator::new(ItemScanConfig {
            tuples: 20_000,
            items: 100,
            zipf_exponent: 1.0,
            ..Default::default()
        });
        let rel = gen.generate();
        let hist = FrequencyHistogram::from_relation(&rel, 1, &gen.item_domain()).unwrap();
        // Rank-1 item should clearly dominate the median item.
        let ranked = hist.rank_by_frequency();
        let top = hist.frequency(ranked[0]);
        let median = hist.frequency(ranked[50]);
        assert!(top > 5.0 * median, "top={top}, median={median}");
    }

    #[test]
    fn city_column_is_optional() {
        let without = SalesGenerator::new(ItemScanConfig { tuples: 10, ..Default::default() });
        assert_eq!(without.schema().arity(), 2);
        let with = SalesGenerator::new(ItemScanConfig {
            tuples: 10,
            with_city: true,
            ..Default::default()
        });
        assert_eq!(with.schema().arity(), 3);
        let rel = with.generate();
        assert_eq!(rel.column_iter(2).count(), 10);
    }
}
