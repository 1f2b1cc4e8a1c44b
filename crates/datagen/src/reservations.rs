//! Airline-reservation workloads — the paper's second motivating
//! scenario ("online B2B interactions (e.g. airline reservation and
//! scheduling portals) in which data is made available for direct,
//! interactive use") and the source of its running examples
//! (departure cities, airline names).
//!
//! Schema: `booking_id INTEGER PRIMARY KEY, departure_city TEXT
//! CATEGORICAL, airline TEXT CATEGORICAL` — two *text* categorical
//! attributes, exercising the code paths the integer-only `ItemScan`
//! workload does not.

use catmark_relation::{AttrType, CategoricalDomain, Column, Dictionary, Relation, Schema};
use rand::{rngs::StdRng, Rng, SeedableRng};

use crate::domains;
use crate::zipf::Zipf;

/// Configuration for [`ReservationsGenerator`].
#[derive(Debug, Clone)]
pub struct ReservationsConfig {
    /// Number of bookings.
    pub tuples: usize,
    /// Zipf exponent of city popularity (hubs dominate).
    pub city_skew: f64,
    /// Zipf exponent of airline market share.
    pub airline_skew: f64,
    /// RNG seed.
    pub seed: u64,
}

impl Default for ReservationsConfig {
    fn default() -> Self {
        ReservationsConfig { tuples: 6_000, city_skew: 0.9, airline_skew: 0.7, seed: 0xA1B2 }
    }
}

/// Generator of synthetic reservation relations.
#[derive(Debug, Clone)]
pub struct ReservationsGenerator {
    config: ReservationsConfig,
}

impl ReservationsGenerator {
    /// Generator for `config`.
    #[must_use]
    pub fn new(config: ReservationsConfig) -> Self {
        ReservationsGenerator { config }
    }

    /// The departure-city domain.
    #[must_use]
    pub fn city_domain(&self) -> CategoricalDomain {
        domains::cities()
    }

    /// The airline domain.
    #[must_use]
    pub fn airline_domain(&self) -> CategoricalDomain {
        domains::airlines()
    }

    /// The generated schema.
    #[must_use]
    pub fn schema(&self) -> Schema {
        Schema::builder()
            .key_attr("booking_id", AttrType::Integer)
            .categorical_attr("departure_city", AttrType::Text)
            .categorical_attr("airline", AttrType::Text)
            .build()
            .expect("static schema is valid")
    }

    /// Generate the relation, building columns directly: a flat `i64`
    /// key column and two text columns whose dictionaries are seeded
    /// from the domains so each Zipf draw *is* the stored code.
    #[must_use]
    pub fn generate(&self) -> Relation {
        let mut rng = StdRng::seed_from_u64(self.config.seed);
        let cities = self.city_domain();
        let airlines = self.airline_domain();
        let city_zipf = Zipf::new(cities.len(), self.config.city_skew);
        let airline_zipf = Zipf::new(airlines.len(), self.config.airline_skew);
        let domain_dict = |domain: &CategoricalDomain| {
            let mut dict = Dictionary::new();
            for v in domain.values() {
                dict.intern(v.as_text().expect("reservation domains are text"));
            }
            dict
        };
        let n = self.config.tuples;
        let mut bookings = Vec::with_capacity(n);
        let mut city_codes = Vec::with_capacity(n);
        let mut airline_codes = Vec::with_capacity(n);
        let mut booking: i64 = 7_000_000;
        for _ in 0..n {
            booking += 1 + rng.gen_range(0..13);
            bookings.push(booking);
            city_codes.push(city_zipf.sample(&mut rng) as u32);
            airline_codes.push(airline_zipf.sample(&mut rng) as u32);
        }
        Relation::from_columns(
            self.schema(),
            vec![
                Column::Int(bookings),
                Column::Text { codes: city_codes, dict: domain_dict(&cities) },
                Column::Text { codes: airline_codes, dict: domain_dict(&airlines) },
            ],
        )
        .expect("generated columns match the static schema")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use catmark_relation::FrequencyHistogram;

    #[test]
    fn generates_requested_shape() {
        let gen =
            ReservationsGenerator::new(ReservationsConfig { tuples: 1_000, ..Default::default() });
        let rel = gen.generate();
        assert_eq!(rel.len(), 1_000);
        assert_eq!(rel.schema().arity(), 3);
        assert_eq!(rel.distinct_keys(), 1_000);
        assert_eq!(rel.schema().categorical_indices(), vec![1, 2]);
    }

    #[test]
    fn values_stay_in_domains() {
        let gen = ReservationsGenerator::new(ReservationsConfig::default());
        let rel = gen.generate();
        let cities = gen.city_domain();
        let airlines = gen.airline_domain();
        for (city, airline) in rel.column_iter(1).zip(rel.column_iter(2)).take(200) {
            assert!(cities.index_of(&city).is_ok());
            assert!(airlines.index_of(&airline).is_ok());
        }
    }

    #[test]
    fn hub_cities_dominate() {
        let gen =
            ReservationsGenerator::new(ReservationsConfig { tuples: 20_000, ..Default::default() });
        let rel = gen.generate();
        let hist = FrequencyHistogram::from_relation(&rel, 1, &gen.city_domain()).unwrap();
        let ranked = hist.rank_by_frequency();
        assert!(hist.frequency(ranked[0]) > 3.0 * hist.frequency(ranked[20]));
    }

    #[test]
    fn is_seed_deterministic() {
        let cfg = ReservationsConfig { tuples: 300, seed: 5, ..Default::default() };
        let a = ReservationsGenerator::new(cfg.clone()).generate();
        let b = ReservationsGenerator::new(cfg).generate();
        assert_eq!(b, a);
    }
}
