//! Workload inputs, all derived from the run's seed: a
//! `SalesGenerator`-style 3-column relation (integer visit key,
//! `item_nbr` over a 400-value Zipf domain, integer store), the key
//! material, and the in-process references the oracle compares the
//! program's outputs with.

use catmark_core::keyfile::TenantKeyRegistry;
use catmark_core::{detect, MarkSession, Watermark, WatermarkSpec};
use catmark_datagen::{ItemScanConfig, SalesGenerator, Zipf};
use catmark_relation::csv::write_csv;
use catmark_relation::{AttrType, CategoricalDomain, Column, Relation, Schema};
use rand::{rngs::StdRng, Rng, SeedableRng};

/// Every workload's key: the paper's default fit ratio and mark length.
pub const E: u64 = 60;
/// Watermark bits.
pub const WM_LEN: usize = 10;
/// Embedded positions: two per mark bit. The smallest relations a
/// workload sends (2k rows, ~33 fit tuples) then observe every bit on
/// most draws; [`marked`] redraws the rest.
pub const WM_DATA_LEN: usize = 20;
/// Distinct `item_nbr` values.
pub const ITEMS: usize = 400;
/// Distinct stores.
const STORES: i64 = 50;

/// The key column and the marked column.
pub const KEY_ATTR: &str = "visit_nbr";
/// The marked categorical column.
pub const ATTR: &str = "item_nbr";

/// SplitMix64 step: decorrelates the seeds of a run's relations.
pub fn mix(a: u64, b: u64) -> u64 {
    let mut z = a ^ b.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The `item_nbr` domain.
pub fn domain() -> CategoricalDomain {
    SalesGenerator::new(ItemScanConfig { items: ITEMS, ..Default::default() }).item_domain()
}

/// The relation's schema, as `catmark` infers it from the CSV header
/// when `item_nbr` is the marked attribute.
pub fn schema() -> Schema {
    Schema::builder()
        .key_attr(KEY_ATTR, AttrType::Integer)
        .categorical_attr(ATTR, AttrType::Integer)
        .attr("store", AttrType::Integer)
        .build()
        .expect("static schema is valid")
}

/// `rows` tuples drawn from `seed`.
pub fn relation(seed: u64, rows: usize) -> Relation {
    let mut rng = StdRng::seed_from_u64(seed);
    let zipf = Zipf::new(ITEMS, 1.0);
    let items: Vec<i64> =
        domain().values().iter().map(|v| v.as_int().expect("product codes are integers")).collect();
    let mut visits = Vec::with_capacity(rows);
    let mut codes = Vec::with_capacity(rows);
    let mut stores = Vec::with_capacity(rows);
    let mut next_visit: i64 = 1_000_000;
    for _ in 0..rows {
        next_visit += 1 + rng.gen_range(0..97);
        visits.push(next_visit);
        codes.push(items[zipf.sample(&mut rng)]);
        stores.push(1 + rng.gen_range(0..STORES));
    }
    Relation::from_columns(
        schema(),
        vec![Column::Int(visits), Column::Int(codes), Column::Int(stores)],
    )
    .expect("generated columns match the schema")
}

/// The key for `master`.
pub fn spec(master: &str) -> WatermarkSpec {
    WatermarkSpec::builder(domain())
        .master_key(master)
        .e(E)
        .wm_len(WM_LEN)
        .wm_data_len(WM_DATA_LEN)
        .build()
        .expect("static key parameters are valid")
}

/// A one-tenant registry file holding `spec` as key `production`.
pub fn registry_file(tenant: &str, spec: &WatermarkSpec) -> String {
    let mut registry = TenantKeyRegistry::new(tenant).expect("tenant names are static");
    registry.insert("production", spec.clone()).expect("one key per registry");
    registry.to_registry_file()
}

/// The run's watermark: ten bits drawn from the seed, never all zero.
pub fn mark(seed: u64) -> Watermark {
    Watermark::from_u64((mix(seed, 0x3A4B) >> 54) | 1, WM_LEN)
}

/// A session bound to the workload's columns.
pub fn session(spec: &WatermarkSpec, rel: &Relation) -> MarkSession {
    MarkSession::builder(spec.clone())
        .key_column(KEY_ATTR)
        .target_column(ATTR)
        .bind(rel)
        .expect("generated relations carry both columns")
}

/// `rel` rendered as `catmark` writes CSV.
pub fn csv(rel: &Relation) -> Vec<u8> {
    let mut out = Vec::new();
    write_csv(rel, &mut out).expect("writing to a Vec never fails");
    out
}

/// A base relation and its reference marked copy.
pub struct Marked {
    /// The unmarked relation.
    pub base: Relation,
    /// The base as CSV.
    pub base_csv: Vec<u8>,
    /// The reference marked relation.
    pub marked: Relation,
    /// The reference marked CSV.
    pub marked_csv: Vec<u8>,
}

/// A relation of `rows` tuples from `seed` whose marked copy decodes
/// back to `mark` with a significant verdict. A draw on which the
/// blind decoder would miss a bit (too few fit tuples landing on it)
/// is replaced by the next draw of the same seed, so every operation
/// of the workload succeeds and the inputs stay a function of the seed.
pub fn marked(seed: u64, rows: usize, spec: &WatermarkSpec, mark: &Watermark) -> Marked {
    for draw in 0.. {
        let base = relation(mix(seed, draw), rows);
        let s = session(spec, &base);
        let mut marked = base.clone();
        s.embed(&mut marked, mark).expect("reference embed");
        let decoded = s.decode(&marked).expect("reference decode").watermark;
        if decoded == *mark && detect(&decoded, mark).is_significant(0.01) {
            let (base_csv, marked_csv) = (csv(&base), csv(&marked));
            return Marked { base, base_csv, marked, marked_csv };
        }
    }
    unreachable!("the draw loop only ends by returning")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_data() {
        assert_eq!(csv(&relation(7, 500)), csv(&relation(7, 500)));
        let m = mark(7);
        let spec = spec("test-master");
        let (a, b) = (marked(7, 2_000, &spec, &m), marked(7, 2_000, &spec, &m));
        assert_eq!(a.base_csv, b.base_csv);
        assert_eq!(a.marked_csv, b.marked_csv);
    }

    #[test]
    fn different_seeds_differ() {
        assert_ne!(csv(&relation(1, 500)), csv(&relation(2, 500)));
        assert_ne!(mix(1, 0), mix(2, 0));
        assert_ne!(mark(1), mark(3));
    }

    #[test]
    fn generated_data_has_the_promised_shape() {
        let rel = relation(11, 4_000);
        assert_eq!(rel.len(), 4_000);
        assert_eq!(rel.distinct_keys(), 4_000, "visit numbers are unique");
        let dom = domain();
        assert_eq!(dom.len(), ITEMS);
        assert!(rel.column_iter(1).all(|v| dom.index_of(&v).is_ok()));
        // The header and types survive catmark's schema inference.
        let text = String::from_utf8(csv(&rel)).unwrap();
        let inferred = catmark_relation::csv::read_csv_inferred(&text, &[ATTR]).unwrap();
        assert_eq!(inferred.schema(), rel.schema());
    }

    #[test]
    fn marked_copies_decode_to_the_mark() {
        let spec = spec("test-master");
        for seed in 0..8 {
            let m = mark(seed);
            let r = marked(seed, 2_000, &spec, &m);
            let s = session(&spec, &r.marked);
            assert_eq!(s.decode(&r.marked).unwrap().watermark, m);
            assert_ne!(r.base_csv, r.marked_csv);
        }
    }
}
