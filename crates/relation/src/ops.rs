//! Relational operators: projection, sampling, sorting, shuffling and
//! union.
//!
//! These are the building blocks of the adversary model of Section
//! 2.3 — horizontal partitioning (A1) is a row sample, vertical
//! partitioning (A5) is a projection, re-sorting (A4) is a sort or
//! shuffle, subset addition (A2) is a union.
//!
//! All stochastic operators take an explicit seed and use a local
//! SplitMix64 generator, keeping every experiment reproducible without
//! pulling an RNG dependency into the substrate.

use crate::{Relation, RelationError};

/// Minimal deterministic PRNG (SplitMix64, public-domain algorithm).
///
/// Statistical quality is more than sufficient for sampling and
/// shuffling; it is *not* a cryptographic generator and is never used
/// for key material.
#[derive(Debug, Clone)]
pub struct SplitMix64 {
    state: u64,
}

impl SplitMix64 {
    /// Generator seeded with `seed`.
    #[must_use]
    pub fn new(seed: u64) -> Self {
        SplitMix64 { state: seed }
    }

    /// Next 64-bit output.
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform value in `[0, bound)`. Panics if `bound == 0`.
    pub fn below(&mut self, bound: u64) -> u64 {
        assert!(bound > 0, "bound must be positive");
        // Modulo bias is negligible for the bounds used here (≤ 2^32).
        self.next_u64() % bound
    }

    /// Uniform float in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// Keep each row independently with probability `keep_fraction`
/// (Bernoulli sampling) — the "randomly select and use a subset" of
/// attack A1 and of the paper's own experimental setup.
///
/// # Panics
///
/// Panics when `keep_fraction` is outside `[0, 1]`.
#[must_use]
pub fn sample_bernoulli(rel: &Relation, keep_fraction: f64, seed: u64) -> Relation {
    assert!(
        (0.0..=1.0).contains(&keep_fraction),
        "keep_fraction must be within [0,1], got {keep_fraction}"
    );
    let mut rng = SplitMix64::new(seed);
    let rows: Vec<usize> = (0..rel.len()).filter(|_| rng.unit() < keep_fraction).collect();
    rel.gather(&rows)
}

/// Keep exactly `count` rows chosen uniformly without replacement
/// (reservoir-free: permute indices and truncate).
#[must_use]
pub fn sample_exact(rel: &Relation, count: usize, seed: u64) -> Relation {
    let count = count.min(rel.len());
    let mut indices: Vec<usize> = (0..rel.len()).collect();
    let mut rng = SplitMix64::new(seed);
    // Partial Fisher–Yates: the first `count` positions are a uniform
    // sample after `count` swap steps.
    for i in 0..count {
        let j = i + rng.below((rel.len() - i) as u64) as usize;
        indices.swap(i, j);
    }
    indices.truncate(count);
    indices.sort_unstable(); // preserve original row order
    rel.gather(&indices)
}

/// Vertical partition: project onto `indices`, with `indices[new_key]`
/// acting as the projected relation's primary key.
///
/// Columns are carried over wholesale (no per-row work). When the new
/// key is not unique in the projection, duplicate-keyed rows are
/// retained (`first occurrence` indexing) unless
/// `drop_duplicate_keys` is set, which models the paper's observation
/// that a partition whose remaining attribute "can act as a primary
/// key … results in no duplicates-related data loss" — and conversely
/// that other partitions do lose duplicate rows.
///
/// # Errors
///
/// Invalid projections (empty, repeated or out-of-range indices).
pub fn project(
    rel: &Relation,
    indices: &[usize],
    new_key: usize,
    drop_duplicate_keys: bool,
) -> Result<Relation, RelationError> {
    let schema = rel.schema().project(indices, new_key)?;
    let columns: Vec<crate::Column> = indices.iter().map(|&i| rel.column(i).to_column()).collect();
    let projected = Relation::from_columns(schema, columns)?;
    if !drop_duplicate_keys {
        return Ok(projected);
    }
    // Keep each key's first occurrence only (what repeated `push()`
    // historically produced).
    let rows: Vec<usize> = (0..projected.len())
        .filter(|&row| {
            let key = projected.value(row, projected.schema().key_index()).expect("row in range");
            projected.find_by_key(&key) == Some(row)
        })
        .collect();
    Ok(projected.gather(&rows))
}

/// Sort rows by attribute `attr_idx` (ascending when `ascending`),
/// stably, via an index sort over the column.
#[must_use]
pub fn sort_by_attr(rel: &Relation, attr_idx: usize, ascending: bool) -> Relation {
    let mut order: Vec<usize> = (0..rel.len()).collect();
    match rel.column(attr_idx) {
        crate::ColumnView::Int(xs) => order.sort_by(|&a, &b| {
            let ord = xs[a].cmp(&xs[b]);
            if ascending {
                ord
            } else {
                ord.reverse()
            }
        }),
        crate::ColumnView::Text { codes, dict } => order.sort_by(|&a, &b| {
            let ord = dict.get(codes[a]).cmp(dict.get(codes[b]));
            if ascending {
                ord
            } else {
                ord.reverse()
            }
        }),
    }
    rel.gather(&order)
}

/// Uniformly permute rows (attack A4's re-shuffling).
#[must_use]
pub fn shuffle(rel: &Relation, seed: u64) -> Relation {
    let mut rng = SplitMix64::new(seed);
    let mut order: Vec<usize> = (0..rel.len()).collect();
    // Fisher–Yates (the same swap sequence the row store applied to
    // its tuple vector, so per-seed outputs are unchanged).
    for i in (1..order.len()).rev() {
        let j = rng.below((i + 1) as u64) as usize;
        order.swap(i, j);
    }
    rel.gather(&order)
}

/// Concatenate `b`'s rows after `a`'s (attack A2's subset addition).
/// Key duplicates across the two inputs are tolerated.
///
/// # Errors
///
/// [`RelationError::InvalidSchema`] when schemas differ.
pub fn union(a: &Relation, b: &Relation) -> Result<Relation, RelationError> {
    if a.schema() != b.schema() {
        return Err(RelationError::InvalidSchema("union requires identical schemas".into()));
    }
    let mut out = a.clone();
    out.append(b)?;
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{AttrType, Schema, Value};

    fn sample_relation(n: i64) -> Relation {
        let schema = Schema::builder()
            .key_attr("k", AttrType::Integer)
            .categorical_attr("a", AttrType::Integer)
            .build()
            .unwrap();
        let mut rel = Relation::with_capacity(schema, n as usize);
        for i in 0..n {
            rel.push(vec![Value::Int(i), Value::Int(i % 7)]).unwrap();
        }
        rel
    }

    #[test]
    fn bernoulli_sample_hits_expected_fraction() {
        let rel = sample_relation(10_000);
        let kept = sample_bernoulli(&rel, 0.3, 42);
        let frac = kept.len() as f64 / rel.len() as f64;
        assert!((0.27..0.33).contains(&frac), "frac={frac}");
    }

    #[test]
    fn bernoulli_edge_fractions() {
        let rel = sample_relation(100);
        assert_eq!(sample_bernoulli(&rel, 0.0, 1).len(), 0);
        assert_eq!(sample_bernoulli(&rel, 1.0, 1).len(), 100);
    }

    #[test]
    fn bernoulli_is_seed_deterministic() {
        let rel = sample_relation(500);
        let a = sample_bernoulli(&rel, 0.5, 7);
        let b = sample_bernoulli(&rel, 0.5, 7);
        assert_eq!(a.len(), b.len());
        assert_eq!(b, a);
    }

    #[test]
    fn exact_sample_has_exact_size_and_no_duplicates() {
        let rel = sample_relation(100);
        let kept = sample_exact(&rel, 37, 3);
        assert_eq!(kept.len(), 37);
        assert_eq!(kept.distinct_keys(), 37);
    }

    #[test]
    fn exact_sample_caps_at_relation_size() {
        let rel = sample_relation(10);
        assert_eq!(sample_exact(&rel, 99, 3).len(), 10);
    }

    #[test]
    fn shuffle_permutes_but_preserves_multiset() {
        let rel = sample_relation(200);
        let shuffled = shuffle(&rel, 11);
        assert_eq!(shuffled.len(), rel.len());
        let mut orig: Vec<i64> = rel.column_iter(0).map(|v| v.as_int().unwrap()).collect();
        let mut perm: Vec<i64> = shuffled.column_iter(0).map(|v| v.as_int().unwrap()).collect();
        assert_ne!(orig, perm, "shuffle should change order");
        orig.sort_unstable();
        perm.sort_unstable();
        assert_eq!(orig, perm);
    }

    #[test]
    fn shuffle_rebuilds_index() {
        let rel = sample_relation(50);
        let shuffled = shuffle(&rel, 5);
        for key in 0..50 {
            let row = shuffled.find_by_key(&Value::Int(key)).unwrap();
            assert_eq!(shuffled.value(row, 0).unwrap(), Value::Int(key));
        }
    }

    #[test]
    fn sort_orders_rows() {
        let rel = shuffle(&sample_relation(50), 9);
        let sorted = sort_by_attr(&rel, 0, true);
        let keys: Vec<i64> = sorted.column_iter(0).map(|v| v.as_int().unwrap()).collect();
        assert!(keys.windows(2).all(|w| w[0] <= w[1]));
        let desc = sort_by_attr(&rel, 0, false);
        let keys: Vec<i64> = desc.column_iter(0).map(|v| v.as_int().unwrap()).collect();
        assert!(keys.windows(2).all(|w| w[0] >= w[1]));
    }

    #[test]
    fn project_drops_and_rekeys() {
        let rel = sample_relation(20);
        // Project onto (a) alone, keyed by a; with dedup only 7 rows
        // survive (a has 7 distinct values).
        let p = project(&rel, &[1], 0, true).unwrap();
        assert_eq!(p.len(), 7);
        let p = project(&rel, &[1], 0, false).unwrap();
        assert_eq!(p.len(), 20);
        assert_eq!(p.distinct_keys(), 7);
    }

    #[test]
    fn union_concatenates() {
        let a = sample_relation(10);
        let b = sample_relation(5);
        let u = union(&a, &b).unwrap();
        assert_eq!(u.len(), 15);
        // Keys 0..5 duplicated; first occurrence (from `a`) wins.
        assert_eq!(u.distinct_keys(), 10);
    }

    #[test]
    fn union_requires_same_schema() {
        let a = sample_relation(3);
        let other = Schema::builder()
            .key_attr("x", AttrType::Text)
            .categorical_attr("y", AttrType::Text)
            .build()
            .unwrap();
        let b = Relation::new(other);
        assert!(union(&a, &b).is_err());
    }

    #[test]
    fn splitmix_unit_is_in_range_and_varied() {
        let mut rng = SplitMix64::new(1);
        let xs: Vec<f64> = (0..1000).map(|_| rng.unit()).collect();
        assert!(xs.iter().all(|&x| (0.0..1.0).contains(&x)));
        let mean = xs.iter().sum::<f64>() / xs.len() as f64;
        assert!((0.45..0.55).contains(&mean), "mean={mean}");
    }
}
