//! A3 — subset alteration.
//!
//! "Altering a subset of the items in the original data set such that
//! there is still value associated with the resulting set." The paper
//! stresses that in the categorical world alteration is *expensive* —
//! every change is significant — and that without the keys Mallory's
//! only option is a *random* attack (Section 4.4); Figures 4–6 sweep
//! exactly the attack implemented here.

use catmark_relation::ops::SplitMix64;
use catmark_relation::{CategoricalDomain, ColumnMut, Relation, RelationError};

/// Replace the `attr` value of `fraction · N` uniformly chosen tuples
/// with a uniformly chosen *different* value observed in the column
/// (Mallory knows the data, not the domain's secret indexing).
///
/// Runs directly on the column's typed storage: integer columns swap
/// `i64`s, text columns swap dictionary codes — no per-row `Value`
/// materialization. Replacement draws index the observed values in
/// sorted order, so per-seed outputs match the historical row-store
/// implementation exactly.
///
/// # Errors
///
/// Unknown or primary-key attribute, or a column with fewer than two
/// distinct values (nothing to alter to).
///
/// # Panics
///
/// Panics when `fraction` is outside `[0, 1]`.
pub fn random_alteration(
    rel: &Relation,
    attr: &str,
    fraction: f64,
    seed: u64,
) -> Result<Relation, RelationError> {
    assert!((0.0..=1.0).contains(&fraction), "fraction must be in [0,1]");
    let attr_idx = rel.schema().index_of(attr)?;
    let observed = CategoricalDomain::from_column(rel, attr_idx)?;
    let mut out = rel.clone();
    let mut rng = SplitMix64::new(seed);
    let targets = pick_rows(rel.len(), fraction, &mut rng);
    match out.column_mut(attr_idx)? {
        ColumnMut::Int(xs) => {
            let sorted: Vec<i64> = observed
                .values()
                .iter()
                .map(|v| v.as_int().expect("observed domain of an integer column"))
                .collect();
            for row in targets {
                xs[row] = random_other(&sorted, &xs[row], &mut rng);
            }
        }
        ColumnMut::Text(mut tc) => {
            // Observed values in the domain's sorted order, as codes
            // (every observed string is already interned).
            let sorted: Vec<u32> = observed
                .values()
                .iter()
                .map(|v| {
                    let s = v.as_text().expect("observed domain of a text column");
                    tc.dict().code_of(s).expect("observed value is interned")
                })
                .collect();
            for row in targets {
                let code = random_other(&sorted, &tc.code(row), &mut rng);
                tc.set(row, code);
            }
        }
    }
    Ok(out)
}

/// Replace values of chosen tuples with uniform draws from an
/// *attacker-supplied* domain (e.g. a domain Mallory thinks is
/// plausible) — lets experiments model better-informed adversaries.
///
/// # Errors
///
/// Unknown or primary-key attribute, or a supplied domain whose value
/// type differs from the column's.
///
/// # Panics
///
/// Panics when `fraction` is outside `[0, 1]`.
pub fn domain_alteration(
    rel: &Relation,
    attr: &str,
    domain: &CategoricalDomain,
    fraction: f64,
    seed: u64,
) -> Result<Relation, RelationError> {
    assert!((0.0..=1.0).contains(&fraction), "fraction must be in [0,1]");
    let attr_idx = rel.schema().index_of(attr)?;
    let mut out = rel.clone();
    let mut rng = SplitMix64::new(seed);
    let targets = pick_rows(rel.len(), fraction, &mut rng);
    let mistyped = |v: &catmark_relation::Value| RelationError::TypeMismatch {
        attr: attr.to_owned(),
        expected: rel.schema().attr(attr_idx).ty.name(),
        value: v.clone(),
    };
    match out.column_mut(attr_idx)? {
        ColumnMut::Int(xs) => {
            let values: Vec<i64> = domain
                .values()
                .iter()
                .map(|v| v.as_int().ok_or_else(|| mistyped(v)))
                .collect::<Result<_, _>>()?;
            for row in targets {
                xs[row] = values[rng.below(values.len() as u64) as usize];
            }
        }
        ColumnMut::Text(mut tc) => {
            let codes: Vec<u32> = domain
                .values()
                .iter()
                .map(|v| v.as_text().map(|s| tc.intern(s)).ok_or_else(|| mistyped(v)))
                .collect::<Result<_, _>>()?;
            for row in targets {
                let code = codes[rng.below(codes.len() as u64) as usize];
                tc.set(row, code);
            }
        }
    }
    Ok(out)
}

/// Uniformly choose ⌈fraction · n⌉ distinct rows.
fn pick_rows(n: usize, fraction: f64, rng: &mut SplitMix64) -> Vec<usize> {
    let count = ((n as f64) * fraction).round() as usize;
    let count = count.min(n);
    let mut rows: Vec<usize> = (0..n).collect();
    for i in 0..count {
        let j = i + rng.below((n - i) as u64) as usize;
        rows.swap(i, j);
    }
    rows.truncate(count);
    rows
}

/// Uniform draw from `sorted` (the observed values in canonical
/// order), retrying until it differs from `current` — the same draw
/// sequence the historical Value-typed implementation consumed.
fn random_other<T: Copy + PartialEq>(sorted: &[T], current: &T, rng: &mut SplitMix64) -> T {
    debug_assert!(sorted.len() >= 2);
    loop {
        let candidate = sorted[rng.below(sorted.len() as u64) as usize];
        if candidate != *current {
            return candidate;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use catmark_datagen::{domains, ItemScanConfig, SalesGenerator};

    fn rel() -> Relation {
        SalesGenerator::new(ItemScanConfig { tuples: 4_000, ..Default::default() }).generate()
    }

    #[test]
    fn alters_requested_fraction() {
        let r = rel();
        let attacked = random_alteration(&r, "item_nbr", 0.3, 7).unwrap();
        let changed = r.column_iter(1).zip(attacked.column_iter(1)).filter(|(a, b)| a != b).count();
        let frac = changed as f64 / r.len() as f64;
        // Every targeted tuple is guaranteed to change (different
        // value enforced), so the fraction is exact.
        assert!((frac - 0.3).abs() < 1e-9, "frac={frac}");
    }

    #[test]
    fn keys_and_other_attributes_untouched() {
        let r = rel();
        let attacked = random_alteration(&r, "item_nbr", 0.5, 8).unwrap();
        assert_eq!(r.column(0), attacked.column(0));
    }

    #[test]
    fn fraction_zero_and_one_edge_cases() {
        let r = rel();
        let same = random_alteration(&r, "item_nbr", 0.0, 1).unwrap();
        assert_eq!(same, r);
        let all = random_alteration(&r, "item_nbr", 1.0, 1).unwrap();
        let changed = r.column_iter(1).zip(all.column_iter(1)).filter(|(a, b)| a != b).count();
        assert_eq!(changed, r.len());
    }

    #[test]
    fn replacements_come_from_observed_values() {
        let r = rel();
        let observed = CategoricalDomain::from_column(&r, 1).unwrap();
        let attacked = random_alteration(&r, "item_nbr", 0.4, 9).unwrap();
        for v in attacked.column_iter(1) {
            assert!(observed.index_of(&v).is_ok());
        }
    }

    #[test]
    fn domain_alteration_uses_supplied_domain() {
        let r = rel();
        let foreign = domains::product_codes(10, 777_000);
        let attacked = domain_alteration(&r, "item_nbr", &foreign, 0.2, 5).unwrap();
        let foreign_count = attacked.column_iter(1).filter(|v| foreign.index_of(v).is_ok()).count();
        let frac = foreign_count as f64 / r.len() as f64;
        assert!((frac - 0.2).abs() < 0.02, "frac={frac}");
    }

    #[test]
    fn is_deterministic_per_seed() {
        let r = rel();
        let a = random_alteration(&r, "item_nbr", 0.25, 42).unwrap();
        let b = random_alteration(&r, "item_nbr", 0.25, 42).unwrap();
        assert_eq!(b, a);
        let c = random_alteration(&r, "item_nbr", 0.25, 43).unwrap();
        assert_ne!(a, c);
    }

    #[test]
    fn unknown_attribute_errors() {
        assert!(random_alteration(&rel(), "ghost", 0.1, 1).is_err());
    }
}
