//! A2 — subset addition.
//!
//! "Mallory adds a set of tuples to the original data. This addition
//! is not to significantly alter the useful properties of the initial
//! set." The paper suspects this is the categorical adversary's main
//! avenue (alteration being value-destructive), and argues the scheme
//! survives because added tuples are overwhelmingly *unfit* — and even
//! fit ones vote randomly, diluted by the genuine majority.

use catmark_relation::ops::SplitMix64;
use catmark_relation::{Relation, RelationError, Value};

/// Append `fraction · N` synthetic tuples whose non-key attributes are
/// drawn independently from the observed per-attribute marginals
/// (Mallory mimics the distribution for stealth) and whose keys are
/// fresh integers outside the observed key range where possible.
///
/// # Errors
///
/// Relation-level failures only (the synthetic tuples are
/// schema-conformant by construction).
///
/// # Panics
///
/// Panics when `fraction` is negative.
pub fn add_mimicking_tuples(
    rel: &Relation,
    fraction: f64,
    seed: u64,
) -> Result<Relation, RelationError> {
    assert!(fraction >= 0.0, "fraction must be non-negative");
    let count = ((rel.len() as f64) * fraction).round() as usize;
    let mut out = rel.clone();
    if rel.is_empty() || count == 0 {
        return Ok(out);
    }
    let mut rng = SplitMix64::new(seed);
    let key_idx = rel.schema().key_index();
    // Fresh keys above the observed maximum integer key (or large
    // random integers when the key is non-integer).
    let max_key = rel.column_iter(key_idx).filter_map(|v| v.as_int()).max().unwrap_or(0);
    for i in 0..count {
        let mut values = Vec::with_capacity(rel.schema().arity());
        for attr_idx in 0..rel.schema().arity() {
            if attr_idx == key_idx {
                let key = match rel.schema().key_attr().ty {
                    catmark_relation::AttrType::Integer => Value::Int(max_key + 1 + i as i64),
                    catmark_relation::AttrType::Text => Value::Text(format!("added-{seed}-{i}")),
                };
                values.push(key);
            } else {
                // Independent draw from the column's empirical
                // distribution: pick a random existing row's value.
                let row = rng.below(rel.len() as u64) as usize;
                values.push(rel.value(row, attr_idx)?);
            }
        }
        out.push_unchecked_key(values)?;
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use catmark_datagen::{ItemScanConfig, SalesGenerator};
    use catmark_relation::{CategoricalDomain, FrequencyHistogram};

    fn rel() -> Relation {
        SalesGenerator::new(ItemScanConfig { tuples: 5_000, ..Default::default() }).generate()
    }

    #[test]
    fn adds_requested_fraction() {
        let r = rel();
        let attacked = add_mimicking_tuples(&r, 0.25, 3).unwrap();
        assert_eq!(attacked.len(), r.len() + 1_250);
    }

    #[test]
    fn original_tuples_survive_verbatim() {
        let r = rel();
        let attacked = add_mimicking_tuples(&r, 0.5, 4).unwrap();
        assert_eq!(attacked.gather(&(0..r.len()).collect::<Vec<_>>()), r);
    }

    #[test]
    fn added_keys_are_fresh() {
        let r = rel();
        let attacked = add_mimicking_tuples(&r, 0.1, 5).unwrap();
        // All-new keys: distinct count grows by exactly the addition.
        assert_eq!(attacked.distinct_keys(), r.distinct_keys() + 500);
    }

    #[test]
    fn marginals_are_approximately_preserved() {
        let r = rel();
        let attacked = add_mimicking_tuples(&r, 1.0, 6).unwrap();
        let domain = CategoricalDomain::from_column(&r, 1).unwrap();
        let before = FrequencyHistogram::from_relation(&r, 1, &domain).unwrap();
        let after = FrequencyHistogram::from_relation(&attacked, 1, &domain).unwrap();
        // Doubling a 5000-tuple relation by resampling 1000-value
        // marginals carries ~0.15 of unavoidable sampling-noise L1;
        // anything near the degenerate 2.0 would mean the mimicry is
        // broken.
        assert!(before.l1_distance(&after) < 0.3, "drift {}", before.l1_distance(&after));
    }

    #[test]
    fn zero_fraction_is_identity() {
        let r = rel();
        let same = add_mimicking_tuples(&r, 0.0, 1).unwrap();
        assert_eq!(same.len(), r.len());
    }

    #[test]
    fn empty_relation_stays_empty() {
        let gen = SalesGenerator::new(ItemScanConfig { tuples: 10, ..Default::default() });
        let empty = Relation::new(gen.schema());
        let out = add_mimicking_tuples(&empty, 0.5, 1).unwrap();
        assert!(out.is_empty());
    }
}
