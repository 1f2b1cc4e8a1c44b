//! A6 — attribute remapping (the bijective case of Section 4.5).
//!
//! Mallory re-labels the categorical values through a secret bijection
//! and "could sell a secret secure black-box reverse mapper together
//! with the re-mapped data to third parties, still producing revenue".
//! The attack function also returns the ground-truth mapping so tests
//! and benches can score the frequency-based recovery of
//! `catmark_core::remap`.

use std::collections::HashMap;

use catmark_relation::ops::SplitMix64;
use catmark_relation::{CategoricalDomain, Column, ColumnView, Relation, RelationError, Value};

/// Remap every value of `attr` through a random bijection into a fresh
/// integer domain. Returns the attacked relation and the ground-truth
/// forward mapping (original → remapped).
///
/// # Errors
///
/// Unknown attribute or a column with fewer than two distinct values.
pub fn bijective_remap(
    rel: &Relation,
    attr: &str,
    seed: u64,
) -> Result<(Relation, HashMap<Value, Value>), RelationError> {
    let attr_idx = rel.schema().index_of(attr)?;
    let observed = CategoricalDomain::from_column(rel, attr_idx)?;
    // Random permutation of fresh labels 900_000_000 + π(i).
    let mut labels: Vec<i64> = (0..observed.len() as i64).collect();
    let mut rng = SplitMix64::new(seed);
    for i in (1..labels.len()).rev() {
        let j = rng.below((i + 1) as u64) as usize;
        labels.swap(i, j);
    }
    let mapping: HashMap<Value, Value> = (0..observed.len())
        .map(|t| (observed.value_at(t).clone(), Value::Int(900_000_000 + labels[t])))
        .collect();

    // Remapping may change the attribute's type (text → int); suspect
    // relations therefore get a rewritten schema when needed.
    let needs_retype = rel.schema().attr(attr_idx).ty != catmark_relation::AttrType::Integer;
    let schema = if needs_retype {
        let mut b = catmark_relation::Schema::builder();
        for (i, a) in rel.schema().attrs().iter().enumerate() {
            let ty = if i == attr_idx { catmark_relation::AttrType::Integer } else { a.ty };
            b = if i == rel.schema().key_index() {
                b.key_attr(&a.name, ty)
            } else if a.categorical {
                b.categorical_attr(&a.name, ty)
            } else {
                b.attr(&a.name, ty)
            };
        }
        b.build()?
    } else {
        rel.schema().clone()
    };

    // Build the remapped column directly: for an integer column a
    // per-distinct `i64 → i64` table, for a text column the dictionary
    // code *is* the table index — either way the row loop is a flat
    // integer write, no per-row Value traffic.
    let remapped = match rel.column(attr_idx) {
        ColumnView::Int(xs) => {
            let table: HashMap<i64, i64> = mapping
                .iter()
                .map(|(from, to)| {
                    (
                        from.as_int().expect("observed integer domain"),
                        to.as_int().expect("fresh labels are integers"),
                    )
                })
                .collect();
            Column::Int(xs.iter().map(|x| table[x]).collect())
        }
        ColumnView::Text { codes, dict } => {
            let by_code: Vec<i64> = dict
                .entries()
                .iter()
                .map(|s| match mapping.get(&Value::Text(s.to_string())) {
                    Some(v) => v.as_int().expect("fresh labels are integers"),
                    // Stale dictionary entry no row references; the
                    // code never occurs below.
                    None => i64::MIN,
                })
                .collect();
            Column::Int(codes.iter().map(|&c| by_code[c as usize]).collect())
        }
    };
    let mut remapped = Some(remapped);
    let columns: Vec<Column> = (0..rel.schema().arity())
        .map(|i| {
            if i == attr_idx {
                remapped.take().expect("each attribute index visited once")
            } else {
                rel.column(i).to_column()
            }
        })
        .collect();
    let out = Relation::from_columns(schema, columns)?;
    Ok((out, mapping))
}

#[cfg(test)]
mod tests {
    use super::*;
    use catmark_datagen::{ItemScanConfig, SalesGenerator};

    fn rel() -> Relation {
        SalesGenerator::new(ItemScanConfig { tuples: 3_000, items: 80, ..Default::default() })
            .generate()
    }

    #[test]
    fn remap_is_bijective_and_consistent() {
        let r = rel();
        let (attacked, mapping) = bijective_remap(&r, "item_nbr", 11).unwrap();
        // Bijection: distinct images equal distinct preimages.
        let images: std::collections::HashSet<_> = mapping.values().collect();
        assert_eq!(images.len(), mapping.len());
        // Consistency: every tuple's value went through the mapping.
        assert_eq!(attacked.len(), r.len());
        for (orig, new) in r.column_iter(1).zip(attacked.column_iter(1)) {
            assert_eq!(mapping.get(&orig), Some(&new));
        }
    }

    #[test]
    fn frequencies_are_preserved_up_to_relabeling() {
        let r = rel();
        let (attacked, mapping) = bijective_remap(&r, "item_nbr", 12).unwrap();
        let count =
            |relation: &Relation, v: &Value| relation.column_iter(1).filter(|x| x == v).count();
        for (orig_value, new_value) in mapping.iter().take(20) {
            assert_eq!(count(&r, orig_value), count(&attacked, new_value));
        }
    }

    #[test]
    fn remapping_text_attribute_retypes_schema() {
        let r = SalesGenerator::new(ItemScanConfig {
            tuples: 500,
            with_city: true,
            ..Default::default()
        })
        .generate();
        let (attacked, _) = bijective_remap(&r, "store_city", 13).unwrap();
        let idx = attacked.schema().index_of("store_city").unwrap();
        assert_eq!(attacked.schema().attr(idx).ty, catmark_relation::AttrType::Integer);
        assert!(attacked.schema().attr(idx).categorical);
    }

    #[test]
    fn keys_untouched() {
        let r = rel();
        let (attacked, _) = bijective_remap(&r, "item_nbr", 14).unwrap();
        assert_eq!(r.column(0), attacked.column(0));
    }

    #[test]
    fn different_seeds_give_different_mappings() {
        let r = rel();
        let (_, m1) = bijective_remap(&r, "item_nbr", 1).unwrap();
        let (_, m2) = bijective_remap(&r, "item_nbr", 2).unwrap();
        assert_ne!(m1, m2);
    }
}
