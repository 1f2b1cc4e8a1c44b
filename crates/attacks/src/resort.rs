//! A4 — subset re-sorting.
//!
//! "If a certain order can be imposed on the data then watermark
//! retrieval/detection should be resilient to re-sorting attacks and
//! should not depend on this predefined ordering." Trivially true for
//! this scheme (positions derive from tuple *content*), and the tests
//! in `catmark-core` assert it; these wrappers make the attack
//! available to the declarative harness.

use catmark_relation::{ops, Relation, RelationError};

/// Uniformly permute tuple order.
#[must_use]
pub fn shuffle(rel: &Relation, seed: u64) -> Relation {
    ops::shuffle(rel, seed)
}

/// Sort by attribute `attr`.
///
/// # Errors
///
/// Unknown attribute.
pub fn sort_by(rel: &Relation, attr: &str, ascending: bool) -> Result<Relation, RelationError> {
    let idx = rel.schema().index_of(attr)?;
    Ok(ops::sort_by_attr(rel, idx, ascending))
}

#[cfg(test)]
mod tests {
    use super::*;
    use catmark_datagen::{ItemScanConfig, SalesGenerator};

    #[test]
    fn resorting_preserves_content() {
        let rel =
            SalesGenerator::new(ItemScanConfig { tuples: 500, ..Default::default() }).generate();
        let shuffled = shuffle(&rel, 42);
        let sorted = sort_by(&shuffled, "item_nbr", true).unwrap();
        assert_eq!(sorted.len(), rel.len());
        let by_key = |r: &Relation| {
            let rows: Vec<usize> = rel.column_iter(0).map(|k| r.find_by_key(&k).unwrap()).collect();
            r.gather(&rows)
        };
        assert_eq!(by_key(&sorted), rel);
    }

    #[test]
    fn sort_by_unknown_attr_errors() {
        let rel =
            SalesGenerator::new(ItemScanConfig { tuples: 10, ..Default::default() }).generate();
        assert!(sort_by(&rel, "ghost", true).is_err());
    }
}
