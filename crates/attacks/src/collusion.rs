//! Collusion attacks against buyer fingerprints.
//!
//! The paper's conclusions flag "additive watermark attacks" as open;
//! the fingerprinting deployment (one derived mark per buyer, see
//! `catmark_core::fingerprint`) raises the stronger variant: several
//! buyers *pool their copies* and publish a merge, hoping each
//! individual fingerprint is diluted below detectability. This module
//! implements the three classic categorical-data collusion strategies:
//!
//! * [`majority_merge`] — per cell, colluders publish the value the
//!   majority of their copies agree on. Marked cells differ across
//!   copies (each buyer's fit set is nearly disjoint), so a cell
//!   marked for one buyer is outvoted by the other copies' original
//!   value: the strongest strategy, erasing most of every fingerprint.
//! * [`mix_and_match`] — per row, publish a uniformly random
//!   colluder's tuple. Each buyer keeps ≈ 1/c of their marked cells.
//! * [`row_share`] — colluders contribute disjoint row blocks. Each
//!   buyer keeps their marks inside their own block, so every
//!   fingerprint survives at 1/c strength.
//!
//! Copies are aligned by primary key (colluders can always do this —
//! the key is the join handle that makes the data valuable), and rows
//! missing from any copy are dropped, mirroring a real intersection
//! merge.

use std::collections::HashMap;

use catmark_relation::ops::SplitMix64;
use catmark_relation::{Relation, RelationError, Value};

/// Validate copies and produce, for each key of the first copy held by
/// *all* copies, the per-copy row indices.
fn aligned_rows(copies: &[&Relation]) -> Result<Vec<Vec<usize>>, RelationError> {
    let [first, rest @ ..] = copies else {
        return Err(RelationError::InvalidSchema("collusion needs at least one copy".into()));
    };
    for other in rest {
        if other.schema() != first.schema() {
            return Err(RelationError::InvalidSchema(
                "colluding copies must share a schema".into(),
            ));
        }
    }
    let key_idx = first.schema().key_index();
    let mut rows = Vec::with_capacity(first.len());
    'keys: for (row0, key) in first.column_iter(key_idx).enumerate() {
        let mut per_copy = Vec::with_capacity(copies.len());
        per_copy.push(row0);
        for other in rest {
            match other.find_by_key(&key) {
                Some(r) => per_copy.push(r),
                None => continue 'keys,
            }
        }
        rows.push(per_copy);
    }
    Ok(rows)
}

/// Per-cell majority vote across aligned copies; ties break uniformly
/// at random among the tied values (a smart collusion would never
/// deterministically favor one member — that member's fingerprint
/// would survive intact).
///
/// # Errors
///
/// [`RelationError::InvalidSchema`] for zero copies or mismatched
/// schemas.
pub fn majority_merge(copies: &[&Relation], seed: u64) -> Result<Relation, RelationError> {
    let rows = aligned_rows(copies)?;
    let first = copies[0];
    let arity = first.schema().arity();
    let mut rng = SplitMix64::new(seed);
    let mut out = Relation::with_capacity(first.schema().clone(), rows.len());
    for per_copy in rows {
        let mut values = Vec::with_capacity(arity);
        for attr in 0..arity {
            let mut counts: HashMap<Value, usize> = HashMap::new();
            for (&row, copy) in per_copy.iter().zip(copies) {
                *counts.entry(copy.value(row, attr)?).or_insert(0) += 1;
            }
            let top = counts.values().copied().max().expect("at least one copy");
            let mut winners: Vec<Value> =
                counts.into_iter().filter(|&(_, c)| c == top).map(|(v, _)| v).collect();
            // Sort so the random pick is independent of hash order.
            winners.sort();
            let winner = winners[rng.below(winners.len() as u64) as usize].clone();
            values.push(winner);
        }
        out.push_unchecked_key(values)?;
    }
    Ok(out)
}

/// Per-row random colluder selection.
///
/// # Errors
///
/// [`RelationError::InvalidSchema`] for zero copies or mismatched
/// schemas.
pub fn mix_and_match(copies: &[&Relation], seed: u64) -> Result<Relation, RelationError> {
    let rows = aligned_rows(copies)?;
    let first = copies[0];
    let mut rng = SplitMix64::new(seed);
    let mut out = Relation::with_capacity(first.schema().clone(), rows.len());
    for per_copy in rows {
        let c = rng.below(copies.len() as u64) as usize;
        let row = per_copy[c];
        let values = (0..first.schema().arity()).map(|attr| copies[c].value(row, attr));
        out.push_unchecked_key(values.collect::<Result<_, _>>()?)?;
    }
    Ok(out)
}

/// Disjoint row blocks: colluder `c` contributes the `c`-th of
/// `copies.len()` nearly equal slices (by the first copy's row order).
///
/// # Errors
///
/// [`RelationError::InvalidSchema`] for zero copies or mismatched
/// schemas.
pub fn row_share(copies: &[&Relation]) -> Result<Relation, RelationError> {
    let rows = aligned_rows(copies)?;
    let n = rows.len();
    let c = copies.len();
    let mut blocks = vec![Vec::new(); c];
    for (i, per_copy) in rows.iter().enumerate() {
        // Block index of row i among c nearly equal blocks.
        let owner = (i * c / n.max(1)).min(c - 1);
        blocks[owner].push(per_copy[owner]);
    }
    let mut out = Relation::with_capacity(copies[0].schema().clone(), n);
    for (copy, block) in copies.iter().zip(&blocks) {
        out.append(&copy.gather(block))?;
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use catmark_core::decode::ErasurePolicy;
    use catmark_core::fingerprint::FingerprintRegistry;
    use catmark_core::WatermarkSpec;
    use catmark_datagen::{ItemScanConfig, SalesGenerator};

    fn setup(buyers: &[&str]) -> (FingerprintRegistry, Relation, Vec<Relation>) {
        let gen = SalesGenerator::new(ItemScanConfig { tuples: 9_000, ..Default::default() });
        let rel = gen.generate();
        let base = WatermarkSpec::builder(gen.item_domain())
            .master_key("collusion-tests")
            .e(10)
            .wm_len(10)
            .expected_tuples(rel.len())
            .erasure(ErasurePolicy::Abstain)
            .build()
            .unwrap();
        let mut reg = FingerprintRegistry::new(base);
        let copies = buyers
            .iter()
            .map(|b| reg.mark_copy(&rel, b, "visit_nbr", "item_nbr").unwrap().0)
            .collect();
        (reg, rel, copies)
    }

    #[test]
    fn majority_merge_restores_unmarked_cells() {
        let (_, rel, copies) = setup(&["a", "b", "c"]);
        let refs: Vec<&Relation> = copies.iter().collect();
        let merged = majority_merge(&refs, 1).unwrap();
        assert_eq!(merged.len(), rel.len());
        // Fit sets under different keys are ≈ disjoint at e=10, so for
        // almost every cell at most one copy is marked and the other
        // two outvote it: the merge is ≈ the original. Residual marks
        // survive only where ≥ 2 copies altered the same cell and the
        // random tie-break picked a mark: well under the ~10% each
        // colluder's own copy carries.
        let item_idx = rel.schema().index_of("item_nbr").unwrap();
        let differing = merged
            .column_iter(item_idx)
            .zip(rel.column_iter(item_idx))
            .filter(|(m, o)| m != o)
            .count();
        let frac = differing as f64 / rel.len() as f64;
        assert!(frac < 0.05, "residual marked fraction {frac}");
    }

    #[test]
    fn majority_merge_weakens_every_fingerprint() {
        // The headline collusion finding: a 3-way majority merge
        // removes ≈ 90% of each buyer's marked cells. The majority-
        // voting ECC is redundant enough (≈ 90 carriers per watermark
        // bit at e=10) that colluders may *still* rank above an
        // innocent buyer — collusion dilutes evidence rather than
        // deleting it. Both effects are asserted.
        let (mut reg, _, copies) = setup(&["a", "b", "c"]);
        reg.register("innocent");
        let refs: Vec<&Relation> = copies.iter().collect();
        let merged = majority_merge(&refs, 2).unwrap();
        let intact = reg.trace(&copies[0], "visit_nbr", "item_nbr").unwrap();
        let after = reg.trace(&merged, "visit_nbr", "item_nbr").unwrap();
        let fp = |results: &[catmark_core::fingerprint::TraceResult], buyer: &str| {
            results.iter().find(|r| r.buyer == buyer).unwrap().detection.false_positive_probability
        };
        // Evidence against the leaker of the intact copy is maximal;
        // the merge must not manufacture stronger evidence than that.
        assert!(fp(&after, "a") >= fp(&intact, "a"));
        // The innocent buyer never looks guiltier than a colluder
        // whose marks partially survive.
        let innocent_fp = fp(&after, "innocent");
        assert!(innocent_fp > 0.3, "innocent at chance level, got {innocent_fp}");
    }

    #[test]
    fn two_way_collusion_traces_both() {
        // With two colluders every marked cell is a 1-vs-1 tie, so the
        // random tie-break keeps ≈ half of each buyer's marks — both
        // remain overwhelmingly traceable.
        let (reg, _, copies) = setup(&["a", "b"]);
        let refs: Vec<&Relation> = copies.iter().collect();
        let merged = majority_merge(&refs, 3).unwrap();
        let results = reg.trace(&merged, "visit_nbr", "item_nbr").unwrap();
        for r in &results {
            assert!(
                r.detection.is_significant(1e-2),
                "{} not traced through 2-way merge: {:?}",
                r.buyer,
                r.detection
            );
        }
    }

    #[test]
    fn mix_and_match_dilutes_but_all_colluders_trace() {
        let (reg, _, copies) = setup(&["a", "b", "c"]);
        let refs: Vec<&Relation> = copies.iter().collect();
        let mixed = mix_and_match(&refs, 7).unwrap();
        let results = reg.trace(&mixed, "visit_nbr", "item_nbr").unwrap();
        // Each buyer keeps ≈ 1/3 of their marked cells — with ~90
        // copies per watermark bit that is still overwhelming
        // evidence against every colluder.
        for r in &results {
            assert!(
                r.detection.is_significant(1e-2),
                "{} not traced through mix-and-match: {:?}",
                r.buyer,
                r.detection
            );
        }
    }

    #[test]
    fn row_share_keeps_every_colluder_traceable() {
        let (reg, _, copies) = setup(&["a", "b", "c"]);
        let refs: Vec<&Relation> = copies.iter().collect();
        let shared = row_share(&refs).unwrap();
        let results = reg.trace(&shared, "visit_nbr", "item_nbr").unwrap();
        // Each buyer keeps their marks in their own third of the rows;
        // the other two thirds decode as noise, so a colluder may lose
        // a watermark bit to an unlucky vote — test at α = 5%.
        for r in &results {
            assert!(
                r.detection.is_significant(5e-2),
                "{} not traced through row sharing: {:?}",
                r.buyer,
                r.detection
            );
        }
    }

    #[test]
    fn alignment_drops_rows_missing_from_any_copy() {
        let (_, _, mut copies) = setup(&["a", "b"]);
        // Buyer b truncates their copy before colluding.
        let n = copies[1].len();
        copies[1] = copies[1].gather(&(0..n - 100).collect::<Vec<_>>());
        let refs: Vec<&Relation> = copies.iter().collect();
        let merged = majority_merge(&refs, 9).unwrap();
        assert_eq!(merged.len(), n - 100);
    }

    #[test]
    fn degenerate_inputs_error() {
        assert!(majority_merge(&[], 0).is_err());
        let (_, rel, copies) = setup(&["a"]);
        // Single "collusion" is identity.
        let refs: Vec<&Relation> = copies.iter().collect();
        let merged = majority_merge(&refs, 9).unwrap();
        assert_eq!(merged.len(), rel.len());
        // Mismatched schema errors.
        let other = catmark_relation::Schema::builder()
            .key_attr("x", catmark_relation::AttrType::Integer)
            .categorical_attr("y", catmark_relation::AttrType::Integer)
            .build()
            .unwrap();
        let foreign = Relation::new(other);
        assert!(majority_merge(&[&copies[0], &foreign], 0).is_err());
    }

    #[test]
    fn mix_and_match_is_seed_deterministic() {
        let (_, _, copies) = setup(&["a", "b"]);
        let refs: Vec<&Relation> = copies.iter().collect();
        let m1 = mix_and_match(&refs, 42).unwrap();
        let m2 = mix_and_match(&refs, 42).unwrap();
        assert_eq!(m1, m2);
    }
}
