//! A1 — horizontal data partitioning.
//!
//! "Mallory can randomly select and use a subset of the original data
//! set that might still provide value for its intended purpose." This
//! is also the benign case: a buyer who licensed a slice of the data.
//! Figure 7 of the paper sweeps exactly this attack.

use catmark_relation::{ops, Relation};

/// Keep each tuple independently with probability `keep` (Bernoulli
/// subset selection).
///
/// # Panics
///
/// Panics when `keep` is outside `[0, 1]`.
#[must_use]
pub fn subset_selection(rel: &Relation, keep: f64, seed: u64) -> Relation {
    ops::sample_bernoulli(rel, keep, seed)
}

/// Keep exactly `count` uniformly chosen tuples.
#[must_use]
pub fn subset_selection_exact(rel: &Relation, count: usize, seed: u64) -> Relation {
    ops::sample_exact(rel, count, seed)
}

/// Keep only tuples whose attribute value ranks among the `top_k` most
/// frequent values — the "keep the bestsellers" partition. Unlike
/// uniform sampling this is *value-biased*: it erases entire domain
/// values, stressing both the association channel (whole carrier
/// groups vanish) and the frequency channel (the histogram's tail is
/// amputated).
///
/// # Errors
///
/// Unknown attribute, or a column with fewer than two distinct values.
pub fn value_biased_selection(
    rel: &Relation,
    attr: &str,
    top_k: usize,
) -> Result<Relation, catmark_relation::RelationError> {
    let attr_idx = rel.schema().index_of(attr)?;
    let domain = catmark_relation::CategoricalDomain::from_column(rel, attr_idx)?;
    let hist = catmark_relation::FrequencyHistogram::from_relation(rel, attr_idx, &domain)?;
    let keep: std::collections::HashSet<usize> =
        hist.rank_by_frequency().into_iter().take(top_k).collect();
    let rows: Vec<usize> = domain
        .intern_column(rel, attr_idx)
        .into_iter()
        .enumerate()
        .filter(|&(_, t)| keep.contains(&(t.expect("domain from column") as usize)))
        .map(|(row, _)| row)
        .collect();
    Ok(rel.gather(&rows))
}

/// Keep a contiguous row range `[start, start + len)` — the "sell one
/// region/month of the data" partition, which stresses any scheme
/// whose mark positions correlate with row order.
#[must_use]
pub fn contiguous_cut(rel: &Relation, start: usize, len: usize) -> Relation {
    let rows: Vec<usize> = (start..(start + len).min(rel.len())).collect();
    rel.gather(&rows)
}

#[cfg(test)]
mod tests {
    use super::*;
    use catmark_datagen::{ItemScanConfig, SalesGenerator};

    fn rel() -> Relation {
        SalesGenerator::new(ItemScanConfig { tuples: 5_000, ..Default::default() }).generate()
    }

    #[test]
    fn bernoulli_keeps_expected_fraction() {
        let r = rel();
        let kept = subset_selection(&r, 0.2, 9);
        let frac = kept.len() as f64 / r.len() as f64;
        assert!((0.17..0.23).contains(&frac), "frac={frac}");
    }

    #[test]
    fn exact_selection_is_exact() {
        let r = rel();
        assert_eq!(subset_selection_exact(&r, 123, 1).len(), 123);
    }

    #[test]
    fn contiguous_cut_respects_bounds() {
        let r = rel();
        let cut = contiguous_cut(&r, 100, 50);
        assert_eq!(cut.len(), 50);
        assert_eq!(cut, r.gather(&(100..150).collect::<Vec<_>>()));
        // Cut beyond the end truncates.
        let tail = contiguous_cut(&r, r.len() - 10, 100);
        assert_eq!(tail.len(), 10);
    }

    #[test]
    fn value_biased_selection_keeps_only_top_values() {
        let r = rel();
        let kept = value_biased_selection(&r, "item_nbr", 10).unwrap();
        assert!(!kept.is_empty());
        assert!(kept.len() < r.len());
        let distinct: std::collections::HashSet<_> = kept.column_iter(1).collect();
        assert_eq!(distinct.len(), 10);
        // Zipf skew: the top-10 of 1000 items still covers a sizable
        // fraction of the rows.
        assert!(kept.len() as f64 > 0.05 * r.len() as f64, "kept {}", kept.len());
    }

    #[test]
    fn value_biased_selection_rejects_unknown_attr() {
        assert!(value_biased_selection(&rel(), "ghost", 5).is_err());
    }

    #[test]
    fn survivors_are_unmodified() {
        let r = rel();
        let kept = subset_selection(&r, 0.5, 3);
        let rows: Vec<usize> = kept
            .column_iter(0)
            .map(|key| r.find_by_key(&key).expect("survivor came from the original"))
            .collect();
        assert_eq!(r.gather(&rows), kept);
    }
}
