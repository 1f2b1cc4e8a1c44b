//! Occurrence-frequency statistics over categorical attributes.
//!
//! Section 4.2 treats the attribute's "value occurrence frequency
//! distribution `[f_A(a_i)]`" as an embedding channel of its own, and
//! Section 4.5 uses frequency matching to invert bijective remapping
//! attacks. [`FrequencyHistogram`] is the shared representation: counts
//! per domain value with normalized frequencies, plus the distance and
//! entropy measures those algorithms (and the quality constraints of
//! Section 4.1) need.

use crate::{CategoricalDomain, Relation, RelationError, Value};

/// Per-value occurrence counts of one categorical attribute.
#[derive(Debug, Clone, PartialEq)]
pub struct FrequencyHistogram {
    domain: CategoricalDomain,
    counts: Vec<u64>,
    total: u64,
}

impl FrequencyHistogram {
    /// Histogram of attribute `attr_idx` of `rel` over `domain`.
    ///
    /// # Errors
    ///
    /// [`RelationError::ValueNotInDomain`] when the column contains a
    /// value outside `domain` (e.g. remapped data).
    pub fn from_relation(
        rel: &Relation,
        attr_idx: usize,
        domain: &CategoricalDomain,
    ) -> Result<Self, RelationError> {
        let mut counts = vec![0u64; domain.len()];
        match rel.column(attr_idx) {
            crate::ColumnView::Int(xs) => {
                // Count per distinct integer first: one domain lookup
                // per distinct value instead of one per row.
                let mut per_value: std::collections::HashMap<i64, u64> =
                    std::collections::HashMap::new();
                for &x in xs {
                    *per_value.entry(x).or_insert(0) += 1;
                }
                for (x, n) in per_value {
                    counts[domain.index_of(&Value::Int(x))?] += n;
                }
            }
            crate::ColumnView::Text { codes, dict } => {
                // Count per dictionary code, then fold through the
                // per-distinct translation table: one string lookup
                // per distinct value instead of one per row.
                let mut per_code = vec![0u64; dict.len()];
                for &c in codes {
                    per_code[c as usize] += 1;
                }
                let table = domain.dict_codes(dict);
                for (c, &n) in per_code.iter().enumerate() {
                    if n == 0 {
                        continue;
                    }
                    let Some(t) = table[c] else {
                        return Err(RelationError::ValueNotInDomain(Value::Text(
                            dict.get(c as u32).to_owned(),
                        )));
                    };
                    counts[t as usize] += n;
                }
            }
        }
        let total = counts.iter().sum();
        Ok(FrequencyHistogram { domain: domain.clone(), counts, total })
    }

    /// Histogram from raw counts (for synthetic distributions).
    ///
    /// # Errors
    ///
    /// [`RelationError::InvalidSchema`] when `counts` does not match
    /// the domain size.
    pub fn from_counts(
        domain: &CategoricalDomain,
        counts: Vec<u64>,
    ) -> Result<Self, RelationError> {
        if counts.len() != domain.len() {
            return Err(RelationError::InvalidSchema(format!(
                "{} counts for a domain of {} values",
                counts.len(),
                domain.len()
            )));
        }
        let total = counts.iter().sum();
        Ok(FrequencyHistogram { domain: domain.clone(), counts, total })
    }

    /// The underlying domain.
    #[must_use]
    pub fn domain(&self) -> &CategoricalDomain {
        &self.domain
    }

    /// Occurrence count of domain index `t`.
    #[must_use]
    pub fn count(&self, t: usize) -> u64 {
        self.counts[t]
    }

    /// All counts in domain order.
    #[must_use]
    pub fn counts(&self) -> &[u64] {
        &self.counts
    }

    /// Total observations.
    #[must_use]
    pub fn total(&self) -> u64 {
        self.total
    }

    /// Normalized frequency `f_A(a_t)` of domain index `t`.
    #[must_use]
    pub fn frequency(&self, t: usize) -> f64 {
        if self.total == 0 {
            0.0
        } else {
            self.counts[t] as f64 / self.total as f64
        }
    }

    /// All normalized frequencies in domain order.
    #[must_use]
    pub fn frequencies(&self) -> Vec<f64> {
        (0..self.counts.len()).map(|t| self.frequency(t)).collect()
    }

    /// Normalized frequency of a value.
    ///
    /// # Errors
    ///
    /// [`RelationError::ValueNotInDomain`] for foreign values.
    pub fn frequency_of(&self, value: &Value) -> Result<f64, RelationError> {
        Ok(self.frequency(self.domain.index_of(value)?))
    }

    /// L1 (total-variation ×2) distance between two histograms over the
    /// same domain size. Used by quality constraints to bound frequency
    /// drift introduced by watermarking.
    ///
    /// # Panics
    ///
    /// Panics when domain sizes differ (comparing histograms of
    /// different attributes is a programming error).
    #[must_use]
    pub fn l1_distance(&self, other: &FrequencyHistogram) -> f64 {
        assert_eq!(self.counts.len(), other.counts.len(), "histograms must share a domain size");
        (0..self.counts.len()).map(|t| (self.frequency(t) - other.frequency(t)).abs()).sum()
    }

    /// Shannon entropy of the distribution in bits.
    ///
    /// The paper's bandwidth discussion: direct-domain embedding yields
    /// only `log2(nA)` bits, and uniform distributions defeat
    /// frequency-based channels; entropy quantifies both.
    #[must_use]
    pub fn entropy_bits(&self) -> f64 {
        (0..self.counts.len())
            .map(|t| self.frequency(t))
            .filter(|&f| f > 0.0)
            .map(|f| -f * f.log2())
            .sum()
    }

    /// Domain indices sorted by descending frequency, ties broken by
    /// index. The remap-recovery algorithm of Section 4.5 matches
    /// suspect and reference histograms through this ranking.
    #[must_use]
    pub fn rank_by_frequency(&self) -> Vec<usize> {
        let mut order: Vec<usize> = (0..self.counts.len()).collect();
        order.sort_by(|&a, &b| self.counts[b].cmp(&self.counts[a]).then(a.cmp(&b)));
        order
    }
}

/// One column's rows as dense `u32` codes plus the code → value
/// table — the bridge that lets counting loops (classifier training,
/// rule counting) run over small integers and materialize a [`Value`]
/// once per *distinct* value.
///
/// Text columns reuse their dictionary codes directly (the table may
/// carry entries no row references, with zero occurrences); integer
/// columns get first-occurrence dense ids.
#[must_use]
pub fn dense_codes(rel: &Relation, attr_idx: usize) -> (Vec<u32>, Vec<Value>) {
    match rel.column(attr_idx) {
        crate::ColumnView::Int(xs) => {
            let mut ids: std::collections::HashMap<i64, u32> = std::collections::HashMap::new();
            let mut values = Vec::new();
            let codes = xs
                .iter()
                .map(|&x| {
                    *ids.entry(x).or_insert_with(|| {
                        values.push(Value::Int(x));
                        (values.len() - 1) as u32
                    })
                })
                .collect();
            (codes, values)
        }
        crate::ColumnView::Text { codes, dict } => {
            let values =
                (0..dict.len()).map(|c| Value::Text(dict.get(c as u32).to_owned())).collect();
            (codes.to_vec(), values)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{AttrType, Schema};

    fn fixture() -> (Relation, CategoricalDomain) {
        let schema = Schema::builder()
            .key_attr("k", AttrType::Integer)
            .categorical_attr("a", AttrType::Text)
            .build()
            .unwrap();
        let mut rel = Relation::new(schema);
        let values = ["x", "x", "x", "y", "y", "z"];
        for (i, v) in values.iter().enumerate() {
            rel.push(vec![Value::Int(i as i64), Value::Text((*v).into())]).unwrap();
        }
        let domain = CategoricalDomain::from_column(&rel, 1).unwrap();
        (rel, domain)
    }

    #[test]
    fn counts_and_frequencies() {
        let (rel, domain) = fixture();
        let h = FrequencyHistogram::from_relation(&rel, 1, &domain).unwrap();
        assert_eq!(h.total(), 6);
        assert_eq!(h.frequency_of(&Value::Text("x".into())).unwrap(), 0.5);
        assert_eq!(h.frequency_of(&Value::Text("y".into())).unwrap(), 1.0 / 3.0);
        assert_eq!(h.frequency_of(&Value::Text("z".into())).unwrap(), 1.0 / 6.0);
        let sum: f64 = h.frequencies().iter().sum();
        assert!((sum - 1.0).abs() < 1e-12);
    }

    #[test]
    fn foreign_value_in_column_errors() {
        let (rel, _) = fixture();
        let small =
            CategoricalDomain::new(vec![Value::Text("x".into()), Value::Text("y".into())]).unwrap();
        assert!(FrequencyHistogram::from_relation(&rel, 1, &small).is_err());
    }

    #[test]
    fn from_counts_validates_arity() {
        let (_, domain) = fixture();
        assert!(FrequencyHistogram::from_counts(&domain, vec![1, 2]).is_err());
        let h = FrequencyHistogram::from_counts(&domain, vec![1, 2, 3]).unwrap();
        assert_eq!(h.total(), 6);
    }

    #[test]
    fn l1_distance_is_zero_on_self_and_symmetric() {
        let (rel, domain) = fixture();
        let h = FrequencyHistogram::from_relation(&rel, 1, &domain).unwrap();
        assert_eq!(h.l1_distance(&h), 0.0);
        let g = FrequencyHistogram::from_counts(&domain, vec![6, 0, 0]).unwrap();
        assert!((h.l1_distance(&g) - g.l1_distance(&h)).abs() < 1e-12);
        // TV distance between (1/2,1/3,1/6) and (1,0,0) is 1/2+1/3+1/6 = 1.
        assert!((h.l1_distance(&g) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn entropy_extremes() {
        let (_, domain) = fixture();
        let uniform = FrequencyHistogram::from_counts(&domain, vec![2, 2, 2]).unwrap();
        assert!((uniform.entropy_bits() - 3f64.log2()).abs() < 1e-12);
        let degenerate = FrequencyHistogram::from_counts(&domain, vec![6, 0, 0]).unwrap();
        assert_eq!(degenerate.entropy_bits(), 0.0);
    }

    #[test]
    fn empty_histogram_has_zero_frequencies() {
        let (_, domain) = fixture();
        let h = FrequencyHistogram::from_counts(&domain, vec![0, 0, 0]).unwrap();
        assert_eq!(h.frequency(0), 0.0);
        assert_eq!(h.entropy_bits(), 0.0);
    }

    #[test]
    fn dense_codes_number_each_distinct_value_once() {
        let (rel, _) = fixture();
        let (codes, values) = dense_codes(&rel, 1);
        assert_eq!(codes, [0, 0, 0, 1, 1, 2]);
        assert_eq!(values, ["x", "y", "z"].map(|v| Value::Text(v.into())));
        let (codes, values) = dense_codes(&rel, 0);
        assert_eq!(codes, [0, 1, 2, 3, 4, 5]);
        assert_eq!(values[5], Value::Int(5));
    }

    #[test]
    fn rank_by_frequency_orders_descending() {
        let (rel, domain) = fixture();
        let h = FrequencyHistogram::from_relation(&rel, 1, &domain).unwrap();
        // x (idx 0) is most frequent, then y (1), then z (2).
        assert_eq!(h.rank_by_frequency(), vec![0, 1, 2]);
        let g = FrequencyHistogram::from_counts(&domain, vec![1, 5, 5]).unwrap();
        // Tie between idx 1 and 2 broken by index.
        assert_eq!(g.rank_by_frequency(), vec![1, 2, 0]);
    }
}
