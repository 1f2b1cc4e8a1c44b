//! Categorical classifiers for semantic-consistency measurement.
//!
//! The paper's conclusions propose encoding with "direct awareness of
//! semantic consistency (e.g. classification and association rules)".
//! A downstream consumer of a watermarked relation often trains a
//! classifier on it; a watermark that flips the decision boundary has
//! destroyed value even if every individual alteration looked benign.
//! This module provides two classic categorical classifiers — OneR
//! (Holte's one-rule) and naive Bayes with Laplace smoothing — plus an
//! accuracy metric, so embeddings can be constrained to preserve the
//! learned model (see [`constraints`](crate::constraints)).

use std::collections::HashMap;

use catmark_relation::stats::dense_codes;
use catmark_relation::{ColumnView, Relation, RelationError, Value};

/// A trained categorical classifier: predicts a target attribute from
/// predictor attributes, both by index into the training schema.
pub trait Classifier {
    /// Predict the target value for a full tuple (indexed by the
    /// training schema). `None` when a predictor value was never seen
    /// in training and the model cannot back off.
    fn predict(&self, values: &[Value]) -> Option<Value>;

    /// Target attribute index.
    fn target(&self) -> usize;

    /// Predictor attribute indices consulted by [`Classifier::predict`].
    fn predictors(&self) -> &[usize];
}

/// Fraction of rows of `rel` on which `clf` predicts the target
/// correctly; unseen-predictor rows count as misses.
#[must_use]
pub fn accuracy(clf: &dyn Classifier, rel: &Relation) -> f64 {
    if rel.is_empty() {
        return 0.0;
    }
    let columns: Vec<ColumnView<'_>> = (0..rel.schema().arity()).map(|a| rel.column(a)).collect();
    let mut row = Vec::with_capacity(columns.len());
    let hits = (0..rel.len())
        .filter(|&r| {
            row.clear();
            row.extend(columns.iter().map(|c| c.value(r)));
            clf.predict(&row).as_ref() == Some(&row[clf.target()])
        })
        .count();
    hits as f64 / rel.len() as f64
}

/// Holte's OneR: pick the single predictor whose value→majority-class
/// table misclassifies the fewest training rows.
#[derive(Debug, Clone)]
pub struct OneR {
    predictor: usize,
    target: usize,
    predictors: Vec<usize>,
    table: HashMap<Value, Value>,
    default: Value,
    training_error: f64,
}

impl OneR {
    /// Train on `rel`, choosing among `candidate_predictors` (names)
    /// the best single predictor of `target_attr`.
    ///
    /// # Errors
    ///
    /// [`RelationError::UnknownAttr`] for unknown names, or
    /// [`RelationError::InvalidSchema`] when there are no candidates,
    /// the candidate list contains the target, or the relation is
    /// empty.
    pub fn train(
        rel: &Relation,
        target_attr: &str,
        candidate_predictors: &[&str],
    ) -> Result<Self, RelationError> {
        let target = rel.schema().index_of(target_attr)?;
        if candidate_predictors.is_empty() {
            return Err(RelationError::InvalidSchema(
                "OneR needs at least one candidate predictor".into(),
            ));
        }
        if rel.is_empty() {
            return Err(RelationError::InvalidSchema(
                "cannot train OneR on an empty relation".into(),
            ));
        }
        let mut best: Option<(usize, HashMap<Value, Value>, usize)> = None;
        // Dense-code both consulted columns once: the counting loop
        // below is pure integer indexing, and Values materialize only
        // for the distinct entries that reach the rule table.
        let (t_codes, t_values) = dense_codes(rel, target);
        for name in candidate_predictors {
            let p = rel.schema().index_of(name)?;
            if p == target {
                return Err(RelationError::InvalidSchema(format!(
                    "predictor {name:?} is the target attribute"
                )));
            }
            let (p_codes, p_values) = dense_codes(rel, p);
            let mut table = HashMap::new();
            let mut errors = 0usize;
            let mut tally = |pc: usize, majority: Option<(usize, u64, u64)>| {
                // Dictionary entries no row references have no class.
                let Some((mtc, mn, total)) = majority else { return };
                errors += (total - mn) as usize;
                table.insert(p_values[pc].clone(), t_values[mtc].clone());
            };
            // counts[predictor code][class code] — dense for the
            // common low-cardinality cross product, per-value sparse
            // maps otherwise (a near-unique column would make the
            // dense matrix quadratic in memory).
            if p_values.len().saturating_mul(t_values.len()) <= DENSE_COUNT_CELLS_MAX {
                let mut counts = vec![vec![0u64; t_values.len()]; p_values.len()];
                for (&pc, &tc) in p_codes.iter().zip(&t_codes) {
                    counts[pc as usize][tc as usize] += 1;
                }
                for (pc, classes) in counts.iter().enumerate() {
                    let pairs = classes.iter().enumerate().map(|(tc, &n)| (tc, n));
                    tally(pc, majority_scan(pairs, &t_values));
                }
            } else {
                let mut counts: Vec<HashMap<u32, u64>> = vec![HashMap::new(); p_values.len()];
                for (&pc, &tc) in p_codes.iter().zip(&t_codes) {
                    *counts[pc as usize].entry(tc).or_insert(0) += 1;
                }
                for (pc, classes) in counts.iter().enumerate() {
                    let pairs = classes.iter().map(|(&tc, &n)| (tc as usize, n));
                    tally(pc, majority_scan(pairs, &t_values));
                }
            }
            if best.as_ref().is_none_or(|(_, _, e)| errors < *e) {
                best = Some((p, table, errors));
            }
        }
        let (predictor, table, errors) = best.expect("candidates checked non-empty");
        let default = majority_class(&t_codes, &t_values);
        Ok(OneR {
            predictor,
            target,
            predictors: vec![predictor],
            table,
            default,
            training_error: errors as f64 / rel.len() as f64,
        })
    }

    /// The chosen predictor's attribute index.
    #[must_use]
    pub fn predictor(&self) -> usize {
        self.predictor
    }

    /// Fraction of training rows the rule misclassifies.
    #[must_use]
    pub fn training_error(&self) -> f64 {
        self.training_error
    }
}

impl Classifier for OneR {
    fn predict(&self, values: &[Value]) -> Option<Value> {
        let v = values.get(self.predictor)?;
        Some(self.table.get(v).unwrap_or(&self.default).clone())
    }

    fn target(&self) -> usize {
        self.target
    }

    fn predictors(&self) -> &[usize] {
        &self.predictors
    }
}

/// Largest predictor-distinct × target-distinct cross product the
/// OneR trainer counts in a dense matrix (32 MiB of `u64` cells);
/// beyond it, counting falls back to per-value sparse maps whose
/// memory is bounded by the *observed* pairs.
const DENSE_COUNT_CELLS_MAX: usize = 1 << 22;

/// Majority class among `(class code, count)` pairs, ties broken
/// toward the smallest class label (order-independent, so sparse map
/// iteration is safe). Returns `(majority code, its count, total)`.
fn majority_scan(
    pairs: impl Iterator<Item = (usize, u64)>,
    t_values: &[Value],
) -> Option<(usize, u64, u64)> {
    let mut majority: Option<(usize, u64)> = None;
    let mut total = 0u64;
    for (tc, n) in pairs {
        if n == 0 {
            continue;
        }
        total += n;
        let better = match majority {
            None => true,
            Some((btc, bn)) => n > bn || (n == bn && t_values[tc] < t_values[btc]),
        };
        if better {
            majority = Some((tc, n));
        }
    }
    majority.map(|(tc, n)| (tc, n, total))
}

/// The most frequent class over dense-coded target rows, ties broken
/// toward the smallest class label.
fn majority_class(t_codes: &[u32], t_values: &[Value]) -> Value {
    let mut counts = vec![0u64; t_values.len()];
    for &tc in t_codes {
        counts[tc as usize] += 1;
    }
    let mut best: Option<usize> = None;
    for (tc, &n) in counts.iter().enumerate() {
        if n == 0 {
            continue;
        }
        let better = match best {
            None => true,
            Some(b) => n > counts[b] || (n == counts[b] && t_values[tc] < t_values[b]),
        };
        if better {
            best = Some(tc);
        }
    }
    t_values[best.expect("relation checked non-empty")].clone()
}

/// Categorical naive Bayes with Laplace (add-one) smoothing.
#[derive(Debug, Clone)]
pub struct NaiveBayes {
    target: usize,
    predictors: Vec<usize>,
    classes: Vec<Value>,
    /// Log prior per class.
    log_prior: Vec<f64>,
    /// Per predictor: value → per-class log likelihood.
    likelihood: Vec<HashMap<Value, Vec<f64>>>,
    /// Per predictor: log likelihood for unseen values (smoothing
    /// mass), per class.
    unseen: Vec<Vec<f64>>,
}

impl NaiveBayes {
    /// Train on `rel`: predict `target_attr` from `predictor_attrs`.
    ///
    /// # Errors
    ///
    /// [`RelationError::UnknownAttr`] for unknown names, or
    /// [`RelationError::InvalidSchema`] for an empty relation, empty
    /// predictor list, or a predictor equal to the target.
    pub fn train(
        rel: &Relation,
        target_attr: &str,
        predictor_attrs: &[&str],
    ) -> Result<Self, RelationError> {
        let target = rel.schema().index_of(target_attr)?;
        if predictor_attrs.is_empty() {
            return Err(RelationError::InvalidSchema(
                "naive Bayes needs at least one predictor".into(),
            ));
        }
        if rel.is_empty() {
            return Err(RelationError::InvalidSchema(
                "cannot train naive Bayes on an empty relation".into(),
            ));
        }
        let mut predictors = Vec::with_capacity(predictor_attrs.len());
        for name in predictor_attrs {
            let p = rel.schema().index_of(name)?;
            if p == target {
                return Err(RelationError::InvalidSchema(format!(
                    "predictor {name:?} is the target attribute"
                )));
            }
            predictors.push(p);
        }

        // Dense-code the target column once; classes are the *seen*
        // codes, sorted by value so the model is independent of
        // counting order.
        let (t_codes, t_values) = dense_codes(rel, target);
        let mut counts_by_code = vec![0u64; t_values.len()];
        for &tc in &t_codes {
            counts_by_code[tc as usize] += 1;
        }
        let mut seen_codes: Vec<usize> =
            (0..t_values.len()).filter(|&tc| counts_by_code[tc] > 0).collect();
        seen_codes.sort_by(|&a, &b| t_values[a].cmp(&t_values[b]));
        let classes: Vec<Value> = seen_codes.iter().map(|&tc| t_values[tc].clone()).collect();
        let class_counts: Vec<u64> = seen_codes.iter().map(|&tc| counts_by_code[tc]).collect();
        // target code → index into the sorted class list.
        let mut class_idx_of = vec![usize::MAX; t_values.len()];
        for (i, &tc) in seen_codes.iter().enumerate() {
            class_idx_of[tc] = i;
        }
        let n = rel.len() as f64;
        let log_prior: Vec<f64> = class_counts.iter().map(|&c| (c as f64 / n).ln()).collect();

        // Per-predictor conditional counts, in code space.
        let mut likelihood = Vec::with_capacity(predictors.len());
        let mut unseen = Vec::with_capacity(predictors.len());
        for &p in &predictors {
            let (p_codes, p_values) = dense_codes(rel, p);
            let mut counts = vec![vec![0u64; classes.len()]; p_values.len()];
            let mut p_seen = vec![false; p_values.len()];
            for (&pc, &tc) in p_codes.iter().zip(&t_codes) {
                counts[pc as usize][class_idx_of[tc as usize]] += 1;
                p_seen[pc as usize] = true;
            }
            // Smoothing mass counts distinct *observed* predictor
            // values (text dictionaries may carry unused entries).
            let domain_size = p_seen.iter().filter(|&&s| s).count() as f64;
            let mut table: HashMap<Value, Vec<f64>> = HashMap::with_capacity(p_values.len());
            for (pc, per_class) in counts.into_iter().enumerate() {
                if !p_seen[pc] {
                    continue;
                }
                let logs = per_class
                    .iter()
                    .zip(&class_counts)
                    .map(|(&c, &class_total)| {
                        ((c as f64 + 1.0) / (class_total as f64 + domain_size + 1.0)).ln()
                    })
                    .collect();
                table.insert(p_values[pc].clone(), logs);
            }
            let unseen_logs = class_counts
                .iter()
                .map(|&class_total| (1.0 / (class_total as f64 + domain_size + 1.0)).ln())
                .collect();
            likelihood.push(table);
            unseen.push(unseen_logs);
        }
        Ok(NaiveBayes { target, predictors, classes, log_prior, likelihood, unseen })
    }

    /// The class labels seen in training, sorted.
    #[must_use]
    pub fn classes(&self) -> &[Value] {
        &self.classes
    }
}

impl Classifier for NaiveBayes {
    fn predict(&self, values: &[Value]) -> Option<Value> {
        let mut scores = self.log_prior.clone();
        for (slot, &p) in self.predictors.iter().enumerate() {
            let v = values.get(p)?;
            let logs = self.likelihood[slot].get(v).unwrap_or(&self.unseen[slot]);
            for (s, l) in scores.iter_mut().zip(logs) {
                *s += *l;
            }
        }
        let best =
            scores.iter().enumerate().max_by(|a, b| a.1.total_cmp(b.1).then(b.0.cmp(&a.0)))?.0;
        Some(self.classes[best].clone())
    }

    fn target(&self) -> usize {
        self.target
    }

    fn predictors(&self) -> &[usize] {
        &self.predictors
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use catmark_relation::{AttrType, Schema};

    /// dept (0..4) determines aisle exactly; region is noise.
    fn fixture(n: i64) -> Relation {
        let schema = Schema::builder()
            .key_attr("k", AttrType::Integer)
            .categorical_attr("dept", AttrType::Integer)
            .categorical_attr("region", AttrType::Integer)
            .categorical_attr("aisle", AttrType::Integer)
            .build()
            .unwrap();
        let mut rel = Relation::new(schema);
        for i in 0..n {
            let dept = i % 4;
            let region = (i * 7) % 5;
            let aisle = dept + 100;
            rel.push(vec![Value::Int(i), Value::Int(dept), Value::Int(region), Value::Int(aisle)])
                .unwrap();
        }
        rel
    }

    #[test]
    fn oner_picks_the_informative_predictor() {
        let rel = fixture(200);
        let clf = OneR::train(&rel, "aisle", &["region", "dept"]).unwrap();
        assert_eq!(clf.predictor(), rel.schema().index_of("dept").unwrap());
        assert_eq!(clf.training_error(), 0.0);
        assert_eq!(accuracy(&clf, &rel), 1.0);
    }

    #[test]
    fn oner_unseen_value_falls_back_to_majority() {
        let rel = fixture(100);
        let clf = OneR::train(&rel, "aisle", &["dept"]).unwrap();
        let pred =
            clf.predict(&[Value::Int(0), Value::Int(999), Value::Int(0), Value::Int(0)]).unwrap();
        // Majority aisle (all tie at 25 each → smallest label wins).
        assert_eq!(pred, Value::Int(100));
    }

    #[test]
    fn oner_rejects_degenerate_inputs() {
        let rel = fixture(10);
        assert!(OneR::train(&rel, "aisle", &[]).is_err());
        assert!(OneR::train(&rel, "aisle", &["aisle"]).is_err());
        assert!(OneR::train(&rel, "nope", &["dept"]).is_err());
        let empty = Relation::new(rel.schema().clone());
        assert!(OneR::train(&empty, "aisle", &["dept"]).is_err());
    }

    #[test]
    fn oner_sparse_counting_handles_near_unique_columns() {
        // predictor and target both near-unique: the distinct cross
        // product (25M cells) exceeds the dense-matrix cap, so the
        // sparse path must produce the same exact rule.
        let schema = Schema::builder()
            .key_attr("k", AttrType::Integer)
            .categorical_attr("p", AttrType::Integer)
            .categorical_attr("t", AttrType::Integer)
            .build()
            .unwrap();
        let mut rel = Relation::new(schema);
        for i in 0..5_000i64 {
            rel.push(vec![Value::Int(i), Value::Int(i), Value::Int(i * 2)]).unwrap();
        }
        let clf = OneR::train(&rel, "t", &["p"]).unwrap();
        assert_eq!(clf.training_error(), 0.0);
        assert_eq!(accuracy(&clf, &rel), 1.0);
    }

    #[test]
    fn naive_bayes_learns_exact_mapping() {
        let rel = fixture(200);
        let clf = NaiveBayes::train(&rel, "aisle", &["dept", "region"]).unwrap();
        assert_eq!(accuracy(&clf, &rel), 1.0);
        assert_eq!(clf.classes().len(), 4);
    }

    #[test]
    fn naive_bayes_handles_unseen_predictor_values() {
        let rel = fixture(100);
        let clf = NaiveBayes::train(&rel, "aisle", &["dept"]).unwrap();
        let pred = clf.predict(&[Value::Int(0), Value::Int(999), Value::Int(0), Value::Int(0)]);
        assert!(pred.is_some(), "smoothing backs off, never abstains");
    }

    #[test]
    fn naive_bayes_beats_chance_under_noise() {
        // aisle = dept except 20% of rows scrambled.
        let rel = {
            let mut rel = fixture(500);
            let aisle_idx = 3;
            for row in (0..rel.len()).step_by(5) {
                rel.update_value(row, aisle_idx, Value::Int(100 + (row as i64 * 3) % 4)).unwrap();
            }
            rel
        };
        let clf = NaiveBayes::train(&rel, "aisle", &["dept"]).unwrap();
        let acc = accuracy(&clf, &rel);
        assert!(acc > 0.75, "acc={acc}");
    }

    #[test]
    fn naive_bayes_rejects_degenerate_inputs() {
        let rel = fixture(10);
        assert!(NaiveBayes::train(&rel, "aisle", &[]).is_err());
        assert!(NaiveBayes::train(&rel, "aisle", &["aisle"]).is_err());
        let empty = Relation::new(rel.schema().clone());
        assert!(NaiveBayes::train(&empty, "aisle", &["dept"]).is_err());
    }

    #[test]
    fn accuracy_on_empty_relation_is_zero() {
        let rel = fixture(10);
        let clf = OneR::train(&rel, "aisle", &["dept"]).unwrap();
        let empty = Relation::new(rel.schema().clone());
        assert_eq!(accuracy(&clf, &empty), 0.0);
    }
}
