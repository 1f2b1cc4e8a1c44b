//! Semantic-consistency quality constraints.
//!
//! These plug the mining substrate into the watermarking loop: both
//! types implement [`QualityConstraint`], so they slot into a
//! [`catmark_core::quality::QualityGuard`] next to the paper's
//! alteration budgets and frequency-drift limits. Every candidate
//! alteration is tested against the mined model *incrementally* — the
//! constraint keeps a tuple snapshot and per-rule (or per-row)
//! counters, so an `admits` check costs O(rules) rather than a rescan
//! of the relation.
//!
//! This realizes the paper's Section 6 proposal: "augment the encoding
//! method with direct awareness of semantic consistency (e.g.
//! classification and association rules)".

use std::cell::RefCell;

use catmark_core::quality::{Alteration, CodedAlteration, QualityConstraint};
use catmark_relation::{CategoricalDomain, Relation, Value};

use crate::classify::Classifier;
use crate::item::{row_values, Itemset};
use crate::rules::RuleSet;

struct TrackedRule {
    antecedent: Itemset,
    full: Itemset,
    /// Confidence below which the rule counts as damaged.
    floor: f64,
    ant_count: u64,
    full_count: u64,
}

impl TrackedRule {
    fn confidence(ant: u64, full: u64) -> f64 {
        if ant == 0 {
            // The rule's antecedent vanished from the data — a
            // re-mining consumer would not find the rule at all, so
            // treat it as fully damaged rather than vacuously true.
            0.0
        } else {
            full as f64 / ant as f64
        }
    }
}

/// Vetoes alterations that would damage mined association rules.
///
/// An alteration is admitted iff, for every tracked rule, the rule's
/// confidence after the change stays at or above
/// `original_confidence - max_confidence_drop` (clamped at zero).
/// Confidence *increases* are always admitted.
pub struct AssociationRulePreserved {
    rules: Vec<TrackedRule>,
    rows: Vec<Vec<Value>>,
    /// Decoded domain of a code-bound guarded pass: position `t`
    /// holds the value behind domain code `t`.
    domain_values: Vec<Value>,
}

impl AssociationRulePreserved {
    /// Track `rules` against the current contents of `rel`, allowing
    /// each rule's confidence to drop by at most `max_confidence_drop`.
    ///
    /// Counters are measured from `rel` directly (not the mined
    /// support values), so the constraint is exact even if the rules
    /// were mined from an earlier snapshot.
    #[must_use]
    pub fn new(rel: &Relation, rules: &RuleSet, max_confidence_drop: f64) -> Self {
        let rows = row_values(rel);
        let tracked = rules
            .rules()
            .iter()
            .map(|r| {
                let full = r.full_set();
                let ant_count = rows.iter().filter(|row| r.antecedent.matches(row)).count() as u64;
                let full_count = rows.iter().filter(|row| full.matches(row)).count() as u64;
                let current = TrackedRule::confidence(ant_count, full_count);
                TrackedRule {
                    antecedent: r.antecedent.clone(),
                    full,
                    floor: (current - max_confidence_drop).max(0.0),
                    ant_count,
                    full_count,
                }
            })
            .collect();
        AssociationRulePreserved { rules: tracked, rows, domain_values: Vec::new() }
    }

    /// Number of tracked rules.
    #[must_use]
    pub fn tracked_rules(&self) -> usize {
        self.rules.len()
    }

    /// Current confidence of tracked rule `i`.
    #[must_use]
    pub fn confidence(&self, i: usize) -> f64 {
        let r = &self.rules[i];
        TrackedRule::confidence(r.ant_count, r.full_count)
    }

    /// One rule's (antecedent, full) count delta if `row`'s `attr`
    /// moved to `value`, computed by substitution — no altered row is
    /// ever materialized.
    fn rule_delta(r: &TrackedRule, before: &[Value], attr: usize, value: &Value) -> (i64, i64) {
        let ant = i64::from(r.antecedent.matches_substituted(before, attr, value))
            - i64::from(r.antecedent.matches(before));
        let full = i64::from(r.full.matches_substituted(before, attr, value))
            - i64::from(r.full.matches(before));
        (ant, full)
    }

    fn admits_at(&self, row: usize, attr: usize, value: &Value) -> bool {
        let Some(before) = self.rows.get(row) else {
            return true; // rows added after construction are not tracked
        };
        if attr >= before.len() {
            return true;
        }
        self.rules.iter().all(|r| {
            let (d_ant, d_full) = Self::rule_delta(r, before, attr, value);
            if d_ant == 0 && d_full == 0 {
                return true;
            }
            let ant = r.ant_count.saturating_add_signed(d_ant);
            let full = r.full_count.saturating_add_signed(d_full);
            let new_conf = TrackedRule::confidence(ant, full);
            let old_conf = TrackedRule::confidence(r.ant_count, r.full_count);
            new_conf >= old_conf || new_conf >= r.floor
        })
    }

    fn apply_at(&mut self, row: usize, attr: usize, value: &Value) {
        let Some(before) = self.rows.get(row) else {
            return;
        };
        if attr >= before.len() {
            return;
        }
        for r in &mut self.rules {
            let (d_ant, d_full) = Self::rule_delta(r, before, attr, value);
            r.ant_count = r.ant_count.saturating_add_signed(d_ant);
            r.full_count = r.full_count.saturating_add_signed(d_full);
        }
        self.rows[row][attr] = value.clone();
    }
}

impl QualityConstraint for AssociationRulePreserved {
    fn name(&self) -> &str {
        "association-rules"
    }

    fn admits(&self, change: &Alteration) -> bool {
        self.admits_at(change.row, change.attr, &change.new)
    }

    fn commit(&mut self, change: &Alteration) {
        let value = change.new.clone();
        self.apply_at(change.row, change.attr, &value);
    }

    fn rollback(&mut self, change: &Alteration) {
        let value = change.old.clone();
        self.apply_at(change.row, change.attr, &value);
    }

    /// Decode the domain once; coded proposals then borrow their
    /// values straight from the table (no per-check materialization).
    fn bind_codes(&mut self, _attr: usize, domain: &CategoricalDomain) -> bool {
        self.domain_values = domain.values().to_vec();
        true
    }

    fn admits_coded(&self, change: &CodedAlteration) -> bool {
        self.admits_at(change.row, change.attr, &self.domain_values[change.new as usize])
    }

    fn commit_coded(&mut self, change: &CodedAlteration) {
        let value = self.domain_values[change.new as usize].clone();
        self.apply_at(change.row, change.attr, &value);
    }

    fn rollback_coded(&mut self, change: &CodedAlteration) {
        let value = self.domain_values[change.old as usize].clone();
        self.apply_at(change.row, change.attr, &value);
    }
}

/// Vetoes alterations that would push a trained classifier's accuracy
/// on the relation below a floor.
///
/// The classifier is trained *before* embedding (on the original
/// data) and frozen; the constraint tracks, per row, whether the
/// classifier still predicts the row's target correctly as values
/// move underneath it.
pub struct ClassifierAccuracyPreserved {
    clf: Box<dyn Classifier>,
    rows: Vec<Vec<Value>>,
    correct: Vec<bool>,
    hits: usize,
    min_accuracy: f64,
    /// Scratch row for what-if predictions: reused across checks so
    /// the admit path never allocates a row vector.
    scratch: RefCell<Vec<Value>>,
    /// Decoded domain of a code-bound guarded pass.
    domain_values: Vec<Value>,
}

impl ClassifierAccuracyPreserved {
    /// Track `clf`'s accuracy over `rel`, vetoing changes that would
    /// push it below `min_accuracy`.
    #[must_use]
    pub fn new(rel: &Relation, clf: Box<dyn Classifier>, min_accuracy: f64) -> Self {
        let rows = row_values(rel);
        let correct: Vec<bool> = rows.iter().map(|row| Self::row_correct(&*clf, row)).collect();
        let hits = correct.iter().filter(|&&c| c).count();
        ClassifierAccuracyPreserved {
            clf,
            rows,
            correct,
            hits,
            min_accuracy,
            scratch: RefCell::new(Vec::new()),
            domain_values: Vec::new(),
        }
    }

    fn row_correct(clf: &dyn Classifier, row: &[Value]) -> bool {
        clf.predict(row).as_ref() == row.get(clf.target())
    }

    /// Current tracked accuracy.
    #[must_use]
    pub fn accuracy(&self) -> f64 {
        if self.rows.is_empty() {
            0.0
        } else {
            self.hits as f64 / self.rows.len() as f64
        }
    }

    fn hits_after(&self, row: usize, attr: usize, value: &Value) -> Option<usize> {
        let before = self.rows.get(row)?;
        if attr >= before.len() {
            return None;
        }
        let mut scratch = self.scratch.borrow_mut();
        scratch.clone_from(before);
        scratch[attr] = value.clone();
        let was = self.correct[row];
        let now = Self::row_correct(&*self.clf, &scratch);
        Some(match (was, now) {
            (true, false) => self.hits - 1,
            (false, true) => self.hits + 1,
            _ => self.hits,
        })
    }

    fn admits_at(&self, row: usize, attr: usize, value: &Value) -> bool {
        let Some(hits) = self.hits_after(row, attr, value) else {
            return true;
        };
        if self.rows.is_empty() {
            return true;
        }
        hits as f64 / self.rows.len() as f64 >= self.min_accuracy
    }

    fn apply_at(&mut self, row: usize, attr: usize, value: &Value) {
        let Some(hits) = self.hits_after(row, attr, value) else {
            return;
        };
        self.hits = hits;
        self.rows[row][attr] = value.clone();
        self.correct[row] = Self::row_correct(&*self.clf, &self.rows[row]);
    }
}

impl QualityConstraint for ClassifierAccuracyPreserved {
    fn name(&self) -> &str {
        "classifier-accuracy"
    }

    fn admits(&self, change: &Alteration) -> bool {
        self.admits_at(change.row, change.attr, &change.new)
    }

    fn commit(&mut self, change: &Alteration) {
        let value = change.new.clone();
        self.apply_at(change.row, change.attr, &value);
    }

    fn rollback(&mut self, change: &Alteration) {
        let value = change.old.clone();
        self.apply_at(change.row, change.attr, &value);
    }

    /// Decode the domain once; coded proposals then borrow their
    /// values from the table.
    fn bind_codes(&mut self, _attr: usize, domain: &CategoricalDomain) -> bool {
        self.domain_values = domain.values().to_vec();
        true
    }

    fn admits_coded(&self, change: &CodedAlteration) -> bool {
        self.admits_at(change.row, change.attr, &self.domain_values[change.new as usize])
    }

    fn commit_coded(&mut self, change: &CodedAlteration) {
        let value = self.domain_values[change.new as usize].clone();
        self.apply_at(change.row, change.attr, &value);
    }

    fn rollback_coded(&mut self, change: &CodedAlteration) {
        let value = self.domain_values[change.old as usize].clone();
        self.apply_at(change.row, change.attr, &value);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::apriori::{mine, AprioriConfig};
    use crate::classify::OneR;
    use crate::item::Transactions;
    use catmark_relation::{AttrType, Schema};

    /// dept determines shelf exactly for all 100 rows.
    fn fixture() -> Relation {
        let schema = Schema::builder()
            .key_attr("k", AttrType::Integer)
            .categorical_attr("dept", AttrType::Integer)
            .categorical_attr("shelf", AttrType::Integer)
            .build()
            .unwrap();
        let mut rel = Relation::new(schema);
        for i in 0..100i64 {
            rel.push(vec![Value::Int(i), Value::Int(i % 4), Value::Int((i % 4) * 10)]).unwrap();
        }
        rel
    }

    fn mined(rel: &Relation) -> RuleSet {
        let tx = Transactions::from_relation(rel, &["dept", "shelf"]).unwrap();
        let freq = mine(&tx, &AprioriConfig { min_support: 0.1, max_len: 2 });
        RuleSet::derive(&freq, 0.9)
    }

    fn shelf_change(row: usize, old: i64, new: i64) -> Alteration {
        Alteration { row, attr: 2, old: Value::Int(old), new: Value::Int(new) }
    }

    #[test]
    fn rule_constraint_allows_slack_then_vetoes() {
        let rel = fixture();
        let rules = mined(&rel);
        assert!(!rules.is_empty());
        // Each dept has 25 rows; a 10% confidence drop allows 2 bad
        // shelves per dept (2/25 = 8%), the 3rd breaches.
        let mut c = AssociationRulePreserved::new(&rel, &rules, 0.10);
        // Rows 0, 4, 8 are dept 0 / shelf 0.
        let a1 = shelf_change(0, 0, 99);
        assert!(c.admits(&a1));
        c.commit(&a1);
        let a2 = shelf_change(4, 0, 99);
        assert!(c.admits(&a2));
        c.commit(&a2);
        let a3 = shelf_change(8, 0, 99);
        assert!(!c.admits(&a3), "third corruption of dept 0 must be vetoed");
    }

    #[test]
    fn rule_constraint_rollback_restores_slack() {
        let rel = fixture();
        let rules = mined(&rel);
        let mut c = AssociationRulePreserved::new(&rel, &rules, 0.10);
        let a1 = shelf_change(0, 0, 99);
        let a2 = shelf_change(4, 0, 99);
        c.commit(&a1);
        c.commit(&a2);
        let a3 = shelf_change(8, 0, 99);
        assert!(!c.admits(&a3));
        c.rollback(&a2);
        assert!(c.admits(&a3), "rollback must free the budget");
    }

    #[test]
    fn rule_constraint_admits_confidence_increases() {
        let mut rel = fixture();
        // Pre-damage one dept-0 row so confidence starts at 24/25.
        rel.update_value(0, 2, Value::Int(99)).unwrap();
        let rules = mined(&rel);
        let c = AssociationRulePreserved::new(&rel, &rules, 0.0);
        // Repairing the damaged row increases confidence: admitted
        // even with zero drop budget.
        let repair = shelf_change(0, 99, 0);
        assert!(c.admits(&repair));
    }

    #[test]
    fn rule_constraint_ignores_unrelated_attributes() {
        let rel = fixture();
        let rules = mined(&rel);
        let c = AssociationRulePreserved::new(&rel, &rules, 0.0);
        // Changing the key attribute touches no rule.
        let a = Alteration { row: 0, attr: 0, old: Value::Int(0), new: Value::Int(-1) };
        assert!(c.admits(&a));
    }

    #[test]
    fn rule_constraint_untracked_row_is_admitted() {
        let rel = fixture();
        let rules = mined(&rel);
        let c = AssociationRulePreserved::new(&rel, &rules, 0.0);
        let a = shelf_change(10_000, 0, 99);
        assert!(c.admits(&a));
    }

    #[test]
    fn classifier_constraint_vetoes_at_floor() {
        let rel = fixture();
        let clf = OneR::train(&rel, "shelf", &["dept"]).unwrap();
        // Start at accuracy 1.0; floor 0.98 allows 2 misses on 100.
        let mut c = ClassifierAccuracyPreserved::new(&rel, Box::new(clf), 0.98);
        assert_eq!(c.accuracy(), 1.0);
        let a1 = shelf_change(0, 0, 99);
        assert!(c.admits(&a1));
        c.commit(&a1);
        let a2 = shelf_change(4, 0, 99);
        assert!(c.admits(&a2));
        c.commit(&a2);
        assert!((c.accuracy() - 0.98).abs() < 1e-9);
        let a3 = shelf_change(8, 0, 99);
        assert!(!c.admits(&a3));
    }

    #[test]
    fn classifier_constraint_rollback_restores() {
        let rel = fixture();
        let clf = OneR::train(&rel, "shelf", &["dept"]).unwrap();
        let mut c = ClassifierAccuracyPreserved::new(&rel, Box::new(clf), 0.99);
        let a1 = shelf_change(0, 0, 99);
        c.commit(&a1);
        let a2 = shelf_change(4, 0, 99);
        assert!(!c.admits(&a2));
        c.rollback(&a1);
        assert_eq!(c.accuracy(), 1.0);
        assert!(c.admits(&a2));
    }

    #[test]
    fn classifier_constraint_admits_fixes() {
        let rel = fixture();
        let clf = OneR::train(&rel, "shelf", &["dept"]).unwrap();
        let mut c = ClassifierAccuracyPreserved::new(&rel, Box::new(clf), 1.0);
        // At floor 1.0 any damage is vetoed…
        let damage = shelf_change(0, 0, 99);
        assert!(!c.admits(&damage));
        // …but a change that keeps the prediction correct is fine
        // (changing dept of a row so prediction still matches? here:
        // alter the key, which the classifier ignores).
        let harmless = Alteration { row: 0, attr: 0, old: Value::Int(0), new: Value::Int(500) };
        assert!(c.admits(&harmless));
        c.commit(&harmless);
        assert_eq!(c.accuracy(), 1.0);
    }

    #[test]
    fn constraints_compose_in_a_quality_guard() {
        use catmark_core::quality::{AlterationBudget, QualityGuard};
        let rel = fixture();
        let rules = mined(&rel);
        let clf = OneR::train(&rel, "shelf", &["dept"]).unwrap();
        let mut guard = QualityGuard::new(vec![
            Box::new(AlterationBudget::new(100)),
            Box::new(AssociationRulePreserved::new(&rel, &rules, 0.10)),
            Box::new(ClassifierAccuracyPreserved::new(&rel, Box::new(clf), 0.95)),
        ]);
        let mut admitted = 0;
        for row in (0..40).step_by(4) {
            // All dept-0 rows: damaging each hurts both models.
            if guard.propose(shelf_change(row, 0, 99)) {
                admitted += 1;
            }
        }
        // 10% rule drop allows 2 per dept-0 rule; the rest are vetoed.
        assert_eq!(admitted, 2, "vetoes: {}", guard.vetoes());
    }
}
