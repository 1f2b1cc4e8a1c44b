//! Association rules and rule-drift measurement.
//!
//! Rules `antecedent ⇒ consequent` are derived from frequent itemsets
//! (single-item consequents, the classic formulation). A [`RuleSet`]
//! can be *re-evaluated* against a second relation — typically the
//! watermarked version of the mined one — producing a [`RuleDrift`]
//! report stating which rules survived, which broke, and how far
//! confidences moved. This is the measurement half of the paper's
//! Section 6 proposal to make the encoder aware of "classification and
//! association rules"; the enforcement half lives in
//! [`constraints`](crate::constraints).

use std::fmt;

use crate::apriori::FrequentItemsets;
use crate::item::{Item, Itemset, Transactions};

/// One association rule `antecedent ⇒ consequent`.
#[derive(Debug, Clone, PartialEq)]
pub struct Rule {
    /// Left-hand side (never empty).
    pub antecedent: Itemset,
    /// Right-hand side (a single item).
    pub consequent: Item,
    /// Fraction of transactions matching antecedent ∪ consequent.
    pub support: f64,
    /// `support(antecedent ∪ consequent) / support(antecedent)`.
    pub confidence: f64,
    /// `confidence / support(consequent)` — how much the antecedent
    /// lifts the consequent over its base rate.
    pub lift: f64,
}

impl Rule {
    /// The full itemset `antecedent ∪ {consequent}`.
    #[must_use]
    pub fn full_set(&self) -> Itemset {
        self.antecedent
            .union(&Itemset::singleton(self.consequent.clone()))
            .expect("rule sides are attribute-disjoint by construction")
    }
}

impl fmt::Display for Rule {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} ⇒ {} (sup {:.3}, conf {:.3}, lift {:.2})",
            self.antecedent, self.consequent, self.support, self.confidence, self.lift
        )
    }
}

/// A set of mined rules plus the thresholds that produced them.
#[derive(Debug, Clone)]
pub struct RuleSet {
    rules: Vec<Rule>,
    /// Minimum confidence used at derivation time.
    pub min_confidence: f64,
}

impl RuleSet {
    /// Derive rules from `frequent` itemsets: for every frequent set of
    /// size ≥ 2 and every single-item consequent choice whose
    /// confidence clears `min_confidence`.
    ///
    /// Rules are sorted by descending confidence, then support, then
    /// rule order, so reports are deterministic.
    #[must_use]
    pub fn derive(frequent: &FrequentItemsets, min_confidence: f64) -> Self {
        let total = frequent.total_transactions();
        let mut rules = Vec::new();
        for f in frequent.iter().filter(|f| f.set.len() >= 2) {
            for i in 0..f.set.len() {
                let antecedent = f.set.without(i);
                let consequent = f.set.items()[i].clone();
                let Some(ant_count) = frequent.count_of(&antecedent) else {
                    continue; // downward closure guarantees this in practice
                };
                let Some(cons_count) = frequent.count_of(&Itemset::singleton(consequent.clone()))
                else {
                    continue;
                };
                if ant_count == 0 || total == 0 {
                    continue;
                }
                let confidence = f.count as f64 / ant_count as f64;
                if confidence < min_confidence {
                    continue;
                }
                let support = f.count as f64 / total as f64;
                let base = cons_count as f64 / total as f64;
                let lift = if base > 0.0 { confidence / base } else { 0.0 };
                rules.push(Rule { antecedent, consequent, support, confidence, lift });
            }
        }
        rules.sort_by(|a, b| {
            b.confidence
                .total_cmp(&a.confidence)
                .then(b.support.total_cmp(&a.support))
                .then_with(|| a.antecedent.cmp(&b.antecedent))
                .then_with(|| a.consequent.cmp(&b.consequent))
        });
        RuleSet { rules, min_confidence }
    }

    /// The rules, strongest first.
    #[must_use]
    pub fn rules(&self) -> &[Rule] {
        &self.rules
    }

    /// Number of rules.
    #[must_use]
    pub fn len(&self) -> usize {
        self.rules.len()
    }

    /// Whether no rule was derived.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.rules.is_empty()
    }

    /// Keep only the `n` strongest rules (for constraint budgets).
    #[must_use]
    pub fn top(&self, n: usize) -> RuleSet {
        RuleSet {
            rules: self.rules.iter().take(n).cloned().collect(),
            min_confidence: self.min_confidence,
        }
    }

    /// Re-measure every rule against `tx` and report the drift.
    #[must_use]
    pub fn drift_against(&self, tx: &Transactions) -> RuleDrift {
        let mut surviving = 0usize;
        let mut broken = Vec::new();
        let mut max_confidence_drop: f64 = 0.0;
        let mut mean_abs_confidence_delta = 0.0;
        for rule in &self.rules {
            let ant = tx.support_count(&rule.antecedent);
            let full = tx.support_count(&rule.full_set());
            let confidence = if ant == 0 { 0.0 } else { full as f64 / ant as f64 };
            let delta = confidence - rule.confidence;
            mean_abs_confidence_delta += delta.abs();
            max_confidence_drop = max_confidence_drop.max(-delta);
            if confidence >= self.min_confidence {
                surviving += 1;
            } else {
                broken.push(BrokenRule { rule: rule.clone(), new_confidence: confidence });
            }
        }
        if !self.rules.is_empty() {
            mean_abs_confidence_delta /= self.rules.len() as f64;
        }
        RuleDrift {
            total_rules: self.rules.len(),
            surviving,
            broken,
            max_confidence_drop,
            mean_abs_confidence_delta,
        }
    }
}

/// A rule whose confidence fell below the derivation threshold.
#[derive(Debug, Clone)]
pub struct BrokenRule {
    /// The original rule.
    pub rule: Rule,
    /// Its confidence in the drifted data.
    pub new_confidence: f64,
}

/// Drift report of a [`RuleSet`] against altered data.
#[derive(Debug, Clone)]
pub struct RuleDrift {
    /// Rules measured.
    pub total_rules: usize,
    /// Rules still clearing the confidence threshold.
    pub surviving: usize,
    /// Rules that fell below it.
    pub broken: Vec<BrokenRule>,
    /// Largest confidence decrease across rules.
    pub max_confidence_drop: f64,
    /// Mean |confidence delta| across rules.
    pub mean_abs_confidence_delta: f64,
}

impl RuleDrift {
    /// Fraction of rules surviving, `1.0` for an empty set.
    #[must_use]
    pub fn survival_rate(&self) -> f64 {
        if self.total_rules == 0 {
            1.0
        } else {
            self.surviving as f64 / self.total_rules as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::apriori::{mine, AprioriConfig};
    use catmark_relation::{AttrType, Relation, Schema, Value};

    fn dept_shelf_relation(n: i64, noise_every: i64) -> Relation {
        let schema = Schema::builder()
            .key_attr("k", AttrType::Integer)
            .categorical_attr("dept", AttrType::Integer)
            .categorical_attr("shelf", AttrType::Integer)
            .build()
            .unwrap();
        let mut rel = Relation::new(schema);
        for i in 0..n {
            let dept = i % 4;
            let shelf =
                if noise_every > 0 && i % noise_every == noise_every - 1 { 99 } else { dept * 10 };
            rel.push(vec![Value::Int(i), Value::Int(dept), Value::Int(shelf)]).unwrap();
        }
        rel
    }

    fn mined_rules(rel: &Relation, min_conf: f64) -> (RuleSet, Transactions) {
        let tx = Transactions::from_relation(rel, &["dept", "shelf"]).unwrap();
        let freq = mine(&tx, &AprioriConfig { min_support: 0.1, max_len: 2 });
        (RuleSet::derive(&freq, min_conf), tx)
    }

    #[test]
    fn derives_high_confidence_dept_to_shelf_rules() {
        let rel = dept_shelf_relation(200, 10);
        let (rules, _) = mined_rules(&rel, 0.8);
        // dept=d ⇒ shelf=10d has confidence 0.9; the reverse direction
        // has confidence 1.0 (a 10d shelf only comes from dept d).
        assert!(!rules.is_empty());
        for r in rules.rules() {
            assert!(r.confidence >= 0.8, "{r}");
            assert!(r.lift > 1.0, "real associations lift: {r}");
        }
        // Noise rows (i % 10 == 9) are odd, so depts 0 and 2 are never
        // noised: 4 exact shelf ⇒ dept rules plus dept0 ⇒ shelf0 and
        // dept2 ⇒ shelf20.
        let perfect = rules.rules().iter().filter(|r| r.confidence >= 0.999).count();
        assert_eq!(perfect, 6, "exact rules");
    }

    #[test]
    fn confidence_ordering_is_descending() {
        let rel = dept_shelf_relation(200, 10);
        let (rules, _) = mined_rules(&rel, 0.5);
        let confs: Vec<f64> = rules.rules().iter().map(|r| r.confidence).collect();
        assert!(confs.windows(2).all(|w| w[0] >= w[1]));
    }

    #[test]
    fn drift_on_identical_data_is_zero() {
        let rel = dept_shelf_relation(200, 10);
        let (rules, tx) = mined_rules(&rel, 0.8);
        let drift = rules.drift_against(&tx);
        assert_eq!(drift.surviving, drift.total_rules);
        assert!(drift.broken.is_empty());
        assert_eq!(drift.max_confidence_drop, 0.0);
        assert_eq!(drift.survival_rate(), 1.0);
    }

    #[test]
    fn drift_detects_broken_rules() {
        let rel = dept_shelf_relation(200, 10);
        let (rules, _) = mined_rules(&rel, 0.85);
        // Scramble shelves for dept 0 entirely.
        let mut altered = rel.clone();
        let shelf_idx = 2;
        for row in 0..altered.len() {
            if altered.value(row, 1).unwrap() == Value::Int(0) {
                altered.update_value(row, shelf_idx, Value::Int(77)).unwrap();
            }
        }
        let tx = Transactions::from_relation(&altered, &["dept", "shelf"]).unwrap();
        let drift = rules.drift_against(&tx);
        assert!(drift.surviving < drift.total_rules);
        assert!(!drift.broken.is_empty());
        assert!(drift.max_confidence_drop > 0.5);
        // Every broken rule mentions dept 0 or shelf 0.
        for b in &drift.broken {
            let touches_zero = b.rule.full_set().items().iter().any(|it| it.value == Value::Int(0));
            assert!(touches_zero, "unexpected break: {}", b.rule);
        }
    }

    #[test]
    fn top_keeps_strongest() {
        let rel = dept_shelf_relation(200, 10);
        let (rules, _) = mined_rules(&rel, 0.5);
        let top2 = rules.top(2);
        assert_eq!(top2.len(), 2);
        assert_eq!(top2.rules()[0].confidence, rules.rules()[0].confidence);
    }

    #[test]
    fn empty_ruleset_reports_full_survival() {
        let rel = dept_shelf_relation(20, 0);
        let tx = Transactions::from_relation(&rel, &["dept", "shelf"]).unwrap();
        let freq = mine(&tx, &AprioriConfig { min_support: 0.99, max_len: 2 });
        let rules = RuleSet::derive(&freq, 0.9);
        assert!(rules.is_empty());
        let drift = rules.drift_against(&tx);
        assert_eq!(drift.survival_rate(), 1.0);
    }

    #[test]
    fn rule_display_is_informative() {
        let rel = dept_shelf_relation(100, 10);
        let (rules, _) = mined_rules(&rel, 0.8);
        let s = rules.rules()[0].to_string();
        assert!(s.contains("⇒") && s.contains("conf"), "{s}");
    }
}
