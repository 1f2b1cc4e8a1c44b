//! On-the-fly data quality assessment (Section 4.1, Figure 3).
//!
//! "Each property of the database that needs to be preserved is
//! written as a constraint on the allowable change to the dataset. The
//! watermarking algorithm is then applied with these constraints as
//! input and re-evaluates them continuously for each alteration. A
//! rollback log is kept to allow undo operations in case certain
//! constraints are violated by the current watermarking step."
//!
//! [`QualityGuard`] is that mechanism: a stack of pluggable
//! [`QualityConstraint`]s consulted before every candidate alteration,
//! plus a [`RollbackLog`] that can undo any prefix of the embedding.
//! Constraints are stateful (they track the cumulative effect of
//! committed changes), mirroring the paper's "usability metric
//! plugins".

use std::collections::HashSet;

use catmark_relation::{CategoricalDomain, FrequencyHistogram, Relation, Value};

use crate::error::CoreError;

/// One candidate (or committed) attribute alteration.
#[derive(Debug, Clone, PartialEq)]
pub struct Alteration {
    /// Row index in the relation being watermarked.
    pub row: usize,
    /// Attribute index being altered.
    pub attr: usize,
    /// Value before the alteration.
    pub old: Value,
    /// Value after the alteration.
    pub new: Value,
}

/// A candidate alteration in *code space*: old and new values as
/// indices into the embedding domain instead of owned [`Value`]s.
///
/// The guarded embedding loop proposes one of these per fit tuple; a
/// constraint stack that accepted a [`QualityConstraint::bind_codes`]
/// call evaluates it with indexed loads only — no `Value`
/// materialization, no string hashing, no heap traffic on the
/// goodness loop. Both codes are guaranteed to be valid indices of
/// the bound domain (the embedder falls back to the value path for
/// rows whose current value is foreign to the domain).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CodedAlteration {
    /// Row index in the relation being watermarked.
    pub row: usize,
    /// Attribute index being altered (always the bound attribute).
    pub attr: usize,
    /// Domain code of the value before the alteration.
    pub old: u32,
    /// Domain code of the value after the alteration.
    pub new: u32,
}

/// A pluggable usability metric (Figure 3's "usability metric plugin").
///
/// Constraints always implement the value-space methods. The
/// `*_coded` family is an opt-in fast path: a constraint that returns
/// `true` from [`QualityConstraint::bind_codes`] promises that, for
/// alterations on the bound attribute whose old and new values are
/// both in the bound domain, its coded methods decide and mutate
/// state exactly like the value-space ones — the two representations
/// may then be mixed freely (e.g. a coded commit later undone by a
/// value-space rollback).
pub trait QualityConstraint {
    /// Human-readable name for veto reporting.
    fn name(&self) -> &str;

    /// Whether the constraint admits `change` given everything
    /// committed so far.
    fn admits(&self, change: &Alteration) -> bool;

    /// Record that `change` was applied.
    fn commit(&mut self, change: &Alteration);

    /// Record that a previously committed `change` was undone.
    fn rollback(&mut self, change: &Alteration);

    /// Bind the constraint to code space for a guarded pass altering
    /// `attr` over `domain`. Return `true` to enable the coded fast
    /// path (see the trait docs for the equivalence contract); the
    /// default declines, and the guard materializes value-space
    /// [`Alteration`]s for this constraint instead.
    fn bind_codes(&mut self, attr: usize, domain: &CategoricalDomain) -> bool {
        let _ = (attr, domain);
        false
    }

    /// Coded twin of [`QualityConstraint::admits`]. Only called after
    /// this constraint accepted a [`QualityConstraint::bind_codes`],
    /// so a constraint that opts in must override it (and the other
    /// coded methods, even as explicit no-ops) — the default panics
    /// rather than silently admitting everything.
    fn admits_coded(&self, change: &CodedAlteration) -> bool {
        let _ = change;
        panic!(
            "constraint {:?} accepted bind_codes but does not implement admits_coded",
            self.name()
        )
    }

    /// Coded twin of [`QualityConstraint::commit`]. See
    /// [`QualityConstraint::admits_coded`] for the override contract.
    fn commit_coded(&mut self, change: &CodedAlteration) {
        let _ = change;
        panic!(
            "constraint {:?} accepted bind_codes but does not implement commit_coded",
            self.name()
        )
    }

    /// Coded twin of [`QualityConstraint::rollback`]. See
    /// [`QualityConstraint::admits_coded`] for the override contract.
    fn rollback_coded(&mut self, change: &CodedAlteration) {
        let _ = change;
        panic!(
            "constraint {:?} accepted bind_codes but does not implement rollback_coded",
            self.name()
        )
    }
}

/// Caps the *number* of altered tuples — the paper's "practical
/// approach would be to begin by specifying an upper bound on the
/// percentage of allowable data alterations".
#[derive(Debug)]
pub struct AlterationBudget {
    budget: usize,
    used: usize,
}

impl AlterationBudget {
    /// Budget of `budget` alterations.
    #[must_use]
    pub fn new(budget: usize) -> Self {
        AlterationBudget { budget, used: 0 }
    }

    /// Budget as a fraction of a relation of `n` tuples.
    #[must_use]
    pub fn fraction_of(n: usize, fraction: f64) -> Self {
        Self::new((n as f64 * fraction).floor() as usize)
    }

    /// Alterations consumed so far.
    #[must_use]
    pub fn used(&self) -> usize {
        self.used
    }
}

impl QualityConstraint for AlterationBudget {
    fn name(&self) -> &str {
        "alteration-budget"
    }

    fn admits(&self, _change: &Alteration) -> bool {
        self.used < self.budget
    }

    fn commit(&mut self, _change: &Alteration) {
        self.used += 1;
    }

    fn rollback(&mut self, _change: &Alteration) {
        self.used = self.used.saturating_sub(1);
    }

    fn bind_codes(&mut self, _attr: usize, _domain: &CategoricalDomain) -> bool {
        true // counts alterations; never inspects values
    }

    fn admits_coded(&self, _change: &CodedAlteration) -> bool {
        self.used < self.budget
    }

    fn commit_coded(&mut self, _change: &CodedAlteration) {
        self.used += 1;
    }

    fn rollback_coded(&mut self, _change: &CodedAlteration) {
        self.used = self.used.saturating_sub(1);
    }
}

/// Bounds the L1 drift of the attribute's occurrence-frequency
/// histogram, protecting the Section 4.2 channel and any consumer that
/// mines the value distribution.
#[derive(Debug)]
pub struct FrequencyDriftLimit {
    domain: CategoricalDomain,
    baseline: Vec<u64>,
    current: Vec<u64>,
    total: u64,
    max_l1: f64,
}

impl FrequencyDriftLimit {
    /// Limit the drift of attribute `attr_idx` of `rel` (measured
    /// against its *current* histogram) to `max_l1`.
    ///
    /// # Errors
    ///
    /// Propagates histogram errors (foreign values in the column).
    pub fn new(
        rel: &Relation,
        attr_idx: usize,
        domain: &CategoricalDomain,
        max_l1: f64,
    ) -> Result<Self, CoreError> {
        let hist = FrequencyHistogram::from_relation(rel, attr_idx, domain)?;
        Ok(FrequencyDriftLimit {
            domain: domain.clone(),
            baseline: hist.counts().to_vec(),
            current: hist.counts().to_vec(),
            total: hist.total(),
            max_l1,
        })
    }

    fn l1_after(&self, change: &Alteration) -> Option<f64> {
        let old_idx = self.domain.index_of(&change.old).ok()?;
        let new_idx = self.domain.index_of(&change.new).ok()?;
        Some(self.l1_after_codes(old_idx, new_idx))
    }

    fn l1_after_codes(&self, old_idx: usize, new_idx: usize) -> f64 {
        let total = self.total as f64;
        if total == 0.0 {
            return 0.0;
        }
        let mut l1 = 0.0;
        for i in 0..self.baseline.len() {
            let mut c = self.current[i];
            if i == old_idx {
                c = c.saturating_sub(1);
            }
            if i == new_idx {
                c += 1;
            }
            l1 += (c as f64 / total - self.baseline[i] as f64 / total).abs();
        }
        l1
    }
}

impl QualityConstraint for FrequencyDriftLimit {
    fn name(&self) -> &str {
        "frequency-drift"
    }

    fn admits(&self, change: &Alteration) -> bool {
        // Values outside the domain are not this constraint's concern.
        self.l1_after(change).is_none_or(|l1| l1 <= self.max_l1)
    }

    fn commit(&mut self, change: &Alteration) {
        if let (Ok(old_idx), Ok(new_idx)) =
            (self.domain.index_of(&change.old), self.domain.index_of(&change.new))
        {
            self.current[old_idx] = self.current[old_idx].saturating_sub(1);
            self.current[new_idx] += 1;
        }
    }

    fn rollback(&mut self, change: &Alteration) {
        if let (Ok(old_idx), Ok(new_idx)) =
            (self.domain.index_of(&change.old), self.domain.index_of(&change.new))
        {
            self.current[new_idx] = self.current[new_idx].saturating_sub(1);
            self.current[old_idx] += 1;
        }
    }

    /// Code binding requires the coded indices to *be* this
    /// constraint's histogram indices — i.e. the guarded pass must
    /// run over the same domain. Otherwise fall back to values.
    fn bind_codes(&mut self, _attr: usize, domain: &CategoricalDomain) -> bool {
        *domain == self.domain
    }

    fn admits_coded(&self, change: &CodedAlteration) -> bool {
        self.l1_after_codes(change.old as usize, change.new as usize) <= self.max_l1
    }

    fn commit_coded(&mut self, change: &CodedAlteration) {
        let (old, new) = (change.old as usize, change.new as usize);
        self.current[old] = self.current[old].saturating_sub(1);
        self.current[new] += 1;
    }

    fn rollback_coded(&mut self, change: &CodedAlteration) {
        let (old, new) = (change.old as usize, change.new as usize);
        self.current[new] = self.current[new].saturating_sub(1);
        self.current[old] += 1;
    }
}

/// Declares a set of rows untouchable (semantic consistency: e.g.
/// tuples referenced by external systems).
#[derive(Debug)]
pub struct ImmutableRows {
    rows: HashSet<usize>,
}

impl ImmutableRows {
    /// Protect exactly `rows`.
    #[must_use]
    pub fn new(rows: impl IntoIterator<Item = usize>) -> Self {
        ImmutableRows { rows: rows.into_iter().collect() }
    }
}

impl QualityConstraint for ImmutableRows {
    fn name(&self) -> &str {
        "immutable-rows"
    }

    fn admits(&self, change: &Alteration) -> bool {
        !self.rows.contains(&change.row)
    }

    fn commit(&mut self, _change: &Alteration) {}

    fn rollback(&mut self, _change: &Alteration) {}

    fn bind_codes(&mut self, _attr: usize, _domain: &CategoricalDomain) -> bool {
        true // decides on the row index alone
    }

    fn admits_coded(&self, change: &CodedAlteration) -> bool {
        !self.rows.contains(&change.row)
    }

    fn commit_coded(&mut self, _change: &CodedAlteration) {}

    fn rollback_coded(&mut self, _change: &CodedAlteration) {}
}

/// Restricts replacement values to an allowed subset of the domain
/// (e.g. semantic groups: a beverage item may only become another
/// beverage).
#[derive(Debug)]
pub struct AllowedReplacements {
    allowed: HashSet<Value>,
    /// Per-domain-code membership, compiled by `bind_codes`.
    allowed_codes: Vec<bool>,
}

impl AllowedReplacements {
    /// Admit only alterations whose *new* value is in `allowed`.
    #[must_use]
    pub fn new(allowed: impl IntoIterator<Item = Value>) -> Self {
        AllowedReplacements { allowed: allowed.into_iter().collect(), allowed_codes: Vec::new() }
    }
}

impl QualityConstraint for AllowedReplacements {
    fn name(&self) -> &str {
        "allowed-replacements"
    }

    fn admits(&self, change: &Alteration) -> bool {
        self.allowed.contains(&change.new)
    }

    fn commit(&mut self, _change: &Alteration) {}

    fn rollback(&mut self, _change: &Alteration) {}

    fn bind_codes(&mut self, _attr: usize, domain: &CategoricalDomain) -> bool {
        self.allowed_codes =
            (0..domain.len()).map(|t| self.allowed.contains(domain.value_at(t))).collect();
        true
    }

    fn admits_coded(&self, change: &CodedAlteration) -> bool {
        self.allowed_codes[change.new as usize]
    }

    fn commit_coded(&mut self, _change: &CodedAlteration) {}

    fn rollback_coded(&mut self, _change: &CodedAlteration) {}
}

/// The alteration rollback log of Figure 3.
#[derive(Debug, Default)]
pub struct RollbackLog {
    entries: Vec<Alteration>,
}

impl RollbackLog {
    /// Empty log.
    #[must_use]
    pub fn new() -> Self {
        RollbackLog::default()
    }

    /// Committed alterations, oldest first.
    #[must_use]
    pub fn entries(&self) -> &[Alteration] {
        &self.entries
    }

    /// Number of committed alterations.
    #[must_use]
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether nothing has been committed.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    fn record(&mut self, change: Alteration) {
        self.entries.push(change);
    }
}

/// Orchestrates constraints and the rollback log around an embedding
/// pass.
pub struct QualityGuard {
    constraints: Vec<Box<dyn QualityConstraint>>,
    /// Per-constraint coded capability, parallel to `constraints`;
    /// empty until [`QualityGuard::bind_codes`].
    coded: Vec<bool>,
    /// The bound attribute and domain, for decoding coded proposals
    /// into value-space [`Alteration`]s (rollback log, fallback
    /// constraints).
    codec: Option<(usize, CategoricalDomain)>,
    log: RollbackLog,
    vetoes: usize,
}

impl std::fmt::Debug for QualityGuard {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("QualityGuard")
            .field("constraints", &self.constraints.iter().map(|c| c.name()).collect::<Vec<_>>())
            .field("committed", &self.log.len())
            .field("vetoes", &self.vetoes)
            .finish()
    }
}

impl QualityGuard {
    /// Guard over the given constraint stack (may be empty: then every
    /// change is admitted but still logged for undo).
    #[must_use]
    pub fn new(constraints: Vec<Box<dyn QualityConstraint>>) -> Self {
        QualityGuard {
            constraints,
            coded: Vec::new(),
            codec: None,
            log: RollbackLog::new(),
            vetoes: 0,
        }
    }

    /// Propose `change`: if every constraint admits it, commit it to
    /// the constraint states and the rollback log and return `true`;
    /// otherwise count a veto and return `false`.
    ///
    /// The caller applies the change to the relation only on `true`.
    pub fn propose(&mut self, change: Alteration) -> bool {
        if self.constraints.iter().all(|c| c.admits(&change)) {
            for c in &mut self.constraints {
                c.commit(&change);
            }
            self.log.record(change);
            true
        } else {
            self.vetoes += 1;
            false
        }
    }

    /// Bind the guard (and every constraint willing) to code space
    /// for a guarded pass altering `attr` over `domain`. Call once
    /// before a run of [`QualityGuard::propose_coded`] calls;
    /// re-binding with a different attribute or domain is allowed and
    /// recompiles.
    pub fn bind_codes(&mut self, attr: usize, domain: &CategoricalDomain) {
        self.coded = self.constraints.iter_mut().map(|c| c.bind_codes(attr, domain)).collect();
        self.codec = Some((attr, domain.clone()));
    }

    /// Whether every constraint accepted the code binding — i.e. the
    /// goodness loop runs without materializing a single `Value`.
    #[must_use]
    pub fn fully_coded(&self) -> bool {
        !self.coded.is_empty() && self.coded.iter().all(|&c| c)
    }

    /// Coded twin of [`QualityGuard::propose`]: both codes must be
    /// valid indices of the bound domain. Constraints that declined
    /// the code binding see a value-space [`Alteration`] decoded from
    /// the codes (materialized at most once per proposal); the
    /// rollback log always records the value-space form so
    /// [`QualityGuard::undo_all`] stays representation-independent.
    ///
    /// # Panics
    ///
    /// Panics when [`QualityGuard::bind_codes`] has not been called.
    pub fn propose_coded(&mut self, change: CodedAlteration) -> bool {
        let (attr, domain) = self.codec.as_ref().expect("bind_codes before propose_coded");
        debug_assert_eq!(change.attr, *attr, "coded proposal on an unbound attribute");
        let decode = || Alteration {
            row: change.row,
            attr: change.attr,
            old: domain.value_at(change.old as usize).clone(),
            new: domain.value_at(change.new as usize).clone(),
        };
        let mut materialized: Option<Alteration> = None;
        let admitted = self.constraints.iter().zip(&self.coded).all(|(c, &coded)| {
            if coded {
                c.admits_coded(&change)
            } else {
                c.admits(materialized.get_or_insert_with(decode))
            }
        });
        if !admitted {
            self.vetoes += 1;
            return false;
        }
        for (c, &coded) in self.constraints.iter_mut().zip(&self.coded) {
            if coded {
                c.commit_coded(&change);
            } else {
                c.commit(materialized.get_or_insert_with(decode));
            }
        }
        self.log.record(materialized.unwrap_or_else(decode));
        true
    }

    /// Number of vetoed proposals.
    #[must_use]
    pub fn vetoes(&self) -> usize {
        self.vetoes
    }

    /// The rollback log.
    #[must_use]
    pub fn log(&self) -> &RollbackLog {
        &self.log
    }

    /// Undo every committed alteration (newest first), restoring the
    /// relation and the constraint states. Returns the number of
    /// undone alterations.
    ///
    /// # Errors
    ///
    /// Propagates relation errors (which would indicate the relation
    /// was modified outside this guard since embedding).
    pub fn undo_all(&mut self, rel: &mut Relation) -> Result<usize, CoreError> {
        let mut undone = 0;
        while let Some(change) = self.log.entries.pop() {
            rel.update_value(change.row, change.attr, change.old.clone())?;
            for c in &mut self.constraints {
                c.rollback(&change);
            }
            undone += 1;
        }
        Ok(undone)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use catmark_relation::{AttrType, Schema};

    fn fixture() -> (Relation, CategoricalDomain) {
        let schema = Schema::builder()
            .key_attr("k", AttrType::Integer)
            .categorical_attr("a", AttrType::Integer)
            .build()
            .unwrap();
        let mut rel = Relation::new(schema);
        for i in 0..10 {
            rel.push(vec![Value::Int(i), Value::Int(i % 3)]).unwrap();
        }
        let domain =
            CategoricalDomain::new(vec![Value::Int(0), Value::Int(1), Value::Int(2)]).unwrap();
        (rel, domain)
    }

    fn change(row: usize, old: i64, new: i64) -> Alteration {
        Alteration { row, attr: 1, old: Value::Int(old), new: Value::Int(new) }
    }

    #[test]
    fn budget_vetoes_after_exhaustion() {
        let mut guard = QualityGuard::new(vec![Box::new(AlterationBudget::new(2))]);
        assert!(guard.propose(change(0, 0, 1)));
        assert!(guard.propose(change(1, 1, 2)));
        assert!(!guard.propose(change(2, 2, 0)));
        assert_eq!(guard.vetoes(), 1);
        assert_eq!(guard.log().len(), 2);
    }

    #[test]
    fn budget_fraction_constructor() {
        let b = AlterationBudget::fraction_of(1000, 0.05);
        assert_eq!(b.budget, 50);
    }

    #[test]
    fn immutable_rows_veto_their_rows_only() {
        let mut guard = QualityGuard::new(vec![Box::new(ImmutableRows::new([3, 5]))]);
        assert!(guard.propose(change(0, 0, 1)));
        assert!(!guard.propose(change(3, 0, 1)));
        assert!(!guard.propose(change(5, 0, 1)));
        assert!(guard.propose(change(4, 0, 1)));
    }

    #[test]
    fn allowed_replacements_gate_new_values() {
        let mut guard =
            QualityGuard::new(vec![Box::new(AllowedReplacements::new([Value::Int(1)]))]);
        assert!(guard.propose(change(0, 0, 1)));
        assert!(!guard.propose(change(1, 0, 2)));
    }

    #[test]
    fn frequency_drift_vetoes_large_shifts() {
        let (rel, domain) = fixture();
        // Baseline counts: value 0 ×4, 1 ×3, 2 ×3 (rows 0..10, i%3).
        let limit = FrequencyDriftLimit::new(&rel, 1, &domain, 0.25).unwrap();
        let mut guard = QualityGuard::new(vec![Box::new(limit)]);
        // Each move of one tuple shifts L1 by 2/10 = 0.2 ≤ 0.25: fine.
        assert!(guard.propose(change(0, 0, 1)));
        // A second move in the same direction would reach 0.4: veto.
        assert!(!guard.propose(change(3, 0, 1)));
        // A move that partially reverts drift is admitted.
        assert!(guard.propose(change(1, 1, 0)));
    }

    #[test]
    fn guard_commits_changes_and_undoes_them() {
        let (mut rel, _) = fixture();
        let mut guard = QualityGuard::new(vec![Box::new(AlterationBudget::new(10))]);
        let c = change(0, 0, 2);
        assert!(guard.propose(c.clone()));
        rel.update_value(c.row, c.attr, c.new.clone()).unwrap();
        assert_eq!(rel.value(0, 1).unwrap(), Value::Int(2));
        let undone = guard.undo_all(&mut rel).unwrap();
        assert_eq!(undone, 1);
        assert_eq!(rel.value(0, 1).unwrap(), Value::Int(0));
        assert!(guard.log().is_empty());
    }

    #[test]
    fn undo_restores_constraint_state() {
        let (mut rel, _) = fixture();
        let mut guard = QualityGuard::new(vec![Box::new(AlterationBudget::new(1))]);
        let c = change(0, 0, 1);
        assert!(guard.propose(c.clone()));
        rel.update_value(c.row, c.attr, c.new.clone()).unwrap();
        assert!(!guard.propose(change(1, 1, 2)), "budget exhausted");
        guard.undo_all(&mut rel).unwrap();
        // Budget freed again after rollback.
        assert!(guard.propose(change(1, 1, 2)));
    }

    #[test]
    fn empty_guard_admits_everything_but_logs() {
        let mut guard = QualityGuard::new(vec![]);
        assert!(guard.propose(change(0, 0, 1)));
        assert_eq!(guard.log().len(), 1);
        assert_eq!(guard.vetoes(), 0);
    }
}
