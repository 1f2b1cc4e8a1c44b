//! Mark encoding (Section 3.2.1, Figure 1(a)).
//!
//! ```text
//! wm_embed(K, A, wm, k1, k2, e, ECC)
//!   wm_data ← ECC.encode(wm, N/e)
//!   for j ← 1 .. N
//!     if H(T_j(K), k1) mod e == 0 then
//!       t ← set_bit(H(T_j(K), k1), 0, wm_data[H(T_j(K), k2)])
//!       T_j(A) ← a_t
//! ```
//!
//! The encoder walks the relation once; for every fit tuple it derives
//! the carried `wm_data` position from `H(·, k2)`, a pseudorandom base
//! index from the top bits of `H(·, k1)`, forces the base's LSB to the
//! watermark bit and writes the corresponding domain value back.
//! Optionally every alteration is gated by a [`QualityGuard`]
//! (Section 4.1).
//!
//! One fit-decision loop makes those choices for every pass. It feeds
//! one of two sinks: the write sink stores each alteration into the
//! target column, asking the guard first, and the patch sink records it
//! as a [`MarkDelta`] patch against a read-only base — so an embedded
//! copy and its delta report the same counts by construction.

use std::collections::HashMap;
use std::hash::Hash;

use catmark_relation::{
    AttrType, ColumnMut, ColumnView, MarkDelta, MarkDeltaBuilder, Relation, Schema, TextColumnMut,
    Value,
};

use crate::ecc::ErrorCorrectingCode;
use crate::error::CoreError;
use crate::plan::MarkPlan;
use crate::quality::{Alteration, CodedAlteration, QualityGuard};
use crate::spec::{Watermark, WatermarkSpec};

/// Outcome of an embedding pass.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct EmbedReport {
    /// Total tuples examined (`N`).
    pub total_tuples: usize,
    /// Tuples satisfying the fitness criterion (≈ N/e).
    pub fit_tuples: usize,
    /// Tuples whose attribute value actually changed.
    pub altered: usize,
    /// Fit tuples whose value already carried the right bit pattern.
    pub unchanged: usize,
    /// Alterations vetoed by quality constraints.
    pub vetoed: usize,
    /// Distinct `wm_data` positions that received at least one
    /// embedding (the paper: "a large majority of the bits in wm_data
    /// are going to be embedded at least once").
    pub positions_covered: usize,
    /// Total `wm_data` positions available (`spec.wm_data_len`), so
    /// coverage is computable from the report alone.
    pub positions_total: usize,
    /// Rows whose attribute value was actually altered. Fit tuples
    /// whose value already matched are *not* listed: they need no
    /// protection from later passes (their vote already agrees).
    pub touched_rows: Vec<usize>,
}

impl EmbedReport {
    /// Fraction of the relation altered — the data-distortion cost the
    /// paper trades against resilience (Figure 5's x-axis is driven by
    /// this through `e`).
    #[must_use]
    pub fn alteration_rate(&self) -> f64 {
        if self.total_tuples == 0 {
            0.0
        } else {
            self.altered as f64 / self.total_tuples as f64
        }
    }
}

impl std::fmt::Display for EmbedReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "embedded {} of {} fit tuples ({} already carried their bit, {} vetoed), \
             covering {}/{} positions — {:.2}% of {} tuples altered",
            self.altered,
            self.fit_tuples,
            self.unchanged,
            self.vetoed,
            self.positions_covered,
            self.positions_total,
            self.alteration_rate() * 100.0,
            self.total_tuples,
        )
    }
}

impl crate::session::Outcome for EmbedReport {
    fn fit_count(&self) -> usize {
        self.fit_tuples
    }

    /// Fraction of `wm_data` positions that received at least one
    /// carrier.
    fn coverage(&self) -> f64 {
        if self.positions_total == 0 {
            0.0
        } else {
            self.positions_covered as f64 / self.positions_total as f64
        }
    }

    /// Fraction of fit tuples that ended up carrying their assigned
    /// bit (vetoed alterations erode it; 0 when nothing was fit).
    fn confidence(&self) -> f64 {
        if self.fit_tuples == 0 {
            0.0
        } else {
            (self.altered + self.unchanged) as f64 / self.fit_tuples as f64
        }
    }
}

/// What embed passes fold into across the segments of a walk (or of a
/// recipient's segmented delta): the report, plus the `wm_data`
/// coverage bitmap behind [`EmbedReport::positions_covered`].
pub(crate) struct EmbedFold {
    report: EmbedReport,
    covered: Vec<bool>,
}

impl EmbedFold {
    pub(crate) fn new(spec: &WatermarkSpec) -> Self {
        let report = EmbedReport { positions_total: spec.wm_data_len, ..EmbedReport::default() };
        EmbedFold { report, covered: vec![false; spec.wm_data_len] }
    }

    /// Fold in `other`, whose passes ran over other rows. Its touched
    /// rows are appended as they are, so rows of interleaved passes
    /// need sorting.
    pub(crate) fn merge(&mut self, other: EmbedFold) {
        let (report, part) = (&mut self.report, other.report);
        report.total_tuples += part.total_tuples;
        report.fit_tuples += part.fit_tuples;
        report.altered += part.altered;
        report.unchanged += part.unchanged;
        report.vetoed += part.vetoed;
        report.touched_rows.extend(part.touched_rows);
        // Only set flags are written, so a sparse fold over a long
        // `wm_data` leaves most pages untouched.
        for (covered, other) in self.covered.iter_mut().zip(other.covered) {
            if other {
                *covered = true;
            }
        }
    }

    /// The rows the folded passes altered, in the order they ran.
    pub(crate) fn touched_rows(&self) -> &[usize] {
        &self.report.touched_rows
    }

    pub(crate) fn finish(mut self) -> EmbedReport {
        self.report.positions_covered = self.covered.iter().filter(|&&c| c).count();
        self.report
    }
}

/// Watermark encoder for one `(key, categorical attribute)` pair.
#[derive(Debug, Clone)]
pub struct Embedder<'a> {
    spec: &'a WatermarkSpec,
}

impl<'a> Embedder<'a> {
    /// Engine constructor for the session layer and the other in-crate
    /// operators. External callers bind a
    /// [`crate::session::MarkSession`], which resolves columns once
    /// and shares one plan cache across every operator.
    pub(crate) fn engine(spec: &'a WatermarkSpec) -> Self {
        Embedder { spec }
    }

    /// Embedding over a precomputed [`MarkPlan`]: the per-tuple hash
    /// work is already done, so this pass only rewrites values.
    ///
    /// # Errors
    ///
    /// Watermark length mismatch, a key target column, a domain whose
    /// value type differs from the target column's, or
    /// [`CoreError::InvalidSpec`] when the plan does not match this
    /// spec/relation.
    pub fn embed_with_plan(
        &self,
        rel: &mut Relation,
        attr_idx: usize,
        wm: &Watermark,
        ecc: &dyn ErrorCorrectingCode,
        guard: Option<&mut QualityGuard>,
        plan: &MarkPlan,
    ) -> Result<EmbedReport, CoreError> {
        if !plan.matches(self.spec, rel) {
            return Err(CoreError::InvalidSpec(
                "mark plan was built for a different spec or relation".into(),
            ));
        }
        self.embed_with_plan_trusted(rel, attr_idx, wm, ecc, guard, plan)
    }

    /// [`Embedder::embed_with_plan`] minus the plan-staleness
    /// fingerprint pass — for plans the caller *just* obtained from a
    /// [`crate::plan::PlanCache`] lookup over the same relation, where
    /// the cache key already proved content identity.
    pub(crate) fn embed_with_plan_trusted(
        &self,
        rel: &mut Relation,
        attr_idx: usize,
        wm: &Watermark,
        ecc: &dyn ErrorCorrectingCode,
        guard: Option<&mut QualityGuard>,
        plan: &MarkPlan,
    ) -> Result<EmbedReport, CoreError> {
        let wm_data = self.wm_data(wm, ecc)?;
        let mut fold = EmbedFold::new(self.spec);
        self.embed_pass(rel, attr_idx, &wm_data, guard, plan, 0, &mut fold)?;
        Ok(fold.finish())
    }

    /// `wm` expanded by `ecc` into the `wm_data` a pass embeds, once
    /// its length is checked against the spec.
    pub(crate) fn wm_data(
        &self,
        wm: &Watermark,
        ecc: &dyn ErrorCorrectingCode,
    ) -> Result<Vec<bool>, CoreError> {
        if wm.len() != self.spec.wm_len {
            return Err(CoreError::InvalidSpec(format!(
                "watermark has {} bits but the spec declares {}",
                wm.len(),
                self.spec.wm_len
            )));
        }
        Ok(ecc.encode(wm, self.spec.wm_data_len))
    }

    /// The write pass over one relation (or one **segment** of a
    /// [`catmark_relation::SegmentedRelation`], with `row_base` the
    /// segment's first global row): the fit-decision loop into the
    /// write sink, folded into `fold`. The segment walk runs this once
    /// per segment with one shared fold, which is exactly what makes
    /// segment streaming byte-identical to a monolithic pass — every
    /// decision depends only on the tuple's own planned facts and
    /// `wm_data`.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn embed_pass(
        &self,
        rel: &mut Relation,
        attr_idx: usize,
        wm_data: &[bool],
        mut guard: Option<&mut QualityGuard>,
        plan: &MarkPlan,
        row_base: usize,
        fold: &mut EmbedFold,
    ) -> Result<(), CoreError> {
        // A guarded pass binds the guard to code space once: every
        // constraint that accepts evaluates candidate alterations as
        // (old domain code, new domain code) pairs — the goodness
        // loop then proposes without materializing a single `Value`.
        if let Some(g) = guard.as_deref_mut() {
            g.bind_codes(attr_idx, &self.spec.domain);
        }
        // The write pass runs directly on the target column's typed
        // storage: integer domains write `i64`s, text domains write
        // dictionary codes resolved once per domain value.
        match rel.column_mut(attr_idx).map_err(CoreError::Relation)? {
            ColumnMut::Int(cells) => {
                let dom = domain_as(self.spec, "integer", Value::as_int)?;
                let mut sink = WriteSink::new(cells, &dom, guard, attr_idx, row_base);
                decide(plan, wm_data, &dom, row_base, fold, &mut sink);
            }
            ColumnMut::Text(mut cells) => {
                // Intern every domain value up front: the per-row work
                // is then a pure code compare-and-store.
                let dom: Vec<u32> = domain_as(self.spec, "text", Value::as_text)?
                    .into_iter()
                    .map(|s| cells.intern(s))
                    .collect();
                let mut sink = WriteSink::new(cells, &dom, guard, attr_idx, row_base);
                decide(plan, wm_data, &dom, row_base, fold, &mut sink);
            }
        }
        Ok(())
    }

    /// What makes a write pass over a relation of `schema` fail before
    /// it writes, as that pass words it: the refusals of
    /// [`Relation::column_mut`], then a domain whose values the target
    /// column cannot hold.
    ///
    /// # Errors
    ///
    /// Those refusals.
    pub(crate) fn check_target(&self, schema: &Schema, attr_idx: usize) -> Result<(), CoreError> {
        let refuse = |reason: String| {
            Err(CoreError::Relation(catmark_relation::RelationError::InvalidSchema(reason)))
        };
        if attr_idx >= schema.arity() {
            return refuse(format!("attribute index {attr_idx} out of range"));
        }
        if attr_idx == schema.key_index() {
            return refuse(
                "the key column cannot be rewritten in bulk (it backs the key index)".into(),
            );
        }
        match schema.attr(attr_idx).ty {
            AttrType::Integer => domain_as(self.spec, "integer", Value::as_int).map(drop),
            AttrType::Text => domain_as(self.spec, "text", Value::as_text).map(drop),
        }
    }

    /// Resolve the spec's domain against `rel`'s target column once:
    /// raw integers for an integer column, or — for a text column —
    /// each domain value's code in the *virtually extended* code space
    /// (base dictionary plus, in domain order, the entries interning
    /// would have appended). Everything here is invariant across the
    /// specs of a recipient batch (derived specs share the domain), so
    /// one table serves every buyer's extraction over `rel`.
    ///
    /// # Errors
    ///
    /// The same schema refusals as [`Relation::column_mut`] (mirrored
    /// so the delta path errors exactly where the materializing path
    /// does), or [`CoreError::InvalidSpec`] on a domain/column type
    /// mismatch.
    pub(crate) fn delta_domain_table(
        &self,
        rel: &Relation,
        attr_idx: usize,
    ) -> Result<DeltaDomainTable, CoreError> {
        self.check_target(rel.schema(), attr_idx)?;
        match rel.column(attr_idx) {
            ColumnView::Int(_) => {
                Ok(DeltaDomainTable::Int(domain_as(self.spec, "integer", Value::as_int)?))
            }
            ColumnView::Text { dict, .. } => {
                // Virtual interning: resolve each domain value to its
                // base code, or to the extension code `tc.intern`
                // would have assigned, in the same order.
                let base_dict_len = dict.len();
                let mut foreign: HashMap<&str, u32> = HashMap::new();
                let mut extension: Vec<String> = Vec::new();
                let mut dom_codes = Vec::with_capacity(self.spec.domain.values().len());
                for s in domain_as(self.spec, "text", Value::as_text)? {
                    let code = match dict.code_of(s) {
                        Some(code) => code,
                        None => *foreign.entry(s).or_insert_with(|| {
                            extension.push(s.to_string());
                            (base_dict_len + extension.len() - 1) as u32
                        }),
                    };
                    dom_codes.push(code);
                }
                Ok(DeltaDomainTable::Text { base_dict_len, dom_codes, extension })
            }
        }
    }

    /// The patch pass: the fit-decision loop over one relation into
    /// the patch sink — the same decisions as [`Embedder::embed_pass`]
    /// on a clone of `rel`, emitted as a [`MarkDelta`] without ever
    /// materializing the clone; `base.apply_delta(&delta)` rebuilds
    /// the copy byte-identically (pinned by proptest and golden). For
    /// text columns the write pass interns every domain value up front;
    /// `table` reproduces that interning *virtually* — domain values
    /// absent from the base dictionary become dictionary-extension
    /// entries in domain order, occupying the codes interning would
    /// have assigned — which is what makes the rebuilt copy's
    /// dictionary byte-identical, down to entries no row references.
    ///
    /// `table` must have been built by [`Embedder::delta_domain_table`]
    /// against this same `rel` and `attr_idx` (same column type, same
    /// dictionary) under a spec sharing this spec's domain; the batch
    /// hot loop builds it once per `(column, domain)` and reuses it
    /// for every recipient.
    pub(crate) fn delta_pass(
        &self,
        rel: &Relation,
        attr_idx: usize,
        wm_data: &[bool],
        plan: &MarkPlan,
        fold: &mut EmbedFold,
        table: &DeltaDomainTable,
    ) -> Result<MarkDelta, CoreError> {
        let builder = match (rel.column(attr_idx), table) {
            (ColumnView::Int(cells), DeltaDomainTable::Int(dom)) => {
                let builder = MarkDeltaBuilder::int(attr_idx, rel.len());
                let mut sink = PatchSink { cells, builder, push: MarkDeltaBuilder::push_int };
                decide(plan, wm_data, dom, 0, fold, &mut sink);
                sink.builder
            }
            (
                ColumnView::Text { codes, dict },
                DeltaDomainTable::Text { base_dict_len, dom_codes, extension },
            ) => {
                debug_assert_eq!(
                    dict.len(),
                    *base_dict_len,
                    "delta domain table was built against a different dictionary"
                );
                let mut builder = MarkDeltaBuilder::text(attr_idx, rel.len(), *base_dict_len);
                for entry in extension {
                    builder.extend_dict(entry);
                }
                let mut sink =
                    PatchSink { cells: codes, builder, push: MarkDeltaBuilder::push_code };
                decide(plan, wm_data, dom_codes, 0, fold, &mut sink);
                sink.builder
            }
            _ => {
                return Err(CoreError::InvalidSpec(
                    "delta domain table does not match the target column type".into(),
                ))
            }
        };
        // The fit walk pushes at most one patch per row in ascending
        // plan order, and codes come from the table built against this
        // dictionary — the trusted finish debug-asserts all of it.
        Ok(builder.finish_trusted())
    }
}

/// Where the fit-decision loop sends each cell it decides to change.
trait Sink<C> {
    /// The cell stored at `row`.
    fn cell(&self, row: usize) -> C;

    /// Apply or record `row: old → new`, `new` being domain code `t`'s
    /// cell; `false` when the alteration is vetoed.
    fn alter(&mut self, row: usize, old: C, new: C, t: u32) -> bool;
}

/// The fit-decision loop: for every planned fit tuple, the domain code
/// its watermark bit selects. A cell already holding that value counts
/// as unchanged; every other one goes to `sink`. Generic over the cell
/// type, so each column type compiles to its own loop — no per-tuple
/// dynamic call, no per-tuple `Value`.
fn decide<C: Copy + PartialEq>(
    plan: &MarkPlan,
    wm_data: &[bool],
    dom: &[C],
    row_base: usize,
    fold: &mut EmbedFold,
    sink: &mut impl Sink<C>,
) {
    let report = &mut fold.report;
    report.total_tuples += plan.rows();
    report.fit_tuples += plan.fit().len();
    for planned in plan.fit() {
        let row = planned.row as usize;
        let idx = planned.position as usize;
        let t = plan.value_index(planned, wm_data[idx]);
        let (old, new) = (sink.cell(row), dom[t]);
        if old == new {
            report.unchanged += 1;
        } else if sink.alter(row, old, new, t as u32) {
            report.altered += 1;
            report.touched_rows.push(row_base + row);
        } else {
            report.vetoed += 1;
            continue;
        }
        fold.covered[idx] = true;
    }
}

/// A writable target column: raw integers, or dictionary codes stored
/// through [`TextColumnMut::set`].
trait Cells<C> {
    fn get(&self, row: usize) -> C;

    fn set(&mut self, row: usize, cell: C);

    /// The value `cell` stands for, for a guard's value-space proposal.
    fn value(&self, cell: C) -> Value;
}

impl Cells<i64> for &mut [i64] {
    fn get(&self, row: usize) -> i64 {
        self[row]
    }

    fn set(&mut self, row: usize, cell: i64) {
        self[row] = cell;
    }

    fn value(&self, cell: i64) -> Value {
        Value::Int(cell)
    }
}

impl Cells<u32> for TextColumnMut<'_> {
    fn get(&self, row: usize) -> u32 {
        self.code(row)
    }

    fn set(&mut self, row: usize, cell: u32) {
        TextColumnMut::set(self, row, cell);
    }

    fn value(&self, cell: u32) -> Value {
        Value::Text(self.dict().get(cell).to_owned())
    }
}

/// The write sink: stores each alteration into the target column,
/// asking the guard first when there is one. The guard judges in code
/// space; an old value outside the domain (not in `code_of`) falls back
/// to a value-space proposal.
struct WriteSink<'g, C, W> {
    cells: W,
    guard: Option<&'g mut QualityGuard>,
    /// Stored cell → domain code. Only guarded passes fill it.
    code_of: HashMap<C, u32>,
    attr: usize,
    row_base: usize,
}

impl<'g, C: Copy + Eq + Hash, W: Cells<C>> WriteSink<'g, C, W> {
    /// `dom` maps each domain code to its cell (after any interning).
    fn new(
        cells: W,
        dom: &[C],
        guard: Option<&'g mut QualityGuard>,
        attr: usize,
        row_base: usize,
    ) -> Self {
        let code_of = match guard {
            Some(_) => dom.iter().enumerate().map(|(t, &c)| (c, t as u32)).collect(),
            None => HashMap::new(),
        };
        WriteSink { cells, guard, code_of, attr, row_base }
    }
}

impl<C: Copy + Eq + Hash, W: Cells<C>> Sink<C> for WriteSink<'_, C, W> {
    fn cell(&self, row: usize) -> C {
        self.cells.get(row)
    }

    fn alter(&mut self, row: usize, old: C, new: C, t: u32) -> bool {
        if let Some(g) = self.guard.as_deref_mut() {
            let (global, attr) = (self.row_base + row, self.attr);
            let admitted = match self.code_of.get(&old) {
                Some(&code) => {
                    g.propose_coded(CodedAlteration { row: global, attr, old: code, new: t })
                }
                None => g.propose(Alteration {
                    row: global,
                    attr,
                    old: self.cells.value(old),
                    new: self.cells.value(new),
                }),
            };
            if !admitted {
                return false;
            }
        }
        self.cells.set(row, new);
        true
    }
}

/// The patch sink: records each alteration as a [`MarkDelta`] patch
/// (`push_int` or `push_code`) against the read-only base column,
/// never vetoing one.
struct PatchSink<'r, C, P> {
    cells: &'r [C],
    builder: MarkDeltaBuilder,
    push: P,
}

impl<C: Copy, P: Fn(&mut MarkDeltaBuilder, usize, C, C)> Sink<C> for PatchSink<'_, C, P> {
    fn cell(&self, row: usize) -> C {
        self.cells[row]
    }

    fn alter(&mut self, row: usize, old: C, new: C, _t: u32) -> bool {
        (self.push)(&mut self.builder, row, old, new);
        true
    }
}

/// The once-per-batch resolution of a spec's domain against a target
/// column — see [`Embedder::delta_domain_table`]. Shared across every
/// recipient of a delta batch: the table is a function of the domain
/// and the column, never of a recipient's derived keys.
#[derive(Debug, Clone)]
pub(crate) enum DeltaDomainTable {
    /// Integer target column: the domain as raw `i64`s, indexed by
    /// domain code.
    Int(Vec<i64>),
    /// Text target column: each domain value's code in the virtually
    /// extended code space, plus the extension entries (in assignment
    /// order) every recipient's builder must replay.
    Text {
        /// Dictionary length the table was resolved against.
        base_dict_len: usize,
        /// Domain code → extended-space dictionary code.
        dom_codes: Vec<u32>,
        /// Entries past the base dictionary, in code order.
        extension: Vec<String>,
    },
}

/// The spec's domain through `as_t` ([`Value::as_int`] or
/// [`Value::as_text`]), for a target column of type `column`.
fn domain_as<'s, T>(
    spec: &'s WatermarkSpec,
    column: &str,
    as_t: impl Fn(&'s Value) -> Option<T>,
) -> Result<Vec<T>, CoreError> {
    let type_error = |v: &Value| {
        let held = v.type_name();
        CoreError::InvalidSpec(format!(
            "domain holds {held} values but the target column is {column}"
        ))
    };
    spec.domain.values().iter().map(|v| as_t(v).ok_or_else(|| type_error(v))).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fitness::FitnessSelector;
    use crate::quality::AlterationBudget;
    use catmark_datagen::{ItemScanConfig, SalesGenerator};

    fn setup(tuples: usize, e: u64) -> (Relation, WatermarkSpec, Watermark) {
        let gen = SalesGenerator::new(ItemScanConfig { tuples, ..Default::default() });
        let rel = gen.generate();
        let spec = WatermarkSpec::builder(gen.item_domain())
            .master_key("embed-tests")
            .e(e)
            .wm_len(10)
            .expected_tuples(tuples)
            .build()
            .unwrap();
        let wm = Watermark::from_u64(0b1011001110, 10);
        (rel, spec, wm)
    }

    #[test]
    fn embeds_expected_tuple_fraction() {
        let (mut rel, spec, wm) = setup(12_000, 60);
        let report = crate::testkit::embed(&spec, &mut rel, "visit_nbr", "item_nbr", &wm).unwrap();
        assert_eq!(report.total_tuples, 12_000);
        let expected = 200.0;
        assert!(
            (report.fit_tuples as f64 - expected).abs() < expected * 0.35,
            "fit={}",
            report.fit_tuples
        );
        // Nearly all fit tuples require an actual value change (the
        // prior value matching by chance has probability ~1/nA… ×2).
        assert!(report.altered + report.unchanged == report.fit_tuples);
        assert!(report.altered as f64 > 0.9 * report.fit_tuples as f64);
        assert_eq!(report.vetoed, 0);
    }

    #[test]
    fn embedded_values_stay_in_domain_with_correct_lsb() {
        let (mut rel, spec, wm) = setup(3_000, 20);
        let report = crate::testkit::embed(&spec, &mut rel, "visit_nbr", "item_nbr", &wm).unwrap();
        let ecc = crate::ecc::MajorityVotingEcc;
        let wm_data = ecc.encode(&wm, spec.wm_data_len);
        let sel = FitnessSelector::new(&spec);
        for &row in &report.touched_rows {
            let t = spec.domain.index_of(&rel.value(row, 1).unwrap()).expect("value in domain");
            let idx = sel.position(&rel.value(row, 0).unwrap());
            assert_eq!(t & 1 == 1, wm_data[idx], "row {row} carries the wrong bit");
        }
    }

    #[test]
    fn embedding_is_deterministic() {
        let (rel, spec, wm) = setup(2_000, 30);
        let mut a = rel.clone();
        let mut b = rel;
        crate::testkit::embed(&spec, &mut a, "visit_nbr", "item_nbr", &wm).unwrap();
        crate::testkit::embed(&spec, &mut b, "visit_nbr", "item_nbr", &wm).unwrap();
        assert_eq!(b, a);
    }

    #[test]
    fn embedding_is_idempotent() {
        // Re-embedding the same watermark changes nothing: every fit
        // tuple already carries its assigned value.
        let (mut rel, spec, wm) = setup(2_000, 30);
        let first = crate::testkit::embed(&spec, &mut rel, "visit_nbr", "item_nbr", &wm).unwrap();
        let second = crate::testkit::embed(&spec, &mut rel, "visit_nbr", "item_nbr", &wm).unwrap();
        assert!(first.altered > 0);
        assert_eq!(second.altered, 0);
        assert_eq!(second.unchanged, second.fit_tuples);
    }

    #[test]
    fn rejects_wrong_watermark_length() {
        let (mut rel, spec, _) = setup(1_000, 30);
        let wm = Watermark::from_u64(1, 5);
        let err = crate::testkit::embed(&spec, &mut rel, "visit_nbr", "item_nbr", &wm);
        assert!(matches!(err, Err(CoreError::InvalidSpec(_))));
    }

    #[test]
    fn rejects_unknown_attributes() {
        let (mut rel, spec, wm) = setup(100, 30);
        assert!(crate::testkit::embed(&spec, &mut rel, "nope", "item_nbr", &wm).is_err());
        assert!(crate::testkit::embed(&spec, &mut rel, "visit_nbr", "nope", &wm).is_err());
    }

    #[test]
    fn guard_vetoes_are_counted_and_skip_alterations() {
        let (mut rel, spec, wm) = setup(6_000, 30);
        let mut guard = QualityGuard::new(vec![Box::new(AlterationBudget::new(10))]);
        let report = crate::testkit::embed_guarded(
            &spec,
            &mut rel,
            "visit_nbr",
            "item_nbr",
            &wm,
            &mut guard,
        )
        .unwrap();
        assert_eq!(report.altered, 10);
        assert!(report.vetoed > 0);
        assert_eq!(guard.log().len(), 10);
    }

    #[test]
    fn guard_undo_restores_original_relation() {
        let (rel, spec, wm) = setup(2_000, 30);
        let original = rel.clone();
        let mut marked = rel;
        let mut guard = QualityGuard::new(vec![]);
        crate::testkit::embed_guarded(&spec, &mut marked, "visit_nbr", "item_nbr", &wm, &mut guard)
            .unwrap();
        assert_ne!(original, marked);
        guard.undo_all(&mut marked).unwrap();
        assert_eq!(marked, original);
    }

    #[test]
    fn alteration_rate_matches_one_over_e_scaling() {
        let (mut rel, spec, wm) = setup(12_000, 60);
        let report = crate::testkit::embed(&spec, &mut rel, "visit_nbr", "item_nbr", &wm).unwrap();
        let rate = report.alteration_rate();
        // ~1/e of tuples altered (minus the few unchanged-by-chance).
        assert!((rate - 1.0 / 60.0).abs() < 0.01, "rate={rate}");
    }

    #[test]
    fn covers_most_positions() {
        let (mut rel, spec, wm) = setup(6_000, 60);
        let report = crate::testkit::embed(&spec, &mut rel, "visit_nbr", "item_nbr", &wm).unwrap();
        // With ~100 fit tuples into 100 positions, coverage follows
        // the coupon-collector/Poisson curve: ≈ 1 - 1/e ≈ 63%.
        let coverage = report.positions_covered as f64 / spec.wm_data_len as f64;
        assert!(coverage > 0.45, "coverage={coverage}");
    }

    #[test]
    fn key_attribute_is_never_modified() {
        let (rel, spec, wm) = setup(3_000, 20);
        let mut marked = rel.clone();
        crate::testkit::embed(&spec, &mut marked, "visit_nbr", "item_nbr", &wm).unwrap();
        assert!(rel.column(0) == marked.column(0));
    }
}
