//! `MarkSession` — the one typed, plan-caching entry point for every
//! operator in the crate.
//!
//! The historical surface was a bag of per-operator structs
//! (`Embedder`, `Decoder`, `StreamMarker`, the multi-attribute and
//! fingerprint helpers, the contest free functions), each taking
//! stringly-typed `(relation, "pk", "attr")` arguments and silently
//! re-resolving and re-validating the columns on every call. A
//! [`MarkSession`] is the prepared-statement version of that API: it
//! binds the key material ([`crate::WatermarkSpec`]) and the relation's
//! primary-key and categorical columns into typed [`ColumnRef`] handles
//! **once**, owns the [`PlanCache`], and exposes every paper operation
//! as a method. An embed → attack → decode → detect court run on one
//! session performs the keyed-hash pass over the key column once.
//!
//! ```
//! use catmark_core::session::{MarkSession, Outcome};
//! use catmark_core::{detect, Watermark, WatermarkSpec};
//! use catmark_datagen::{ItemScanConfig, SalesGenerator};
//!
//! let gen = SalesGenerator::new(ItemScanConfig { tuples: 2_000, ..Default::default() });
//! let mut rel = gen.generate();
//! let spec = WatermarkSpec::builder(gen.item_domain())
//!     .master_key("my-secret")
//!     .e(10)
//!     .wm_len(10)
//!     .expected_tuples(rel.len())
//!     .build()
//!     .unwrap();
//!
//! let session = MarkSession::builder(spec)
//!     .key_column("visit_nbr")
//!     .target_column("item_nbr")
//!     .bind(&rel)
//!     .unwrap();
//!
//! let wm = Watermark::from_u64(0b10_0111_0101, 10);
//! let report = session.embed(&mut rel, &wm).unwrap();
//! assert!(report.fit_count() > 0);
//!
//! // Blind court-time detection on the same handle: the plan built
//! // for the embed is reused, no key is rehashed.
//! let verdict = session.detect(&rel, &wm).unwrap();
//! assert!(verdict.detection.is_significant(1e-2));
//! ```

use std::collections::HashMap;
use std::sync::Arc;

use catmark_relation::{CategoricalDomain, MarkDelta, Relation, Schema};

use crate::contest::{Claim, ClaimEvidence, ContestOutcome};
use crate::decode::{DecodeReport, Decoder};
use crate::detect::{detect, Detection};
use crate::ecc::MajorityVotingEcc;
use crate::embed::{EmbedReport, Embedder};
use crate::error::CoreError;
use crate::fingerprint::{FingerprintRegistry, TraceResult};
use crate::multiattr::{
    decode_multiattr_with_cache, embed_multiattr_with_cache, AggregateVerdict, MultiAttrPlan,
    PairEmbedOutcome, PairWitness,
};
use crate::plan::{MarkPlan, PlanCache};
use crate::quality::QualityGuard;
use crate::spec::{Watermark, WatermarkSpec};
use crate::stream::StreamMarker;

/// What every session result has in common: how many carrier tuples
/// the operation touched, how much of the available channel it
/// observed, and how sure we are of the outcome. All implementors
/// also render a one-line human summary via `Display`.
pub trait Outcome: std::fmt::Display {
    /// Number of fit (carrier) tuples — or witnesses — involved.
    fn fit_count(&self) -> usize;

    /// Fraction of the available channel used or observed, in `0..=1`.
    fn coverage(&self) -> f64;

    /// Confidence the operation achieved its goal, in `0..=1`: for
    /// detection-flavoured outcomes `1 − P[chance match]`, for
    /// embedding the fraction of carriers actually planted, for
    /// decoding the vote unanimity.
    fn confidence(&self) -> f64;
}

/// A column binding resolved and validated against a schema exactly
/// once: the attribute's name plus its position.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ColumnRef {
    name: String,
    index: usize,
}

impl ColumnRef {
    /// The bound attribute's name.
    #[must_use]
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The bound attribute's position in the schema.
    #[must_use]
    pub fn index(&self) -> usize {
        self.index
    }

    /// Re-check this binding against `schema`, erroring with full
    /// context when the attribute moved, vanished, or was renamed.
    pub(crate) fn still_bound(&self, schema: &Schema) -> Result<(), CoreError> {
        match schema.attrs().get(self.index) {
            Some(attr) if attr.name == self.name => Ok(()),
            _ => Err(binding_error(
                &self.name,
                schema,
                format!("bound at index {} but the relation no longer has it there", self.index),
            )),
        }
    }
}

fn binding_error(column: &str, schema: &Schema, reason: String) -> CoreError {
    CoreError::ColumnBinding {
        column: column.to_owned(),
        reason,
        arity: schema.arity(),
        available: schema.attrs().iter().map(|a| a.name.clone()).collect(),
    }
}

fn resolve(schema: &Schema, name: &str) -> Result<ColumnRef, CoreError> {
    let index = schema
        .index_of(name)
        .map_err(|_| binding_error(name, schema, "no such attribute".into()))?;
    Ok(ColumnRef { name: name.to_owned(), index })
}

/// Builder for [`MarkSession`]: collects the column names, then
/// [`MarkSessionBuilder::bind`] resolves and validates them against a
/// relation in one shot.
#[derive(Debug)]
pub struct MarkSessionBuilder {
    spec: WatermarkSpec,
    key: Option<String>,
    target: Option<String>,
}

impl MarkSessionBuilder {
    /// Name the primary-key column (the hashed identity column). For
    /// pair embeddings this may be any attribute acting as the
    /// pseudo-key, per Section 3.3.
    #[must_use]
    pub fn key_column(mut self, name: &str) -> Self {
        self.key = Some(name.to_owned());
        self
    }

    /// Name the categorical column that will carry the mark bits.
    #[must_use]
    pub fn target_column(mut self, name: &str) -> Self {
        self.target = Some(name.to_owned());
        self
    }

    /// Resolve and validate the bindings against `rel`'s schema —
    /// exactly once; every session method afterwards works on typed
    /// [`ColumnRef`]s.
    ///
    /// # Errors
    ///
    /// [`CoreError::ColumnBinding`] when a column was not named, does
    /// not exist, the two bindings collide, the target is not flagged
    /// categorical, or its type cannot hold the spec's domain values.
    pub fn bind(self, rel: &Relation) -> Result<MarkSession, CoreError> {
        let schema = rel.schema();
        let key_name = self.key.as_deref().ok_or_else(|| {
            binding_error("<key>", schema, "no key column named (use .key_column)".into())
        })?;
        let target_name = self.target.as_deref().ok_or_else(|| {
            binding_error("<target>", schema, "no target column named (use .target_column)".into())
        })?;
        let key = resolve(schema, key_name)?;
        let target = resolve(schema, target_name)?;
        if key.index == target.index {
            return Err(binding_error(
                target_name,
                schema,
                "key and target bind the same column".into(),
            ));
        }
        let target_attr = schema.attr(target.index);
        if !target_attr.categorical {
            return Err(binding_error(
                target_name,
                schema,
                "target column is not categorical (no finite value domain to embed in)".into(),
            ));
        }
        if let Some(sample) = (!self.spec.domain.is_empty())
            .then(|| self.spec.domain.value_at(0))
            .filter(|v| !target_attr.ty.admits(v))
        {
            return Err(binding_error(
                target_name,
                schema,
                format!(
                    "target column has type {} but the spec's domain holds values like {sample}",
                    target_attr.ty
                ),
            ));
        }
        Ok(MarkSession { spec: self.spec, key, target, cache: PlanCache::new() })
    }
}

/// A bound watermarking session: key material + typed column handles +
/// one shared [`PlanCache`], with every paper operation as a method.
///
/// Sessions are cheap to clone (clones share the plan cache) and all
/// methods take `&self`, so one session can serve many threads.
#[derive(Debug, Clone)]
pub struct MarkSession {
    spec: WatermarkSpec,
    key: ColumnRef,
    target: ColumnRef,
    cache: PlanCache,
}

impl MarkSession {
    /// Start building a session over `spec`.
    #[must_use]
    pub fn builder(spec: WatermarkSpec) -> MarkSessionBuilder {
        MarkSessionBuilder { spec, key: None, target: None }
    }

    /// The session's key material and parameters.
    #[must_use]
    pub fn spec(&self) -> &WatermarkSpec {
        &self.spec
    }

    /// The bound primary-key column.
    #[must_use]
    pub fn key(&self) -> &ColumnRef {
        &self.key
    }

    /// The bound categorical target column.
    #[must_use]
    pub fn target(&self) -> &ColumnRef {
        &self.target
    }

    /// The session's plan cache (shared with clones and with the
    /// handles returned by [`MarkSession::multiattr`] and
    /// [`MarkSession::fingerprint`]).
    #[must_use]
    pub fn cache(&self) -> &PlanCache {
        &self.cache
    }

    /// Verify the bound columns still line up with `rel`'s schema.
    pub(crate) fn check(&self, rel: &Relation) -> Result<(), CoreError> {
        self.key.still_bound(rel.schema())?;
        self.target.still_bound(rel.schema())
    }

    /// The (cached) mark plan for `rel` under this session's spec and
    /// key column. Exposed for pipelining: hold the `Arc` and drive
    /// [`MarkSession::embed_planned`] / [`MarkSession::decode_planned`]
    /// without even the cache's fingerprint pass per call.
    ///
    /// # Errors
    ///
    /// [`CoreError::ColumnBinding`] when `rel`'s schema no longer
    /// matches the bindings.
    pub fn plan(&self, rel: &Relation) -> Result<Arc<MarkPlan>, CoreError> {
        self.check(rel)?;
        self.cache.plan_for(&self.spec, rel, self.key.index)
    }

    /// Embed `wm` into the bound association, planning (or reusing the
    /// cached plan for) `rel`'s key column.
    ///
    /// # Errors
    ///
    /// Binding drift, watermark length mismatch, or substrate errors.
    pub fn embed(&self, rel: &mut Relation, wm: &Watermark) -> Result<EmbedReport, CoreError> {
        let plan = self.plan(rel)?;
        // Trusted: the cache lookup above already fingerprinted the
        // key column; no second staleness pass.
        Embedder::engine(&self.spec).embed_with_plan_trusted(
            rel,
            self.target.index,
            wm,
            &MajorityVotingEcc,
            None,
            &plan,
        )
    }

    /// [`MarkSession::embed`] gated by quality constraints (Section
    /// 4.1): vetoed alterations leave tuples unmodified and are
    /// counted in the report.
    ///
    /// # Errors
    ///
    /// As [`MarkSession::embed`].
    pub fn embed_guarded(
        &self,
        rel: &mut Relation,
        wm: &Watermark,
        guard: &mut QualityGuard,
    ) -> Result<EmbedReport, CoreError> {
        let plan = self.plan(rel)?;
        Embedder::engine(&self.spec).embed_with_plan_trusted(
            rel,
            self.target.index,
            wm,
            &MajorityVotingEcc,
            Some(guard),
            &plan,
        )
    }

    /// Embedding over a plan the caller pinned with
    /// [`MarkSession::plan`].
    ///
    /// # Errors
    ///
    /// [`CoreError::InvalidSpec`] when the plan is stale — built for a
    /// relation whose key column has since changed.
    pub fn embed_planned(
        &self,
        rel: &mut Relation,
        wm: &Watermark,
        plan: &MarkPlan,
    ) -> Result<EmbedReport, CoreError> {
        self.check(rel)?;
        Embedder::engine(&self.spec).embed_with_plan(
            rel,
            self.target.index,
            wm,
            &MajorityVotingEcc,
            None,
            plan,
        )
    }

    /// Blindly decode the mark carried by `rel`'s bound association.
    ///
    /// # Errors
    ///
    /// Binding drift; decoding itself never fails on suspect data.
    pub fn decode(&self, rel: &Relation) -> Result<DecodeReport, CoreError> {
        let plan = self.plan(rel)?;
        // Trusted: the cache lookup above already fingerprinted the
        // key column; no second staleness pass.
        Decoder::engine(&self.spec).decode_with_plan_trusted(
            rel,
            self.target.index,
            &MajorityVotingEcc,
            &plan,
        )
    }

    /// Decoding over a plan the caller pinned with
    /// [`MarkSession::plan`].
    ///
    /// # Errors
    ///
    /// [`CoreError::InvalidSpec`] when the plan is stale — built for a
    /// relation whose key column has since changed behind the session.
    pub fn decode_planned(
        &self,
        rel: &Relation,
        plan: &MarkPlan,
    ) -> Result<DecodeReport, CoreError> {
        self.check(rel)?;
        Decoder::engine(&self.spec).decode_with_plan(
            rel,
            self.target.index,
            &MajorityVotingEcc,
            plan,
        )
    }

    /// The court-time run: blind-decode `rel` and weigh the result
    /// against the claimed mark (Section 4.4's false-positive odds).
    ///
    /// # Errors
    ///
    /// As [`MarkSession::decode`].
    pub fn detect(&self, rel: &Relation, claimed: &Watermark) -> Result<Verdict, CoreError> {
        let decode = self.decode(rel)?;
        let detection = detect(&decode.watermark, claimed);
        Ok(Verdict { decode, detection })
    }

    /// The incremental embedder (Section 4.3) for this session's
    /// bindings: fit tuples arriving on a stream are marked before
    /// insertion, byte-identical to a batch [`MarkSession::embed`].
    ///
    /// # Errors
    ///
    /// Watermark length mismatch against the spec.
    pub fn stream(&self, wm: &Watermark) -> Result<StreamMarker, CoreError> {
        StreamMarker::with_indices(self.spec.clone(), self.key.index, self.target.index, wm)
    }

    /// A multi-attribute handle (Section 3.3) over `rel`'s schema:
    /// every `(K, A_i)` and directed `(A_i, A_j)` pair, sharing this
    /// session's plan cache.
    ///
    /// # Errors
    ///
    /// Unknown attributes or categorical attributes missing from
    /// `domains`.
    pub fn multiattr(
        &self,
        rel: &Relation,
        domains: &HashMap<String, CategoricalDomain>,
    ) -> Result<MultiAttrSession, CoreError> {
        let plan = MultiAttrPlan::build(rel, &self.spec, domains)?;
        Ok(MultiAttrSession { plan, cache: self.cache.clone() })
    }

    /// A buyer-fingerprinting handle (the intro's traitor-tracing
    /// scenario) bound to this session's columns, sharing its plan
    /// cache: repeated traces of one suspect copy plan it once.
    #[must_use]
    pub fn fingerprint(&self) -> FingerprintSession {
        FingerprintSession {
            registry: FingerprintRegistry::with_cache(self.spec.clone(), self.cache.clone()),
            key: self.key.clone(),
            target: self.target.clone(),
        }
    }

    /// Fingerprint `rel` for a whole batch of buyers in one
    /// recipient-batched pass (the paper's distribution step at
    /// scale): returns the bound [`FingerprintSession`] — with every
    /// buyer registered, ready to [`FingerprintSession::trace`] a
    /// future leak — together with the per-buyer marked copies in
    /// `buyers` order. Byte-identical to registering and
    /// [`FingerprintSession::mark_copy`]-ing each buyer sequentially
    /// (pinned by proptest); the key column is hashed four recipients
    /// per scan instead of once per buyer.
    ///
    /// # Errors
    ///
    /// Embedding failures.
    pub fn fingerprint_batch(
        &self,
        rel: &Relation,
        buyers: &[&str],
    ) -> Result<(FingerprintSession, Vec<(Relation, EmbedReport)>), CoreError> {
        let mut session = self.fingerprint();
        let copies = session.mark_copies(rel, buyers)?;
        Ok((session, copies))
    }

    /// [`MarkSession::fingerprint_batch`] without ever cloning the
    /// base: one recipient-batched [`crate::plan::MultiKeyPlan`] scan
    /// produces a [`MarkDelta`] per buyer — ordered patch records
    /// (plus text dictionary extensions) such that
    /// `rel.apply_delta(&delta)` is byte-identical to the
    /// corresponding [`FingerprintSession::mark_copy`] (pinned by
    /// proptest and golden). At 1/e alteration rates a delta is a
    /// small fraction of the copy's bytes — the distribution-at-scale
    /// representation.
    ///
    /// # Errors
    ///
    /// Embedding failures.
    pub fn fingerprint_deltas(
        &self,
        rel: &Relation,
        buyers: &[&str],
    ) -> Result<(FingerprintSession, Vec<(MarkDelta, EmbedReport)>), CoreError> {
        let mut session = self.fingerprint();
        let deltas = session.mark_deltas(rel, buyers)?;
        Ok((session, deltas))
    }

    /// An ownership [`Claim`] under this session's keys — the
    /// session holder's side of a contest.
    #[must_use]
    pub fn claim(&self, claimant: &str, wm: &Watermark) -> Claim {
        Claim { claimant: claimant.to_owned(), spec: self.spec.clone(), watermark: wm.clone() }
    }

    /// Measure one claim's evidence against `rel` through the shared
    /// cache (re-gathering the same claim's evidence replans nothing).
    ///
    /// # Errors
    ///
    /// Binding drift or attribute-resolution failures.
    pub fn evidence(&self, claim: &Claim, rel: &Relation) -> Result<ClaimEvidence, CoreError> {
        self.check(rel)?;
        let (key_idx, attr_idx) = (self.key.index, self.target.index);
        Ok(crate::contest::claim_evidence(claim, rel, key_idx, attr_idx, &self.cache)?.0)
    }

    /// Resolve a two-party ownership contest (Section 6's additive
    /// attack) over `rel` on this session's bound columns.
    ///
    /// # Errors
    ///
    /// Binding drift or attribute-resolution failures.
    pub fn contest(
        &self,
        a: &Claim,
        b: &Claim,
        rel: &Relation,
        alpha: f64,
        unanimity_margin: f64,
    ) -> Result<(ContestOutcome, ClaimEvidence, ClaimEvidence), CoreError> {
        self.check(rel)?;
        crate::contest::resolve_with_cache(
            a,
            b,
            rel,
            &self.key.name,
            &self.target.name,
            alpha,
            unanimity_margin,
            &self.cache,
        )
    }
}

/// A court-time detection outcome: the blind decode plus its
/// comparison against the claimed mark.
#[derive(Debug, Clone, PartialEq)]
pub struct Verdict {
    /// The blind decode of the suspect relation.
    pub decode: DecodeReport,
    /// The decoded mark weighed against the claimed one.
    pub detection: Detection,
}

impl Verdict {
    /// Whether the ownership claim clears significance level `alpha`.
    #[must_use]
    pub fn is_significant(&self, alpha: f64) -> bool {
        self.detection.is_significant(alpha)
    }
}

impl std::fmt::Display for Verdict {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "decoded {} — {} ({} of {} fit tuples voted)",
            self.decode.watermark, self.detection, self.decode.votes_cast, self.decode.fit_tuples
        )
    }
}

impl Outcome for Verdict {
    fn fit_count(&self) -> usize {
        self.decode.fit_tuples
    }

    fn coverage(&self) -> f64 {
        self.decode.coverage()
    }

    fn confidence(&self) -> f64 {
        1.0 - self.detection.false_positive_probability
    }
}

/// Multi-attribute embedding/decoding bound to one session (Section
/// 3.3): the pair plan plus the session's shared cache.
#[derive(Debug, Clone)]
pub struct MultiAttrSession {
    plan: MultiAttrPlan,
    cache: PlanCache,
}

impl MultiAttrSession {
    /// The directed pair plan.
    #[must_use]
    pub fn plan(&self) -> &MultiAttrPlan {
        &self.plan
    }

    /// Embed `wm` along every pair, interference-aware.
    ///
    /// # Errors
    ///
    /// Embedding failures on any pass.
    pub fn embed(
        &self,
        rel: &mut Relation,
        wm: &Watermark,
    ) -> Result<Vec<PairEmbedOutcome>, CoreError> {
        embed_multiattr_with_cache(&self.plan, rel, wm, &self.cache)
    }

    /// Decode every pair surviving in `rel` against `claimed`.
    ///
    /// # Errors
    ///
    /// Misuse only (plans built for a different schema family).
    pub fn decode(
        &self,
        rel: &Relation,
        claimed: &Watermark,
    ) -> Result<Vec<PairWitness>, CoreError> {
        decode_multiattr_with_cache(&self.plan, rel, claimed, &self.cache)
    }

    /// Decode and aggregate: how many surviving witnesses testify at
    /// significance `alpha`.
    ///
    /// # Errors
    ///
    /// As [`MultiAttrSession::decode`].
    pub fn verdict(
        &self,
        rel: &Relation,
        claimed: &Watermark,
        alpha: f64,
    ) -> Result<AggregateVerdict, CoreError> {
        Ok(crate::multiattr::aggregate_verdict(&self.decode(rel, claimed)?, alpha))
    }
}

/// Buyer fingerprinting bound to one session's columns and cache.
#[derive(Debug, Clone)]
pub struct FingerprintSession {
    registry: FingerprintRegistry,
    key: ColumnRef,
    target: ColumnRef,
}

impl FingerprintSession {
    /// Register a buyer (idempotent).
    pub fn register(&mut self, buyer: &str) {
        self.registry.register(buyer);
    }

    /// The buyer-specific mark (reproducible by the seller alone).
    #[must_use]
    pub fn mark_for(&self, buyer: &str) -> Watermark {
        self.registry.mark_for(buyer)
    }

    /// Produce `buyer`'s fingerprinted copy of `rel`.
    ///
    /// # Errors
    ///
    /// Embedding failures.
    pub fn mark_copy(
        &mut self,
        rel: &Relation,
        buyer: &str,
    ) -> Result<(Relation, EmbedReport), CoreError> {
        self.registry.mark_copy(rel, buyer, &self.key.name, &self.target.name)
    }

    /// Produce fingerprinted copies for a whole batch of buyers in one
    /// recipient-batched pass — see
    /// [`FingerprintRegistry::mark_copies`].
    ///
    /// # Errors
    ///
    /// Embedding failures.
    pub fn mark_copies(
        &mut self,
        rel: &Relation,
        buyers: &[&str],
    ) -> Result<Vec<(Relation, EmbedReport)>, CoreError> {
        self.registry.mark_copies(rel, buyers, &self.key.name, &self.target.name)
    }

    /// Produce `buyer`'s fingerprinted copy as a [`MarkDelta`] patch
    /// set against the shared base — see
    /// [`FingerprintRegistry::mark_delta`].
    ///
    /// # Errors
    ///
    /// Embedding failures.
    pub fn mark_delta(
        &mut self,
        rel: &Relation,
        buyer: &str,
    ) -> Result<(MarkDelta, EmbedReport), CoreError> {
        self.registry.mark_delta(rel, buyer, &self.key.name, &self.target.name)
    }

    /// Produce [`MarkDelta`]s for a whole batch of buyers from one
    /// recipient-batched scan, never cloning the base — see
    /// [`FingerprintRegistry::mark_deltas`].
    ///
    /// # Errors
    ///
    /// Embedding failures.
    pub fn mark_deltas(
        &mut self,
        rel: &Relation,
        buyers: &[&str],
    ) -> Result<Vec<(MarkDelta, EmbedReport)>, CoreError> {
        self.registry.mark_deltas(rel, buyers, &self.key.name, &self.target.name)
    }

    /// Decode `suspect` under every registered buyer's keys, strongest
    /// evidence first (recipient-batched; see
    /// [`FingerprintRegistry::trace`]).
    ///
    /// # Errors
    ///
    /// Attribute-resolution failures.
    pub fn trace(&self, suspect: &Relation) -> Result<Vec<TraceResult>, CoreError> {
        self.registry.trace(suspect, &self.key.name, &self.target.name)
    }

    /// The per-recipient reference for [`FingerprintSession::trace`] —
    /// see [`FingerprintRegistry::trace_sequential`].
    ///
    /// # Errors
    ///
    /// Attribute-resolution failures.
    pub fn trace_sequential(&self, suspect: &Relation) -> Result<Vec<TraceResult>, CoreError> {
        self.registry.trace_sequential(suspect, &self.key.name, &self.target.name)
    }

    /// The single accused buyer, when exactly one clears `alpha`.
    ///
    /// # Errors
    ///
    /// Attribute-resolution failures.
    pub fn accuse(&self, suspect: &Relation, alpha: f64) -> Result<Option<String>, CoreError> {
        self.registry.accuse(suspect, &self.key.name, &self.target.name, alpha)
    }

    /// The underlying registry (buyer list, per-buyer specs).
    #[must_use]
    pub fn registry(&self) -> &FingerprintRegistry {
        &self.registry
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use catmark_datagen::{ItemScanConfig, SalesGenerator};
    use catmark_relation::{ops, Value};

    fn fixture(tuples: usize, e: u64) -> (SalesGenerator, Relation, WatermarkSpec, Watermark) {
        let gen = SalesGenerator::new(ItemScanConfig { tuples, ..Default::default() });
        let rel = gen.generate();
        let spec = WatermarkSpec::builder(gen.item_domain())
            .master_key("session-tests")
            .e(e)
            .wm_len(10)
            .expected_tuples(tuples)
            .erasure(crate::decode::ErasurePolicy::Abstain)
            .build()
            .unwrap();
        let wm = Watermark::from_u64(0b1011001110, 10);
        (gen, rel, spec, wm)
    }

    fn session_for(rel: &Relation, spec: &WatermarkSpec) -> MarkSession {
        MarkSession::builder(spec.clone())
            .key_column("visit_nbr")
            .target_column("item_nbr")
            .bind(rel)
            .unwrap()
    }

    #[test]
    fn bind_resolves_columns_once() {
        let (_, rel, spec, _) = fixture(500, 10);
        let s = session_for(&rel, &spec);
        assert_eq!(s.key().name(), "visit_nbr");
        assert_eq!(s.key().index(), 0);
        assert_eq!(s.target().name(), "item_nbr");
        assert_eq!(s.target().index(), 1);
    }

    #[test]
    fn bind_errors_carry_column_context() {
        let (_, rel, spec, _) = fixture(100, 10);
        let err = MarkSession::builder(spec.clone())
            .key_column("visit_nbr")
            .target_column("nope")
            .bind(&rel)
            .unwrap_err();
        let CoreError::ColumnBinding { column, arity, available, .. } = &err else {
            panic!("expected ColumnBinding, got {err:?}");
        };
        assert_eq!(column, "nope");
        assert_eq!(*arity, 2);
        assert_eq!(available, &["visit_nbr".to_owned(), "item_nbr".to_owned()]);

        // Missing target entirely.
        let err = MarkSession::builder(spec.clone()).key_column("visit_nbr").bind(&rel);
        assert!(matches!(err, Err(CoreError::ColumnBinding { .. })));

        // Key and target must differ.
        let err = MarkSession::builder(spec.clone())
            .key_column("item_nbr")
            .target_column("item_nbr")
            .bind(&rel);
        assert!(matches!(err, Err(CoreError::ColumnBinding { .. })));

        // Non-categorical target (the key column is never categorical).
        let err =
            MarkSession::builder(spec).key_column("item_nbr").target_column("visit_nbr").bind(&rel);
        assert!(matches!(err, Err(CoreError::ColumnBinding { .. })));
    }

    #[test]
    fn bind_rejects_type_incompatible_domain() {
        let (_, rel, spec, _) = fixture(100, 10);
        let mut text_spec = spec;
        text_spec.domain =
            CategoricalDomain::new(vec![Value::Text("a".into()), Value::Text("b".into())]).unwrap();
        let err = MarkSession::builder(text_spec)
            .key_column("visit_nbr")
            .target_column("item_nbr")
            .bind(&rel);
        assert!(matches!(err, Err(CoreError::ColumnBinding { .. })), "{err:?}");
    }

    #[test]
    fn embed_decode_detect_on_one_handle() {
        let (_, mut rel, spec, wm) = fixture(6_000, 15);
        let s = session_for(&rel, &spec);
        let report = s.embed(&mut rel, &wm).unwrap();
        assert!(report.fit_count() > 200);
        // The embed left the key column untouched, so the decode and
        // the detect reuse the cached plan: exactly one plan lives in
        // the cache after the whole run.
        let decode = s.decode(&rel).unwrap();
        assert_eq!(decode.watermark, wm);
        let verdict = s.detect(&rel, &wm).unwrap();
        assert!(verdict.is_significant(1e-2));
        assert_eq!(s.cache().len(), 1);
        // Outcome views agree with the underlying reports.
        assert_eq!(verdict.fit_count(), decode.fit_tuples);
        assert!(verdict.confidence() > 0.99);
        assert!(!format!("{verdict}").is_empty());
    }

    #[test]
    fn session_methods_error_after_schema_drift() {
        let (_, mut rel, spec, wm) = fixture(2_000, 10);
        let s = session_for(&rel, &spec);
        s.embed(&mut rel, &wm).unwrap();
        // A5-style projection drops the key column behind the session.
        let partitioned = ops::project(&rel, &[1], 0, false).unwrap();
        let err = s.decode(&partitioned).unwrap_err();
        let msg = err.to_string();
        assert!(matches!(err, CoreError::ColumnBinding { .. }), "{msg}");
        assert!(msg.contains("visit_nbr"), "{msg}");
        assert!(msg.contains("item_nbr"), "actionable listing missing: {msg}");
    }

    #[test]
    fn stale_plan_surfaces_as_error_after_mutation_behind_the_session() {
        let (_, mut rel, spec, wm) = fixture(2_000, 10);
        let s = session_for(&rel, &spec);
        s.embed(&mut rel, &wm).unwrap();
        let plan = s.plan(&rel).unwrap();
        // The relation is re-keyed behind the session's back.
        let old = rel.value(0, 0).unwrap().as_int().unwrap();
        rel.update_value(0, 0, Value::Int(old + 9_000_000)).unwrap();
        let err = s.decode_planned(&rel, &plan);
        assert!(matches!(err, Err(CoreError::InvalidSpec(_))), "{err:?}");
        // The self-planning path recovers by replanning.
        assert_eq!(s.decode(&rel).unwrap().watermark.len(), wm.len());
    }

    #[test]
    fn planned_paths_match_self_planning_paths() {
        let (_, rel, spec, wm) = fixture(3_000, 10);
        let s = session_for(&rel, &spec);
        let plan = s.plan(&rel).unwrap();
        let mut a = rel.clone();
        let mut b = rel;
        let ra = s.embed(&mut a, &wm).unwrap();
        let rb = s.embed_planned(&mut b, &wm, &plan).unwrap();
        assert_eq!(ra, rb);
        assert_eq!(b, a);
        let plan_after = s.plan(&a).unwrap();
        assert_eq!(s.decode(&a).unwrap(), s.decode_planned(&b, &plan_after).unwrap());
    }

    #[test]
    fn stream_marker_matches_batch_embed() {
        let (_, rel, spec, wm) = fixture(3_000, 10);
        let s = session_for(&rel, &spec);
        let mut batch = rel.clone();
        s.embed(&mut batch, &wm).unwrap();
        let marker = s.stream(&wm).unwrap();
        let mut streamed = Relation::new(rel.schema().clone());
        for row in 0..rel.len() {
            marker.ingest(&mut streamed, crate::testkit::row(&rel, row)).unwrap();
        }
        assert_eq!(streamed, batch);
        // Wrong watermark length is rejected up front.
        assert!(s.stream(&Watermark::from_u64(1, 3)).is_err());
    }

    #[test]
    fn contest_resolves_through_the_session() {
        let (gen, mut rel, spec, wm) = fixture(9_000, 10);
        let s = session_for(&rel, &spec);
        s.embed(&mut rel, &wm).unwrap();
        let owner = s.claim("owner", &wm);
        let mallory_spec = WatermarkSpec::builder(gen.item_domain())
            .master_key("mallory")
            .e(10)
            .wm_len(10)
            .expected_tuples(9_000)
            .erasure(crate::decode::ErasurePolicy::Abstain)
            .build()
            .unwrap();
        let mallory = Claim {
            claimant: "mallory".into(),
            spec: mallory_spec,
            watermark: Watermark::from_u64(0b0011001100, 10),
        };
        crate::contest::additive_attack(&mut rel, &mallory, "visit_nbr", "item_nbr").unwrap();
        let (outcome, ev_owner, _) = s.contest(&owner, &mallory, &rel, 1e-2, 0.01).unwrap();
        assert_eq!(outcome, ContestOutcome::EarlierClaim("owner".into()));
        assert!(ev_owner.confidence() > 0.9);
        // Re-running the contest replans nothing new.
        let before = s.cache().len();
        s.contest(&owner, &mallory, &rel, 1e-2, 0.01).unwrap();
        assert_eq!(s.cache().len(), before);
    }

    #[test]
    fn fingerprint_handle_traces_through_the_session() {
        let (_, rel, spec, _) = fixture(8_000, 15);
        let s = session_for(&rel, &spec);
        let mut fp = s.fingerprint();
        let (copy, _) = fp.mark_copy(&rel, "acme").unwrap();
        fp.register("globex");
        let leaked = ops::sample_bernoulli(&ops::shuffle(&copy, 3), 0.6, 4);
        assert_eq!(fp.accuse(&leaked, 1e-2).unwrap(), Some("acme".to_owned()));
        let results = fp.trace(&leaked).unwrap();
        assert_eq!(results[0].buyer, "acme");
        assert!(!format!("{}", results[0]).is_empty());
    }

    #[test]
    fn multiattr_handle_embeds_and_witnesses() {
        let gen = SalesGenerator::new(ItemScanConfig {
            tuples: 8_000,
            items: 400,
            with_city: true,
            ..Default::default()
        });
        let mut rel = gen.generate();
        let spec = WatermarkSpec::builder(gen.item_domain())
            .master_key("session-multiattr")
            .e(5)
            .wm_len(10)
            .expected_tuples(rel.len())
            .erasure(crate::decode::ErasurePolicy::Abstain)
            .build()
            .unwrap();
        let s = MarkSession::builder(spec)
            .key_column("visit_nbr")
            .target_column("item_nbr")
            .bind(&rel)
            .unwrap();
        let wm = Watermark::from_u64(0b1100101011, 10);
        let mut domains = HashMap::new();
        domains.insert("item_nbr".to_owned(), gen.item_domain());
        domains.insert("store_city".to_owned(), gen.city_domain());
        let ma = s.multiattr(&rel, &domains).unwrap();
        let outcomes = ma.embed(&mut rel, &wm).unwrap();
        assert_eq!(outcomes.len(), ma.plan().pairs().len());
        let verdict = ma.verdict(&rel, &wm, 1e-2).unwrap();
        assert!(verdict.significant_witnesses >= 2, "{verdict}");
        assert!(verdict.confidence() > 0.99);
    }

    #[test]
    fn sessions_share_the_cache_across_clones() {
        let (_, mut rel, spec, wm) = fixture(2_000, 10);
        let s = session_for(&rel, &spec);
        let clone = s.clone();
        s.embed(&mut rel, &wm).unwrap();
        clone.decode(&rel).unwrap();
        assert_eq!(s.cache().len(), 1, "clone re-planned instead of sharing");
    }
}
