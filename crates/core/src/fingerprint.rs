//! Buyer fingerprinting (traitor tracing) on top of the watermark.
//!
//! The paper's motivating scenario: "a set of data is usually
//! produced/collected by a data collector and then sold in pieces to
//! parties specialized in mining that data". Rights protection then
//! has two questions — *is this mine?* (the watermark) and *which
//! buyer leaked it?* (the fingerprint). This module answers the second
//! by giving every buyer's copy a buyer-specific mark under
//! buyer-derived keys: tracing decodes a suspect copy under every
//! registered buyer's keys and ranks the detections.
//!
//! Because fit sets under different derived keys are statistically
//! independent (≈ 1/e² overlap), per-buyer marks barely interfere, and
//! a copy leaks its buyer's identity even after the usual attacks.

use std::collections::HashMap;
use std::sync::{Arc, Mutex};

use catmark_crypto::SecretKey;
use catmark_relation::{MarkDelta, Relation};

use crate::decode::Decoder;
use crate::detect::{detect, Detection};
use crate::ecc::MajorityVotingEcc;
use crate::embed::{EmbedFold, EmbedReport, Embedder};
use crate::error::CoreError;
use crate::plan::{MultiPlanCache, PlanCache};
use crate::spec::{Watermark, WatermarkSpec};

/// Buyer identity → derived `(spec, mark)`, memoized because key
/// derivation hashes and every trace historically re-derived all of it
/// per call.
type DerivedCache = Arc<Mutex<HashMap<String, Arc<(WatermarkSpec, Watermark)>>>>;

/// A registry of buyers sharing one base spec (master keys,
/// parameters, domain).
///
/// The registry carries a [`PlanCache`]: tracing decodes the suspect
/// under *every* buyer's keys, and a follow-up [`FingerprintRegistry::accuse`]
/// (or repeated traces during an investigation) re-decodes the same
/// copy — each `(buyer spec, suspect)` pair is planned once. It also
/// carries a [`MultiPlanCache`] for the recipient-batched paths
/// ([`FingerprintRegistry::trace`], [`FingerprintRegistry::mark_copies`]),
/// which treat the whole buyer set as one cache entry — at hundreds of
/// buyers the per-plan cache's capacity would thrash. Derived buyer
/// specs and marks are memoized too, so repeated traces never re-derive
/// keys. Clones share all three stores.
#[derive(Debug, Clone)]
pub struct FingerprintRegistry {
    base: WatermarkSpec,
    buyers: Vec<String>,
    plans: PlanCache,
    multi_plans: MultiPlanCache,
    derived: DerivedCache,
}

/// One buyer's trace result.
#[derive(Debug, Clone)]
pub struct TraceResult {
    /// Buyer identifier.
    pub buyer: String,
    /// Detection of that buyer's mark in the suspect copy.
    pub detection: Detection,
}

impl std::fmt::Display for TraceResult {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "buyer {:?}: {}", self.buyer, self.detection)
    }
}

impl FingerprintRegistry {
    /// Registry over `base` (its `k1`/`k2` act as master keys; buyers
    /// get derived subkeys).
    #[must_use]
    pub fn new(base: WatermarkSpec) -> Self {
        Self::with_cache(base, PlanCache::new())
    }

    /// Registry sharing an existing [`PlanCache`] — how a
    /// [`crate::session::MarkSession`] hands its cache down so traces
    /// and session decodes of the same copy plan once.
    #[must_use]
    pub fn with_cache(base: WatermarkSpec, plans: PlanCache) -> Self {
        FingerprintRegistry {
            base,
            buyers: Vec::new(),
            plans,
            multi_plans: MultiPlanCache::new(),
            derived: Arc::new(Mutex::new(HashMap::new())),
        }
    }

    /// Register a buyer (idempotent).
    pub fn register(&mut self, buyer: &str) {
        if !self.buyers.iter().any(|b| b == buyer) {
            self.buyers.push(buyer.to_owned());
        }
    }

    /// Registered buyers, in registration order.
    #[must_use]
    pub fn buyers(&self) -> &[String] {
        &self.buyers
    }

    /// The per-spec plan cache behind the single-recipient paths —
    /// exposed so a service can report cache observability.
    #[must_use]
    pub fn plan_cache(&self) -> &PlanCache {
        &self.plans
    }

    /// The batched multi-key plan cache behind `mark_copies` /
    /// `trace`.
    #[must_use]
    pub fn multi_plan_cache(&self) -> &MultiPlanCache {
        &self.multi_plans
    }

    /// The buyer-specific spec: keys derived from the base pair and
    /// the buyer identity.
    #[must_use]
    pub fn spec_for(&self, buyer: &str) -> WatermarkSpec {
        self.derived_entry(buyer).0.clone()
    }

    /// The buyer-specific mark: the keyed hash of the buyer identity,
    /// truncated to `wm_len` (reproducible by the seller alone).
    #[must_use]
    pub fn mark_for(&self, buyer: &str) -> Watermark {
        self.derived_entry(buyer).1.clone()
    }

    /// The memoized derived `(spec, mark)` pair for `buyer`, computing
    /// and caching it on first request. Derivation is deterministic, so
    /// the cache is purely a cost saver: a 1 000-buyer trace would
    /// otherwise re-run 1 000 key derivations (each several hashes plus
    /// a spec validation) on **every** call.
    fn derived_entry(&self, buyer: &str) -> Arc<(WatermarkSpec, Watermark)> {
        let mut derived = self.derived.lock().expect("derived-key cache is never poisoned");
        if let Some(entry) = derived.get(buyer) {
            return Arc::clone(entry);
        }
        let spec = self.base.derived(&format!("buyer:{buyer}"));
        let key =
            SecretKey::from_bytes([self.base.k1.as_bytes(), b"fingerprint".as_slice()].concat());
        let mark = Watermark::from_identity(buyer, &key, self.base.wm_len);
        let entry = Arc::new((spec, mark));
        derived.insert(buyer.to_owned(), Arc::clone(&entry));
        entry
    }

    /// Produce `buyer`'s fingerprinted copy of `rel` (registering the
    /// buyer if needed).
    ///
    /// # Errors
    ///
    /// Embedding failures.
    pub fn mark_copy(
        &mut self,
        rel: &Relation,
        buyer: &str,
        key_attr: &str,
        target_attr: &str,
    ) -> Result<(Relation, EmbedReport), CoreError> {
        let mut copies = self.mark_copies(rel, &[buyer], key_attr, target_attr)?;
        Ok(copies.pop().expect("one buyer in, one copy out"))
    }

    /// Produce fingerprinted copies of `rel` for a whole batch of
    /// buyers (registering each if needed), hashing the key column
    /// through the recipient-batched [`crate::plan::MultiKeyPlan`]:
    /// one streaming pass serves four buyers' plans at a time instead
    /// of one pass per buyer. Copies come back in `buyers` order,
    /// byte-identical to N sequential [`FingerprintRegistry::mark_copy`]
    /// calls (pinned by proptest).
    ///
    /// Since the delta rework this is a thin wrapper: it extracts each
    /// buyer's [`MarkDelta`] via
    /// [`FingerprintRegistry::mark_deltas`] and materializes it with
    /// [`Relation::apply_delta`] — callers who can ship patches
    /// instead of copies should call `mark_deltas` directly and skip
    /// the materialization entirely.
    ///
    /// # Errors
    ///
    /// Embedding failures.
    pub fn mark_copies(
        &mut self,
        rel: &Relation,
        buyers: &[&str],
        key_attr: &str,
        target_attr: &str,
    ) -> Result<Vec<(Relation, EmbedReport)>, CoreError> {
        let deltas = self.mark_deltas(rel, buyers, key_attr, target_attr)?;
        deltas
            .into_iter()
            .map(|(delta, report)| {
                let copy = rel.apply_delta(&delta).map_err(CoreError::Relation)?;
                Ok((copy, report))
            })
            .collect()
    }

    /// Produce `buyer`'s fingerprinted copy of `rel` as a
    /// [`MarkDelta`] patch set against the shared base (registering
    /// the buyer if needed). `rel.apply_delta(&delta)` is
    /// byte-identical to [`FingerprintRegistry::mark_copy`]'s output,
    /// at ~1/e of the relation's bytes.
    ///
    /// # Errors
    ///
    /// Embedding failures.
    pub fn mark_delta(
        &mut self,
        rel: &Relation,
        buyer: &str,
        key_attr: &str,
        target_attr: &str,
    ) -> Result<(MarkDelta, EmbedReport), CoreError> {
        let mut deltas = self.mark_deltas(rel, &[buyer], key_attr, target_attr)?;
        Ok(deltas.pop().expect("one buyer in, one delta out"))
    }

    /// Produce [`MarkDelta`]s for a whole batch of buyers from one
    /// recipient-batched [`crate::plan::MultiKeyPlan`] scan, **without
    /// ever cloning the base**: the embed decisions run read-only over
    /// `rel` and come back as ordered patch records (plus text
    /// dictionary extensions). Deltas come back in `buyers` order.
    ///
    /// A single-buyer batch plans through the per-plan [`PlanCache`]
    /// instead, so ordinary `mark_delta` traffic doesn't evict the
    /// (few, large) memoized recipient-set batches.
    ///
    /// # Errors
    ///
    /// Embedding failures.
    pub fn mark_deltas(
        &mut self,
        rel: &Relation,
        buyers: &[&str],
        key_attr: &str,
        target_attr: &str,
    ) -> Result<Vec<(MarkDelta, EmbedReport)>, CoreError> {
        let key_idx = rel.schema().index_of(key_attr)?;
        let attr_idx = rel.schema().index_of(target_attr)?;
        for buyer in buyers {
            self.register(buyer);
        }
        let entries: Vec<Arc<(WatermarkSpec, Watermark)>> =
            buyers.iter().map(|b| self.derived_entry(b)).collect();
        let plans: Vec<Arc<crate::plan::MarkPlan>> = if buyers.len() == 1 {
            vec![self.plans.plan_for(&entries[0].0, rel, key_idx)?]
        } else {
            let specs: Vec<WatermarkSpec> = entries.iter().map(|e| e.0.clone()).collect();
            self.multi_plans.plan_for(&specs, rel, key_idx)?.plans().to_vec()
        };
        let mut deltas = Vec::with_capacity(buyers.len());
        // The domain table depends on (domain, column) only — derived
        // specs share the registry's domain — so one resolution serves
        // the whole recipient batch.
        let table = match entries.first() {
            Some(entry) => Embedder::engine(&entry.0).delta_domain_table(rel, attr_idx)?,
            None => return Ok(deltas),
        };
        for (entry, plan) in entries.iter().zip(&plans) {
            let (engine, mut fold) = (Embedder::engine(&entry.0), EmbedFold::new(&entry.0));
            let wm_data = engine.wm_data(&entry.1, &MajorityVotingEcc)?;
            // The cache key already proved content identity, so there
            // is no per-buyer staleness fingerprint.
            let delta = engine.delta_pass(rel, attr_idx, &wm_data, plan, &mut fold, &table)?;
            deltas.push((delta, fold.finish()));
        }
        Ok(deltas)
    }

    /// Decode `suspect` under every registered buyer's keys, ranked by
    /// ascending false-positive probability (strongest evidence
    /// first).
    ///
    /// The per-buyer keyed-hash passes run recipient-batched through
    /// one [`crate::plan::MultiKeyPlan`] (four buyers' lanes per scan
    /// of the key column), and the whole buyer set's plan batch is
    /// memoized per suspect — repeated traces of the same copy during
    /// an investigation re-plan nothing. Results are identical to
    /// [`FingerprintRegistry::trace_sequential`] (pinned by proptest).
    ///
    /// # Errors
    ///
    /// Attribute-resolution failures.
    pub fn trace(
        &self,
        suspect: &Relation,
        key_attr: &str,
        target_attr: &str,
    ) -> Result<Vec<TraceResult>, CoreError> {
        let key_idx = suspect.schema().index_of(key_attr)?;
        let attr_idx = suspect.schema().index_of(target_attr)?;
        let entries: Vec<Arc<(WatermarkSpec, Watermark)>> =
            self.buyers.iter().map(|b| self.derived_entry(b)).collect();
        let specs: Vec<WatermarkSpec> = entries.iter().map(|e| e.0.clone()).collect();
        let batch = self.multi_plans.plan_for(&specs, suspect, key_idx)?;
        let mut results = Vec::with_capacity(self.buyers.len());
        for ((buyer, entry), plan) in self.buyers.iter().zip(&entries).zip(batch.plans()) {
            let (spec, wm) = (&entry.0, &entry.1);
            let decode = Decoder::engine(spec).decode_with_plan(
                suspect,
                attr_idx,
                &MajorityVotingEcc,
                plan,
            )?;
            results.push(TraceResult {
                buyer: buyer.clone(),
                detection: detect(&decode.watermark, wm),
            });
        }
        Self::rank(&mut results);
        Ok(results)
    }

    /// The per-recipient reference for [`FingerprintRegistry::trace`]:
    /// one full plan-and-decode pass per registered buyer through the
    /// per-plan cache, exactly the historical semantics. Kept public so
    /// equivalence tests (and callers who want per-buyer passes, e.g.
    /// to bound memory at enormous buyer counts) can pin the batched
    /// path against it.
    ///
    /// # Errors
    ///
    /// Attribute-resolution failures.
    pub fn trace_sequential(
        &self,
        suspect: &Relation,
        key_attr: &str,
        target_attr: &str,
    ) -> Result<Vec<TraceResult>, CoreError> {
        let key_idx = suspect.schema().index_of(key_attr)?;
        let attr_idx = suspect.schema().index_of(target_attr)?;
        let mut results = Vec::with_capacity(self.buyers.len());
        for buyer in &self.buyers {
            let entry = self.derived_entry(buyer);
            let (spec, wm) = (&entry.0, &entry.1);
            let plan = self.plans.plan_for(spec, suspect, key_idx)?;
            let decode = Decoder::engine(spec).decode_with_plan(
                suspect,
                attr_idx,
                &MajorityVotingEcc,
                &plan,
            )?;
            results.push(TraceResult {
                buyer: buyer.clone(),
                detection: detect(&decode.watermark, wm),
            });
        }
        Self::rank(&mut results);
        Ok(results)
    }

    /// Strongest evidence first: ascending false-positive probability,
    /// ties broken by buyer registration order (the sort is stable).
    fn rank(results: &mut [TraceResult]) {
        results.sort_by(|a, b| {
            a.detection
                .false_positive_probability
                .total_cmp(&b.detection.false_positive_probability)
        });
    }

    /// Convenience: the single accused buyer, when exactly one clears
    /// `alpha`.
    ///
    /// # Errors
    ///
    /// Attribute-resolution failures.
    pub fn accuse(
        &self,
        suspect: &Relation,
        key_attr: &str,
        target_attr: &str,
        alpha: f64,
    ) -> Result<Option<String>, CoreError> {
        let results = self.trace(suspect, key_attr, target_attr)?;
        let significant: Vec<&TraceResult> =
            results.iter().filter(|r| r.detection.is_significant(alpha)).collect();
        Ok(match significant.as_slice() {
            [only] => Some(only.buyer.clone()),
            _ => None,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::decode::ErasurePolicy;
    use catmark_datagen::{ItemScanConfig, SalesGenerator};
    use catmark_relation::ops;

    fn registry() -> (FingerprintRegistry, Relation) {
        let gen = SalesGenerator::new(ItemScanConfig { tuples: 8_000, ..Default::default() });
        let rel = gen.generate();
        let base = WatermarkSpec::builder(gen.item_domain())
            .master_key("fingerprint-tests")
            .e(15)
            .wm_len(10)
            .expected_tuples(rel.len())
            .erasure(ErasurePolicy::Abstain)
            .build()
            .unwrap();
        (FingerprintRegistry::new(base), rel)
    }

    #[test]
    fn distinct_buyers_get_distinct_marks_and_keys() {
        let (mut reg, _) = registry();
        reg.register("acme");
        reg.register("globex");
        reg.register("acme"); // idempotent
        assert_eq!(reg.buyers().len(), 2);
        assert_ne!(reg.mark_for("acme"), reg.mark_for("globex"));
        assert_ne!(reg.spec_for("acme").k1, reg.spec_for("globex").k1);
    }

    #[test]
    fn traces_the_leaking_buyer() {
        let (mut reg, rel) = registry();
        let buyers = ["acme", "globex", "initech", "umbrella"];
        let mut copies = Vec::new();
        for b in buyers {
            let (copy, report) = reg.mark_copy(&rel, b, "visit_nbr", "item_nbr").unwrap();
            assert!(report.altered > 100);
            copies.push(copy);
        }
        // initech leaks a shuffled, halved copy.
        let leaked = ops::sample_bernoulli(&ops::shuffle(&copies[2], 1), 0.5, 2);
        let results = reg.trace(&leaked, "visit_nbr", "item_nbr").unwrap();
        assert_eq!(results[0].buyer, "initech");
        assert!(results[0].detection.is_significant(1e-2));
        // Every other buyer stays at chance level.
        for r in &results[1..] {
            assert!(
                !r.detection.is_significant(1e-2),
                "{} spuriously detected: {:?}",
                r.buyer,
                r.detection
            );
        }
        assert_eq!(
            reg.accuse(&leaked, "visit_nbr", "item_nbr", 1e-2).unwrap(),
            Some("initech".to_owned())
        );
    }

    #[test]
    fn batched_copies_match_sequential_mark_copy() {
        // `mark_copies` must hand every buyer exactly the copy a
        // sequential `mark_copy` loop would have produced — including a
        // duplicate buyer id in the middle of the batch.
        let (mut batched_reg, rel) = registry();
        let (mut seq_reg, _) = registry();
        let buyers = ["acme", "globex", "acme", "initech", "umbrella", "hooli"];
        let batched = batched_reg.mark_copies(&rel, &buyers, "visit_nbr", "item_nbr").unwrap();
        assert_eq!(batched.len(), buyers.len());
        for (buyer, (copy, report)) in buyers.iter().zip(&batched) {
            let (expected, expected_report) =
                seq_reg.mark_copy(&rel, buyer, "visit_nbr", "item_nbr").unwrap();
            assert!(copy == &expected, "buyer {buyer}: batched copy diverges from sequential");
            assert_eq!(report.altered, expected_report.altered, "buyer {buyer}");
        }
        assert_eq!(batched_reg.buyers(), ["acme", "globex", "initech", "umbrella", "hooli"]);
    }

    #[test]
    fn deltas_rebuild_byte_identical_copies() {
        let (mut delta_reg, rel) = registry();
        let (mut copy_reg, _) = registry();
        let buyers = ["acme", "globex", "initech"];
        let deltas = delta_reg.mark_deltas(&rel, &buyers, "visit_nbr", "item_nbr").unwrap();
        let copies = copy_reg.mark_copies(&rel, &buyers, "visit_nbr", "item_nbr").unwrap();
        for ((buyer, (delta, d_report)), (copy, c_report)) in
            buyers.iter().zip(&deltas).zip(&copies)
        {
            assert_eq!(d_report, c_report, "buyer {buyer}: reports diverge");
            assert!(delta.patch_count() > 100, "buyer {buyer}");
            // Through the wire format and back.
            let wire = MarkDelta::decode(&delta.encode()).unwrap();
            let rebuilt = rel.apply_delta(&wire).unwrap();
            assert!(rebuilt == *copy, "buyer {buyer}: delta-rebuilt copy diverges from mark_copy");
            // The delta is a small fraction of the materialized copy.
            assert!(delta.serialized_len() * 4 < copy.resident_bytes(), "buyer {buyer}");
        }
    }

    #[test]
    fn batched_trace_matches_sequential_trace() {
        let (mut reg, rel) = registry();
        for b in ["acme", "globex", "initech", "umbrella", "hooli"] {
            reg.mark_copy(&rel, b, "visit_nbr", "item_nbr").unwrap();
        }
        let (leaked, _) = reg.mark_copy(&rel, "globex", "visit_nbr", "item_nbr").unwrap();
        let batched = reg.trace(&leaked, "visit_nbr", "item_nbr").unwrap();
        let sequential = reg.trace_sequential(&leaked, "visit_nbr", "item_nbr").unwrap();
        assert_eq!(batched.len(), sequential.len());
        for (b, s) in batched.iter().zip(&sequential) {
            assert_eq!(b.buyer, s.buyer);
            assert_eq!(b.detection.matched_bits, s.detection.matched_bits);
            assert_eq!(
                b.detection.false_positive_probability,
                s.detection.false_positive_probability
            );
        }
        assert_eq!(batched[0].buyer, "globex");
    }

    #[test]
    fn derived_entries_are_memoized_and_stable() {
        let (reg, _) = registry();
        let spec_a = reg.spec_for("acme");
        let mark_a = reg.mark_for("acme");
        // Second call serves the memoized entry — same bytes.
        assert_eq!(spec_a.k1, reg.spec_for("acme").k1);
        assert_eq!(spec_a.k2, reg.spec_for("acme").k2);
        assert_eq!(mark_a, reg.mark_for("acme"));
        // And a fresh registry derives the same thing from scratch.
        let (fresh, _) = registry();
        assert_eq!(spec_a.k1, fresh.spec_for("acme").k1);
        assert_eq!(mark_a, fresh.mark_for("acme"));
    }

    #[test]
    fn unmarked_data_accuses_nobody() {
        let (mut reg, rel) = registry();
        reg.register("acme");
        reg.register("globex");
        assert_eq!(reg.accuse(&rel, "visit_nbr", "item_nbr", 1e-2).unwrap(), None);
    }

    #[test]
    fn merged_copies_confuse_single_accusation_but_not_trace() {
        // A collusion of two buyers interleaving their copies: both
        // marks survive partially; accuse() declines to name one, and
        // trace() surfaces both at the top.
        let (mut reg, rel) = registry();
        let (copy_a, _) = reg.mark_copy(&rel, "acme", "visit_nbr", "item_nbr").unwrap();
        let (copy_b, _) = reg.mark_copy(&rel, "globex", "visit_nbr", "item_nbr").unwrap();
        reg.register("innocent");
        // Interleave: first half of A's rows, second half of B's.
        let mut merged = copy_a.gather(&(0..rel.len() / 2).collect::<Vec<_>>());
        merged.append(&copy_b.gather(&(rel.len() / 2..rel.len()).collect::<Vec<_>>())).unwrap();
        let results = reg.trace(&merged, "visit_nbr", "item_nbr").unwrap();
        let top2: Vec<&str> = results[..2].iter().map(|r| r.buyer.as_str()).collect();
        assert!(top2.contains(&"acme") && top2.contains(&"globex"), "{top2:?}");
        assert!(results[0].detection.is_significant(1e-2));
        assert!(results[1].detection.is_significant(1e-2));
        assert_eq!(results[2].buyer, "innocent");
        assert_eq!(reg.accuse(&merged, "visit_nbr", "item_nbr", 1e-2).unwrap(), None);
    }
}
