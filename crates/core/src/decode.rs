//! Blind mark decoding (Section 3.2.2, Figure 2(a)).
//!
//! ```text
//! wm_decode(K, A, k1, k2, e, ECC)
//!   for j ← 1 .. N
//!     if H(T_j(K), k1) mod e == 0 then
//!       determine t such that T_j(A) = a_t
//!       wm_data[H(T_j(K), k2)] ← t & 1
//!   wm ← ECC.decode(wm_data, |wm|)
//! ```
//!
//! Detection is blind: it consumes only the suspect relation and the
//! [`crate::WatermarkSpec`] (keys + parameters + domain). Each fit
//! tuple casts one vote for its `wm_data` position; positions are
//! resolved by per-position majority, unobserved positions by the
//! configured [`ErasurePolicy`], and the ECC majority-votes the
//! redundant copies back into a watermark.

use catmark_crypto::KeyedPrf;
use catmark_relation::{ColumnView, Relation, Value};

use crate::ecc::ErrorCorrectingCode;
use crate::error::CoreError;
use crate::plan::MarkPlan;
use crate::spec::{Watermark, WatermarkSpec};

/// How the decoder values `wm_data` positions that received no votes.
///
/// Under heavy data loss (attack A1) many positions go unobserved; the
/// policy controls the failure mode and is the knob behind the shape
/// of the paper's Figure 7 (swept by the `erasure_policy` ablation
/// bench).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ErasurePolicy {
    /// Skip the position: only observed votes reach the ECC. The
    /// statistically cleanest choice (surviving votes are never
    /// corrupted by data loss), with coin-flip fallback only when a
    /// watermark bit loses *all* its copies.
    Abstain,
    /// Fill with an unbiased keyed-PRF coin. Models a decoder that
    /// always materializes the full `wm_data` array; degrades more
    /// steeply under loss (closest to the paper's measured Figure 7).
    #[default]
    RandomFill,
    /// Fill with zero, as a freshly allocated array would read.
    /// Biased: watermarks with many 1-bits degrade asymmetrically.
    ZeroFill,
}

/// Outcome of a decoding pass.
#[derive(Debug, Clone, PartialEq)]
pub struct DecodeReport {
    /// The recovered watermark.
    pub watermark: Watermark,
    /// Tuples satisfying the fitness criterion.
    pub fit_tuples: usize,
    /// Votes cast (fit tuples whose value was a domain member).
    pub votes_cast: usize,
    /// Fit tuples whose attribute value was outside the domain (e.g.
    /// after a remapping attack) — they abstain.
    pub foreign_values: usize,
    /// `wm_data` positions that received at least one vote.
    pub positions_observed: usize,
    /// Positions resolved by the erasure policy instead of votes.
    pub positions_erased: usize,
    /// Positions with conflicting votes (evidence of tampering: clean
    /// embedded data votes unanimously per position).
    pub position_conflicts: usize,
    /// The resolved `wm_data` estimate fed to the ECC (`None` =
    /// abstained position under [`ErasurePolicy::Abstain`]).
    pub wm_data: Vec<Option<bool>>,
}

impl DecodeReport {
    /// Fraction of `wm_data` positions that were observed.
    #[must_use]
    pub fn coverage(&self) -> f64 {
        if self.wm_data.is_empty() {
            0.0
        } else {
            self.positions_observed as f64 / self.wm_data.len() as f64
        }
    }
}

impl std::fmt::Display for DecodeReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "decoded {} from {} votes over {} fit tuples ({} foreign): \
             {}/{} positions observed, {} erased, {} conflicting",
            self.watermark,
            self.votes_cast,
            self.fit_tuples,
            self.foreign_values,
            self.positions_observed,
            self.wm_data.len(),
            self.positions_erased,
            self.position_conflicts,
        )
    }
}

impl crate::session::Outcome for DecodeReport {
    fn fit_count(&self) -> usize {
        self.fit_tuples
    }

    fn coverage(&self) -> f64 {
        DecodeReport::coverage(self)
    }

    /// Vote unanimity of the observed positions — clean embedded data
    /// votes unanimously, so conflicts are direct evidence of
    /// tampering (0 when nothing was observed).
    fn confidence(&self) -> f64 {
        if self.positions_observed == 0 {
            0.0
        } else {
            (self.positions_observed - self.position_conflicts) as f64
                / self.positions_observed as f64
        }
    }
}

/// Blind watermark decoder for one `(key, categorical attribute)`
/// pair.
#[derive(Debug, Clone)]
pub struct Decoder<'a> {
    spec: &'a WatermarkSpec,
}

impl<'a> Decoder<'a> {
    /// Engine constructor for the session layer and the other in-crate
    /// operators. External callers bind a
    /// [`crate::session::MarkSession`], which resolves columns once
    /// and shares one plan cache across every operator.
    pub(crate) fn engine(spec: &'a WatermarkSpec) -> Self {
        Decoder { spec }
    }

    /// Decoding over a precomputed [`MarkPlan`]: only the fit rows are
    /// visited and no key is rehashed.
    ///
    /// # Errors
    ///
    /// [`CoreError::InvalidSpec`] when the plan does not match this
    /// spec/relation; decoding never fails on suspect data, it simply
    /// reports what it could recover.
    pub fn decode_with_plan(
        &self,
        rel: &Relation,
        attr_idx: usize,
        ecc: &dyn ErrorCorrectingCode,
        plan: &MarkPlan,
    ) -> Result<DecodeReport, CoreError> {
        if !plan.matches(self.spec, rel) {
            return Err(CoreError::InvalidSpec(
                "mark plan was built for a different spec or relation".into(),
            ));
        }
        self.decode_with_plan_trusted(rel, attr_idx, ecc, plan)
    }

    /// [`Decoder::decode_with_plan`] minus the plan-staleness
    /// fingerprint pass — for plans the caller *just* obtained from a
    /// [`crate::plan::PlanCache`] lookup over the same relation, where
    /// the cache key already proved content identity.
    pub(crate) fn decode_with_plan_trusted(
        &self,
        rel: &Relation,
        attr_idx: usize,
        ecc: &dyn ErrorCorrectingCode,
        plan: &MarkPlan,
    ) -> Result<DecodeReport, CoreError> {
        self.resolve(ecc, &VoteAccumulator::of(self.spec, rel, attr_idx, plan))
    }

    /// Turn accumulated per-position vote tallies into a
    /// [`DecodeReport`]: majority per position, the configured
    /// [`ErasurePolicy`] for unobserved positions, deterministic
    /// keyed-PRF coins for ties, then the ECC. Split from the vote
    /// pass so the out-of-core driver can accumulate votes one
    /// segment at a time and resolve once — byte-identical to a
    /// monolithic decode by construction.
    pub(crate) fn resolve(
        &self,
        ecc: &dyn ErrorCorrectingCode,
        votes: &VoteAccumulator,
    ) -> Result<DecodeReport, CoreError> {
        let VoteAccumulator { ones, zeros, fit_tuples, votes_cast, foreign_values } = votes;
        let len = self.spec.wm_data_len;

        // Deterministic coins for erasure fill and tie-breaking,
        // independent of the data (derived from k2 so any party with
        // the detection keys resolves identically).
        let prf =
            KeyedPrf::new(self.spec.algo, self.spec.k2.derive(self.spec.algo, "decode-coins"));

        let mut positions_observed = 0usize;
        let mut positions_erased = 0usize;
        let mut position_conflicts = 0usize;
        let mut wm_data: Vec<Option<bool>> = (0..len)
            .map(|i| {
                let (o, z) = (ones[i], zeros[i]);
                if o + z == 0 {
                    positions_erased += 1;
                    // `RandomFill`'s coin is drawn below.
                    (self.spec.erasure == ErasurePolicy::ZeroFill).then_some(false)
                } else {
                    positions_observed += 1;
                    if o > 0 && z > 0 {
                        position_conflicts += 1;
                    }
                    // A tie's coin is drawn below.
                    (o != z).then_some(o > z)
                }
            })
            .collect();
        // The coins, 16 positions at a time per label.
        let mut fill = |label: &str, positions: &mut dyn Iterator<Item = usize>| {
            prf.coins(label).for_each(positions.map(|i| i as u64), |i, coin| {
                wm_data[i as usize] = Some(coin & 1 == 1);
            });
        };
        if self.spec.erasure == ErasurePolicy::RandomFill {
            fill("erasure", &mut (0..len).filter(|&i| ones[i] + zeros[i] == 0));
        }
        fill("pos-tie", &mut (0..len).filter(|&i| ones[i] > 0 && ones[i] == zeros[i]));

        let wm_ties = prf.coins("wm-tie");
        let mut tie_break = |j: usize| wm_ties.value(j as u64) & 1 == 1;
        let watermark = ecc.decode(&wm_data, self.spec.wm_len, &mut tie_break);
        Ok(DecodeReport {
            watermark,
            fit_tuples: *fit_tuples,
            votes_cast: *votes_cast,
            foreign_values: *foreign_values,
            positions_observed,
            positions_erased,
            position_conflicts,
            wm_data,
        })
    }
}

/// Per-position vote tallies plus the counters a [`DecodeReport`]
/// needs — filled by one pass over a whole relation, or by one pass
/// per segment of a `SegmentedRelation` (votes are commutative
/// per-position increments, so accumulation order cannot change the
/// resolved mark).
#[derive(Debug, Clone)]
pub(crate) struct VoteAccumulator {
    /// Per-position one-votes — what the evidence layer serializes.
    pub(crate) ones: Vec<u32>,
    /// Per-position zero-votes.
    pub(crate) zeros: Vec<u32>,
    /// Fit tuples seen.
    pub(crate) fit_tuples: usize,
    /// Votes cast (fit tuples whose value was a domain member).
    pub(crate) votes_cast: usize,
    /// Fit tuples whose value fell outside the domain.
    pub(crate) foreign_values: usize,
}

impl VoteAccumulator {
    /// Empty tallies over `wm_data_len` positions.
    pub(crate) fn new(wm_data_len: usize) -> Self {
        VoteAccumulator {
            ones: vec![0; wm_data_len],
            zeros: vec![0; wm_data_len],
            fit_tuples: 0,
            votes_cast: 0,
            foreign_values: 0,
        }
    }

    /// The tallies of `rel`: every fit tuple's vote cast straight off
    /// the target column's typed storage — integer rows resolve
    /// through the domain map, text rows through a per-dictionary-entry
    /// translation table computed once per (segment's) dictionary.
    /// `plan` must have been built over `rel` (its rows index `rel`
    /// locally).
    pub(crate) fn of(
        spec: &WatermarkSpec,
        rel: &Relation,
        attr_idx: usize,
        plan: &MarkPlan,
    ) -> Self {
        let mut votes = VoteAccumulator::new(spec.wm_data_len);
        votes.add(spec, rel, attr_idx, plan);
        votes
    }

    /// Add the tallies of `rel`, as [`VoteAccumulator::of`] counts
    /// them, to these.
    pub(crate) fn add(
        &mut self,
        spec: &WatermarkSpec,
        rel: &Relation,
        attr_idx: usize,
        plan: &MarkPlan,
    ) {
        let rows = plan.fit();
        self.fit_tuples += rows.len();
        match rel.column(attr_idx) {
            ColumnView::Int(xs) => {
                for planned in rows {
                    let Some(t) = spec.domain.code_of(&Value::Int(xs[planned.row as usize])) else {
                        self.foreign_values += 1;
                        continue;
                    };
                    self.tally(planned.position as usize, t);
                }
            }
            ColumnView::Text { codes, dict } => {
                let table = spec.domain.dict_codes(dict);
                for planned in rows {
                    let Some(t) = table[codes[planned.row as usize] as usize] else {
                        self.foreign_values += 1;
                        continue;
                    };
                    self.tally(planned.position as usize, t);
                }
            }
        }
    }

    /// Fold `other`'s tallies into these. Votes are commutative
    /// per-position increments, so merging per-segment accumulators
    /// (in any order) resolves identically to one sequential pass —
    /// the fact that lets the incremental decode driver reuse cached
    /// tallies for clean segments.
    ///
    /// Only positions `other` voted on are written, so merging sparse
    /// tallies over a long `wm_data` leaves most pages untouched.
    pub(crate) fn merge(&mut self, other: &VoteAccumulator) {
        debug_assert_eq!(self.ones.len(), other.ones.len(), "mismatched wm_data lengths");
        let votes = other.ones.iter().zip(&other.zeros);
        for (position, (&ones, &zeros)) in votes.enumerate() {
            if ones | zeros != 0 {
                self.ones[position] += ones;
                self.zeros[position] += zeros;
            }
        }
        self.fit_tuples += other.fit_tuples;
        self.votes_cast += other.votes_cast;
        self.foreign_values += other.foreign_values;
    }

    fn tally(&mut self, position: usize, domain_code: u32) {
        if domain_code & 1 == 1 {
            self.ones[position] += 1;
        } else {
            self.zeros[position] += 1;
        }
        self.votes_cast += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use catmark_datagen::{ItemScanConfig, SalesGenerator};
    use catmark_relation::ops;

    fn setup(
        tuples: usize,
        e: u64,
        erasure: ErasurePolicy,
    ) -> (Relation, WatermarkSpec, Watermark) {
        let gen = SalesGenerator::new(ItemScanConfig { tuples, ..Default::default() });
        let mut rel = gen.generate();
        let spec = WatermarkSpec::builder(gen.item_domain())
            .master_key("decode-tests")
            .e(e)
            .wm_len(10)
            .expected_tuples(tuples)
            .erasure(erasure)
            .build()
            .unwrap();
        let wm = Watermark::from_u64(0b1011001110, 10);
        crate::testkit::embed(&spec, &mut rel, "visit_nbr", "item_nbr", &wm).unwrap();
        (rel, spec, wm)
    }

    #[test]
    fn round_trip_recovers_watermark_exactly() {
        // With |wm_data| = N/e (the paper's sizing) carrier density is
        // λ ≈ 1 per position, leaving ~1/e of positions unobserved
        // even on clean data; ZeroFill's bias could then flip 1-bits.
        // Use a denser embedding (fit count ≈ 4 × |wm_data|) so every
        // policy must decode exactly.
        for policy in [ErasurePolicy::Abstain, ErasurePolicy::RandomFill, ErasurePolicy::ZeroFill] {
            let gen = SalesGenerator::new(ItemScanConfig { tuples: 6_000, ..Default::default() });
            let mut rel = gen.generate();
            let spec = WatermarkSpec::builder(gen.item_domain())
                .master_key("decode-tests")
                .e(15)
                .wm_len(10)
                .wm_data_len(100)
                .erasure(policy)
                .build()
                .unwrap();
            let wm = Watermark::from_u64(0b1011001110, 10);
            crate::testkit::embed(&spec, &mut rel, "visit_nbr", "item_nbr", &wm).unwrap();
            let report = crate::testkit::decode(&spec, &rel, "visit_nbr", "item_nbr").unwrap();
            assert_eq!(report.watermark, wm, "policy {policy:?}");
            assert_eq!(report.foreign_values, 0);
            assert_eq!(report.position_conflicts, 0, "clean data votes unanimously");
        }
    }

    #[test]
    fn round_trip_various_watermarks() {
        let gen = SalesGenerator::new(ItemScanConfig { tuples: 4_000, ..Default::default() });
        for (bits, len) in [(0u64, 10), (0x3FF, 10), (0b1, 1), (0xDEAD, 16)] {
            let mut rel = gen.generate();
            let spec = WatermarkSpec::builder(gen.item_domain())
                .master_key("decode-tests-2")
                .e(10)
                .wm_len(len)
                .wm_data_len(100)
                .build()
                .unwrap();
            let wm = Watermark::from_u64(bits, len);
            crate::testkit::embed(&spec, &mut rel, "visit_nbr", "item_nbr", &wm).unwrap();
            let report = crate::testkit::decode(&spec, &rel, "visit_nbr", "item_nbr").unwrap();
            assert_eq!(report.watermark, wm, "wm={wm}");
        }
    }

    #[test]
    fn decoding_is_blind_to_row_order() {
        // Attack A4: re-sorting must not disturb detection.
        let (rel, spec, wm) = setup(6_000, 30, ErasurePolicy::Abstain);
        let shuffled = ops::shuffle(&rel, 999);
        let sorted = ops::sort_by_attr(&rel, 1, false);
        for suspect in [shuffled, sorted] {
            let report = crate::testkit::decode(&spec, &suspect, "visit_nbr", "item_nbr").unwrap();
            assert_eq!(report.watermark, wm);
        }
    }

    #[test]
    fn wrong_key_decodes_garbage() {
        let (rel, spec, wm) = setup(6_000, 30, ErasurePolicy::RandomFill);
        let mut wrong = spec.clone();
        wrong.k1 = spec.k1.derive(spec.algo, "not-the-real-key");
        wrong.k2 = spec.k2.derive(spec.algo, "not-the-real-key");
        let report = crate::testkit::decode(&wrong, &rel, "visit_nbr", "item_nbr").unwrap();
        // A 10-bit mark matches by chance with probability 2^-10; a
        // *perfect* match under the wrong key would be a red flag.
        assert_ne!(report.watermark, wm);
    }

    #[test]
    fn survives_moderate_data_loss() {
        // A1: drop 40% of tuples; surviving votes are untainted so the
        // mark should still decode exactly under Abstain.
        let (rel, spec, wm) = setup(12_000, 30, ErasurePolicy::Abstain);
        let kept = ops::sample_bernoulli(&rel, 0.6, 4242);
        let report = crate::testkit::decode(&spec, &kept, "visit_nbr", "item_nbr").unwrap();
        assert_eq!(report.watermark, wm);
        assert!(report.positions_erased > 0, "loss should erase some positions");
    }

    #[test]
    fn foreign_values_abstain_rather_than_vote() {
        let (mut rel, spec, wm) = setup(6_000, 30, ErasurePolicy::Abstain);
        // Remap every item number out of the domain (crude A6).
        for row in 0..rel.len() {
            let old = rel.value(row, 1).unwrap().as_int().unwrap();
            rel.update_value(row, 1, catmark_relation::Value::Int(old + 1_000_000)).unwrap();
        }
        let report = crate::testkit::decode(&spec, &rel, "visit_nbr", "item_nbr").unwrap();
        assert_eq!(report.votes_cast, 0);
        assert_eq!(report.foreign_values, report.fit_tuples);
        assert_eq!(report.positions_observed, 0);
        let _ = wm; // decoded mark is pure noise here, nothing to assert
    }

    #[test]
    fn report_accounting_is_consistent() {
        let (rel, spec, _) = setup(6_000, 60, ErasurePolicy::RandomFill);
        let report = crate::testkit::decode(&spec, &rel, "visit_nbr", "item_nbr").unwrap();
        assert_eq!(report.votes_cast + report.foreign_values, report.fit_tuples);
        assert_eq!(report.positions_observed + report.positions_erased, spec.wm_data_len);
        assert_eq!(report.wm_data.len(), spec.wm_data_len);
        assert!(report.coverage() > 0.0 && report.coverage() <= 1.0);
    }

    #[test]
    fn abstain_leaves_none_randomfill_fills() {
        let (rel, spec, _) = setup(3_000, 60, ErasurePolicy::Abstain);
        let report = crate::testkit::decode(&spec, &rel, "visit_nbr", "item_nbr").unwrap();
        if report.positions_erased > 0 {
            assert!(report.wm_data.iter().any(Option::is_none));
        }
        let mut spec2 = spec.clone();
        spec2.erasure = ErasurePolicy::RandomFill;
        let report2 = crate::testkit::decode(&spec2, &rel, "visit_nbr", "item_nbr").unwrap();
        assert!(report2.wm_data.iter().all(Option::is_some));
    }

    #[test]
    fn decoding_is_deterministic() {
        let (rel, spec, _) = setup(3_000, 40, ErasurePolicy::RandomFill);
        let a = crate::testkit::decode(&spec, &rel, "visit_nbr", "item_nbr").unwrap();
        let b = crate::testkit::decode(&spec, &rel, "visit_nbr", "item_nbr").unwrap();
        assert_eq!(a, b);
    }
}
