//! Additive watermark attacks and ownership contests.
//!
//! The paper's conclusions flag this as open: "Additive watermark
//! attacks need to be analyzed and handled." In an additive attack
//! Mallory embeds *her own* watermark (with her own keys) over the
//! owner's marked data, then claims ownership. Both parties can now
//! demonstrate a mark — the court needs a tiebreaker.
//!
//! This module implements the analysis. The decisive observation is an
//! *asymmetry of damage*: embedding is last-writer-wins at the tuple
//! level, so the second mark partially overwrites the first where
//! their fit sets intersect, while the second mark is pristine.
//! Three measurable consequences, all captured by [`ClaimEvidence`]:
//!
//! 1. the later mark decodes with **zero position conflicts** and
//!    near-perfect vote unanimity; the earlier mark shows degradation
//!    exactly proportional to the fit-set overlap (≈ 1/e of its
//!    carriers);
//! 2. the later claimant **cannot produce a copy that predates** the
//!    earlier mark: re-decoding the earlier claimant's archived
//!    pre-release copy (if any) with the later keys finds nothing;
//! 3. quantitatively, `vote_unanimity` of the later mark
//!    stochastically dominates the earlier one's.
//!
//! [`resolve`] weighs (1) and (3); evidentiary workflows for (2) are
//! in the `court_day` example.

use catmark_relation::Relation;

use crate::decode::{DecodeReport, Decoder, VoteAccumulator};
use crate::detect::{detect, Detection};
use crate::ecc::MajorityVotingEcc;
use crate::error::CoreError;
use crate::plan::PlanCache;
use crate::spec::{Watermark, WatermarkSpec};

/// One party's ownership claim: their spec (keys) and asserted mark.
#[derive(Debug, Clone)]
pub struct Claim {
    /// Claimant label for reports.
    pub claimant: String,
    /// The claimant's detection key material.
    pub spec: WatermarkSpec,
    /// The watermark the claimant asserts.
    pub watermark: Watermark,
}

/// Measured evidence for one claim against the disputed data.
#[derive(Debug, Clone)]
pub struct ClaimEvidence {
    /// Claimant label.
    pub claimant: String,
    /// Raw decode.
    pub decode: DecodeReport,
    /// Match against the asserted mark.
    pub detection: Detection,
    /// Fraction of voted positions that were unanimous — the damage
    /// fingerprint (1.0 for the most recent embedding, lower for
    /// marks that were partially overwritten afterwards).
    pub vote_unanimity: f64,
}

impl ClaimEvidence {
    /// Whether the claim shows a statistically significant mark at
    /// `alpha`.
    #[must_use]
    pub fn is_present(&self, alpha: f64) -> bool {
        self.detection.is_significant(alpha)
    }
}

impl std::fmt::Display for ClaimEvidence {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "claim by {:?}: {}, vote unanimity {:.3}",
            self.claimant, self.detection, self.vote_unanimity
        )
    }
}

impl crate::session::Outcome for ClaimEvidence {
    fn fit_count(&self) -> usize {
        self.decode.fit_tuples
    }

    fn coverage(&self) -> f64 {
        self.decode.coverage()
    }

    /// Probability the observed match is *not* chance.
    fn confidence(&self) -> f64 {
        1.0 - self.detection.false_positive_probability
    }
}

/// Verdict of an ownership contest.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ContestOutcome {
    /// Only one claim is present at all.
    OnlyClaim(String),
    /// Both claims are present; the named claimant's mark shows the
    /// overwrite damage expected of the *earlier* embedding and is
    /// therefore presumed the original owner.
    EarlierClaim(String),
    /// Both present and statistically indistinguishable — escalate to
    /// extrinsic evidence (archived copies, registration).
    Indeterminate,
    /// Neither claim is present.
    NeitherClaim,
}

impl std::fmt::Display for ContestOutcome {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ContestOutcome::OnlyClaim(who) => {
                write!(f, "only {who:?}'s mark is present")
            }
            ContestOutcome::EarlierClaim(who) => {
                write!(f, "both marks present; {who:?}'s shows the overwrite damage of the earlier embedding")
            }
            ContestOutcome::Indeterminate => {
                f.write_str("both marks present and statistically indistinguishable")
            }
            ContestOutcome::NeitherClaim => f.write_str("neither mark is present"),
        }
    }
}

/// Gather evidence for `claim` against `rel`.
///
/// # Errors
///
/// Attribute-resolution failures.
pub fn evidence(
    claim: &Claim,
    rel: &Relation,
    key_attr: &str,
    target_attr: &str,
) -> Result<ClaimEvidence, CoreError> {
    evidence_with_cache(claim, rel, key_attr, target_attr, &crate::plan::PlanCache::new())
}

/// [`evidence`] over a shared [`crate::plan::PlanCache`].
///
/// Plans are keyed per claimant spec, so the cache does **not** save
/// work *across* claims (each claimant's keys require their own hash
/// pass); it pays when the *same* claim's evidence is gathered more
/// than once against the same data — re-running a contest after new
/// filings, or auditing a verdict.
///
/// # Errors
///
/// Attribute-resolution failures.
pub fn evidence_with_cache(
    claim: &Claim,
    rel: &Relation,
    key_attr: &str,
    target_attr: &str,
    cache: &PlanCache,
) -> Result<ClaimEvidence, CoreError> {
    let key_idx = rel.schema().index_of(key_attr)?;
    let attr_idx = rel.schema().index_of(target_attr)?;
    Ok(claim_evidence(claim, rel, key_idx, attr_idx, cache)?.0)
}

/// [`evidence_with_cache`] on resolved column indices, returning the
/// vote tally the evidence was resolved from as well — the tally is
/// what a certified contest serializes.
pub(crate) fn claim_evidence(
    claim: &Claim,
    rel: &Relation,
    key_idx: usize,
    attr_idx: usize,
    cache: &PlanCache,
) -> Result<(ClaimEvidence, VoteAccumulator), CoreError> {
    let plan = cache.plan_for(&claim.spec, rel, key_idx)?;
    let tally = VoteAccumulator::of(&claim.spec, rel, attr_idx, &plan);
    let decode = Decoder::engine(&claim.spec).resolve(&MajorityVotingEcc, &tally)?;
    let detection = detect(&decode.watermark, &claim.watermark);
    let voted = decode.positions_observed.max(1);
    let unanimous = decode.positions_observed - decode.position_conflicts;
    let vote_unanimity = unanimous as f64 / voted as f64;
    Ok((
        ClaimEvidence { claimant: claim.claimant.clone(), decode, detection, vote_unanimity },
        tally,
    ))
}

/// Resolve a two-party contest over `rel`.
///
/// `alpha` gates presence; when both marks are present, the claim with
/// *lower* vote unanimity (more overwrite damage) is presumed earlier
/// — additive attackers mark last and leave fingerprints on their
/// victim's carriers but none on their own. A margin of
/// `unanimity_margin` (e.g. 0.02) guards against noise-level
/// differences.
///
/// # Errors
///
/// Attribute-resolution failures.
pub fn resolve(
    a: &Claim,
    b: &Claim,
    rel: &Relation,
    key_attr: &str,
    target_attr: &str,
    alpha: f64,
    unanimity_margin: f64,
) -> Result<(ContestOutcome, ClaimEvidence, ClaimEvidence), CoreError> {
    resolve_with_cache(
        a,
        b,
        rel,
        key_attr,
        target_attr,
        alpha,
        unanimity_margin,
        &crate::plan::PlanCache::new(),
    )
}

/// [`resolve`] over a shared [`crate::plan::PlanCache`] — what a
/// [`crate::session::MarkSession`] passes so re-running the same
/// contest (new filings, audits) replans nothing.
///
/// # Errors
///
/// Attribute-resolution failures.
#[allow(clippy::too_many_arguments)]
pub fn resolve_with_cache(
    a: &Claim,
    b: &Claim,
    rel: &Relation,
    key_attr: &str,
    target_attr: &str,
    alpha: f64,
    unanimity_margin: f64,
    cache: &PlanCache,
) -> Result<(ContestOutcome, ClaimEvidence, ClaimEvidence), CoreError> {
    let ev_a = evidence_with_cache(a, rel, key_attr, target_attr, cache)?;
    let ev_b = evidence_with_cache(b, rel, key_attr, target_attr, cache)?;
    Ok((outcome(&ev_a, &ev_b, alpha, unanimity_margin), ev_a, ev_b))
}

/// How the contest rule falls, seen from the first claim. The
/// discriminants are the outcome tags evidence bundles record.
#[derive(Clone, Copy)]
pub(crate) enum Ruling {
    OnlyFirst = 0,
    OnlySecond = 1,
    FirstEarlier = 2,
    SecondEarlier = 3,
    Indeterminate = 4,
    Neither = 5,
}

/// The contest rule over two claims' facts: presence first; when both
/// marks are present, the one whose vote unanimity is lower by more
/// than `unanimity_margin` shows the overwrite damage of the earlier
/// embedding.
pub(crate) fn ruling(
    present: (bool, bool),
    unanimity: (f64, f64),
    unanimity_margin: f64,
) -> Ruling {
    match present {
        (false, false) => Ruling::Neither,
        (true, false) => Ruling::OnlyFirst,
        (false, true) => Ruling::OnlySecond,
        _ if unanimity.0 + unanimity_margin < unanimity.1 => Ruling::FirstEarlier,
        _ if unanimity.1 + unanimity_margin < unanimity.0 => Ruling::SecondEarlier,
        _ => Ruling::Indeterminate,
    }
}

/// The [`ContestOutcome`] of `a` against `b` at significance `alpha`.
pub(crate) fn outcome(
    a: &ClaimEvidence,
    b: &ClaimEvidence,
    alpha: f64,
    unanimity_margin: f64,
) -> ContestOutcome {
    let present = (a.is_present(alpha), b.is_present(alpha));
    match ruling(present, (a.vote_unanimity, b.vote_unanimity), unanimity_margin) {
        Ruling::OnlyFirst => ContestOutcome::OnlyClaim(a.claimant.clone()),
        Ruling::OnlySecond => ContestOutcome::OnlyClaim(b.claimant.clone()),
        Ruling::FirstEarlier => ContestOutcome::EarlierClaim(a.claimant.clone()),
        Ruling::SecondEarlier => ContestOutcome::EarlierClaim(b.claimant.clone()),
        Ruling::Indeterminate => ContestOutcome::Indeterminate,
        Ruling::Neither => ContestOutcome::NeitherClaim,
    }
}

/// The additive attack itself: embed `attacker_claim`'s mark over
/// already-marked data (a convenience wrapper making the attack
/// explicit in experiment code).
///
/// # Errors
///
/// Embedding failures.
pub fn additive_attack(
    rel: &mut Relation,
    attacker_claim: &Claim,
    key_attr: &str,
    target_attr: &str,
) -> Result<crate::embed::EmbedReport, CoreError> {
    let key_idx = rel.schema().index_of(key_attr)?;
    let attr_idx = rel.schema().index_of(target_attr)?;
    let plan = crate::plan::MarkPlan::build(&attacker_claim.spec, rel, key_idx);
    crate::embed::Embedder::engine(&attacker_claim.spec).embed_with_plan_trusted(
        rel,
        attr_idx,
        &attacker_claim.watermark,
        &MajorityVotingEcc,
        None,
        &plan,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::decode::ErasurePolicy;
    use catmark_datagen::{ItemScanConfig, SalesGenerator};

    fn claim(name: &str, gen: &SalesGenerator, e: u64) -> Claim {
        let spec = WatermarkSpec::builder(gen.item_domain())
            .master_key(format!("contest-{name}").as_str())
            .e(e)
            .wm_len(10)
            .expected_tuples(12_000)
            .erasure(ErasurePolicy::Abstain)
            .build()
            .unwrap();
        let wm = Watermark::from_identity(name, &spec.k1, 10);
        Claim { claimant: name.to_owned(), spec, watermark: wm }
    }

    fn fixture() -> (SalesGenerator, Relation) {
        let gen = SalesGenerator::new(ItemScanConfig { tuples: 12_000, ..Default::default() });
        let rel = gen.generate();
        (gen, rel)
    }

    #[test]
    fn additive_attacker_is_identified_as_later() {
        let (gen, mut rel) = fixture();
        let owner = claim("owner", &gen, 10);
        let mallory = claim("mallory", &gen, 10);
        // Owner marks first…
        crate::testkit::embed(&owner.spec, &mut rel, "visit_nbr", "item_nbr", &owner.watermark)
            .unwrap();
        // …Mallory additively marks second.
        additive_attack(&mut rel, &mallory, "visit_nbr", "item_nbr").unwrap();

        let (outcome, ev_owner, ev_mallory) =
            resolve(&owner, &mallory, &rel, "visit_nbr", "item_nbr", 1e-2, 0.01).unwrap();
        // Both marks are present (the attack succeeds at *presence*).
        assert!(ev_owner.is_present(1e-2), "owner evidence: {:?}", ev_owner.detection);
        assert!(ev_mallory.is_present(1e-2));
        // But the damage asymmetry exposes Mallory as the later marker.
        assert!(
            ev_owner.vote_unanimity < ev_mallory.vote_unanimity,
            "owner unanimity {} !< mallory {}",
            ev_owner.vote_unanimity,
            ev_mallory.vote_unanimity
        );
        assert_eq!(outcome, ContestOutcome::EarlierClaim("owner".into()));
    }

    #[test]
    fn unmarked_data_supports_neither() {
        let (gen, rel) = fixture();
        let a = claim("a", &gen, 10);
        let b = claim("b", &gen, 10);
        let (outcome, _, _) = resolve(&a, &b, &rel, "visit_nbr", "item_nbr", 1e-2, 0.01).unwrap();
        assert_eq!(outcome, ContestOutcome::NeitherClaim);
    }

    #[test]
    fn single_mark_yields_only_claim() {
        let (gen, mut rel) = fixture();
        let owner = claim("owner", &gen, 10);
        let pretender = claim("pretender", &gen, 10);
        crate::testkit::embed(&owner.spec, &mut rel, "visit_nbr", "item_nbr", &owner.watermark)
            .unwrap();
        let (outcome, ev_owner, ev_pretender) =
            resolve(&owner, &pretender, &rel, "visit_nbr", "item_nbr", 1e-2, 0.01).unwrap();
        assert_eq!(outcome, ContestOutcome::OnlyClaim("owner".into()));
        assert!((ev_owner.vote_unanimity - 1.0).abs() < 1e-9, "fresh mark is unanimous");
        assert!(!ev_pretender.is_present(1e-2));
    }

    #[test]
    fn independent_copy_supports_only_its_own_mark() {
        // Two marks embedded on *independent copies* then compared on
        // one of them: resolve on copy A must not spuriously name a
        // later claimant for B (B simply is not present there).
        let (gen, rel) = fixture();
        let a = claim("a", &gen, 10);
        let b = claim("b", &gen, 10);
        let mut copy_a = rel.clone();
        crate::testkit::embed(&a.spec, &mut copy_a, "visit_nbr", "item_nbr", &a.watermark).unwrap();
        let (outcome, _, _) =
            resolve(&a, &b, &copy_a, "visit_nbr", "item_nbr", 1e-2, 0.01).unwrap();
        assert_eq!(outcome, ContestOutcome::OnlyClaim("a".into()));
    }

    #[test]
    fn order_of_arguments_does_not_matter() {
        let (gen, mut rel) = fixture();
        let owner = claim("owner", &gen, 10);
        let mallory = claim("mallory", &gen, 10);
        crate::testkit::embed(&owner.spec, &mut rel, "visit_nbr", "item_nbr", &owner.watermark)
            .unwrap();
        additive_attack(&mut rel, &mallory, "visit_nbr", "item_nbr").unwrap();
        let (o1, _, _) =
            resolve(&owner, &mallory, &rel, "visit_nbr", "item_nbr", 1e-2, 0.01).unwrap();
        let (o2, _, _) =
            resolve(&mallory, &owner, &rel, "visit_nbr", "item_nbr", 1e-2, 0.01).unwrap();
        assert_eq!(o1, o2);
    }
}
