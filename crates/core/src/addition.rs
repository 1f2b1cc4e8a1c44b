//! Watermark reinforcement through data addition (Section 4.6).
//!
//! Alteration destroys data value; *addition* does not. The paper
//! proposes artificially injecting tuples that (i) satisfy the secret
//! fitness criterion and (ii) carry correctly encoded watermark bits —
//! "because e effectively reduces the fitness-criteria testing space
//! …, we can afford to massively produce random tuple values and test
//! for fitness. On average one in every e tuples should conform."
//!
//! [`inject_fit_tuples`] performs that rejection sampling: synthesize
//! candidate primary keys, keep the fit ones, encode the right
//! attribute value for each, and fill the remaining attributes from a
//! randomly chosen existing tuple so the additions blend into the data
//! distribution ("conforming to the overall data distribution, in
//! order to preserve stealthiness").

use catmark_relation::ops::SplitMix64;
use catmark_relation::{Relation, Value};

use crate::ecc::{ErrorCorrectingCode, MajorityVotingEcc};
use crate::error::CoreError;
use crate::fitness::FitnessSelector;
use crate::spec::{Watermark, WatermarkSpec};

/// Synthesizes candidate primary-key values for injection.
pub trait KeySynthesizer {
    /// Produce the `attempt`-th candidate key value.
    fn candidate(&mut self, attempt: u64) -> Value;
}

/// Synthesizes integer keys uniformly from a half-open range.
#[derive(Debug, Clone)]
pub struct IntKeySynthesizer {
    lo: i64,
    hi: i64,
    rng: SplitMix64,
}

impl IntKeySynthesizer {
    /// Keys drawn uniformly from `[lo, hi)`.
    ///
    /// # Panics
    ///
    /// Panics when the range is empty.
    #[must_use]
    pub fn new(lo: i64, hi: i64, seed: u64) -> Self {
        assert!(lo < hi, "empty key range");
        IntKeySynthesizer { lo, hi, rng: SplitMix64::new(seed) }
    }
}

impl KeySynthesizer for IntKeySynthesizer {
    fn candidate(&mut self, _attempt: u64) -> Value {
        let span = (self.hi - self.lo) as u64;
        Value::Int(self.lo + (self.rng.next_u64() % span) as i64)
    }
}

/// Outcome of an injection pass.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AdditionReport {
    /// Tuples added (each is fit and correctly encoded).
    pub added: usize,
    /// Candidate keys synthesized in total.
    pub attempts: u64,
    /// Candidates rejected because the key already existed.
    pub duplicate_keys: u64,
}

/// Injection parameters for [`inject_fit_tuples`].
#[derive(Debug, Clone, Copy)]
pub struct InjectionParams {
    /// Number of fit tuples to add.
    pub count: usize,
    /// Candidate budget; `None` defaults to `count * e * 20`.
    pub max_attempts: Option<u64>,
    /// Seed for template-row selection (stealth attribute filling).
    pub seed: u64,
}

impl InjectionParams {
    /// Add `count` tuples with the default attempt budget.
    #[must_use]
    pub fn new(count: usize, seed: u64) -> Self {
        InjectionParams { count, max_attempts: None, seed }
    }
}

/// Inject up to `params.count` synthetic fit tuples into `rel`.
///
/// Stops early when `params.max_attempts` candidates have been
/// examined (guard against pathological synthesizers).
///
/// # Errors
///
/// Unknown attributes, wrong watermark length, or injection into an
/// empty relation (no template tuples to copy non-key attributes
/// from).
pub fn inject_fit_tuples(
    spec: &WatermarkSpec,
    rel: &mut Relation,
    key_attr: &str,
    target_attr: &str,
    wm: &Watermark,
    params: InjectionParams,
    synthesizer: &mut dyn KeySynthesizer,
) -> Result<AdditionReport, CoreError> {
    let InjectionParams { count, max_attempts, seed } = params;
    if wm.len() != spec.wm_len {
        return Err(CoreError::InvalidSpec(format!(
            "watermark has {} bits but the spec declares {}",
            wm.len(),
            spec.wm_len
        )));
    }
    if rel.is_empty() {
        return Err(CoreError::EmptyEmbedding);
    }
    let key_idx = rel.schema().index_of(key_attr)?;
    let attr_idx = rel.schema().index_of(target_attr)?;
    let sel = FitnessSelector::new(spec);
    let ecc = MajorityVotingEcc;
    let wm_data = ecc.encode(wm, spec.wm_data_len);
    let n = spec.domain.len() as u64;
    let max_attempts = max_attempts.unwrap_or(count as u64 * spec.e * 20);
    let mut template_rng = SplitMix64::new(seed);
    let mut report = AdditionReport { added: 0, attempts: 0, duplicate_keys: 0 };
    let original_len = rel.len() as u64;

    while report.added < count && report.attempts < max_attempts {
        report.attempts += 1;
        let key = synthesizer.candidate(report.attempts);
        if rel.find_by_key(&key).is_some() {
            report.duplicate_keys += 1;
            continue;
        }
        let Some(facts) = sel.facts(&key) else {
            continue;
        };
        let bit = wm_data[facts.position];
        let t = crate::bits::force_lsb_in_domain(facts.value_base(n), bit, n) as usize;
        // Stealth: copy every non-key, non-target attribute from a
        // random *original* tuple so marginals are preserved.
        let template_row = (template_rng.next_u64() % original_len) as usize;
        let mut values = (0..rel.schema().arity())
            .map(|attr| rel.value(template_row, attr))
            .collect::<Result<Vec<Value>, _>>()?;
        values[key_idx] = key;
        values[attr_idx] = spec.domain.value_at(t).clone();
        rel.push(values)?;
        report.added += 1;
    }
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;
    use catmark_datagen::{ItemScanConfig, SalesGenerator};
    use catmark_relation::ops;

    fn fixture(tuples: usize, e: u64) -> (Relation, WatermarkSpec, Watermark) {
        let gen = SalesGenerator::new(ItemScanConfig { tuples, ..Default::default() });
        let mut rel = gen.generate();
        let spec = WatermarkSpec::builder(gen.item_domain())
            .master_key("addition-tests")
            .e(e)
            .wm_len(10)
            .expected_tuples(tuples)
            .build()
            .unwrap();
        let wm = Watermark::from_u64(0b0101110010, 10);
        crate::testkit::embed(&spec, &mut rel, "visit_nbr", "item_nbr", &wm).unwrap();
        (rel, spec, wm)
    }

    fn synth() -> IntKeySynthesizer {
        // Disjoint from the generator's visit range.
        IntKeySynthesizer::new(100_000_000, 200_000_000, 77)
    }

    #[test]
    fn injects_requested_count_of_fit_tuples() {
        let (mut rel, spec, wm) = fixture(6_000, 30);
        let before = rel.len();
        let report = inject_fit_tuples(
            &spec,
            &mut rel,
            "visit_nbr",
            "item_nbr",
            &wm,
            InjectionParams::new(50, 1),
            &mut synth(),
        )
        .unwrap();
        assert_eq!(report.added, 50);
        assert_eq!(rel.len(), before + 50);
        // Rejection sampling: roughly e candidates per acceptance.
        let per_accept = report.attempts as f64 / 50.0;
        assert!((per_accept - 30.0).abs() < 15.0, "attempts/accept = {per_accept}");
    }

    #[test]
    fn injected_tuples_are_fit_and_vote_correctly() {
        let (mut rel, spec, wm) = fixture(6_000, 30);
        let before = rel.len();
        inject_fit_tuples(
            &spec,
            &mut rel,
            "visit_nbr",
            "item_nbr",
            &wm,
            InjectionParams::new(30, 2),
            &mut synth(),
        )
        .unwrap();
        let sel = FitnessSelector::new(&spec);
        let ecc = MajorityVotingEcc;
        let wm_data = ecc.encode(&wm, spec.wm_data_len);
        for row in before..rel.len() {
            let key = rel.value(row, 0).unwrap();
            assert!(sel.is_fit(&key));
            let t = spec.domain.index_of(&rel.value(row, 1).unwrap()).unwrap();
            assert_eq!(t & 1 == 1, wm_data[sel.position(&key)]);
        }
    }

    #[test]
    fn addition_strengthens_decoding_under_loss() {
        // Compare decode quality under heavy loss with and without
        // reinforcement.
        let (rel, spec, wm) = fixture(6_000, 60);
        let mut reinforced = rel.clone();
        inject_fit_tuples(
            &spec,
            &mut reinforced,
            "visit_nbr",
            "item_nbr",
            &wm,
            InjectionParams::new(200, 3),
            &mut synth(),
        )
        .unwrap();
        let mut plain_errors = 0usize;
        let mut reinforced_errors = 0usize;
        for seed in 0..8 {
            let lost_plain = ops::sample_bernoulli(&rel, 0.25, seed);
            let lost_reinf = ops::sample_bernoulli(&reinforced, 0.25, seed);
            plain_errors += wm.hamming_distance(
                &crate::testkit::decode(&spec, &lost_plain, "visit_nbr", "item_nbr")
                    .unwrap()
                    .watermark,
            );
            reinforced_errors += wm.hamming_distance(
                &crate::testkit::decode(&spec, &lost_reinf, "visit_nbr", "item_nbr")
                    .unwrap()
                    .watermark,
            );
        }
        assert!(
            reinforced_errors <= plain_errors,
            "reinforced {reinforced_errors} vs plain {plain_errors}"
        );
        assert!(reinforced_errors < 8, "reinforced decode should be near-perfect");
    }

    #[test]
    fn respects_max_attempts() {
        let (mut rel, spec, wm) = fixture(1_000, 30);
        let report = inject_fit_tuples(
            &spec,
            &mut rel,
            "visit_nbr",
            "item_nbr",
            &wm,
            InjectionParams { count: 1_000, max_attempts: Some(100), seed: 4 },
            &mut synth(),
        )
        .unwrap();
        assert!(report.attempts <= 100);
        assert!(report.added < 1_000);
    }

    #[test]
    fn skips_duplicate_keys() {
        let (mut rel, spec, wm) = fixture(1_000, 30);
        // A synthesizer that proposes keys already present.
        struct Existing(Vec<Value>, usize);
        impl KeySynthesizer for Existing {
            fn candidate(&mut self, _attempt: u64) -> Value {
                let v = self.0[self.1 % self.0.len()].clone();
                self.1 += 1;
                v
            }
        }
        let keys: Vec<Value> = rel.column_iter(0).collect();
        let mut s = Existing(keys, 0);
        let report = inject_fit_tuples(
            &spec,
            &mut rel,
            "visit_nbr",
            "item_nbr",
            &wm,
            InjectionParams { count: 5, max_attempts: Some(50), seed: 5 },
            &mut s,
        )
        .unwrap();
        assert_eq!(report.added, 0);
        assert_eq!(report.duplicate_keys, 50);
    }

    #[test]
    fn rejects_empty_relation() {
        let gen = SalesGenerator::new(ItemScanConfig { tuples: 10, ..Default::default() });
        let spec = WatermarkSpec::builder(gen.item_domain())
            .master_key("x")
            .expected_tuples(1000)
            .build()
            .unwrap();
        let mut empty = Relation::new(gen.schema());
        let err = inject_fit_tuples(
            &spec,
            &mut empty,
            "visit_nbr",
            "item_nbr",
            &Watermark::from_u64(1, 10),
            InjectionParams::new(5, 6),
            &mut synth(),
        );
        assert!(matches!(err, Err(CoreError::EmptyEmbedding)));
    }
}
