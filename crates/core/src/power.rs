//! Watermarking-quality metrics in the spirit of the paper's own
//! evaluation framework citation — Sion, Atallah & Prabhakar,
//! *"Power: metrics for evaluating watermarking algorithms"*
//! (IEEE ITCC 2002, reference \[11\]).
//!
//! The POWER framework scores a watermarking run on three axes:
//!
//! * **distortion** — how much the marking changed the data,
//! * **resilience** — how much of the mark survives a given attack,
//! * **convince-ability** — how improbable the surviving evidence is
//!   by chance.
//!
//! [`score_run`] computes all three for a concrete
//! (embed → attack → decode) execution, giving benches and
//! applications a single comparable summary.

use catmark_relation::{CategoricalDomain, FrequencyHistogram, Relation};

use crate::decode::Decoder;
use crate::detect::detect;
use crate::error::CoreError;
use crate::spec::{Watermark, WatermarkSpec};

/// The POWER-style score of one watermarking run.
#[derive(Debug, Clone, PartialEq)]
pub struct PowerScore {
    /// Fraction of tuples whose marked attribute differs from the
    /// original (data distortion, lower is better).
    pub distortion_rate: f64,
    /// L1 drift of the attribute's frequency histogram introduced by
    /// marking (semantic distortion, lower is better).
    pub frequency_drift: f64,
    /// Fraction of watermark bits recovered after the attack
    /// (resilience, higher is better).
    pub resilience: f64,
    /// Probability the recovered evidence arises by chance
    /// (convince-ability, lower is better).
    pub false_positive_probability: f64,
    /// Fraction of the suspect's fit tuples that still vote
    /// (carrier survival under the attack).
    pub carrier_survival: f64,
}

impl PowerScore {
    /// A single scalar for coarse ranking: resilience minus distortion
    /// penalties, zeroed when the evidence is not significant at 1%.
    ///
    /// This mirrors POWER's intent (one comparable number) without
    /// claiming its exact weighting, which the ITCC paper leaves
    /// application-specific.
    #[must_use]
    pub fn composite(&self) -> f64 {
        if self.false_positive_probability > 1e-2 {
            return 0.0;
        }
        (self.resilience - self.distortion_rate - self.frequency_drift).max(0.0)
    }
}

/// Score a complete run: `original` (pre-marking), `marked`
/// (post-marking, pre-attack), `suspect` (post-attack), the spec and
/// the embedded mark.
///
/// # Errors
///
/// Attribute-resolution failures or histogram errors on the original
/// / marked relations (the suspect may contain foreign values — those
/// only reduce `carrier_survival`).
pub fn score_run(
    original: &Relation,
    marked: &Relation,
    suspect: &Relation,
    spec: &WatermarkSpec,
    wm: &Watermark,
    key_attr: &str,
    target_attr: &str,
) -> Result<PowerScore, CoreError> {
    let attr_idx = original.schema().index_of(target_attr)?;
    let changed = original
        .column_iter(attr_idx)
        .zip(marked.column_iter(attr_idx))
        .filter(|(a, b)| a != b)
        .count();
    let distortion_rate = changed as f64 / original.len().max(1) as f64;

    let frequency_drift = histogram_drift(original, marked, attr_idx, &spec.domain)?;

    let key_idx = suspect.schema().index_of(key_attr)?;
    let suspect_attr_idx = suspect.schema().index_of(target_attr)?;
    let plan = crate::plan::MarkPlan::build(spec, suspect, key_idx);
    let decode = Decoder::engine(spec).decode_with_plan_trusted(
        suspect,
        suspect_attr_idx,
        &crate::ecc::MajorityVotingEcc,
        &plan,
    )?;
    let detection = detect(&decode.watermark, wm);
    let carrier_survival = if decode.fit_tuples == 0 {
        0.0
    } else {
        decode.votes_cast as f64 / decode.fit_tuples as f64
    };
    Ok(PowerScore {
        distortion_rate,
        frequency_drift,
        resilience: detection.match_fraction,
        false_positive_probability: detection.false_positive_probability,
        carrier_survival,
    })
}

fn histogram_drift(
    original: &Relation,
    marked: &Relation,
    attr_idx: usize,
    domain: &CategoricalDomain,
) -> Result<f64, CoreError> {
    let before = FrequencyHistogram::from_relation(original, attr_idx, domain)?;
    let after = FrequencyHistogram::from_relation(marked, attr_idx, domain)?;
    Ok(before.l1_distance(&after))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::decode::ErasurePolicy;

    use catmark_datagen::{ItemScanConfig, SalesGenerator};
    use catmark_relation::ops;

    fn run(e: u64, keep: f64) -> PowerScore {
        let gen = SalesGenerator::new(ItemScanConfig { tuples: 6_000, ..Default::default() });
        let original = gen.generate();
        let spec = WatermarkSpec::builder(gen.item_domain())
            .master_key("power-tests")
            .e(e)
            .wm_len(10)
            .expected_tuples(original.len())
            .erasure(ErasurePolicy::Abstain)
            .build()
            .unwrap();
        let wm = Watermark::from_u64(0b1010110100, 10);
        let mut marked = original.clone();
        crate::testkit::embed(&spec, &mut marked, "visit_nbr", "item_nbr", &wm).unwrap();
        let suspect = ops::sample_bernoulli(&marked, keep, 1234);
        score_run(&original, &marked, &suspect, &spec, &wm, "visit_nbr", "item_nbr").unwrap()
    }

    #[test]
    fn unattacked_run_scores_cleanly() {
        let score = run(30, 1.0);
        assert!((score.resilience - 1.0).abs() < 1e-9);
        assert!((score.carrier_survival - 1.0).abs() < 1e-9);
        // e = 30 alters ~1/30 of tuples.
        assert!((score.distortion_rate - 1.0 / 30.0).abs() < 0.01);
        assert!(score.frequency_drift < 0.1);
        assert!(score.false_positive_probability < 1e-2);
        assert!(score.composite() > 0.8);
    }

    #[test]
    fn distortion_scales_with_bandwidth() {
        let cheap = run(60, 1.0);
        let expensive = run(10, 1.0);
        assert!(expensive.distortion_rate > cheap.distortion_rate);
    }

    #[test]
    fn resilience_degrades_with_loss_but_survival_tracks_keep() {
        let intact = run(30, 1.0);
        let lossy = run(30, 0.3);
        assert!(lossy.resilience <= intact.resilience + 1e-9);
        // Survivors still vote: carrier survival is about the values'
        // integrity, not the row count.
        assert!((lossy.carrier_survival - 1.0).abs() < 1e-9);
    }

    #[test]
    fn composite_zeroes_on_insignificant_evidence() {
        let score = PowerScore {
            distortion_rate: 0.01,
            frequency_drift: 0.0,
            resilience: 0.6,
            false_positive_probability: 0.37,
            carrier_survival: 1.0,
        };
        assert_eq!(score.composite(), 0.0);
    }

    #[test]
    fn composite_never_negative() {
        let score = PowerScore {
            distortion_rate: 0.9,
            frequency_drift: 0.9,
            resilience: 0.5,
            false_positive_probability: 1e-5,
            carrier_survival: 1.0,
        };
        assert_eq!(score.composite(), 0.0);
    }
}
