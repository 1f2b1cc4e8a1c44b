//! Bijective attribute re-mapping recovery (Section 4.5).
//!
//! Attack A6: Mallory maps the categorical values `{a_1 … a_nA}`
//! bijectively into a fresh domain `{a'_1 … a'_nA}` (and could even
//! sell a "reverse mapper" alongside). Watermark decoding then fails
//! at the `T_j(A) = a_t` lookup. The countermeasure: over large data
//! sets the value occurrence frequencies are a distinguishing
//! fingerprint — "we propose to sample this frequency in the suspected
//! (remapped) dataset and compare the resulting estimates with the
//! known occurrence frequencies. Next, we sort both sets and associate
//! items by comparing their values."
//!
//! [`recover_mapping`] performs exactly that rank matching and
//! [`apply_inverse`] rewrites the suspect relation back into the
//! original domain so the ordinary blind decoder can run.

use std::collections::HashMap;

use catmark_relation::{CategoricalDomain, FrequencyHistogram, Relation, Value};

use crate::error::CoreError;

/// A recovered inverse mapping from suspect values to original domain
/// values.
#[derive(Debug, Clone, PartialEq)]
pub struct RemapRecovery {
    mapping: HashMap<Value, Value>,
    /// Rank-matching diagnostics: mean absolute frequency gap between
    /// matched pairs. Small values mean confident recovery.
    pub mean_frequency_gap: f64,
    /// Suspect values that could not be matched (cardinality
    /// mismatch).
    pub unmatched: usize,
}

impl RemapRecovery {
    /// The recovered original value for `suspect`, if matched.
    #[must_use]
    pub fn original_of(&self, suspect: &Value) -> Option<&Value> {
        self.mapping.get(suspect)
    }

    /// Number of matched value pairs.
    #[must_use]
    pub fn len(&self) -> usize {
        self.mapping.len()
    }

    /// Whether nothing was matched.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.mapping.is_empty()
    }

    /// Fraction of the reference domain that was matched to some
    /// suspect value.
    #[must_use]
    pub fn coverage(&self, reference: &CategoricalDomain) -> f64 {
        self.mapping.len() as f64 / reference.len() as f64
    }
}

/// Recover the inverse of a (suspected) bijective remapping of
/// attribute `attr` by frequency-rank matching.
///
/// `reference` is the rights holder's embed-time histogram (part of
/// the retained key material); the suspect histogram is estimated from
/// the data at hand. Values are paired rank-by-rank after sorting both
/// sides by descending frequency.
///
/// The paper's caveat applies: uniformly distributed values cannot be
/// distinguished this way ("there is nothing one can do to watermark
/// that result"); skew is what makes the fingerprint work. Check
/// [`RemapRecovery::mean_frequency_gap`] before trusting a recovery.
///
/// # Errors
///
/// Unknown attribute, or a suspect column with fewer than two distinct
/// values.
pub fn recover_mapping(
    reference: &FrequencyHistogram,
    suspect: &Relation,
    attr: &str,
) -> Result<RemapRecovery, CoreError> {
    let attr_idx = suspect.schema().index_of(attr)?;
    let suspect_domain = CategoricalDomain::from_column(suspect, attr_idx)?;
    let suspect_hist = FrequencyHistogram::from_relation(suspect, attr_idx, &suspect_domain)?;

    let ref_rank = reference.rank_by_frequency();
    let sus_rank = suspect_hist.rank_by_frequency();
    let matched = ref_rank.len().min(sus_rank.len());

    let mut mapping = HashMap::with_capacity(matched);
    let mut gap_total = 0.0;
    for r in 0..matched {
        let original = reference.domain().value_at(ref_rank[r]).clone();
        let suspect_value = suspect_domain.value_at(sus_rank[r]).clone();
        gap_total += (reference.frequency(ref_rank[r]) - suspect_hist.frequency(sus_rank[r])).abs();
        mapping.insert(suspect_value, original);
    }
    Ok(RemapRecovery {
        mapping,
        mean_frequency_gap: if matched == 0 { 0.0 } else { gap_total / matched as f64 },
        unmatched: sus_rank.len().saturating_sub(matched),
    })
}

/// As [`recover_mapping`], but only pair values whose occurrence count
/// is *unique* on both sides — the unambiguous part of the frequency
/// fingerprint.
///
/// Tie groups (values sharing a count) cannot be disambiguated by
/// frequency alone; plain rank matching assigns them arbitrarily,
/// which makes mis-restored carriers cast *wrong* votes. Leaving them
/// unmatched turns those votes into abstentions — strictly better for
/// the majority decoder.
///
/// This matters in practice: the embedder selects replacement values
/// uniformly over the domain (the paper's `msb(H(K, k1), b(nA))`), so
/// on long-tailed, high-cardinality domains most *carriers* sit in the
/// low-count tail where counts collide. See EXPERIMENTS.md ("A6 on
/// high-cardinality domains") for the measured effect.
///
/// # Errors
///
/// Unknown attribute, or a suspect column with fewer than two distinct
/// values.
pub fn recover_mapping_confident(
    reference: &FrequencyHistogram,
    suspect: &Relation,
    attr: &str,
) -> Result<RemapRecovery, CoreError> {
    let attr_idx = suspect.schema().index_of(attr)?;
    let suspect_domain = CategoricalDomain::from_column(suspect, attr_idx)?;
    let suspect_hist = FrequencyHistogram::from_relation(suspect, attr_idx, &suspect_domain)?;

    let unique_counts = |counts: &[u64]| -> HashMap<u64, usize> {
        let mut freq_of_count: HashMap<u64, Vec<usize>> = HashMap::new();
        for (i, &c) in counts.iter().enumerate() {
            freq_of_count.entry(c).or_default().push(i);
        }
        freq_of_count
            .into_iter()
            .filter(|(_, members)| members.len() == 1)
            .map(|(c, members)| (c, members[0]))
            .collect()
    };
    let ref_unique = unique_counts(reference.counts());
    let sus_unique = unique_counts(suspect_hist.counts());

    let mut mapping = HashMap::new();
    let mut gap_total = 0.0;
    for (&count, &ref_idx) in &ref_unique {
        if count == 0 {
            continue;
        }
        if let Some(&sus_idx) = sus_unique.get(&count) {
            mapping.insert(
                suspect_domain.value_at(sus_idx).clone(),
                reference.domain().value_at(ref_idx).clone(),
            );
            gap_total += (reference.frequency(ref_idx) - suspect_hist.frequency(sus_idx)).abs();
        }
    }
    let matched = mapping.len();
    Ok(RemapRecovery {
        unmatched: suspect_domain.len() - matched,
        mean_frequency_gap: if matched == 0 { 0.0 } else { gap_total / matched as f64 },
        mapping,
    })
}

/// Rewrite attribute `attr` of `suspect` through the recovered inverse
/// mapping, producing a relation in the original value domain.
/// Unmatched values are left as-is (they will abstain at decode time).
///
/// A remap that changed the attribute's *type* (e.g. city names
/// relabeled as integers) is undone at the schema level too: the
/// output schema restores the type of the recovered original values.
/// Unmatched foreign values of the wrong type are replaced by typed
/// placeholders — they carry no watermark information in either form
/// (foreign to the original domain, they abstain at decode), and the
/// placeholder keeps the row intact and the relation type-safe.
///
/// # Errors
///
/// Unknown attribute.
pub fn apply_inverse(
    suspect: &Relation,
    attr: &str,
    recovery: &RemapRecovery,
) -> Result<Relation, CoreError> {
    let attr_idx = suspect.schema().index_of(attr)?;
    // Decide the restored attribute type from the mapping's targets
    // (all original-domain values share one type).
    let restored_ty = recovery
        .mapping
        .values()
        .next()
        .map(|v| match v {
            Value::Int(_) => catmark_relation::AttrType::Integer,
            Value::Text(_) => catmark_relation::AttrType::Text,
        })
        .unwrap_or(suspect.schema().attr(attr_idx).ty);
    let schema = if restored_ty == suspect.schema().attr(attr_idx).ty {
        suspect.schema().clone()
    } else {
        let mut b = catmark_relation::Schema::builder();
        for (i, a) in suspect.schema().attrs().iter().enumerate() {
            let ty = if i == attr_idx { restored_ty } else { a.ty };
            b = if i == suspect.schema().key_index() {
                b.key_attr(&a.name, ty)
            } else if a.categorical {
                b.categorical_attr(&a.name, ty)
            } else {
                b.attr(&a.name, ty)
            };
        }
        b.build()?
    };
    let coerce = |v: Value| -> Value {
        // Unmatched leftovers must still satisfy the restored type;
        // they carry no watermark information either way (they would
        // be foreign to the original domain and abstain at decode).
        match (restored_ty, &v) {
            (catmark_relation::AttrType::Integer, Value::Text(s)) => {
                Value::Int(i64::from_le_bytes(hash8(s.as_bytes())))
            }
            (catmark_relation::AttrType::Text, Value::Int(i)) => {
                Value::Text(format!("⟨unmapped {i}⟩"))
            }
            _ => v,
        }
    };
    let views: Vec<_> = (0..suspect.schema().arity()).map(|i| suspect.column(i)).collect();
    let mut out = Relation::with_capacity(schema, suspect.len());
    for row in 0..suspect.len() {
        let values = views.iter().enumerate().map(|(i, column)| {
            let current = column.value(row);
            if i != attr_idx {
                return current;
            }
            match recovery.original_of(&current) {
                Some(original) => original.clone(),
                None => coerce(current),
            }
        });
        out.push_unchecked_key(values.collect())?;
    }
    Ok(out)
}

/// Stable 8-byte digest of arbitrary bytes (for foreign-value
/// placeholders only; not security-relevant).
fn hash8(bytes: &[u8]) -> [u8; 8] {
    let mut acc: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        acc ^= u64::from(b);
        acc = acc.wrapping_mul(0x1000_0000_01b3);
    }
    acc.to_le_bytes()
}

#[cfg(test)]
mod tests {
    use super::*;

    use crate::spec::{Watermark, WatermarkSpec};
    use catmark_datagen::{ItemScanConfig, SalesGenerator};

    /// Remap every item number through a bijection (the A6 attack).
    fn remap_items(rel: &Relation, f: impl Fn(i64) -> i64) -> Relation {
        let mut out = rel.clone();
        let Ok(catmark_relation::ColumnMut::Int(items)) = out.column_mut(1) else {
            panic!("integer item column");
        };
        items.iter_mut().for_each(|x| *x = f(*x));
        out
    }

    fn fixture() -> (Relation, CategoricalDomain) {
        // Strong Zipf skew: the frequency fingerprint is sharp.
        let gen = SalesGenerator::new(ItemScanConfig {
            tuples: 30_000,
            items: 50,
            zipf_exponent: 1.2,
            ..Default::default()
        });
        (gen.generate(), gen.item_domain())
    }

    #[test]
    fn recovers_a_bijective_remap_on_skewed_data() {
        let (rel, domain) = fixture();
        let reference = FrequencyHistogram::from_relation(&rel, 1, &domain).unwrap();
        // Affine remap into a disjoint range.
        let attacked = remap_items(&rel, |v| v * 3 + 1_000_000);
        let recovery = recover_mapping(&reference, &attacked, "item_nbr").unwrap();
        assert_eq!(recovery.unmatched, 0);
        // The vast majority of values must map back correctly; ties
        // among equal-frequency tail values may swap.
        let correct = attacked
            .column_iter(1)
            .zip(rel.column_iter(1))
            .filter(|(s, o)| recovery.original_of(s) == Some(o))
            .count();
        let frac = correct as f64 / rel.len() as f64;
        assert!(frac > 0.95, "only {frac} of tuples map back");
    }

    #[test]
    fn end_to_end_watermark_survives_remapping() {
        let (mut rel, domain) = fixture();
        let spec = WatermarkSpec::builder(domain.clone())
            .master_key("remap-tests")
            .e(10)
            .wm_len(10)
            .expected_tuples(rel.len())
            .build()
            .unwrap();
        let wm = Watermark::from_u64(0b1001101011, 10);
        crate::testkit::embed(&spec, &mut rel, "visit_nbr", "item_nbr", &wm).unwrap();
        // Rights holder retains the *post-embedding* histogram.
        let reference = FrequencyHistogram::from_relation(&rel, 1, &domain).unwrap();
        // Mallory remaps.
        let attacked = remap_items(&rel, |v| -v);
        // Direct decode yields only abstentions.
        let direct = crate::testkit::decode(&spec, &attacked, "visit_nbr", "item_nbr").unwrap();
        assert_eq!(direct.votes_cast, 0);
        // Recover the mapping, invert, decode.
        let recovery = recover_mapping(&reference, &attacked, "item_nbr").unwrap();
        let restored = apply_inverse(&attacked, "item_nbr", &recovery).unwrap();
        let report = crate::testkit::decode(&spec, &restored, "visit_nbr", "item_nbr").unwrap();
        let detection = crate::detect::detect(&report.watermark, &wm);
        assert!(detection.is_significant(1e-2), "detection after recovery: {detection:?}");
    }

    #[test]
    fn confident_recovery_only_maps_unique_counts() {
        let (rel, domain) = fixture();
        let reference = FrequencyHistogram::from_relation(&rel, 1, &domain).unwrap();
        let attacked = remap_items(&rel, |v| v + 10_000_000);
        let confident = recover_mapping_confident(&reference, &attacked, "item_nbr").unwrap();
        let full = recover_mapping(&reference, &attacked, "item_nbr").unwrap();
        // Confident matches are a subset of the rank matching…
        assert!(confident.len() <= full.len());
        assert!(!confident.is_empty());
        // …and every confident match is *correct* (identity up to the
        // affine shift).
        for (suspect_v, original_v) in &confident.mapping {
            let s = suspect_v.as_int().unwrap();
            let o = original_v.as_int().unwrap();
            assert_eq!(s - 10_000_000, o, "confident match must be exact");
        }
    }

    #[test]
    fn confident_recovery_abstains_rather_than_misvotes() {
        use crate::decode::ErasurePolicy;
        // High-cardinality domain with a heavy tie tail: plain rank
        // matching scrambles tie groups and produces conflicting
        // votes; confident recovery must produce none.
        let gen = SalesGenerator::new(ItemScanConfig {
            tuples: 4_000,
            items: 1_000,
            ..Default::default()
        });
        let mut rel = gen.generate();
        let spec = crate::spec::WatermarkSpec::builder(gen.item_domain())
            .master_key("confident-remap")
            .e(15)
            .wm_len(10)
            .expected_tuples(rel.len())
            .erasure(ErasurePolicy::Abstain)
            .build()
            .unwrap();
        let wm = Watermark::from_u64(0b1100101101, 10);
        crate::testkit::embed(&spec, &mut rel, "visit_nbr", "item_nbr", &wm).unwrap();
        let reference = FrequencyHistogram::from_relation(&rel, 1, &gen.item_domain()).unwrap();
        let attacked = remap_items(&rel, |v| -v);
        let confident = recover_mapping_confident(&reference, &attacked, "item_nbr").unwrap();
        let restored = apply_inverse(&attacked, "item_nbr", &confident).unwrap();
        let report = crate::testkit::decode(&spec, &restored, "visit_nbr", "item_nbr").unwrap();
        assert_eq!(
            report.position_conflicts, 0,
            "confident recovery must never cast contradictory votes"
        );
    }

    #[test]
    fn identity_remap_recovers_identity() {
        let (rel, domain) = fixture();
        let reference = FrequencyHistogram::from_relation(&rel, 1, &domain).unwrap();
        let recovery = recover_mapping(&reference, &rel, "item_nbr").unwrap();
        for t in 0..domain.len() {
            let v = domain.value_at(t);
            assert_eq!(recovery.original_of(v), Some(v));
        }
        assert!(recovery.mean_frequency_gap < 1e-12);
    }

    #[test]
    fn cardinality_mismatch_reports_unmatched() {
        let (rel, domain) = fixture();
        let reference = FrequencyHistogram::from_relation(&rel, 1, &domain).unwrap();
        // Suspect with extra foreign values: map half the items to a
        // *shared* target, halving distinct count, then add fresh ones.
        let attacked = remap_items(&rel, |v| if v % 2 == 0 { v } else { v + 1_000 });
        let recovery = recover_mapping(&reference, &attacked, "item_nbr").unwrap();
        // Matched count = min(|ref|, |suspect|); coverage reported.
        assert!(recovery.coverage(&domain) <= 1.0);
        assert!(!recovery.is_empty());
    }

    #[test]
    fn unmatched_values_pass_through_apply_inverse() {
        let (rel, domain) = fixture();
        let reference = FrequencyHistogram::from_relation(&rel, 1, &domain).unwrap();
        let attacked = remap_items(&rel, |v| v + 500_000);
        let mut recovery = recover_mapping(&reference, &attacked, "item_nbr").unwrap();
        // Forget one mapping entry.
        let forgotten = Value::Int(10_000 + 500_000);
        recovery.mapping.remove(&forgotten);
        let restored = apply_inverse(&attacked, "item_nbr", &recovery).unwrap();
        // The forgotten value survives unmapped.
        assert!(restored.column_iter(1).any(|v| v == forgotten));
    }
}
