//! The embedding-map alternative (Figures 1(b) and 2(b)).
//!
//! Instead of hashing the tuple key with `k2` to choose which
//! `wm_data` bit a fit tuple carries, this variant assigns positions
//! *sequentially* at embed time and remembers the assignment in an
//! `embedding_map` from key value to bit index. The paper notes:
//! "this mapping can be used at detection time to accurately detect
//! all wm_data bits. In this case, also, we do not require an extra
//! watermark bit selection key (k2). Although we use this alternative
//! in our implementation, for simplicity … we are not going to
//! discuss it here."
//!
//! Trade-off versus the `k2` variant (exercised by the
//! `map_vs_k2_variant` ablation bench): every `wm_data` position gets
//! exactly one carrier (no Poisson gaps, no collisions), so clean and
//! low-loss decoding is strictly better — at the cost of O(N/e)
//! detector-side state that is no longer derivable from the keys
//! alone.

use std::collections::HashMap;

use catmark_relation::{Relation, Value};

use crate::ecc::{ErrorCorrectingCode, MajorityVotingEcc};
use crate::error::CoreError;
use crate::spec::{Watermark, WatermarkSpec};

/// The key-value → `wm_data`-index assignment produced at embed time.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct EmbeddingMap {
    entries: HashMap<Value, usize>,
    /// Length of the `wm_data` string the map indexes into.
    wm_data_len: usize,
}

impl EmbeddingMap {
    /// Position carried by the tuple with primary key `key`, if it was
    /// embedded.
    #[must_use]
    pub fn position(&self, key: &Value) -> Option<usize> {
        self.entries.get(key).copied()
    }

    /// Number of embedded tuples.
    #[must_use]
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the map is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Length of the `wm_data` string this map indexes.
    #[must_use]
    pub fn wm_data_len(&self) -> usize {
        self.wm_data_len
    }
}

/// Embed `wm` using sequential position assignment (Figure 1(b)).
///
/// `wm_data` is sized to the *actual* fit-tuple count (each position
/// has exactly one carrier); the spec's `wm_data_len` is ignored. The
/// spec's `k2` is likewise unused.
///
/// # Errors
///
/// Unknown attributes, wrong watermark length, or no fit tuples.
pub fn embed_with_map(
    spec: &WatermarkSpec,
    rel: &mut Relation,
    key_attr: &str,
    target_attr: &str,
    wm: &Watermark,
) -> Result<EmbeddingMap, CoreError> {
    if wm.len() != spec.wm_len {
        return Err(CoreError::InvalidSpec(format!(
            "watermark has {} bits but the spec declares {}",
            wm.len(),
            spec.wm_len
        )));
    }
    let key_idx = rel.schema().index_of(key_attr)?;
    let attr_idx = rel.schema().index_of(target_attr)?;
    let n = spec.domain.len() as u64;

    // One planned pass finds the fit rows (so wm_data can be sized
    // exactly) *and* their value bases — the historical code rehashed
    // every fit key a second time for the base.
    let plan = crate::plan::MarkPlan::build(spec, rel, key_idx);
    if plan.is_empty() {
        return Err(CoreError::EmptyEmbedding);
    }
    let wm_data_len = plan.fit().len().max(wm.len());
    let ecc = MajorityVotingEcc;
    let wm_data = ecc.encode(wm, wm_data_len);

    let mut map = EmbeddingMap { entries: HashMap::with_capacity(plan.fit().len()), wm_data_len };
    for (idx, planned) in plan.fit().iter().enumerate() {
        let row = planned.row as usize;
        let key = rel.value(row, key_idx)?;
        let bit = wm_data[idx];
        let t = crate::bits::force_lsb_in_domain(u64::from(planned.value_base), bit, n) as usize;
        let new_value = spec.domain.value_at(t).clone();
        rel.update_value(row, attr_idx, new_value)?;
        map.entries.insert(key, idx);
    }
    Ok(map)
}

/// Decode using a stored embedding map (Figure 2(b)).
///
/// # Errors
///
/// Unknown attributes or an empty map.
pub fn decode_with_map(
    spec: &WatermarkSpec,
    rel: &Relation,
    key_attr: &str,
    target_attr: &str,
    map: &EmbeddingMap,
) -> Result<Watermark, CoreError> {
    if map.is_empty() {
        return Err(CoreError::EmptyEmbedding);
    }
    let key_idx = rel.schema().index_of(key_attr)?;
    let attr_idx = rel.schema().index_of(target_attr)?;
    let (keys, targets) = (rel.column(key_idx), rel.column(attr_idx));
    let mut wm_data: Vec<Option<bool>> = vec![None; map.wm_data_len()];
    for planned in crate::plan::MarkPlan::build(spec, rel, key_idx).fit() {
        let row = planned.row as usize;
        let Some(idx) = map.position(&keys.value(row)) else {
            // A fit tuple unknown to the map: added after embedding
            // (or attacker-injected). It carries no position.
            continue;
        };
        if let Ok(t) = spec.domain.index_of(&targets.value(row)) {
            wm_data[idx] = Some(t & 1 == 1);
        }
    }
    let prf = catmark_crypto::KeyedPrf::new(spec.algo, spec.k1.derive(spec.algo, "map-coins"));
    let mut tie_break = |j: usize| prf.bit("wm-tie", j as u64);
    Ok(MajorityVotingEcc.decode(&wm_data, spec.wm_len, &mut tie_break))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fitness::FitnessSelector;
    use catmark_datagen::{ItemScanConfig, SalesGenerator};
    use catmark_relation::ops;

    fn setup(tuples: usize, e: u64) -> (Relation, WatermarkSpec, Watermark) {
        let gen = SalesGenerator::new(ItemScanConfig { tuples, ..Default::default() });
        let rel = gen.generate();
        let spec = WatermarkSpec::builder(gen.item_domain())
            .master_key("map-variant-tests")
            .e(e)
            .wm_len(10)
            .expected_tuples(tuples)
            .build()
            .unwrap();
        let wm = Watermark::from_u64(0b0110110001, 10);
        (rel, spec, wm)
    }

    #[test]
    fn round_trip_is_exact() {
        let (mut rel, spec, wm) = setup(6_000, 30);
        let map = embed_with_map(&spec, &mut rel, "visit_nbr", "item_nbr", &wm).unwrap();
        assert!(map.len() > 100);
        assert_eq!(map.wm_data_len(), map.len());
        let decoded = decode_with_map(&spec, &rel, "visit_nbr", "item_nbr", &map).unwrap();
        assert_eq!(decoded, wm);
    }

    #[test]
    fn map_positions_are_sequential_and_distinct() {
        let (mut rel, spec, wm) = setup(3_000, 30);
        let map = embed_with_map(&spec, &mut rel, "visit_nbr", "item_nbr", &wm).unwrap();
        let mut positions: Vec<usize> = map.entries.values().copied().collect();
        positions.sort_unstable();
        let expected: Vec<usize> = (0..map.len()).collect();
        assert_eq!(positions, expected);
    }

    #[test]
    fn survives_shuffle_and_moderate_loss() {
        let (mut rel, spec, wm) = setup(12_000, 30);
        let map = embed_with_map(&spec, &mut rel, "visit_nbr", "item_nbr", &wm).unwrap();
        let attacked = ops::sample_bernoulli(&ops::shuffle(&rel, 5), 0.6, 6);
        let decoded = decode_with_map(&spec, &attacked, "visit_nbr", "item_nbr", &map).unwrap();
        assert_eq!(decoded, wm);
    }

    #[test]
    fn clean_decode_has_full_coverage_unlike_k2_variant() {
        // The selling point: exactly one carrier per position.
        let (mut rel, spec, wm) = setup(6_000, 60);
        let map = embed_with_map(&spec, &mut rel, "visit_nbr", "item_nbr", &wm).unwrap();
        let sel = FitnessSelector::new(&spec);
        let mut covered = vec![false; map.wm_data_len()];
        for key in rel.column_iter(0) {
            if sel.is_fit(&key) {
                if let Some(i) = map.position(&key) {
                    covered[i] = true;
                }
            }
        }
        assert!(covered.iter().all(|&c| c), "every position has its carrier");
    }

    #[test]
    fn rejects_empty_fit_set() {
        let (rel, spec, wm) = setup(100, 30);
        // An absurd modulus far above the hash range of this tiny set
        // leaves no fit tuples.
        let mut impossible = spec.clone();
        impossible.e = u64::MAX;
        let mut data = rel;
        let err = embed_with_map(&impossible, &mut data, "visit_nbr", "item_nbr", &wm);
        assert!(matches!(err, Err(CoreError::EmptyEmbedding)));
    }

    #[test]
    fn decode_rejects_empty_map() {
        let (rel, spec, _) = setup(100, 30);
        let err = decode_with_map(&spec, &rel, "visit_nbr", "item_nbr", &EmbeddingMap::default());
        assert!(matches!(err, Err(CoreError::EmptyEmbedding)));
    }

    #[test]
    fn wrong_length_watermark_rejected() {
        let (mut rel, spec, _) = setup(100, 30);
        let err =
            embed_with_map(&spec, &mut rel, "visit_nbr", "item_nbr", &Watermark::from_u64(0, 3));
        assert!(matches!(err, Err(CoreError::InvalidSpec(_))));
    }
}
