//! The direct-domain augmentation (Section 3.1): multiple watermark
//! bits per fit tuple.
//!
//! The base scheme spends one tuple alteration on one `wm_data` bit —
//! the remaining `b(nA) − 1` bits of the written value index are
//! pseudorandom filler. But the paper observes the direct domain
//! itself offers `log2(nA)` bits of entropy and proposes to "augment
//! [the association channel] with a direct-domain watermark". This
//! module implements that augmentation: the low `w` bits of the
//! chosen index carry `w` *consecutive* `wm_data` positions, trading
//! robustness for capacity:
//!
//! * **capacity** — a fit set of size F carries `w·F` position votes,
//!   so the same `e` supports a `w×` longer `wm_data` (or `w×` more
//!   redundancy);
//! * **robustness** — one altered tuple now damages up to `w`
//!   positions, and the pseudorandom part of the value shrinks by
//!   `w − 1` bits (values cluster more, a mild stealth cost).
//!
//! The `wide_channel` ablation bench quantifies the trade-off. With
//! `w = 1` the codec is exactly the base scheme.

use catmark_relation::Relation;

use crate::decode::ErasurePolicy;
use crate::ecc::{ErrorCorrectingCode, MajorityVotingEcc};
use crate::error::CoreError;
use crate::plan::{MarkPlan, PlannedRow};
use crate::spec::{Watermark, WatermarkSpec};

/// Multi-bit-per-tuple encoder/decoder.
#[derive(Debug, Clone)]
pub struct WideCodec<'a> {
    spec: &'a WatermarkSpec,
    /// Watermark bits carried per fit tuple (`1..=b(nA) − 1`).
    width: u32,
}

impl<'a> WideCodec<'a> {
    /// Codec carrying `width` bits per fit tuple.
    ///
    /// # Errors
    ///
    /// [`CoreError::InvalidSpec`] when `width` is zero or does not
    /// leave at least one pseudorandom index bit (`width >= b(nA)`).
    pub fn new(spec: &'a WatermarkSpec, width: u32) -> Result<Self, CoreError> {
        let index_bits = spec.domain.index_bits();
        if width == 0 {
            return Err(CoreError::InvalidSpec("width must be at least 1".into()));
        }
        if width >= index_bits {
            return Err(CoreError::InvalidSpec(format!(
                "width {width} leaves no pseudorandom bits in a {index_bits}-bit domain index"
            )));
        }
        Ok(WideCodec { spec, width })
    }

    /// Bits carried per fit tuple.
    #[must_use]
    pub fn width(&self) -> u32 {
        self.width
    }

    /// The `wm_data` positions a fit tuple carries: `width`
    /// consecutive positions starting at its planned position
    /// `H(K, k2) mod |wm_data|`.
    fn positions(&self, planned: &PlannedRow) -> Vec<usize> {
        let len = self.spec.wm_data_len;
        (0..self.width as usize).map(|i| (planned.position as usize + i) % len).collect()
    }

    /// Choose the domain index whose low `width` bits equal `payload`,
    /// keeping the high bits pseudorandom and the result in `[0, nA)`.
    fn index_for(&self, base: u64, payload: u64, n: u64) -> u64 {
        let w = self.width;
        let mask = (1u64 << w) - 1;
        let mut t = (base & !mask) | (payload & mask);
        // Clamp into the domain while preserving the low w bits.
        while t >= n {
            t -= 1 << w;
        }
        debug_assert!(t < n);
        debug_assert_eq!(t & mask, payload & mask);
        t
    }

    /// Embed `wm` (width bits per fit tuple).
    ///
    /// # Errors
    ///
    /// Unknown attributes or watermark length mismatch.
    pub fn embed(
        &self,
        rel: &mut Relation,
        key_attr: &str,
        target_attr: &str,
        wm: &Watermark,
    ) -> Result<usize, CoreError> {
        if wm.len() != self.spec.wm_len {
            return Err(CoreError::InvalidSpec(format!(
                "watermark has {} bits but the spec declares {}",
                wm.len(),
                self.spec.wm_len
            )));
        }
        let key_idx = rel.schema().index_of(key_attr)?;
        let attr_idx = rel.schema().index_of(target_attr)?;
        let wm_data = MajorityVotingEcc.encode(wm, self.spec.wm_data_len);
        let n = self.spec.domain.len() as u64;
        let mut altered = 0usize;
        for planned in MarkPlan::build(self.spec, rel, key_idx).fit() {
            let mut payload = 0u64;
            for (i, pos) in self.positions(planned).into_iter().enumerate() {
                payload |= u64::from(wm_data[pos]) << i;
            }
            let t = self.index_for(u64::from(planned.value_base), payload, n) as usize;
            let new_value = self.spec.domain.value_at(t).clone();
            let old = rel.update_value(planned.row as usize, attr_idx, new_value.clone())?;
            if old != new_value {
                altered += 1;
            }
        }
        Ok(altered)
    }

    /// Blind decode.
    ///
    /// # Errors
    ///
    /// Unknown attributes.
    pub fn decode(
        &self,
        rel: &Relation,
        key_attr: &str,
        target_attr: &str,
    ) -> Result<Watermark, CoreError> {
        let key_idx = rel.schema().index_of(key_attr)?;
        let attr_idx = rel.schema().index_of(target_attr)?;
        let targets = rel.column(attr_idx);
        let len = self.spec.wm_data_len;
        let mut ones = vec![0u32; len];
        let mut zeros = vec![0u32; len];
        for planned in MarkPlan::build(self.spec, rel, key_idx).fit() {
            let Ok(t) = self.spec.domain.index_of(&targets.value(planned.row as usize)) else {
                continue;
            };
            for (i, pos) in self.positions(planned).into_iter().enumerate() {
                if (t >> i) & 1 == 1 {
                    ones[pos] += 1;
                } else {
                    zeros[pos] += 1;
                }
            }
        }
        let prf = catmark_crypto::KeyedPrf::new(
            self.spec.algo,
            self.spec.k2.derive(self.spec.algo, "wide-coins"),
        );
        // `RandomFill`'s erasure coins and the ties' coins are drawn
        // below, 16 positions at a time per label.
        let mut wm_data: Vec<Option<bool>> = (0..len)
            .map(|i| match (ones[i], zeros[i]) {
                (0, 0) => (self.spec.erasure == ErasurePolicy::ZeroFill).then_some(false),
                (o, z) => (o != z).then_some(o > z),
            })
            .collect();
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
        Ok(MajorityVotingEcc.decode(&wm_data, self.spec.wm_len, &mut tie_break))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use catmark_datagen::{ItemScanConfig, SalesGenerator};
    use catmark_relation::ops;

    fn setup(e: u64, wm_data_len: usize) -> (Relation, WatermarkSpec, Watermark) {
        let gen = SalesGenerator::new(ItemScanConfig { tuples: 6_000, ..Default::default() });
        let rel = gen.generate();
        let spec = WatermarkSpec::builder(gen.item_domain())
            .master_key("wide-tests")
            .e(e)
            .wm_len(10)
            .wm_data_len(wm_data_len)
            .erasure(ErasurePolicy::Abstain)
            .build()
            .unwrap();
        let wm = Watermark::from_u64(0b1001011010, 10);
        (rel, spec, wm)
    }

    #[test]
    fn round_trip_for_every_width() {
        for width in 1..=4u32 {
            let (mut rel, spec, wm) = setup(30, 100);
            let codec = WideCodec::new(&spec, width).unwrap();
            let altered = codec.embed(&mut rel, "visit_nbr", "item_nbr", &wm).unwrap();
            assert!(altered > 100, "width {width}: altered {altered}");
            let decoded = codec.decode(&rel, "visit_nbr", "item_nbr").unwrap();
            assert_eq!(decoded, wm, "width {width}");
        }
    }

    #[test]
    fn width_one_matches_base_scheme_semantics() {
        // Same positions, same LSB behaviour: decoding a width-1 wide
        // embedding with the standard decoder succeeds.
        let (mut rel, spec, wm) = setup(30, 100);
        WideCodec::new(&spec, 1).unwrap().embed(&mut rel, "visit_nbr", "item_nbr", &wm).unwrap();
        let report = crate::testkit::decode(&spec, &rel, "visit_nbr", "item_nbr").unwrap();
        assert_eq!(report.watermark, wm);
    }

    #[test]
    fn wider_channels_fill_more_positions_per_tuple() {
        // At large wm_data and modest fit count, width 4 achieves the
        // coverage width 1 cannot.
        let (rel, spec, wm) = setup(60, 400);
        let mut narrow = rel.clone();
        WideCodec::new(&spec, 1).unwrap().embed(&mut narrow, "visit_nbr", "item_nbr", &wm).unwrap();
        let narrow_decoded =
            WideCodec::new(&spec, 1).unwrap().decode(&narrow, "visit_nbr", "item_nbr").unwrap();
        let mut wide = rel;
        WideCodec::new(&spec, 4).unwrap().embed(&mut wide, "visit_nbr", "item_nbr", &wm).unwrap();
        let wide_decoded =
            WideCodec::new(&spec, 4).unwrap().decode(&wide, "visit_nbr", "item_nbr").unwrap();
        // ~100 fit tuples into 400 positions: width 1 leaves 3/4 of
        // positions erased; width 4 covers ~63%.
        let narrow_err = wm.hamming_distance(&narrow_decoded);
        let wide_err = wm.hamming_distance(&wide_decoded);
        assert!(wide_err <= narrow_err, "wide {wide_err} vs narrow {narrow_err}");
        assert_eq!(wide_err, 0, "width 4 must decode cleanly at this coverage");
    }

    #[test]
    fn wide_channel_survives_loss_and_shuffle() {
        let (mut rel, spec, wm) = setup(20, 200);
        let codec = WideCodec::new(&spec, 3).unwrap();
        codec.embed(&mut rel, "visit_nbr", "item_nbr", &wm).unwrap();
        let suspect = ops::sample_bernoulli(&ops::shuffle(&rel, 9), 0.6, 10);
        assert_eq!(codec.decode(&suspect, "visit_nbr", "item_nbr").unwrap(), wm);
    }

    #[test]
    fn coins_drawn_sixteen_at_a_time_match_one_at_a_time() {
        // The decode as it drew one coin per call: every erasure, tie
        // and mark-bit tie through `KeyedPrf::bit`.
        let per_coin = |codec: &WideCodec<'_>, spec: &WatermarkSpec, rel: &Relation| {
            let index_of = |name| rel.schema().index_of(name).unwrap();
            let targets = rel.column(index_of("item_nbr"));
            let (mut ones, mut zeros) =
                (vec![0u32; spec.wm_data_len], vec![0u32; spec.wm_data_len]);
            for planned in MarkPlan::build(spec, rel, index_of("visit_nbr")).fit() {
                let Ok(t) = spec.domain.index_of(&targets.value(planned.row as usize)) else {
                    continue;
                };
                for (i, pos) in codec.positions(planned).into_iter().enumerate() {
                    if (t >> i) & 1 == 1 {
                        ones[pos] += 1;
                    } else {
                        zeros[pos] += 1;
                    }
                }
            }
            let prf =
                catmark_crypto::KeyedPrf::new(spec.algo, spec.k2.derive(spec.algo, "wide-coins"));
            let mut draws = [0usize; 3];
            let wm_data: Vec<Option<bool>> = (0..spec.wm_data_len)
                .map(|i| match (ones[i], zeros[i]) {
                    (0, 0) => match spec.erasure {
                        ErasurePolicy::Abstain => None,
                        ErasurePolicy::RandomFill => {
                            draws[0] += 1;
                            Some(prf.bit("erasure", i as u64))
                        }
                        ErasurePolicy::ZeroFill => Some(false),
                    },
                    (o, z) if o != z => Some(o > z),
                    _ => {
                        draws[1] += 1;
                        Some(prf.bit("pos-tie", i as u64))
                    }
                })
                .collect();
            let mut tie_break = |j: usize| {
                draws[2] += 1;
                prf.bit("wm-tie", j as u64)
            };
            (MajorityVotingEcc.decode(&wm_data, spec.wm_len, &mut tie_break), draws)
        };
        let mut drawn = [0usize; 3];
        // A `wm_data` far longer than the fit rows leaves most positions
        // erased and the rest tied more often; unmarked data ties more.
        for (erasure, wm_data_len) in [
            (ErasurePolicy::RandomFill, 4_000),
            (ErasurePolicy::Abstain, 4_000),
            (ErasurePolicy::Abstain, 40),
            (ErasurePolicy::ZeroFill, 400),
        ] {
            let (rel, mut spec, wm) = setup(30, wm_data_len);
            spec.erasure = erasure;
            for width in [1, 3] {
                let codec = WideCodec::new(&spec, width).unwrap();
                let mut marked = rel.clone();
                codec.embed(&mut marked, "visit_nbr", "item_nbr", &wm).unwrap();
                for data in [&rel, &marked] {
                    let (expected, draws) = per_coin(&codec, &spec, data);
                    assert_eq!(codec.decode(data, "visit_nbr", "item_nbr").unwrap(), expected);
                    for (total, n) in drawn.iter_mut().zip(draws) {
                        *total += n;
                    }
                }
            }
        }
        assert!(drawn.iter().all(|&n| n > 0), "erasure, tie and mark-bit tie coins: {drawn:?}");
    }

    #[test]
    fn index_for_preserves_payload_and_range() {
        let (_, spec, _) = setup(30, 100);
        for width in 1..=4u32 {
            let codec = WideCodec::new(&spec, width).unwrap();
            let n = spec.domain.len() as u64;
            let mask = (1u64 << width) - 1;
            for base in [0u64, 1, 17, 511, 999] {
                for payload in 0..=mask {
                    let t = codec.index_for(base, payload, n);
                    assert!(t < n);
                    assert_eq!(t & mask, payload);
                }
            }
        }
    }

    #[test]
    fn rejects_degenerate_widths() {
        let (_, spec, _) = setup(30, 100);
        assert!(WideCodec::new(&spec, 0).is_err());
        // 1000-value domain → 10 index bits; width 10 leaves nothing.
        assert!(WideCodec::new(&spec, 10).is_err());
        assert!(WideCodec::new(&spec, 9).is_ok());
    }
}
