//! Frequency-domain encoding (Section 4.2).
//!
//! Against the extreme vertical-partitioning attack that keeps a
//! *single* categorical attribute, the association channel is gone;
//! the only property left carrying value is the attribute's occurrence
//! frequency distribution `[f_A(a_i)]`. The paper proposes embedding a
//! second watermark there with the numeric-set scheme of
//! Sion–Atallah–Prabhakar ("On watermarking numeric sets", IWDW 2002),
//! noting the fortunate alignment: minimizing absolute change in the
//! frequency domain also minimizes the *number of items* changed in
//! the categorical domain.
//!
//! The encoder here realizes that idea as quantization index
//! modulation over secret subset sums:
//!
//! 1. A keyed hash partitions the domain values into `|wm|` secret
//!    groups.
//! 2. Each group's total occurrence count `s_j` is quantized into
//!    cells of width `step`; the *parity* of the cell index carries
//!    watermark bit `j`.
//! 3. Embedding moves the minimum number of tuples between groups to
//!    land every `s_j` in the interior of a parity-correct cell;
//!    decoding just recomputes the parities.
//!
//! Any attack that shifts a group count by less than half a cell
//! leaves the mark intact — and, exactly as the paper requires, the
//! channel survives row re-sorting, duplicate elimination does not
//! apply (counts are the signal), and the primary key is never
//! consulted.

use catmark_crypto::{HashAlgorithm, KeyedHash, SecretKey};
use catmark_relation::{CategoricalDomain, FrequencyHistogram, Relation, Value};

use crate::error::CoreError;
use crate::spec::Watermark;

/// Parameters of the frequency-domain codec.
#[derive(Debug, Clone)]
pub struct FreqCodec {
    algo: HashAlgorithm,
    key: SecretKey,
    /// Quantization cell width, in tuples. Robustness radius is
    /// `step / 2` tuples per group; distortion is at most
    /// `step` tuples moved per mismatched group.
    step: u64,
    wm_len: usize,
}

/// Outcome of a frequency-domain embedding.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FreqEmbedReport {
    /// Tuples whose value was changed.
    pub moved: usize,
    /// Groups whose parity already matched (no movement needed).
    pub groups_unchanged: usize,
    /// Target group counts after embedding, in group order.
    pub group_counts: Vec<u64>,
}

impl FreqCodec {
    /// Codec with the given secret `key`, cell width `step` and
    /// watermark length.
    ///
    /// # Errors
    ///
    /// [`CoreError::InvalidSpec`] for zero `step` or zero `wm_len`.
    pub fn new(
        algo: HashAlgorithm,
        key: impl Into<SecretKey>,
        step: u64,
        wm_len: usize,
    ) -> Result<Self, CoreError> {
        if step == 0 {
            return Err(CoreError::InvalidSpec("step must be positive".into()));
        }
        if wm_len == 0 {
            return Err(CoreError::InvalidSpec("watermark length must be positive".into()));
        }
        Ok(FreqCodec { algo, key: key.into(), step, wm_len })
    }

    /// The secret group of a domain value: `H(value, k) mod |wm|`.
    ///
    /// Groups depend on the value's *content*, not its domain index,
    /// so the grouping survives domain re-derivation on suspect data.
    #[must_use]
    pub fn group_of(&self, value: &Value) -> usize {
        let h = KeyedHash::new(self.algo, self.key.clone());
        (h.hash_u64(&[b"freq-group", &value.canonical_bytes()]) % self.wm_len as u64) as usize
    }

    /// Group occurrence sums of attribute `attr_idx` over `domain`.
    fn group_sums(
        &self,
        rel: &Relation,
        attr_idx: usize,
        domain: &CategoricalDomain,
    ) -> Result<Vec<u64>, CoreError> {
        let hist = FrequencyHistogram::from_relation(rel, attr_idx, domain)?;
        let mut sums = vec![0u64; self.wm_len];
        for t in 0..domain.len() {
            sums[self.group_of(domain.value_at(t))] += hist.count(t);
        }
        Ok(sums)
    }

    /// The bit a group sum currently carries: parity of its cell.
    fn parity(&self, sum: u64) -> bool {
        (sum / self.step) % 2 == 1
    }

    /// The nearest parity-correct target for `sum`, placed at the
    /// middle of the chosen cell for maximum robustness.
    fn target_for(&self, sum: u64, bit: bool) -> u64 {
        let cell = sum / self.step;
        let mid = |c: u64| c * self.step + self.step / 2;
        if (cell % 2 == 1) == bit {
            // Already in a correct cell: recenter only if the sum sits
            // within step/4 of a cell edge (cheap insurance, few
            // moves); otherwise leave it alone to minimize distortion.
            let offset = sum - cell * self.step;
            let margin = self.step / 4;
            if offset < margin || offset >= self.step - margin {
                mid(cell)
            } else {
                sum
            }
        } else if cell == 0 {
            // Can only go up.
            mid(1)
        } else {
            // Choose the nearer neighbouring cell.
            let down = mid(cell - 1);
            let up = mid(cell + 1);
            if sum - down <= up - sum {
                down
            } else {
                up
            }
        }
    }

    /// Absorb as much of the target/total imbalance as possible by
    /// sliding targets *within* their chosen parity cells, preferring
    /// to keep `margin` distance from the cell edges. Returns the
    /// remaining imbalance.
    fn absorb_within_cells(&self, targets: &mut [u64], total: u64) -> i64 {
        for margin in [self.step / 4, 1, 0] {
            let current: i64 = targets.iter().map(|&t| t as i64).sum();
            let mut imbalance = total as i64 - current;
            if imbalance == 0 {
                return 0;
            }
            for t in targets.iter_mut() {
                if imbalance == 0 {
                    break;
                }
                let cell = *t / self.step;
                let lo = cell * self.step + margin;
                let hi = cell * self.step + self.step - 1 - margin.min(self.step - 1);
                if imbalance > 0 {
                    let take = (hi.saturating_sub(*t) as i64).min(imbalance);
                    *t += take as u64;
                    imbalance -= take;
                } else {
                    let take = (t.saturating_sub(lo) as i64).min(-imbalance);
                    *t -= take as u64;
                    imbalance += take;
                }
            }
        }
        let current: i64 = targets.iter().map(|&t| t as i64).sum();
        total as i64 - current
    }

    /// Rebalance `targets` so they sum exactly to `total`: first slide
    /// within cells, then — as a last resort — shift whole groups by
    /// two cells (parity preserved) toward the deficit.
    ///
    /// Moves between groups conserve the total row count, so targets
    /// that do not sum to `total` are unreachable; without this step
    /// an all-mismatched-in-the-same-direction watermark deadlocks the
    /// donor/acceptor matching (caught by the `freq_codec_round_trip`
    /// property test).
    fn balance_targets(&self, targets: &mut [u64], total: u64) {
        let two = 2 * self.step;
        // Each two-cell shift moves 2·step toward balance; the
        // imbalance is bounded by wm_len · step, so wm_len iterations
        // suffice (with slack).
        for _ in 0..=targets.len() {
            let imbalance = self.absorb_within_cells(targets, total);
            if imbalance == 0 {
                return;
            }
            if imbalance > 0 {
                let t = targets.iter_mut().min().expect("at least one group");
                *t += two;
            } else if let Some(t) = targets.iter_mut().filter(|t| **t >= two).max() {
                *t -= two;
            } else {
                return; // pathological: total smaller than one cell per group
            }
        }
    }

    /// Embed `wm` into the occurrence-frequency distribution of
    /// `attr` over `domain`.
    ///
    /// # Errors
    ///
    /// Unknown attribute, a domain smaller than `|wm|` (some group
    /// would be empty and unadjustable), or foreign values in the
    /// column.
    pub fn embed(
        &self,
        rel: &mut Relation,
        attr: &str,
        domain: &CategoricalDomain,
        wm: &Watermark,
    ) -> Result<FreqEmbedReport, CoreError> {
        if wm.len() != self.wm_len {
            return Err(CoreError::InvalidSpec(format!(
                "watermark has {} bits but the codec expects {}",
                wm.len(),
                self.wm_len
            )));
        }
        if domain.len() < self.wm_len {
            return Err(CoreError::InvalidSpec(format!(
                "domain of {} values cannot form {} non-empty groups",
                domain.len(),
                self.wm_len
            )));
        }
        let attr_idx = rel.schema().index_of(attr)?;
        let sums = self.group_sums(rel, attr_idx, domain)?;
        let total: u64 = sums.iter().sum();
        // The secret group of every *domain value*, hashed once: the
        // per-row work below is then a pair of indexed loads instead
        // of a keyed hash per row.
        let group_by_domain: Vec<usize> =
            (0..domain.len()).map(|t| self.group_of(domain.value_at(t))).collect();

        // Desired targets per group: nearest parity-correct point,
        // then rebalanced so they are jointly reachable (group moves
        // conserve the total).
        let mut targets: Vec<u64> =
            (0..self.wm_len).map(|j| self.target_for(sums[j], wm.bit(j))).collect();
        self.balance_targets(&mut targets, total);
        let mut deltas: Vec<i64> =
            (0..self.wm_len).map(|j| targets[j] as i64 - sums[j] as i64).collect();
        let groups_unchanged = deltas.iter().filter(|&&d| d == 0).count();
        debug_assert_eq!(deltas.iter().sum::<i64>(), 0, "targets must be balanced");

        // Rows per group, in code space: each row's domain code (one
        // per-distinct translation, already validated by the
        // group_sums histogram) indexes the precomputed group table.
        let mut rows_by_group: Vec<Vec<usize>> = vec![Vec::new(); self.wm_len];
        for (row, code) in domain.intern_column(rel, attr_idx).into_iter().enumerate() {
            let t = code.expect("group_sums validated every value against the domain") as usize;
            rows_by_group[group_by_domain[t]].push(row);
        }
        // Representative acceptor value per group: its most frequent
        // member (stealth: reinforce the mode rather than a rare value).
        let hist = FrequencyHistogram::from_relation(rel, attr_idx, domain)?;
        let mut acceptor_value: Vec<Option<Value>> = vec![None; self.wm_len];
        for t in hist.rank_by_frequency() {
            let g = group_by_domain[t];
            if acceptor_value[g].is_none() {
                acceptor_value[g] = Some(domain.value_at(t).clone());
            }
        }

        // Donor → acceptor matching; supply equals demand by
        // construction, so this drains both lists completely (barring
        // a donor group with fewer rows than its delta, which cannot
        // happen: a group's sum *is* its row count).
        let mut moved = 0usize;
        let mut donors: Vec<usize> = (0..self.wm_len).filter(|&j| deltas[j] < 0).collect();
        let mut acceptors: Vec<usize> = (0..self.wm_len).filter(|&j| deltas[j] > 0).collect();
        let mut current = sums;
        while let (Some(&d), Some(&a)) = (donors.last(), acceptors.last()) {
            let row = rows_by_group[d].pop().expect("group sum equals its row count");
            let new_value =
                acceptor_value[a].clone().expect("acceptor group has at least one domain value");
            rel.update_value(row, attr_idx, new_value)?;
            moved += 1;
            deltas[d] += 1;
            deltas[a] -= 1;
            current[d] -= 1;
            current[a] += 1;
            if deltas[d] == 0 {
                donors.pop();
            }
            if deltas[a] == 0 {
                acceptors.pop();
            }
        }
        debug_assert!(deltas.iter().all(|&d| d == 0), "matching must drain");
        Ok(FreqEmbedReport { moved, groups_unchanged, group_counts: current })
    }

    /// Decode the frequency-domain watermark: recompute group sums and
    /// read the cell parities.
    ///
    /// # Errors
    ///
    /// Unknown attribute or foreign values.
    pub fn decode(
        &self,
        rel: &Relation,
        attr: &str,
        domain: &CategoricalDomain,
    ) -> Result<Watermark, CoreError> {
        let attr_idx = rel.schema().index_of(attr)?;
        let sums = self.group_sums(rel, attr_idx, domain)?;
        Ok(Watermark::from_bits(sums.iter().map(|&s| self.parity(s)).collect()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use catmark_datagen::{ItemScanConfig, SalesGenerator};
    use catmark_relation::ops;

    fn codec(step: u64) -> FreqCodec {
        FreqCodec::new(HashAlgorithm::Sha256, SecretKey::from_u64(0xF00D), step, 8).unwrap()
    }

    fn fixture() -> (Relation, CategoricalDomain) {
        let gen = SalesGenerator::new(ItemScanConfig {
            tuples: 10_000,
            items: 200,
            ..Default::default()
        });
        (gen.generate(), gen.item_domain())
    }

    #[test]
    fn round_trip() {
        let (mut rel, domain) = fixture();
        let c = codec(40);
        let wm = Watermark::from_u64(0b1011_0010, 8);
        let report = c.embed(&mut rel, "item_nbr", &domain, &wm).unwrap();
        assert!(report.moved < 8 * 40, "moved {} tuples", report.moved);
        assert_eq!(c.decode(&rel, "item_nbr", &domain).unwrap(), wm);
    }

    #[test]
    fn distortion_is_bounded_and_small() {
        let (mut rel, domain) = fixture();
        let original = rel.clone();
        let c = codec(40);
        let wm = Watermark::from_u64(0b0110_1001, 8);
        let report = c.embed(&mut rel, "item_nbr", &domain, &wm).unwrap();
        let attr = rel.schema().index_of("item_nbr").unwrap();
        let changed =
            original.column_iter(attr).zip(rel.column_iter(attr)).filter(|(a, b)| a != b).count();
        assert_eq!(changed, report.moved);
        // At most ~1.5 cells of movement per group.
        assert!(changed <= 8 * 60, "changed {changed}");
        assert!((changed as f64) < 0.05 * rel.len() as f64, "changed {changed}");
    }

    #[test]
    fn survives_resorting_and_extreme_vertical_partition() {
        let (mut rel, domain) = fixture();
        let c = codec(40);
        let wm = Watermark::from_u64(0b1111_0000, 8);
        c.embed(&mut rel, "item_nbr", &domain, &wm).unwrap();
        // Keep ONLY the categorical attribute, shuffled: the paper's
        // worst-case partition.
        let item_idx = rel.schema().index_of("item_nbr").unwrap();
        let alone = ops::project(&ops::shuffle(&rel, 3), &[item_idx], 0, false).unwrap();
        assert_eq!(c.decode(&alone, "item_nbr", &domain).unwrap(), wm);
    }

    #[test]
    fn survives_small_alterations_but_not_half_cell_shifts() {
        let (mut rel, domain) = fixture();
        let c = codec(60);
        let wm = Watermark::from_u64(0b1010_1010, 8);
        c.embed(&mut rel, "item_nbr", &domain, &wm).unwrap();
        // Alter a handful of tuples (well under step/2 per group).
        let mut attacked = rel.clone();
        for row in 0..10 {
            attacked.update_value(row, 1, domain.value_at(row % domain.len()).clone()).unwrap();
        }
        assert_eq!(c.decode(&attacked, "item_nbr", &domain).unwrap(), wm);
    }

    #[test]
    fn group_assignment_is_key_dependent() {
        let a = FreqCodec::new(HashAlgorithm::Sha256, SecretKey::from_u64(1), 10, 8).unwrap();
        let b = FreqCodec::new(HashAlgorithm::Sha256, SecretKey::from_u64(2), 10, 8).unwrap();
        let (_, domain) = fixture();
        let differs = (0..domain.len())
            .any(|t| a.group_of(domain.value_at(t)) != b.group_of(domain.value_at(t)));
        assert!(differs);
    }

    #[test]
    fn groups_partition_all_values() {
        let c = codec(10);
        let (_, domain) = fixture();
        for t in 0..domain.len() {
            assert!(c.group_of(domain.value_at(t)) < 8);
        }
    }

    #[test]
    fn rejects_bad_parameters() {
        assert!(FreqCodec::new(HashAlgorithm::Sha256, SecretKey::from_u64(1), 0, 8).is_err());
        assert!(FreqCodec::new(HashAlgorithm::Sha256, SecretKey::from_u64(1), 10, 0).is_err());
    }

    #[test]
    fn rejects_wrong_watermark_length() {
        let (mut rel, domain) = fixture();
        let c = codec(10);
        let err = c.embed(&mut rel, "item_nbr", &domain, &Watermark::from_u64(0, 4));
        assert!(matches!(err, Err(CoreError::InvalidSpec(_))));
    }

    #[test]
    fn rejects_domains_smaller_than_the_group_count() {
        // A 200-value domain cannot populate 300 groups.
        let (mut rel, domain) = fixture();
        let c_too_big =
            FreqCodec::new(HashAlgorithm::Sha256, SecretKey::from_u64(1), 10, 300).unwrap();
        let wm = Watermark::from_bits(vec![true; 300]);
        let err = c_too_big.embed(&mut rel, "item_nbr", &domain, &wm);
        assert!(matches!(err, Err(CoreError::InvalidSpec(_))));
    }

    #[test]
    fn parity_and_target_math() {
        let c = codec(10);
        assert!(!c.parity(5)); // cell 0
        assert!(c.parity(15)); // cell 1
        assert!(!c.parity(25)); // cell 2
                                // Already-correct sum away from edges stays put.
        assert_eq!(c.target_for(15, true), 15);
        // Correct cell but near the edge: recentered to 15.
        assert_eq!(c.target_for(10, true), 15);
        assert_eq!(c.target_for(19, true), 15);
        // Wrong parity: moves to the nearer odd cell's midpoint.
        assert_eq!(c.target_for(22, true), 15);
        assert_eq!(c.target_for(28, true), 35);
        // Cell 0 can only go up.
        assert_eq!(c.target_for(3, true), 15);
    }
}
