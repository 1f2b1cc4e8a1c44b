//! Fit-tuple selection (Section 3.2.1).
//!
//! A tuple `T_i` is "fit" for encoding iff `H(T_i(K), k1) mod e == 0`.
//! The secret criterion simultaneously (i) hides *which* tuples carry
//! mark bits, (ii) modulates the encoding to the actual key–attribute
//! association, and (iii) — through the hash's one-wayness — defeats
//! court-time claims that the keys were fished for after the fact.

use catmark_crypto::{CanonicalInput, FixedLenKeyedHasher, FixedLenKeyedHasher4, KeyedHash};
use catmark_relation::{CanonicalInt, Relation, Value};

use crate::spec::WatermarkSpec;

/// Selects and hashes fit tuples for one (key attribute, spec) pair.
#[derive(Debug, Clone)]
pub struct FitnessSelector {
    keyed1: KeyedHash,
    keyed2: KeyedHash,
    e: u64,
    wm_data_len: u64,
}

/// The per-tuple facts of one **fit** tuple, derived from a single
/// evaluation of `H(key, k1)` plus one of `H(key, k2)`.
///
/// Historically every consumer re-derived these piecewise — `is_fit`
/// hashed `k1`, `value_base` hashed `k1` *again*, `position` hashed
/// `k2` — paying two `H(·, k1)` evaluations per fit tuple. `facts`
/// hashes each key exactly once per keyed hash.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FitFacts {
    /// The `wm_data` position this tuple carries.
    pub position: usize,
    /// Top 32 bits of `H(key, k1)` — the pre-reduction value base.
    pub base_raw: u64,
}

impl FitFacts {
    /// The pseudorandom base index into a value domain of size `n`.
    #[must_use]
    pub fn value_base(&self, n: u64) -> u64 {
        self.base_raw % n
    }
}

impl FitnessSelector {
    /// Selector from a spec.
    #[must_use]
    pub fn new(spec: &WatermarkSpec) -> Self {
        FitnessSelector {
            keyed1: spec.keyed1(),
            keyed2: spec.keyed2(),
            e: spec.e,
            wm_data_len: spec.wm_data_len as u64,
        }
    }

    /// `H(key, k1)` — the fitness/value-selection hash
    /// (allocation-free: the key streams its canonical encoding into
    /// the digest).
    #[must_use]
    pub fn hash1(&self, key: &Value) -> u64 {
        self.keyed1.hash_canonical_u64(key)
    }

    /// Whether the tuple with primary key `key` is fit.
    #[must_use]
    pub fn is_fit(&self, key: &Value) -> bool {
        self.hash1(key).is_multiple_of(self.e)
    }

    /// Fitness plus the derived facts, from **one** `H(key, k1)`
    /// evaluation: `None` when the tuple is unfit, otherwise its
    /// `wm_data` position and value base.
    ///
    /// This is the single hot path shared by [`crate::plan::MarkPlan`]
    /// and the streaming marker; prefer it over separate
    /// `is_fit`/`position`/`value_base` calls, which rehash.
    #[must_use]
    pub fn facts(&self, key: &Value) -> Option<FitFacts> {
        self.facts_canonical(key)
    }

    /// [`FitnessSelector::facts`] over any borrowed canonical encoding
    /// — the columnar scan path hashes [`CanonicalInt`] /
    /// [`catmark_relation::CanonicalText`] wrappers without ever
    /// materializing a [`Value`].
    #[must_use]
    pub fn facts_canonical<V: CanonicalInput + ?Sized>(&self, key: &V) -> Option<FitFacts> {
        let h1 = self.keyed1.hash_canonical_u64(key);
        if !h1.is_multiple_of(self.e) {
            return None;
        }
        Some(FitFacts {
            position: (self.keyed2.hash_canonical_u64(key) % self.wm_data_len) as usize,
            base_raw: h1 >> 32,
        })
    }

    /// A scanner specialized for integer key columns: both keyed
    /// hashes precompiled for the fixed 9-byte canonical width, so a
    /// column scan runs two SHA-256 blocks per key (one of them with a
    /// pre-expanded schedule) and nothing else. Falls back to the
    /// generic streaming hashers when the key layout doesn't qualify.
    ///
    /// Bit-identical to [`FitnessSelector::facts`] over
    /// `Value::Int(key)` (pinned by test).
    #[must_use]
    pub fn int_scanner(&self) -> IntFitScanner<'_> {
        IntFitScanner {
            selector: self,
            fast1: self.keyed1.fixed_len_hasher(9),
            fast2: self.keyed2.fixed_len_hasher(9),
        }
    }

    /// A scanner fused across **four selectors** (four recipients'
    /// derived key pairs) over an integer key column: one tuple key in,
    /// four recipients' fitness facts out, through the multi-key
    /// four-lane hasher. This transposes [`FitnessSelector::int_scanner`]
    /// — lanes run across recipients instead of tuples — so a single
    /// pass over the key column serves a whole recipient quad.
    ///
    /// Falls back to four scalar evaluations when any selector's key
    /// layout doesn't qualify for the fused fast path. Bit-identical,
    /// lane for lane, to each selector's own
    /// [`FitnessSelector::facts`] (pinned by test).
    #[must_use]
    pub fn int_scanner4<'a>(selectors: [&'a FitnessSelector; 4]) -> IntFitScanner4<'a> {
        let singles = selectors.map(|s| s.keyed1.fixed_len_hasher(9));
        let fast1 = match &singles {
            [Some(a), Some(b), Some(c), Some(d)] => FixedLenKeyedHasher::quad([a, b, c, d]),
            _ => None,
        };
        IntFitScanner4 { selectors, fast1, fast2: selectors.map(|s| s.keyed2.fixed_len_hasher(9)) }
    }

    /// The `wm_data` position carried by the fit tuple with key `key`:
    /// `H(key, k2) mod |wm_data|`.
    ///
    /// The paper writes `msb(H(T_j(K), k2), b(N/e))`; reducing modulo
    /// the (power-of-two-or-not) length avoids the out-of-range
    /// positions the raw `msb` form can produce while keeping the
    /// position a pure function of the tuple key — the property that
    /// makes the scheme survive subset selection and addition.
    #[must_use]
    pub fn position(&self, key: &Value) -> usize {
        (self.keyed2.hash_canonical_u64(key) % self.wm_data_len) as usize
    }

    /// The pseudorandom base index into the value domain for a fit
    /// tuple, before LSB forcing: the most significant 32 bits of
    /// `H(key, k1)` reduced modulo `n`.
    ///
    /// Using the *top* bits matters: the fitness test already
    /// constrains `H mod e`, and for composite `gcd(e, n) > 1` a naive
    /// `H mod n` of fit tuples would be biased (e.g. `e = 60`,
    /// `n = 1000` would only ever select indices divisible by 20,
    /// pinning the embedded LSB). The top 32 bits remain uniform
    /// conditioned on the fitness residue.
    ///
    /// Convenience form that re-evaluates `H(key, k1)`; loops that
    /// already tested fitness should use [`FitnessSelector::facts`]
    /// and [`FitFacts::value_base`] instead, which hash once.
    #[must_use]
    pub fn value_base(&self, key: &Value, n: u64) -> u64 {
        (self.hash1(key) >> 32) % n
    }

    /// Row indices of all fit tuples of `rel`, keyed by attribute
    /// `key_idx`.
    #[must_use]
    pub fn fit_rows(&self, rel: &Relation, key_idx: usize) -> Vec<usize> {
        (0..rel.len())
            .filter(|&row| self.is_fit(&rel.value(row, key_idx).expect("row in range")))
            .collect()
    }
}

/// See [`FitnessSelector::int_scanner`].
#[derive(Debug, Clone)]
pub struct IntFitScanner<'a> {
    selector: &'a FitnessSelector,
    fast1: Option<FixedLenKeyedHasher>,
    fast2: Option<FixedLenKeyedHasher>,
}

impl IntFitScanner<'_> {
    /// Fitness facts for 16 keys at once, through the hasher's 16-lane
    /// batch (a lone SHA-256 stream is latency-bound; batching is where
    /// the columnar flat-slice scan earns its keep). The rare `H(·, k2)`
    /// position hash runs per fit lane. Falls back to 16 scalar calls
    /// when the key layout doesn't qualify.
    #[must_use]
    pub fn facts16(&self, keys: [i64; 16]) -> [Option<FitFacts>; 16] {
        let Some(fast1) = &self.fast1 else {
            return keys.map(|k| self.facts(k));
        };
        let bufs = keys.map(|k| CanonicalInt(k).encode());
        let h1s = fast1.hash16_u64(&bufs);
        let mut out = [None; 16];
        for lane in 0..16 {
            if !h1s[lane].is_multiple_of(self.selector.e) {
                continue;
            }
            let h2 = match &self.fast2 {
                Some(fast) => fast.hash_u64(&bufs[lane]),
                None => self.selector.keyed2.hash_canonical_u64(bufs[lane].as_slice()),
            };
            out[lane] = Some(FitFacts {
                position: (h2 % self.selector.wm_data_len) as usize,
                base_raw: h1s[lane] >> 32,
            });
        }
        out
    }

    /// Fitness facts for the integer key `key` — the flat-slice twin
    /// of [`FitnessSelector::facts`].
    #[must_use]
    pub fn facts(&self, key: i64) -> Option<FitFacts> {
        let buf = CanonicalInt(key).encode();
        let h1 = match &self.fast1 {
            Some(fast) => fast.hash_u64(&buf),
            None => self.selector.keyed1.hash_canonical_u64(buf.as_slice()),
        };
        if !h1.is_multiple_of(self.selector.e) {
            return None;
        }
        let h2 = match &self.fast2 {
            Some(fast) => fast.hash_u64(&buf),
            None => self.selector.keyed2.hash_canonical_u64(buf.as_slice()),
        };
        Some(FitFacts { position: (h2 % self.selector.wm_data_len) as usize, base_raw: h1 >> 32 })
    }
}

/// See [`FitnessSelector::int_scanner4`].
#[derive(Debug, Clone)]
pub struct IntFitScanner4<'a> {
    selectors: [&'a FitnessSelector; 4],
    fast1: Option<FixedLenKeyedHasher4>,
    fast2: [Option<FixedLenKeyedHasher>; 4],
}

impl IntFitScanner4<'_> {
    /// Fitness facts of one tuple key under all four recipients'
    /// selectors: lane `i` is exactly `selectors[i].facts(Int(key))`.
    /// The fused `H(·, k1)` quad runs once; the rarer `H(·, k2)`
    /// position hash runs per fit lane under that lane's own `k2`.
    #[must_use]
    pub fn facts4(&self, key: i64) -> [Option<FitFacts>; 4] {
        let buf = CanonicalInt(key).encode();
        let Some(fast1) = &self.fast1 else {
            return self.selectors.map(|s| s.facts_canonical(buf.as_slice()));
        };
        let h1s = fast1.hash4_u64(&buf);
        let mut out = [None; 4];
        for lane in 0..4 {
            let sel = self.selectors[lane];
            if !h1s[lane].is_multiple_of(sel.e) {
                continue;
            }
            let h2 = match &self.fast2[lane] {
                Some(fast) => fast.hash_u64(&buf),
                None => sel.keyed2.hash_canonical_u64(buf.as_slice()),
            };
            out[lane] = Some(FitFacts {
                position: (h2 % sel.wm_data_len) as usize,
                base_raw: h1s[lane] >> 32,
            });
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use catmark_datagen::{ItemScanConfig, SalesGenerator};
    use catmark_relation::CategoricalDomain;

    fn spec(e: u64) -> WatermarkSpec {
        let domain = CategoricalDomain::new((0..100).map(Value::Int).collect()).unwrap();
        WatermarkSpec::builder(domain)
            .master_key("fitness-tests")
            .e(e)
            .expected_tuples(6000)
            .build()
            .unwrap()
    }

    #[test]
    fn fit_density_approximates_one_over_e() {
        let gen = SalesGenerator::new(ItemScanConfig { tuples: 12_000, ..Default::default() });
        let rel = gen.generate();
        for e in [10u64, 30, 60] {
            let sel = FitnessSelector::new(&spec(e));
            let fit = sel.fit_rows(&rel, 0).len() as f64;
            let expected = rel.len() as f64 / e as f64;
            assert!(
                (fit - expected).abs() < expected * 0.35,
                "e={e}: fit={fit}, expected≈{expected}"
            );
        }
    }

    #[test]
    fn fitness_is_deterministic_and_key_local() {
        let sel = FitnessSelector::new(&spec(60));
        let v = Value::Int(123_456);
        assert_eq!(sel.is_fit(&v), sel.is_fit(&v));
        assert_eq!(sel.position(&v), sel.position(&v));
    }

    #[test]
    fn different_master_keys_select_different_tuples() {
        let gen = SalesGenerator::new(ItemScanConfig { tuples: 6000, ..Default::default() });
        let rel = gen.generate();
        let domain = CategoricalDomain::new((0..100).map(Value::Int).collect()).unwrap();
        let mk = |key: &str| {
            let spec = WatermarkSpec::builder(domain.clone())
                .master_key(key)
                .e(20)
                .expected_tuples(6000)
                .build()
                .unwrap();
            FitnessSelector::new(&spec).fit_rows(&rel, 0)
        };
        let a = mk("key-a");
        let b = mk("key-b");
        assert_ne!(a, b);
    }

    #[test]
    fn positions_cover_wm_data_range() {
        let s = spec(60);
        let sel = FitnessSelector::new(&s);
        let mut seen = vec![false; s.wm_data_len];
        for i in 0..50_000i64 {
            seen[sel.position(&Value::Int(i))] = true;
        }
        let covered = seen.iter().filter(|&&x| x).count();
        assert_eq!(covered, s.wm_data_len, "all positions should be reachable");
    }

    #[test]
    fn value_base_is_unbiased_for_fit_tuples() {
        // Regression guard for the gcd(e, n) bias discussed in the
        // method docs: over fit tuples only, even and odd bases should
        // both occur in quantity for n sharing factors with e.
        let s = spec(60);
        let sel = FitnessSelector::new(&s);
        let n = 1000u64;
        let mut even = 0u32;
        let mut odd = 0u32;
        for i in 0..200_000i64 {
            let v = Value::Int(i);
            if sel.is_fit(&v) {
                if sel.value_base(&v, n).is_multiple_of(2) {
                    even += 1;
                } else {
                    odd += 1;
                }
            }
        }
        let total = even + odd;
        assert!(total > 2000, "need enough fit tuples, got {total}");
        let ratio = f64::from(even) / f64::from(total);
        assert!((0.45..0.55).contains(&ratio), "even ratio {ratio}");
    }

    #[test]
    fn value_base_stays_in_domain() {
        let sel = FitnessSelector::new(&spec(60));
        for i in 0..1000i64 {
            assert!(sel.value_base(&Value::Int(i), 7) < 7);
        }
    }

    #[test]
    fn int_scanner_matches_value_facts() {
        // The specialized flat-slice scanner must reproduce the
        // Value-based path bit for bit, one key at a time and 16 at a
        // time (the AVX-512F kernel where `avx512f` is detected).
        let sel = FitnessSelector::new(&spec(20));
        let scanner = sel.int_scanner();
        let keys: Vec<i64> =
            (-2_000i64..2_000).chain([i64::MIN, i64::MAX, 1_000_000_007]).collect();
        for &i in &keys {
            assert_eq!(scanner.facts(i), sel.facts(&Value::Int(i)), "i={i}");
        }
        for batch in keys.chunks(16) {
            let lanes: [i64; 16] = std::array::from_fn(|lane| batch[lane % batch.len()]);
            for (&i, facts) in lanes.iter().zip(scanner.facts16(lanes)) {
                assert_eq!(facts, sel.facts(&Value::Int(i)), "i={i}");
            }
        }
    }

    #[test]
    fn int_scanner4_matches_each_selectors_facts() {
        // The recipient-fused scanner must reproduce, lane for lane,
        // what each recipient's own selector derives — including mixed
        // parameters across lanes (different e / wm_data_len) and
        // duplicate selectors sharing a lane pair.
        let base = spec(20);
        let specs =
            [base.derived("buyer:a"), base.derived("buyer:b"), spec(60), base.derived("buyer:a")];
        let sels: Vec<FitnessSelector> = specs.iter().map(FitnessSelector::new).collect();
        let scanner = FitnessSelector::int_scanner4([&sels[0], &sels[1], &sels[2], &sels[3]]);
        let mut fit_seen = 0;
        for i in (-3_000i64..3_000).chain([i64::MIN, i64::MAX, 1_000_000_007]) {
            let lanes = scanner.facts4(i);
            for (lane, sel) in lanes.iter().zip(&sels) {
                assert_eq!(*lane, sel.facts(&Value::Int(i)), "i={i}");
                fit_seen += usize::from(lane.is_some());
            }
        }
        assert!(fit_seen > 100, "fixture too small: {fit_seen}");
    }

    #[test]
    fn facts_agree_with_piecewise_accessors() {
        // The single-hash path must reproduce the historical
        // three-hash path bit for bit, for both key types.
        let sel = FitnessSelector::new(&spec(20));
        let keys =
            (0..5_000i64).map(Value::Int).chain((0..500).map(|i| Value::Text(format!("key-{i}"))));
        let mut fit_seen = 0;
        for key in keys {
            match sel.facts(&key) {
                Some(f) => {
                    fit_seen += 1;
                    assert!(sel.is_fit(&key));
                    assert_eq!(f.position, sel.position(&key));
                    for n in [7u64, 100, 1000] {
                        assert_eq!(f.value_base(n), sel.value_base(&key, n));
                    }
                }
                None => assert!(!sel.is_fit(&key)),
            }
        }
        assert!(fit_seen > 100, "fixture too small: {fit_seen}");
    }
}
