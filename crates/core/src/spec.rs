//! Watermarks and the key material / parameter bundle
//! ([`WatermarkSpec`]) shared by embedding and blind detection.

use catmark_crypto::{HashAlgorithm, KeyedHash, SecretKey};
use catmark_relation::CategoricalDomain;

use crate::decode::ErasurePolicy;
use crate::error::CoreError;

/// The longest watermark a spec may declare: the most bits a
/// `CMKEVD1` evidence bundle carries.
pub(crate) const MAX_WM_LEN: usize = 4096;
/// The longest `wm_data` a spec may declare: the most positions a
/// `CMKEVD1` evidence bundle carries.
pub(crate) const MAX_WM_DATA: usize = 1 << 24;

/// The watermark: an owner-chosen bit string (the paper uses
/// `|wm| = 10` bits in all experiments).
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Watermark {
    bits: Vec<bool>,
}

impl Watermark {
    /// Watermark from explicit bits.
    ///
    /// # Panics
    ///
    /// Panics on an empty bit vector.
    #[must_use]
    pub fn from_bits(bits: Vec<bool>) -> Self {
        assert!(!bits.is_empty(), "watermark must have at least one bit");
        Watermark { bits }
    }

    /// The low `len` bits of `value`, most significant first.
    ///
    /// `Watermark::from_u64(0b101, 3)` is the bit string `101`.
    ///
    /// # Panics
    ///
    /// Panics when `len` is 0 or greater than 64.
    #[must_use]
    pub fn from_u64(value: u64, len: usize) -> Self {
        assert!((1..=64).contains(&len), "length must be in 1..=64");
        let bits = (0..len).map(|i| (value >> (len - 1 - i)) & 1 == 1).collect();
        Watermark { bits }
    }

    /// Parse a mark given as text for a spec declaring `wm_len` bits:
    /// either a bit string of exactly `wm_len` bits (`1011…`, most
    /// significant first) or `0x` hex whose value fits in `wm_len`
    /// bits (zero-extended on the left).
    ///
    /// ```
    /// use catmark_core::Watermark;
    ///
    /// assert_eq!(Watermark::parse("0x2A", 8).unwrap().to_string(), "00101010");
    /// assert_eq!(Watermark::parse("101010", 6).unwrap(), Watermark::from_u64(0x2A, 6));
    /// ```
    ///
    /// # Errors
    ///
    /// [`MarkError`] naming what is wrong: the text's syntax, a bit
    /// string of another length, a hex value wider than `wm_len` bits,
    /// or a `wm_len` no spec may declare (0 or more than 4096).
    pub fn parse(text: &str, wm_len: usize) -> Result<Self, MarkError> {
        if !(1..=MAX_WM_LEN).contains(&wm_len) {
            return Err(MarkError::WmLen(wm_len));
        }
        let bits = if let Some(hex) = text.strip_prefix("0x") {
            if hex.is_empty() || !hex.bytes().all(|b| b.is_ascii_hexdigit()) {
                return Err(MarkError::Syntax);
            }
            // The value's significant bits, most significant first.
            let significant: Vec<bool> = hex
                .chars()
                .filter_map(|c| c.to_digit(16))
                .flat_map(|d| (0..4).rev().map(move |i| (d >> i) & 1 == 1))
                .skip_while(|&bit| !bit)
                .collect();
            if significant.len() > wm_len {
                return Err(MarkError::TooWide { wm_len });
            }
            let mut bits = vec![false; wm_len - significant.len()];
            bits.extend(significant);
            bits
        } else if !text.is_empty() && text.bytes().all(|b| b == b'0' || b == b'1') {
            if text.len() != wm_len {
                return Err(MarkError::Length { bits: text.len(), wm_len });
            }
            text.bytes().map(|b| b == b'1').collect()
        } else {
            return Err(MarkError::Syntax);
        };
        Ok(Watermark { bits })
    }

    /// Watermark derived from an owner identity string: the keyed hash
    /// of the identity, truncated to `len` bits. This is how a rights
    /// holder turns "© 2004 DataCorp" into a mark. A mark longer than
    /// 64 bits continues with 64 bits from each further keyed hash of
    /// the identity and a block counter, the last one truncated.
    ///
    /// # Panics
    ///
    /// Panics when `len` is 0.
    #[must_use]
    pub fn from_identity(identity: &str, key: &SecretKey, len: usize) -> Self {
        assert!(len > 0, "watermark must have at least one bit");
        let h = KeyedHash::new(HashAlgorithm::Sha256, key.clone());
        let bits = (0..len.div_ceil(64))
            .flat_map(|block| {
                let value = if block == 0 {
                    h.hash_u64(&[b"identity", identity.as_bytes()])
                } else {
                    h.hash_u64(&[b"identity", identity.as_bytes(), &(block as u64).to_be_bytes()])
                };
                Self::from_u64(value, (len - 64 * block).min(64)).bits
            })
            .collect();
        Watermark { bits }
    }

    /// Bit at position `i`.
    #[must_use]
    pub fn bit(&self, i: usize) -> bool {
        self.bits[i]
    }

    /// Number of bits `|wm|`.
    #[must_use]
    pub fn len(&self) -> usize {
        self.bits.len()
    }

    /// Always false (watermarks are non-empty by construction).
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.bits.is_empty()
    }

    /// All bits, most significant first.
    #[must_use]
    pub fn bits(&self) -> &[bool] {
        &self.bits
    }

    /// Number of positions at which `self` and `other` differ
    /// (Hamming distance). Used for the paper's "mark alteration"
    /// metric.
    ///
    /// # Panics
    ///
    /// Panics when lengths differ.
    #[must_use]
    pub fn hamming_distance(&self, other: &Watermark) -> usize {
        assert_eq!(self.len(), other.len(), "watermarks must have equal length");
        self.bits.iter().zip(other.bits.iter()).filter(|(a, b)| a != b).count()
    }

    /// Fraction of differing bits — the y-axis of the paper's Figures
    /// 4–7 ("mark alteration (%)" / "mark loss (%)").
    #[must_use]
    pub fn alteration_fraction(&self, other: &Watermark) -> f64 {
        self.hamming_distance(other) as f64 / self.len() as f64
    }
}

impl std::fmt::Display for Watermark {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        for &b in &self.bits {
            f.write_str(if b { "1" } else { "0" })?;
        }
        Ok(())
    }
}

/// Why [`Watermark::parse`] refused a mark.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MarkError {
    /// The text is neither a bit string nor `0x` hex.
    Syntax,
    /// A bit string of `bits` bits for a spec declaring `wm_len`.
    Length {
        /// Bits in the text.
        bits: usize,
        /// Bits the spec declares.
        wm_len: usize,
    },
    /// `0x` hex whose value needs more than `wm_len` bits.
    TooWide {
        /// Bits the spec declares.
        wm_len: usize,
    },
    /// A watermark length no spec may declare.
    WmLen(usize),
}

impl std::fmt::Display for MarkError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            MarkError::Syntax => f.write_str("neither a bit string nor 0x hex"),
            MarkError::Length { bits, wm_len } => {
                write!(f, "{bits} bits, but the key declares wm_len {wm_len}")
            }
            MarkError::TooWide { wm_len } => write!(f, "does not fit in wm_len {wm_len} bits"),
            MarkError::WmLen(wm_len) => write!(f, "wm_len {wm_len} is outside 1..={MAX_WM_LEN}"),
        }
    }
}

impl std::error::Error for MarkError {}

/// Everything embedding and blind detection share: the two secret
/// keys, the algorithm, the fitness modulus `e`, the watermark and
/// `wm_data` lengths, the categorical value domain, and the decoder's
/// erasure policy.
///
/// This is precisely the paper's detection input ("the potentially
/// watermarked data, the secret keys k1, k2 and e") plus the two
/// pieces of bookkeeping the pseudo-code leaves implicit: the value
/// domain `{a_1 … a_nA}` (needed to map values to indices `t`) and the
/// fixed `wm_data` length (needed because `N` shifts under data loss;
/// see DESIGN.md deviation 2).
#[derive(Debug, Clone)]
pub struct WatermarkSpec {
    /// Hash algorithm instantiating `crypto_hash()`.
    pub algo: HashAlgorithm,
    /// Fit-selection / value-selection key.
    pub k1: SecretKey,
    /// Watermark-bit position selection key (`k2 != k1`).
    pub k2: SecretKey,
    /// Fitness modulus: roughly one in `e` tuples is watermarked.
    pub e: u64,
    /// Watermark length `|wm|`.
    pub wm_len: usize,
    /// Expanded length `|wm_data|`, fixed at embed time (≈ N/e).
    pub wm_data_len: usize,
    /// The categorical attribute's value domain.
    pub domain: CategoricalDomain,
    /// How the decoder treats `wm_data` positions with no votes.
    pub erasure: ErasurePolicy,
}

impl WatermarkSpec {
    /// Start building a spec for an attribute with value domain
    /// `domain`.
    #[must_use]
    pub fn builder(domain: CategoricalDomain) -> WatermarkSpecBuilder {
        WatermarkSpecBuilder {
            algo: HashAlgorithm::default(),
            keys: None,
            e: 60,
            wm_len: 10,
            wm_data_len: None,
            expected_tuples: None,
            domain,
            erasure: ErasurePolicy::default(),
        }
    }

    /// Keyed hash `H(·, k1)` for fitness and value selection.
    #[must_use]
    pub fn keyed1(&self) -> KeyedHash {
        KeyedHash::new(self.algo, self.k1.clone())
    }

    /// Keyed hash `H(·, k2)` for `wm_data` position selection.
    #[must_use]
    pub fn keyed2(&self) -> KeyedHash {
        KeyedHash::new(self.algo, self.k2.clone())
    }

    /// Redundancy factor: expected number of `wm_data` positions per
    /// watermark bit.
    #[must_use]
    pub fn redundancy(&self) -> f64 {
        self.wm_data_len as f64 / self.wm_len as f64
    }

    /// A copy of this spec re-keyed with subkeys derived for `label`.
    ///
    /// Multi-attribute embedding (Section 3.3) marks several attribute
    /// pairs; deriving per-pair keys from the master pair keeps the
    /// encodings statistically independent while the detector can
    /// re-derive everything from the master secret.
    #[must_use]
    pub fn derived(&self, label: &str) -> WatermarkSpec {
        let mut spec = self.clone();
        spec.k1 = self.k1.derive(self.algo, &format!("k1:{label}"));
        spec.k2 = self.k2.derive(self.algo, &format!("k2:{label}"));
        spec
    }
}

/// Builder for [`WatermarkSpec`].
#[derive(Debug)]
pub struct WatermarkSpecBuilder {
    algo: HashAlgorithm,
    keys: Option<(SecretKey, SecretKey)>,
    e: u64,
    wm_len: usize,
    wm_data_len: Option<usize>,
    expected_tuples: Option<usize>,
    domain: CategoricalDomain,
    erasure: ErasurePolicy,
}

impl WatermarkSpecBuilder {
    /// Select the hash algorithm (default SHA-256).
    #[must_use]
    pub fn algorithm(mut self, algo: HashAlgorithm) -> Self {
        self.algo = algo;
        self
    }

    /// Derive `k1` and `k2` from a single master secret via
    /// domain-separated subkeys.
    #[must_use]
    pub fn master_key(mut self, master: impl Into<SecretKey>) -> Self {
        let master = master.into();
        let k1 = master.derive(self.algo, "catmark:k1");
        let k2 = master.derive(self.algo, "catmark:k2");
        self.keys = Some((k1, k2));
        self
    }

    /// Provide `k1` and `k2` explicitly.
    #[must_use]
    pub fn keys(mut self, k1: impl Into<SecretKey>, k2: impl Into<SecretKey>) -> Self {
        self.keys = Some((k1.into(), k2.into()));
        self
    }

    /// Fitness modulus `e` (default 60, the paper's running example).
    /// Smaller `e` ⇒ more altered tuples ⇒ more resilience (Figure 5).
    #[must_use]
    pub fn e(mut self, e: u64) -> Self {
        self.e = e;
        self
    }

    /// Watermark bit length (default 10, the paper's experiments).
    #[must_use]
    pub fn wm_len(mut self, wm_len: usize) -> Self {
        self.wm_len = wm_len;
        self
    }

    /// Fix `|wm_data|` explicitly.
    #[must_use]
    pub fn wm_data_len(mut self, len: usize) -> Self {
        self.wm_data_len = Some(len);
        self
    }

    /// Derive `|wm_data| = max(N/e, |wm|)` from the relation size `N`
    /// at embed time (the paper's sizing).
    #[must_use]
    pub fn expected_tuples(mut self, n: usize) -> Self {
        self.expected_tuples = Some(n);
        self
    }

    /// Decoder erasure policy (default [`ErasurePolicy::RandomFill`]).
    #[must_use]
    pub fn erasure(mut self, policy: ErasurePolicy) -> Self {
        self.erasure = policy;
        self
    }

    /// Validate and build.
    ///
    /// # Errors
    ///
    /// [`CoreError::InvalidSpec`] on missing keys, `e = 0`, equal
    /// keys, or zero-length watermark; [`CoreError::EvidenceLimit`]
    /// when `|wm|` exceeds 4096 bits or `|wm_data|` exceeds 2^24
    /// positions, which no evidence bundle could carry;
    /// [`CoreError::InsufficientBandwidth`] when `|wm| > |wm_data|`.
    pub fn build(self) -> Result<WatermarkSpec, CoreError> {
        let (k1, k2) = self.keys.ok_or_else(|| {
            CoreError::InvalidSpec("no keys provided (use master_key or keys)".into())
        })?;
        if k1 == k2 {
            // The paper requires k2 != k1: reusing the key would
            // correlate tuple selection with bit-position selection.
            return Err(CoreError::InvalidSpec("k1 and k2 must differ".into()));
        }
        if self.e == 0 {
            return Err(CoreError::InvalidSpec("e must be positive".into()));
        }
        if self.wm_len == 0 {
            return Err(CoreError::InvalidSpec("watermark length must be positive".into()));
        }
        let wm_data_len = match (self.wm_data_len, self.expected_tuples) {
            (Some(len), _) => len,
            (None, Some(n)) => ((n as u64 / self.e) as usize).max(self.wm_len),
            (None, None) => {
                return Err(CoreError::InvalidSpec(
                    "provide wm_data_len or expected_tuples to size wm_data".into(),
                ))
            }
        };
        for (field, len, limit) in [
            ("watermark length", self.wm_len, MAX_WM_LEN),
            ("wm_data length", wm_data_len, MAX_WM_DATA),
        ] {
            if len > limit {
                return Err(CoreError::EvidenceLimit { field, len, limit });
            }
        }
        if wm_data_len < self.wm_len {
            return Err(CoreError::InsufficientBandwidth {
                wm_len: self.wm_len,
                capacity: wm_data_len,
            });
        }
        Ok(WatermarkSpec {
            algo: self.algo,
            k1,
            k2,
            e: self.e,
            wm_len: self.wm_len,
            wm_data_len,
            domain: self.domain,
            erasure: self.erasure,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use catmark_relation::Value;

    fn domain() -> CategoricalDomain {
        CategoricalDomain::new((0..10).map(Value::Int).collect()).unwrap()
    }

    #[test]
    fn watermark_from_u64_bit_order() {
        let wm = Watermark::from_u64(0b101, 3);
        assert_eq!(wm.bits(), &[true, false, true]);
        assert_eq!(wm.to_string(), "101");
    }

    #[test]
    fn watermark_from_u64_pads_leading_zeros() {
        let wm = Watermark::from_u64(1, 5);
        assert_eq!(wm.to_string(), "00001");
    }

    #[test]
    fn mark_parsing() {
        let parse = Watermark::parse;
        assert_eq!(parse("1011", 4).unwrap(), Watermark::from_u64(0b1011, 4));
        assert_eq!(parse("0x2A", 8).unwrap(), Watermark::from_u64(0x2A, 8));
        assert_eq!(parse("0x0", 3).unwrap(), Watermark::from_u64(0, 3));
        assert_eq!(parse("10", 4), Err(MarkError::Length { bits: 2, wm_len: 4 }));
        assert_eq!(parse("0xFFF", 4), Err(MarkError::TooWide { wm_len: 4 }));
        for garbage in ["abc", "", "0x", "0x-1", "0x+2A", "10 1"] {
            assert_eq!(parse(garbage, 4), Err(MarkError::Syntax), "{garbage:?}");
        }
        assert_eq!(parse("1", 0), Err(MarkError::WmLen(0)));
        assert_eq!(parse("0x1", 4097), Err(MarkError::WmLen(4097)));
        assert!(parse("10", 4).unwrap_err().to_string().contains("wm_len 4"));
    }

    #[test]
    fn marks_longer_than_64_bits_parse_as_bits_and_as_hex() {
        let bits: String = (0..100).map(|i| if i % 3 == 0 { '1' } else { '0' }).collect();
        let from_bits = Watermark::parse(&bits, 100).unwrap();
        assert_eq!(from_bits.to_string(), bits);
        // The same 100 bits as 25 hex digits.
        let hex: String = bits
            .as_bytes()
            .chunks(4)
            .map(|nibble| {
                let d = nibble.iter().fold(0, |acc, &b| acc * 2 + u32::from(b - b'0'));
                char::from_digit(d, 16).unwrap()
            })
            .collect();
        assert_eq!(Watermark::parse(&format!("0x{hex}"), 100).unwrap(), from_bits);
        // Hex is zero-extended on the left; a 101st bit does not fit.
        assert_eq!(Watermark::parse("0x1", 4096).unwrap().bits().iter().filter(|&&b| b).count(), 1);
        let wide = format!("0x2{}", "0".repeat(25));
        assert_eq!(Watermark::parse(&wide, 100), Err(MarkError::TooWide { wm_len: 100 }));
    }

    #[test]
    fn builder_refuses_specs_no_evidence_bundle_could_carry() {
        let build = |wm_len: usize, wm_data_len: usize| {
            WatermarkSpec::builder(domain())
                .master_key("s")
                .wm_len(wm_len)
                .wm_data_len(wm_data_len)
                .build()
        };
        assert!(build(4096, 1 << 24).is_ok());
        assert_eq!(
            build(4097, 1 << 24).unwrap_err(),
            CoreError::EvidenceLimit { field: "watermark length", len: 4097, limit: 4096 }
        );
        assert_eq!(
            build(10, (1 << 24) + 1).unwrap_err(),
            CoreError::EvidenceLimit {
                field: "wm_data length",
                len: (1 << 24) + 1,
                limit: 1 << 24
            }
        );
    }

    #[test]
    fn hamming_and_alteration() {
        let a = Watermark::from_u64(0b1010, 4);
        let b = Watermark::from_u64(0b1001, 4);
        assert_eq!(a.hamming_distance(&b), 2);
        assert!((a.alteration_fraction(&b) - 0.5).abs() < 1e-12);
        assert_eq!(a.hamming_distance(&a), 0);
    }

    #[test]
    #[should_panic(expected = "equal length")]
    fn hamming_requires_equal_lengths() {
        let _ = Watermark::from_u64(1, 3).hamming_distance(&Watermark::from_u64(1, 4));
    }

    #[test]
    fn identity_watermarks_are_key_dependent() {
        let id = "© 2004 DataCorp";
        let a = Watermark::from_identity(id, &SecretKey::from_u64(1), 16);
        let b = Watermark::from_identity(id, &SecretKey::from_u64(2), 16);
        assert_ne!(a, b);
        assert_eq!(a, Watermark::from_identity(id, &SecretKey::from_u64(1), 16));
    }

    #[test]
    fn identity_watermarks_extend_past_64_bits() {
        let (id, key) = ("buyer-7", SecretKey::from_u64(9));
        let h = KeyedHash::new(HashAlgorithm::Sha256, key.clone());
        let first = h.hash_u64(&[b"identity", id.as_bytes()]);
        // Up to 64 bits the mark is the low bits of one hash, as before.
        for len in [1, 10, 64] {
            assert_eq!(Watermark::from_identity(id, &key, len), Watermark::from_u64(first, len));
        }
        // Longer marks keep all 64 and continue from the next block.
        let long = Watermark::from_identity(id, &key, 4096);
        assert_eq!(long.len(), 4096);
        assert_eq!(&long.bits()[..64], Watermark::from_u64(first, 64).bits());
        let second = h.hash_u64(&[b"identity", id.as_bytes(), &1u64.to_be_bytes()]);
        assert_eq!(&long.bits()[64..128], Watermark::from_u64(second, 64).bits());
        let mut expected = Watermark::from_u64(first, 64).bits().to_vec();
        expected.extend_from_slice(Watermark::from_u64(second, 36).bits());
        assert_eq!(Watermark::from_identity(id, &key, 100).bits(), expected);
    }

    #[test]
    fn builder_defaults_match_paper() {
        let spec = WatermarkSpec::builder(domain())
            .master_key("secret")
            .expected_tuples(6000)
            .build()
            .unwrap();
        assert_eq!(spec.e, 60);
        assert_eq!(spec.wm_len, 10);
        // N/e = 6000/60 = 100, the paper's |wm_data| example.
        assert_eq!(spec.wm_data_len, 100);
        assert!((spec.redundancy() - 10.0).abs() < 1e-12);
    }

    #[test]
    fn builder_requires_keys() {
        let err = WatermarkSpec::builder(domain()).expected_tuples(100).build();
        assert!(matches!(err, Err(CoreError::InvalidSpec(_))));
    }

    #[test]
    fn builder_rejects_equal_keys() {
        let err = WatermarkSpec::builder(domain())
            .keys(SecretKey::from_u64(5), SecretKey::from_u64(5))
            .expected_tuples(100)
            .build();
        assert!(matches!(err, Err(CoreError::InvalidSpec(_))));
    }

    #[test]
    fn builder_rejects_zero_e() {
        let err =
            WatermarkSpec::builder(domain()).master_key("s").e(0).expected_tuples(100).build();
        assert!(matches!(err, Err(CoreError::InvalidSpec(_))));
    }

    #[test]
    fn builder_enforces_bandwidth() {
        let err =
            WatermarkSpec::builder(domain()).master_key("s").wm_len(64).wm_data_len(10).build();
        assert!(matches!(err, Err(CoreError::InsufficientBandwidth { .. })));
    }

    #[test]
    fn expected_tuples_never_sizes_below_wm_len() {
        // 100 tuples at e=60 → N/e = 1, clamped up to |wm| = 10.
        let spec =
            WatermarkSpec::builder(domain()).master_key("s").expected_tuples(100).build().unwrap();
        assert_eq!(spec.wm_data_len, 10);
    }

    #[test]
    fn derived_specs_have_fresh_keys() {
        let spec =
            WatermarkSpec::builder(domain()).master_key("s").expected_tuples(6000).build().unwrap();
        let d = spec.derived("pair:item:city");
        assert_ne!(d.k1, spec.k1);
        assert_ne!(d.k2, spec.k2);
        assert_eq!(d.e, spec.e);
        // Deterministic re-derivation.
        assert_eq!(spec.derived("pair:item:city").k1, d.k1);
    }
}
