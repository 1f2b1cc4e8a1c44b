//! Typed attribute values.
//!
//! The paper's model needs values that are (i) hashable into the keyed
//! one-way hash (so they need a canonical byte encoding), (ii) sortable
//! ("these are distinct and can be sorted (e.g. by ASCII value)"), and
//! (iii) comparable for primary-key indexing. Two concrete types cover
//! the paper's examples (integer product codes, string city/airline
//! names).

use std::cmp::Ordering;

use catmark_crypto::CanonicalInput;

/// A single attribute value.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum Value {
    /// 64-bit signed integer (e.g. `Item_Nbr`, `Visit_Nbr`).
    Int(i64),
    /// UTF-8 text (e.g. city names, airline codes).
    Text(String),
}

impl Value {
    /// Short name of the value's type, for error messages.
    #[must_use]
    pub const fn type_name(&self) -> &'static str {
        match self {
            Value::Int(_) => "integer",
            Value::Text(_) => "text",
        }
    }

    /// Canonical byte encoding used as hash input, materialized.
    ///
    /// The encoding is injective across both variants: a one-byte type
    /// tag followed by the payload (big-endian for integers). This is
    /// the `T_j(K)` byte string fed to `H(·, k)`.
    ///
    /// Hot paths should prefer the allocation-free streaming form —
    /// `Value` implements [`CanonicalInput`], so
    /// `KeyedHash::hash_canonical_u64(value)` hashes the same bytes
    /// without building this `Vec`.
    #[must_use]
    pub fn canonical_bytes(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(self.canonical_len());
        self.write_canonical(&mut out).expect("Vec writers are infallible");
        out
    }

    /// The integer payload, if this is an [`Value::Int`].
    #[must_use]
    pub fn as_int(&self) -> Option<i64> {
        match self {
            Value::Int(v) => Some(*v),
            Value::Text(_) => None,
        }
    }

    /// The text payload, if this is a [`Value::Text`].
    #[must_use]
    pub fn as_text(&self) -> Option<&str> {
        match self {
            Value::Text(s) => Some(s),
            Value::Int(_) => None,
        }
    }
}

/// Streaming form of [`Value::canonical_bytes`]: one type-tag byte
/// then the payload, written piecewise so keyed hashing over tuple
/// keys never allocates.
impl CanonicalInput for Value {
    fn canonical_len(&self) -> usize {
        match self {
            Value::Int(_) => 1 + std::mem::size_of::<i64>(),
            Value::Text(s) => 1 + s.len(),
        }
    }

    fn write_canonical<W: std::io::Write + ?Sized>(&self, out: &mut W) -> std::io::Result<()> {
        match self {
            Value::Int(v) => {
                let mut buf = [0u8; 9];
                buf[0] = 0x01;
                buf[1..].copy_from_slice(&v.to_be_bytes());
                out.write_all(&buf)
            }
            Value::Text(s) => {
                out.write_all(&[0x02])?;
                out.write_all(s.as_bytes())
            }
        }
    }
}

/// Borrowed canonical view of an integer value: hashes exactly like
/// `Value::Int(v)` without constructing the enum. The columnar scan
/// path encodes each `i64` of a key column through this wrapper.
#[derive(Debug, Clone, Copy)]
pub struct CanonicalInt(pub i64);

impl CanonicalInput for CanonicalInt {
    fn canonical_len(&self) -> usize {
        1 + std::mem::size_of::<i64>()
    }

    fn write_canonical<W: std::io::Write + ?Sized>(&self, out: &mut W) -> std::io::Result<()> {
        out.write_all(&self.encode())
    }
}

impl CanonicalInt {
    /// The full canonical encoding on the stack (type tag + big-endian
    /// payload) — the slice fed to fixed-length keyed hashing.
    #[must_use]
    pub fn encode(&self) -> [u8; 9] {
        let mut buf = [0u8; 9];
        buf[0] = 0x01;
        buf[1..].copy_from_slice(&self.0.to_be_bytes());
        buf
    }
}

/// Borrowed canonical view of a text value: hashes exactly like
/// `Value::Text(s.to_owned())` without the allocation. The columnar
/// scan path encodes each *distinct* dictionary entry through this
/// wrapper once per plan.
#[derive(Debug, Clone, Copy)]
pub struct CanonicalText<'a>(pub &'a str);

impl CanonicalInput for CanonicalText<'_> {
    fn canonical_len(&self) -> usize {
        1 + self.0.len()
    }

    fn write_canonical<W: std::io::Write + ?Sized>(&self, out: &mut W) -> std::io::Result<()> {
        out.write_all(&[0x02])?;
        out.write_all(self.0.as_bytes())
    }
}

impl PartialOrd for Value {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Value {
    /// Total order: integers sort before text; within a variant the
    /// natural order applies. This gives categorical domains the stable
    /// "sortable (e.g. by ASCII value)" ordering the paper requires.
    fn cmp(&self, other: &Self) -> Ordering {
        match (self, other) {
            (Value::Int(a), Value::Int(b)) => a.cmp(b),
            (Value::Text(a), Value::Text(b)) => a.cmp(b),
            (Value::Int(_), Value::Text(_)) => Ordering::Less,
            (Value::Text(_), Value::Int(_)) => Ordering::Greater,
        }
    }
}

impl std::fmt::Display for Value {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Value::Int(v) => write!(f, "{v}"),
            Value::Text(s) => f.write_str(s),
        }
    }
}

impl From<i64> for Value {
    fn from(v: i64) -> Self {
        Value::Int(v)
    }
}

impl From<i32> for Value {
    fn from(v: i32) -> Self {
        Value::Int(i64::from(v))
    }
}

impl From<&str> for Value {
    fn from(s: &str) -> Self {
        Value::Text(s.to_owned())
    }
}

impl From<String> for Value {
    fn from(s: String) -> Self {
        Value::Text(s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn streaming_encoding_matches_materialized() {
        for v in [Value::Int(0), Value::Int(-7), Value::Int(i64::MAX), Value::Text("Äx".into())] {
            let mut streamed = Vec::new();
            v.write_canonical(&mut streamed).unwrap();
            assert_eq!(streamed, v.canonical_bytes());
            assert_eq!(streamed.len(), v.canonical_len());
        }
    }

    #[test]
    fn zero_alloc_hash_agrees_with_materialized_hash() {
        let h = catmark_crypto::KeyedHash::new(
            catmark_crypto::HashAlgorithm::Sha256,
            catmark_crypto::SecretKey::from_u64(5),
        );
        for v in [Value::Int(123), Value::Text("san jose".into())] {
            assert_eq!(h.hash_canonical_u64(&v), h.hash_u64(&[&v.canonical_bytes()]));
        }
    }

    #[test]
    fn canonical_wrappers_match_owned_values() {
        for v in [0i64, -7, 42, i64::MAX, i64::MIN] {
            let mut streamed = Vec::new();
            CanonicalInt(v).write_canonical(&mut streamed).unwrap();
            assert_eq!(streamed, Value::Int(v).canonical_bytes());
            assert_eq!(streamed, CanonicalInt(v).encode());
        }
        for s in ["", "x", "san jose", "Äx"] {
            let mut streamed = Vec::new();
            CanonicalText(s).write_canonical(&mut streamed).unwrap();
            assert_eq!(streamed, Value::Text(s.into()).canonical_bytes());
            assert_eq!(streamed.len(), CanonicalText(s).canonical_len());
        }
    }

    #[test]
    fn canonical_bytes_are_injective_across_variants() {
        // Int(0x41) must not collide with Text("A") etc.
        let int = Value::Int(0x41).canonical_bytes();
        let text = Value::Text("A".into()).canonical_bytes();
        assert_ne!(int, text);
    }

    #[test]
    fn canonical_bytes_distinguish_integers() {
        assert_ne!(Value::Int(1).canonical_bytes(), Value::Int(256).canonical_bytes());
        assert_ne!(Value::Int(-1).canonical_bytes(), Value::Int(1).canonical_bytes());
    }

    #[test]
    fn ordering_is_total_and_stable() {
        let mut values =
            vec![Value::Text("b".into()), Value::Int(10), Value::Text("a".into()), Value::Int(-5)];
        values.sort();
        assert_eq!(
            values,
            vec![Value::Int(-5), Value::Int(10), Value::Text("a".into()), Value::Text("b".into()),]
        );
    }

    #[test]
    fn accessors() {
        assert_eq!(Value::Int(3).as_int(), Some(3));
        assert_eq!(Value::Int(3).as_text(), None);
        assert_eq!(Value::Text("x".into()).as_text(), Some("x"));
        assert_eq!(Value::Text("x".into()).as_int(), None);
    }

    #[test]
    fn conversions() {
        assert_eq!(Value::from(5i64), Value::Int(5));
        assert_eq!(Value::from(5i32), Value::Int(5));
        assert_eq!(Value::from("hi"), Value::Text("hi".into()));
        assert_eq!(Value::from(String::from("hi")), Value::Text("hi".into()));
    }
}
