//! Columnar, dictionary-encoded attribute storage.
//!
//! The watermarking hot paths are per-tuple scans over one or two
//! attributes — exactly the access pattern a row store is worst at.
//! Each attribute is therefore stored as a typed [`Column`]: integer
//! attributes as a flat `Vec<i64>`, text attributes as `Vec<u32>`
//! codes into a per-column interned [`Dictionary`]. Scans become flat
//! slice walks, clones become a handful of `memcpy`s, and keyed
//! hashing of a text column can be memoized per *distinct* value.
//!
//! # Hashing invariant
//!
//! Codes are storage, not semantics: the canonical byte encoding fed
//! to `H(T_j(K), k)` is always derived from the *logical* value (the
//! dictionary entry for text, the `i64` for integers) exactly as
//! [`crate::Value::canonical_bytes`] defines it. Two relations with
//! equal logical content hash identically regardless of how their
//! dictionaries happen to be laid out.

use std::collections::HashMap;
use std::sync::Arc;

use crate::{AttrType, Value};

/// Interned set of distinct strings backing one text column.
///
/// Codes are dense (`0..len`), assigned in first-interned order, and
/// never invalidated: entries are append-only, so a code handed out
/// once stays valid for the column's lifetime. A dictionary may hold
/// entries no longer referenced by any row (after in-place updates);
/// logical operations always consult the codes, never the dictionary
/// alone.
#[derive(Debug, Clone, Default)]
pub struct Dictionary {
    /// Entries in code order; the index below shares these
    /// allocations (`Arc<str>`), so each distinct string is stored
    /// once.
    entries: Vec<Arc<str>>,
    index: HashMap<Arc<str>, u32>,
}

impl Dictionary {
    /// Empty dictionary.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of interned entries.
    #[must_use]
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether no entry has been interned.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// The string behind `code`.
    ///
    /// # Panics
    ///
    /// Panics when `code` was never issued by this dictionary.
    #[must_use]
    pub fn get(&self, code: u32) -> &str {
        &self.entries[code as usize]
    }

    /// The code of `s`, if already interned.
    #[must_use]
    pub fn code_of(&self, s: &str) -> Option<u32> {
        self.index.get(s).copied()
    }

    /// Intern `s`, returning its (possibly fresh) code.
    pub fn intern(&mut self, s: &str) -> u32 {
        if let Some(&code) = self.index.get(s) {
            return code;
        }
        let code = u32::try_from(self.entries.len()).expect("dictionaries hold < 2^32 entries");
        let entry: Arc<str> = Arc::from(s);
        self.entries.push(Arc::clone(&entry));
        self.index.insert(entry, code);
        code
    }

    /// All entries in code order.
    #[must_use]
    pub fn entries(&self) -> &[Arc<str>] {
        &self.entries
    }

    /// Approximate heap footprint: string bytes plus each `Arc`
    /// allocation's refcount header (entries and index share the
    /// allocation, so it is counted once), the entries vector's
    /// fat-pointer slots, and the index's `(Arc, code)` entries with
    /// ~1 byte of hash metadata per slot.
    pub(crate) fn resident_bytes(&self) -> usize {
        const ARC_HEADER: usize = 2 * std::mem::size_of::<usize>();
        let strings: usize = self.entries.iter().map(|s| s.len() + ARC_HEADER).sum();
        let index_entry = std::mem::size_of::<Arc<str>>() + std::mem::size_of::<u32>() + 1;
        strings
            + self.entries.capacity() * std::mem::size_of::<Arc<str>>()
            + self.index.capacity() * index_entry
    }
}

/// One attribute's storage: a typed vector of values.
#[derive(Debug, Clone)]
pub enum Column {
    /// Integer attribute: flat values.
    Int(Vec<i64>),
    /// Text attribute: per-row dictionary codes plus the dictionary.
    Text {
        /// Dictionary code of each row's value.
        codes: Vec<u32>,
        /// The interned distinct values.
        dict: Dictionary,
    },
}

impl Column {
    /// Empty column for an attribute of type `ty`.
    #[must_use]
    pub fn new(ty: AttrType) -> Column {
        Column::with_capacity(ty, 0)
    }

    /// Empty column with pre-allocated row capacity.
    #[must_use]
    pub fn with_capacity(ty: AttrType, capacity: usize) -> Column {
        match ty {
            AttrType::Integer => Column::Int(Vec::with_capacity(capacity)),
            AttrType::Text => {
                Column::Text { codes: Vec::with_capacity(capacity), dict: Dictionary::new() }
            }
        }
    }

    /// Number of rows.
    #[must_use]
    pub fn len(&self) -> usize {
        match self {
            Column::Int(xs) => xs.len(),
            Column::Text { codes, .. } => codes.len(),
        }
    }

    /// Whether the column has no rows.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The column's attribute type.
    #[must_use]
    pub fn ty(&self) -> AttrType {
        match self {
            Column::Int(_) => AttrType::Integer,
            Column::Text { .. } => AttrType::Text,
        }
    }

    /// Borrowed typed view.
    #[must_use]
    pub fn view(&self) -> ColumnView<'_> {
        match self {
            Column::Int(xs) => ColumnView::Int(xs),
            Column::Text { codes, dict } => ColumnView::Text { codes, dict },
        }
    }

    /// Append one value. The caller (the relation) has already
    /// type-checked against the schema.
    pub(crate) fn push_value(&mut self, value: &Value) {
        match (self, value) {
            (Column::Int(xs), Value::Int(v)) => xs.push(*v),
            (Column::Text { codes, dict }, Value::Text(s)) => {
                let code = dict.intern(s);
                codes.push(code);
            }
            _ => unreachable!("schema check admits only matching types"),
        }
    }

    /// Materialize the value at `row`.
    pub(crate) fn value(&self, row: usize) -> Value {
        match self {
            Column::Int(xs) => Value::Int(xs[row]),
            Column::Text { codes, dict } => Value::Text(dict.get(codes[row]).to_owned()),
        }
    }

    /// Replace the value at `row`, returning the old value. Types were
    /// checked by the caller.
    pub(crate) fn set_value(&mut self, row: usize, value: Value) -> Value {
        match (self, value) {
            (Column::Int(xs), Value::Int(v)) => Value::Int(std::mem::replace(&mut xs[row], v)),
            (Column::Text { codes, dict }, Value::Text(s)) => {
                let code = dict.intern(&s);
                let old = std::mem::replace(&mut codes[row], code);
                Value::Text(dict.get(old).to_owned())
            }
            _ => unreachable!("schema check admits only matching types"),
        }
    }

    /// New column holding `rows` (by index, in order). Shares the
    /// dictionary contents (cloned wholesale — codes stay valid).
    #[must_use]
    pub(crate) fn gather(&self, rows: &[usize]) -> Column {
        match self {
            Column::Int(xs) => Column::Int(rows.iter().map(|&r| xs[r]).collect()),
            Column::Text { codes, dict } => {
                Column::Text { codes: rows.iter().map(|&r| codes[r]).collect(), dict: dict.clone() }
            }
        }
    }

    /// Append all of `other`'s rows (same attribute type), remapping
    /// text codes through this column's dictionary.
    pub(crate) fn append(&mut self, other: &Column) {
        match (self, other) {
            (Column::Int(xs), Column::Int(ys)) => xs.extend_from_slice(ys),
            (Column::Text { codes, dict }, Column::Text { codes: ocodes, dict: odict }) => {
                let remap: Vec<u32> = odict.entries().iter().map(|s| dict.intern(s)).collect();
                codes.extend(ocodes.iter().map(|&c| remap[c as usize]));
            }
            _ => unreachable!("schemas were checked equal before appending"),
        }
    }

    /// Approximate heap footprint in bytes.
    #[must_use]
    pub(crate) fn resident_bytes(&self) -> usize {
        match self {
            Column::Int(xs) => xs.capacity() * std::mem::size_of::<i64>(),
            Column::Text { codes, dict } => {
                codes.capacity() * std::mem::size_of::<u32>() + dict.resident_bytes()
            }
        }
    }
}

/// Borrowed, typed view of one column — the zero-copy replacement for
/// the historical `Relation::column(&self) -> Vec<&Value>`.
#[derive(Debug, Clone, Copy)]
pub enum ColumnView<'a> {
    /// Integer attribute: the raw values.
    Int(&'a [i64]),
    /// Text attribute: per-row codes plus the dictionary resolving
    /// them.
    Text {
        /// Dictionary code of each row's value.
        codes: &'a [u32],
        /// The interned distinct values.
        dict: &'a Dictionary,
    },
}

impl<'a> ColumnView<'a> {
    /// Number of rows.
    #[must_use]
    pub fn len(&self) -> usize {
        match self {
            ColumnView::Int(xs) => xs.len(),
            ColumnView::Text { codes, .. } => codes.len(),
        }
    }

    /// Whether the view has no rows.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Materialize the value at `row`.
    ///
    /// # Panics
    ///
    /// Panics when `row` is out of bounds.
    #[must_use]
    pub fn value(&self, row: usize) -> Value {
        match self {
            ColumnView::Int(xs) => Value::Int(xs[row]),
            ColumnView::Text { codes, dict } => Value::Text(dict.get(codes[row]).to_owned()),
        }
    }

    /// Materializing iterator over the rows in order.
    pub fn iter(&self) -> impl Iterator<Item = Value> + 'a {
        let view = *self;
        (0..view.len()).map(move |row| view.value(row))
    }

    /// The raw integer slice, when this is an integer column.
    #[must_use]
    pub fn as_int(&self) -> Option<&'a [i64]> {
        match self {
            ColumnView::Int(xs) => Some(xs),
            ColumnView::Text { .. } => None,
        }
    }

    /// The codes and dictionary, when this is a text column.
    #[must_use]
    pub fn as_text(&self) -> Option<(&'a [u32], &'a Dictionary)> {
        match self {
            ColumnView::Int(_) => None,
            ColumnView::Text { codes, dict } => Some((codes, dict)),
        }
    }

    /// Deep-copy into an owned [`Column`] — the bulk column-carry
    /// primitive behind projections and single-column rewrites.
    #[must_use]
    pub fn to_column(&self) -> Column {
        match self {
            ColumnView::Int(xs) => Column::Int(xs.to_vec()),
            ColumnView::Text { codes, dict } => {
                Column::Text { codes: codes.to_vec(), dict: (*dict).clone() }
            }
        }
    }
}

/// Logical equality: same type, same row values (text compared by
/// string, independent of dictionary layout).
impl PartialEq for ColumnView<'_> {
    fn eq(&self, other: &Self) -> bool {
        match (self, other) {
            (ColumnView::Int(a), ColumnView::Int(b)) => a == b,
            (
                ColumnView::Text { codes: ac, dict: ad },
                ColumnView::Text { codes: bc, dict: bd },
            ) => {
                ac.len() == bc.len()
                    && ac.iter().zip(bc.iter()).all(|(&x, &y)| ad.get(x) == bd.get(y))
            }
            _ => false,
        }
    }
}

/// Mutable typed access to a non-key column, for operators that
/// rewrite values in bulk (embedding, alteration attacks).
#[derive(Debug)]
pub enum ColumnMut<'a> {
    /// Integer attribute: the raw values, writable in place.
    Int(&'a mut [i64]),
    /// Text attribute: writable codes plus the (growable) dictionary.
    Text(TextColumnMut<'a>),
}

/// Mutable view of a text column: set per-row codes, intern new
/// values.
#[derive(Debug)]
pub struct TextColumnMut<'a> {
    pub(crate) codes: &'a mut [u32],
    pub(crate) dict: &'a mut Dictionary,
}

impl TextColumnMut<'_> {
    /// The dictionary resolving this column's codes.
    #[must_use]
    pub fn dict(&self) -> &Dictionary {
        self.dict
    }

    /// The per-row codes.
    #[must_use]
    pub fn codes(&self) -> &[u32] {
        self.codes
    }

    /// The code at `row`.
    #[must_use]
    pub fn code(&self, row: usize) -> u32 {
        self.codes[row]
    }

    /// Intern `s` into the column's dictionary.
    pub fn intern(&mut self, s: &str) -> u32 {
        self.dict.intern(s)
    }

    /// Point `row` at `code`.
    ///
    /// # Panics
    ///
    /// Panics when `code` was never issued by this column's dictionary.
    pub fn set(&mut self, row: usize, code: u32) {
        assert!((code as usize) < self.dict.len(), "code {code} not in dictionary");
        self.codes[row] = code;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dictionary_interns_once() {
        let mut d = Dictionary::new();
        let a = d.intern("boston");
        let b = d.intern("austin");
        assert_eq!(d.intern("boston"), a);
        assert_ne!(a, b);
        assert_eq!(d.len(), 2);
        assert_eq!(d.get(a), "boston");
        assert_eq!(d.code_of("austin"), Some(b));
        assert_eq!(d.code_of("paris"), None);
    }

    #[test]
    fn column_push_value_roundtrips() {
        let mut c = Column::new(AttrType::Text);
        for s in ["x", "y", "x"] {
            c.push_value(&Value::Text(s.into()));
        }
        assert_eq!(c.len(), 3);
        assert_eq!(c.value(0), Value::Text("x".into()));
        assert_eq!(c.value(2), Value::Text("x".into()));
        let (codes, _) = c.view().as_text().unwrap();
        assert_eq!(codes[0], codes[2]);
        assert_ne!(codes[0], codes[1]);
    }

    #[test]
    fn gather_selects_rows_in_order() {
        let mut c = Column::new(AttrType::Integer);
        for i in 0..5 {
            c.push_value(&Value::Int(i));
        }
        let g = c.gather(&[4, 0, 2]);
        assert_eq!(g.view().as_int().unwrap(), &[4, 0, 2]);
    }

    #[test]
    fn append_remaps_dictionary_codes() {
        let mut a = Column::new(AttrType::Text);
        a.push_value(&Value::Text("x".into()));
        let mut b = Column::new(AttrType::Text);
        b.push_value(&Value::Text("y".into()));
        b.push_value(&Value::Text("x".into()));
        a.append(&b);
        assert_eq!(a.len(), 3);
        assert_eq!(a.value(1), Value::Text("y".into()));
        assert_eq!(a.value(2), Value::Text("x".into()));
    }

    #[test]
    fn view_equality_is_logical_not_representational() {
        // Same logical content, different interning orders.
        let mut a = Column::new(AttrType::Text);
        let mut b = Column::new(AttrType::Text);
        for s in ["m", "n"] {
            a.push_value(&Value::Text(s.into()));
        }
        let mut pre = Column::new(AttrType::Text);
        pre.push_value(&Value::Text("n".into()));
        b.push_value(&Value::Text("m".into()));
        b.push_value(&Value::Text("n".into()));
        assert!(a.view() == b.view());
        assert!(a.view() != pre.view());
        let ints = Column::Int(vec![1, 2]);
        assert!(a.view() != ints.view());
    }
}
