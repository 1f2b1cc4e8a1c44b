//! The primary-key-indexed table at the center of the substrate —
//! columnar edition.
//!
//! # Storage model
//!
//! A [`Relation`] stores one typed [`Column`] per schema attribute:
//! integer attributes as flat `Vec<i64>`, text attributes as `Vec<u32>`
//! codes into a per-column interned [`crate::column::Dictionary`]. The
//! watermarking pipeline — plan builds, embeds, decodes, attacks — is
//! a family of per-tuple scans over one or two attributes, and the
//! columnar layout turns each of those scans into a flat slice walk
//! with no per-row pointer chasing and no per-string allocation.
//! `Relation::clone`, which the attack matrix calls per cell, copies a
//! handful of vectors instead of `N` heap tuples.
//!
//! # Hashing invariant
//!
//! Dictionary codes are *storage*, never *semantics*: every hash the
//! paper's algorithms compute (`H(T_j(K), k)`) is taken over the
//! logical value's canonical bytes exactly as
//! [`Value::canonical_bytes`] defines them — the dictionary entry for
//! text, the big-endian `i64` for integers, each behind its type tag.
//! Relations with equal logical content therefore hash identically no
//! matter how their dictionaries are laid out, and the columnar engine
//! is byte-identical to the historical row store (pinned by the golden
//! byte-identity tests). What the layout *adds* is memoization ground:
//! a keyed-hash pass over a text column hashes each **distinct** value
//! once per plan instead of once per row.
//!
//! # Reading a relation
//!
//! There is one way to read a relation: typed column views.
//! [`Relation::column`] borrows one attribute as flat slices,
//! [`Relation::column_iter`] and [`Relation::value`] materialize
//! [`Value`]s for cold paths, and [`Relation::gather`] /
//! [`Relation::append`] select and combine whole rows without
//! building them. Rows exist only on the way in
//! ([`Relation::push`], [`Relation::push_unchecked_key`]); no
//! accessor hands one back. Two relations compare equal when their
//! schemas and every column view agree, so dictionary layout never
//! matters to equality.
//!
//! The index supports the embedding algorithms' per-tuple key hashing
//! and the incremental-update path of Section 4.3. Duplicate primary
//! keys are rejected at insertion; attacked data can violate key
//! constraints, which [`Relation::push_unchecked_key`] admits (the
//! index keeps the first occurrence).

use std::collections::HashMap;
use std::sync::OnceLock;

use crate::column::{Column, ColumnMut, ColumnView, TextColumnMut};
use crate::{RelationError, Schema, Value};

/// An in-memory relation: a schema plus typed columns, with a hash
/// index on the primary key.
///
/// The key index is *derived data*, built lazily on the first keyed
/// lookup and dropped by [`Clone`]: cloning a relation is therefore a
/// handful of flat column copies (the attack matrix clones per cell),
/// and bulk constructors ([`Relation::gather`],
/// [`Relation::from_columns`]) never pay for an index their consumer
/// may not need.
#[derive(Debug)]
pub struct Relation {
    schema: Schema,
    columns: Vec<Column>,
    len: usize,
    /// Lazily built: primary key value → row position of its first
    /// occurrence.
    key_index: OnceLock<HashMap<Value, usize>>,
}

impl Clone for Relation {
    fn clone(&self) -> Self {
        // The index is derivable from the columns; dropping it keeps
        // clones at memcpy cost and it rebuilds on first keyed lookup.
        Relation {
            schema: self.schema.clone(),
            columns: self.columns.clone(),
            len: self.len,
            key_index: OnceLock::new(),
        }
    }
}

impl Relation {
    /// Empty relation over `schema`.
    #[must_use]
    pub fn new(schema: Schema) -> Self {
        Relation::with_capacity(schema, 0)
    }

    /// Empty relation with pre-allocated capacity.
    #[must_use]
    pub fn with_capacity(schema: Schema, capacity: usize) -> Self {
        let columns =
            schema.attrs().iter().map(|a| Column::with_capacity(a.ty, capacity)).collect();
        Relation { schema, columns, len: 0, key_index: OnceLock::new() }
    }

    /// The key index, built on first use (first occurrence wins).
    fn index(&self) -> &HashMap<Value, usize> {
        self.key_index.get_or_init(|| {
            let mut index = HashMap::with_capacity(self.len);
            let key_view = self.columns[self.schema.key_index()].view();
            match key_view {
                ColumnView::Int(xs) => {
                    for (row, &x) in xs.iter().enumerate() {
                        index.entry(Value::Int(x)).or_insert(row);
                    }
                }
                ColumnView::Text { codes, dict } => {
                    for (row, &c) in codes.iter().enumerate() {
                        index.entry(Value::Text(dict.get(c).to_owned())).or_insert(row);
                    }
                }
            }
            index
        })
    }

    /// Drop the derived index (after bulk row mutation); it rebuilds
    /// lazily.
    fn invalidate_index(&mut self) {
        self.key_index = OnceLock::new();
    }

    /// Relation assembled directly from columns — the zero-copy
    /// construction path for generators and bulk operators. Key
    /// semantics match [`Relation::push_unchecked_key`]: duplicate
    /// keys are admitted and the index keeps each key's first row.
    ///
    /// # Errors
    ///
    /// [`RelationError::InvalidSchema`] when the column count, a
    /// column's type, or the column lengths do not line up with
    /// `schema`.
    pub fn from_columns(schema: Schema, columns: Vec<Column>) -> Result<Self, RelationError> {
        if columns.len() != schema.arity() {
            return Err(RelationError::InvalidSchema(format!(
                "{} columns for a schema of arity {}",
                columns.len(),
                schema.arity()
            )));
        }
        for (attr, column) in schema.attrs().iter().zip(&columns) {
            if attr.ty != column.ty() {
                return Err(RelationError::InvalidSchema(format!(
                    "column for {:?} holds {} values, schema declares {}",
                    attr.name,
                    column.ty().name(),
                    attr.ty.name()
                )));
            }
        }
        let len = columns.first().map_or(0, Column::len);
        if columns.iter().any(|c| c.len() != len) {
            return Err(RelationError::InvalidSchema("columns differ in length".into()));
        }
        for (attr, column) in schema.attrs().iter().zip(&columns) {
            if let Column::Text { codes, dict } = column {
                if codes.iter().any(|&c| (c as usize) >= dict.len()) {
                    return Err(RelationError::InvalidSchema(format!(
                        "column for {:?} holds codes outside its dictionary",
                        attr.name
                    )));
                }
            }
        }
        Ok(Relation { schema, columns, len, key_index: OnceLock::new() })
    }

    /// The relation's schema.
    #[must_use]
    pub fn schema(&self) -> &Schema {
        &self.schema
    }

    /// Number of tuples (the paper's `N`).
    #[must_use]
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the relation is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Append a tuple, validating schema conformance and key uniqueness.
    ///
    /// # Errors
    ///
    /// Arity/type mismatches and [`RelationError::DuplicateKey`].
    pub fn push(&mut self, values: Vec<Value>) -> Result<usize, RelationError> {
        self.schema.check_tuple(&values)?;
        let key = &values[self.schema.key_index()];
        if self.index().contains_key(key) {
            return Err(RelationError::DuplicateKey(key.clone()));
        }
        Ok(self.push_columns(values))
    }

    /// Append a tuple validating types but tolerating duplicate keys.
    ///
    /// Attacked data may not satisfy the key constraint; the index
    /// keeps the *first* row for any duplicated key value.
    ///
    /// # Errors
    ///
    /// Arity/type mismatches only.
    pub fn push_unchecked_key(&mut self, values: Vec<Value>) -> Result<usize, RelationError> {
        self.schema.check_tuple(&values)?;
        Ok(self.push_columns(values))
    }

    /// Type-checked append: write each value into its column; when
    /// the lazy index is materialized, keep it consistent (first
    /// occurrence wins).
    fn push_columns(&mut self, values: Vec<Value>) -> usize {
        let row = self.len;
        if self.key_index.get().is_some() {
            let key = values[self.schema.key_index()].clone();
            if let Some(index) = self.key_index.get_mut() {
                index.entry(key).or_insert(row);
            }
        }
        for (column, value) in self.columns.iter_mut().zip(&values) {
            column.push_value(value);
        }
        self.len += 1;
        row
    }

    /// Materialize the value of attribute `attr_idx` at `row`.
    ///
    /// # Errors
    ///
    /// [`RelationError::RowOutOfBounds`].
    pub fn value(&self, row: usize, attr_idx: usize) -> Result<Value, RelationError> {
        if row >= self.len {
            return Err(RelationError::RowOutOfBounds { row, len: self.len });
        }
        Ok(self.columns[attr_idx].value(row))
    }

    /// Row of the tuple whose primary key equals `key` (first
    /// occurrence when duplicates were admitted).
    #[must_use]
    pub fn find_by_key(&self, key: &Value) -> Option<usize> {
        self.index().get(key).copied()
    }

    /// Replace the value of attribute `attr_idx` in row `row`,
    /// returning the previous value.
    ///
    /// Updating the primary-key attribute itself keeps the index
    /// consistent.
    ///
    /// # Errors
    ///
    /// Out-of-bounds row, type mismatch, or (for key updates) duplicate
    /// key.
    pub fn update_value(
        &mut self,
        row: usize,
        attr_idx: usize,
        value: Value,
    ) -> Result<Value, RelationError> {
        if row >= self.len {
            return Err(RelationError::RowOutOfBounds { row, len: self.len });
        }
        let attr = self.schema.attr(attr_idx);
        if !attr.ty.admits(&value) {
            return Err(RelationError::TypeMismatch {
                attr: attr.name.clone(),
                expected: attr.ty.name(),
                value,
            });
        }
        if attr_idx == self.schema.key_index() {
            let old_key = self.columns[attr_idx].value(row);
            if value != old_key {
                if self.index().contains_key(&value) {
                    return Err(RelationError::DuplicateKey(value));
                }
                // Duplicate-key data (admitted by push_unchecked_key)
                // may hold `old_key` on other rows, which must become
                // the key's indexed first occurrence; dropping the
                // derived index and letting it rebuild lazily is the
                // only cheap way to stay consistent with what a fresh
                // rebuild (e.g. on a clone) would compute.
                self.invalidate_index();
            }
        }
        Ok(self.columns[attr_idx].set_value(row, value))
    }

    /// Borrowed typed view of attribute `attr_idx` — the columnar
    /// replacement for the historical `Vec<&Value>` accessor. Flat
    /// slices for integers, codes + dictionary for text.
    ///
    /// # Panics
    ///
    /// Panics when `attr_idx` is out of schema range; positions come
    /// from [`Schema::index_of`].
    #[must_use]
    pub fn column(&self, attr_idx: usize) -> ColumnView<'_> {
        self.columns[attr_idx].view()
    }

    /// Swap a text column's storage wholesale (the dictionary
    /// compaction path of segment sealing). The caller guarantees the
    /// new codes/dictionary represent the same logical values row for
    /// row; the derived key index is dropped defensively anyway.
    ///
    /// # Panics
    ///
    /// Panics when `codes` does not cover every row or `attr_idx` is
    /// not a text column.
    pub(crate) fn replace_text_column(
        &mut self,
        attr_idx: usize,
        codes: Vec<u32>,
        dict: crate::Dictionary,
    ) {
        assert_eq!(codes.len(), self.len, "compacted codes must cover every row");
        assert!(
            matches!(self.columns[attr_idx], Column::Text { .. }),
            "only text columns carry dictionaries"
        );
        self.columns[attr_idx] = Column::Text { codes, dict };
        self.invalidate_index();
    }

    /// Mutable typed access to a **non-key** column, for bulk value
    /// rewriting (embedding, alteration attacks). The key column is
    /// refused because slice writes bypass the key index; key updates
    /// go through [`Relation::update_value`].
    ///
    /// # Errors
    ///
    /// [`RelationError::InvalidSchema`] for the key column or an
    /// out-of-range index.
    pub fn column_mut(&mut self, attr_idx: usize) -> Result<ColumnMut<'_>, RelationError> {
        if attr_idx >= self.columns.len() {
            return Err(RelationError::InvalidSchema(format!(
                "attribute index {attr_idx} out of range"
            )));
        }
        if attr_idx == self.schema.key_index() {
            return Err(RelationError::InvalidSchema(
                "the key column cannot be rewritten in bulk (it backs the key index)".into(),
            ));
        }
        Ok(match &mut self.columns[attr_idx] {
            Column::Int(xs) => ColumnMut::Int(xs),
            Column::Text { codes, dict } => ColumnMut::Text(TextColumnMut { codes, dict }),
        })
    }

    /// Materializing iterator over one attribute's values (cold-path
    /// convenience; hot paths scan [`Relation::column`]).
    pub fn column_iter(&self, attr_idx: usize) -> impl Iterator<Item = Value> + '_ {
        self.columns[attr_idx].view().iter()
    }

    /// New relation holding `rows` (by index, in order) — the bulk
    /// row-selection primitive behind sampling, shuffling and sorting.
    /// The result's key index is lazy, so a gather is pure column
    /// copying.
    ///
    /// # Panics
    ///
    /// Panics when an index is out of bounds.
    #[must_use]
    pub fn gather(&self, rows: &[usize]) -> Relation {
        let columns: Vec<Column> = self.columns.iter().map(|c| c.gather(rows)).collect();
        Relation {
            schema: self.schema.clone(),
            columns,
            len: rows.len(),
            key_index: OnceLock::new(),
        }
    }

    /// Append all rows of `other` (duplicate keys tolerated, first
    /// occurrence indexed). Text codes are remapped through this
    /// relation's dictionaries.
    ///
    /// # Errors
    ///
    /// [`RelationError::InvalidSchema`] when schemas differ.
    pub fn append(&mut self, other: &Relation) -> Result<(), RelationError> {
        if self.schema != other.schema {
            return Err(RelationError::InvalidSchema("append requires identical schemas".into()));
        }
        for (column, ocolumn) in self.columns.iter_mut().zip(&other.columns) {
            column.append(ocolumn);
        }
        self.len += other.len;
        self.invalidate_index();
        Ok(())
    }

    /// Number of distinct primary-key values currently indexed.
    #[must_use]
    pub fn distinct_keys(&self) -> usize {
        self.index().len()
    }

    /// Approximate resident heap bytes of the storage — the figure
    /// the `columnar` bench scenario reports per tuple and the
    /// out-of-core pager budgets against. Accounts for the column
    /// vectors, the dictionaries' full heap usage (string bytes,
    /// `Arc` refcount headers, entry and index tables), the lazily
    /// built key index, and the per-column struct overhead, so a
    /// resident-memory ceiling asserted over this figure measures
    /// what it claims.
    #[must_use]
    pub fn resident_bytes(&self) -> usize {
        let columns: usize = self.columns.iter().map(Column::resident_bytes).sum();
        let overhead = self.columns.capacity() * std::mem::size_of::<Column>();
        let index = match self.key_index.get() {
            None => 0,
            Some(index) => {
                let key_heap: usize = index
                    .keys()
                    .map(|k| match k {
                        Value::Int(_) => 0,
                        Value::Text(s) => s.capacity(),
                    })
                    .sum();
                // Entry payload (key + row) plus ~1 byte of hash
                // metadata per slot.
                key_heap
                    + index.capacity()
                        * (std::mem::size_of::<Value>() + std::mem::size_of::<usize>() + 1)
            }
        };
        columns + overhead + index
    }
}

/// Logical equality: the same schema and the same values row for row.
/// Lengths are compared, and text compares by string, so two
/// relations with differently laid out dictionaries are equal when
/// their content is.
impl PartialEq for Relation {
    fn eq(&self, other: &Self) -> bool {
        self.schema == other.schema
            && self.len == other.len
            && self.columns.iter().zip(&other.columns).all(|(a, b)| a.view() == b.view())
    }
}

impl std::fmt::Display for Relation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let names: Vec<&str> = self.schema.attrs().iter().map(|a| a.name.as_str()).collect();
        writeln!(f, "[{}] ({} tuples)", names.join(", "), self.len)?;
        for row in 0..self.len.min(10) {
            f.write_str("  (")?;
            for (i, column) in self.columns.iter().enumerate() {
                if i > 0 {
                    f.write_str(", ")?;
                }
                write!(f, "{}", column.value(row))?;
            }
            f.write_str(")\n")?;
        }
        if self.len > 10 {
            writeln!(f, "  … {} more", self.len - 10)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::AttrType;

    fn schema() -> Schema {
        Schema::builder()
            .key_attr("k", AttrType::Integer)
            .categorical_attr("a", AttrType::Text)
            .build()
            .unwrap()
    }

    fn sample() -> Relation {
        let mut r = Relation::new(schema());
        r.push(vec![Value::Int(1), Value::Text("x".into())]).unwrap();
        r.push(vec![Value::Int(2), Value::Text("y".into())]).unwrap();
        r.push(vec![Value::Int(3), Value::Text("x".into())]).unwrap();
        r
    }

    #[test]
    fn push_and_lookup() {
        let r = sample();
        assert_eq!(r.len(), 3);
        assert_eq!(r.find_by_key(&Value::Int(2)), Some(1));
        assert_eq!(r.find_by_key(&Value::Int(9)), None);
    }

    #[test]
    fn rejects_duplicate_keys() {
        let mut r = sample();
        let err = r.push(vec![Value::Int(1), Value::Text("z".into())]);
        assert!(matches!(err, Err(RelationError::DuplicateKey(_))));
        assert_eq!(r.len(), 3);
    }

    #[test]
    fn push_unchecked_key_admits_duplicates_first_wins() {
        let mut r = sample();
        r.push_unchecked_key(vec![Value::Int(1), Value::Text("dup".into())]).unwrap();
        assert_eq!(r.len(), 4);
        // Index still points at the original row 0.
        assert_eq!(r.find_by_key(&Value::Int(1)), Some(0));
        assert_eq!(r.distinct_keys(), 3);
    }

    #[test]
    fn rejects_type_mismatch() {
        let mut r = sample();
        let err = r.push(vec![Value::Text("k".into()), Value::Text("z".into())]);
        assert!(matches!(err, Err(RelationError::TypeMismatch { .. })));
    }

    #[test]
    fn update_value_swaps_and_returns_old() {
        let mut r = sample();
        let old = r.update_value(0, 1, Value::Text("new".into())).unwrap();
        assert_eq!(old, Value::Text("x".into()));
        assert_eq!(r.value(0, 1).unwrap(), Value::Text("new".into()));
    }

    #[test]
    fn update_key_maintains_index() {
        let mut r = sample();
        r.update_value(0, 0, Value::Int(99)).unwrap();
        assert_eq!(r.find_by_key(&Value::Int(99)), Some(0));
        assert_eq!(r.find_by_key(&Value::Int(1)), None);
    }

    #[test]
    fn update_key_rejects_collision() {
        let mut r = sample();
        let err = r.update_value(0, 0, Value::Int(2));
        assert!(matches!(err, Err(RelationError::DuplicateKey(_))));
        // Original state intact.
        assert_eq!(r.find_by_key(&Value::Int(1)), Some(0));
    }

    #[test]
    fn update_key_over_duplicates_repoints_to_surviving_occurrence() {
        // Rows 0 and 3 share key 1; re-keying row 0 must leave key 1
        // indexed at row 3 — and agree with what a clone (which
        // rebuilds the index from the columns) observes.
        let mut r = sample();
        r.push_unchecked_key(vec![Value::Int(1), Value::Text("dup".into())]).unwrap();
        assert_eq!(r.find_by_key(&Value::Int(1)), Some(0));
        r.update_value(0, 0, Value::Int(99)).unwrap();
        assert_eq!(r.find_by_key(&Value::Int(99)), Some(0));
        assert_eq!(r.find_by_key(&Value::Int(1)), Some(3), "surviving duplicate not re-indexed");
        let clone = r.clone();
        for key in [1, 2, 3, 99] {
            assert_eq!(
                r.find_by_key(&Value::Int(key)),
                clone.find_by_key(&Value::Int(key)),
                "original and clone disagree on key {key}"
            );
        }
    }

    #[test]
    fn update_key_to_same_value_is_noop() {
        let mut r = sample();
        r.update_value(0, 0, Value::Int(1)).unwrap();
        assert_eq!(r.find_by_key(&Value::Int(1)), Some(0));
    }

    #[test]
    fn update_rejects_out_of_bounds_and_bad_type() {
        let mut r = sample();
        assert!(matches!(
            r.update_value(99, 1, Value::Text("z".into())),
            Err(RelationError::RowOutOfBounds { .. })
        ));
        assert!(matches!(
            r.update_value(0, 1, Value::Int(5)),
            Err(RelationError::TypeMismatch { .. })
        ));
    }

    #[test]
    fn column_views_expose_typed_slices() {
        let r = sample();
        assert_eq!(r.column(0).as_int().unwrap(), &[1, 2, 3]);
        let (codes, dict) = r.column(1).as_text().unwrap();
        assert_eq!(codes.len(), 3);
        assert_eq!(codes[0], codes[2], "equal strings share a code");
        assert_eq!(dict.get(codes[1]), "y");
        // The materializing view agrees with the slices.
        let vals: Vec<Value> = r.column_iter(1).collect();
        assert_eq!(
            vals,
            vec![Value::Text("x".into()), Value::Text("y".into()), Value::Text("x".into())]
        );
    }

    #[test]
    fn column_mut_rewrites_values_but_refuses_the_key() {
        let mut r = sample();
        match r.column_mut(1).unwrap() {
            ColumnMut::Text(mut tc) => {
                let z = tc.intern("z");
                tc.set(0, z);
            }
            ColumnMut::Int(_) => panic!("column 1 is text"),
        }
        assert_eq!(r.value(0, 1).unwrap(), Value::Text("z".into()));
        assert!(r.column_mut(0).is_err(), "key column must be refused");
        assert!(r.column_mut(9).is_err());
    }

    #[test]
    fn from_columns_validates_shape() {
        let cols = vec![Column::Int(vec![1, 2, 2]), {
            let mut c = Column::new(AttrType::Text);
            for s in ["a", "b", "c"] {
                c.push_value(&Value::Text(s.into()));
            }
            c
        }];
        let r = Relation::from_columns(schema(), cols).unwrap();
        assert_eq!(r.len(), 3);
        // Duplicate keys admitted, first wins.
        assert_eq!(r.find_by_key(&Value::Int(2)), Some(1));
        assert_eq!(r.distinct_keys(), 2);

        assert!(Relation::from_columns(schema(), vec![Column::Int(vec![1])]).is_err());
        assert!(Relation::from_columns(schema(), vec![Column::Int(vec![1]), Column::Int(vec![2])])
            .is_err());
        assert!(Relation::from_columns(
            schema(),
            vec![Column::Int(vec![1, 2]), Column::new(AttrType::Text)]
        )
        .is_err());
    }

    #[test]
    fn gather_selects_rows_in_order() {
        let r = sample();
        let g = r.gather(&[2, 0]);
        assert_eq!(g.len(), 2);
        assert_eq!(g.column(0).as_int().unwrap(), &[3, 1]);
        assert_eq!(g.find_by_key(&Value::Int(3)), Some(0));
    }

    #[test]
    fn append_merges_dictionaries_and_indexes_first_wins() {
        let mut a = sample();
        let mut b = Relation::new(schema());
        b.push(vec![Value::Int(1), Value::Text("q".into())]).unwrap();
        b.push(vec![Value::Int(9), Value::Text("y".into())]).unwrap();
        a.append(&b).unwrap();
        assert_eq!(a.len(), 5);
        assert_eq!(a.find_by_key(&Value::Int(1)), Some(0), "first occurrence kept");
        assert_eq!(a.find_by_key(&Value::Int(9)), Some(4));
        assert_eq!(a.value(3, 1).unwrap(), Value::Text("q".into()));
    }

    #[test]
    fn resident_bytes_tracks_growth() {
        let small = sample();
        let mut big = Relation::new(schema());
        for i in 0..1000 {
            big.push(vec![Value::Int(i), Value::Text(format!("v{}", i % 7))]).unwrap();
        }
        assert!(big.resident_bytes() > small.resident_bytes());
    }

    #[test]
    fn display_truncates_long_relations() {
        let mut r = Relation::new(schema());
        for i in 0..15 {
            r.push(vec![Value::Int(i), Value::Text("v".into())]).unwrap();
        }
        let s = r.to_string();
        assert!(s.starts_with("[k, a] (15 tuples)\n  (0, v)\n  (1, v)\n"), "{s}");
        assert!(s.ends_with("  (9, v)\n  … 5 more\n"), "{s}");
    }

    #[test]
    fn equality_is_logical_and_compares_lengths() {
        // Same rows interned in another order: equal.
        let mut b = Relation::new(schema());
        b.push(vec![Value::Int(9), Value::Text("y".into())]).unwrap();
        let b = {
            let mut c = b.gather(&[]);
            c.append(&sample()).unwrap();
            c
        };
        assert_ne!(b.column(1).as_text().unwrap().0[0], sample().column(1).as_text().unwrap().0[0]);
        assert_eq!(b, sample());
        // A prefix is not equal, whichever side is shorter.
        assert_ne!(sample().gather(&[0, 1]), sample());
        assert_ne!(sample(), sample().gather(&[0, 1]));
        // One differing value is not equal.
        let mut c = sample();
        c.update_value(2, 1, Value::Text("y".into())).unwrap();
        assert_ne!(c, sample());
    }
}
