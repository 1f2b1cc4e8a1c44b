//! Delta-encoded marked copies.
//!
//! Fingerprinting N recipients from one base relation produces N
//! copies that differ from the base in only ~1/e of the key-fit
//! tuples. Materializing each copy as a full columnar clone makes
//! distribution O(recipients × relation); a [`MarkDelta`] instead
//! records just the ordered `(row, old, new)` patches for one target
//! column — plus, for text columns, the dictionary-extension entries
//! the embedding interned that the base dictionary lacks — so
//! [`Relation::apply_delta`] can rebuild a copy byte-identical to the
//! materialized one from the shared base.
//!
//! # Serialized format
//!
//! One blob per delta, in the same style as the segment blob format
//! (see [`crate::spill`]):
//!
//! ```text
//! [0..8)   magic  b"CMKDLT1\0"
//! [8..12)  column u32 LE (index of the patched attribute)
//! [12..20) rows   u64 LE (length of the base relation)
//! [20]     tag    0x01 integer / 0x02 text
//! Int:  patch count u64 LE, then (row u32, old i64, new i64) LE
//! Text: base-dict len u32 LE, extension count u32 LE, extension
//!       entries as (len u32, utf-8 bytes), patch count u64 LE,
//!       then (row u32, old code u32, new code u32) LE
//! ```
//!
//! Patch rows are strictly ascending (at most one patch per row);
//! text codes are in the *extended* code space (base dictionary plus
//! the extension entries, in order). Decoding validates all of this,
//! and [`Relation::apply_delta`] additionally checks every `old`
//! value against the base — a corrupted or mismatched delta errors
//! instead of silently producing a wrong copy.

use crate::{ColumnView, Relation, RelationError};

/// Magic bytes opening every serialized delta.
const MAGIC: &[u8; 8] = b"CMKDLT1\0";
/// Payload tag for integer-column deltas.
const TAG_INT: u8 = 0x01;
/// Payload tag for text-column deltas.
const TAG_TEXT: u8 = 0x02;

fn delta_err(msg: impl Into<String>) -> RelationError {
    RelationError::Spill(msg.into())
}

/// One integer-cell rewrite: `rows[row]` goes from `old` to `new`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct IntPatch {
    /// Row index in the base relation.
    pub row: u32,
    /// The base's value — checked on apply.
    pub old: i64,
    /// The marked copy's value.
    pub new: i64,
}

/// One text-cell rewrite in code space: `codes[row]` goes from `old`
/// to `new`, where codes address the base dictionary extended by the
/// delta's extension entries.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CodePatch {
    /// Row index in the base relation.
    pub row: u32,
    /// The base's code — checked on apply.
    pub old: u32,
    /// The marked copy's code, in the extended code space.
    pub new: u32,
}

/// The typed patch payload of a [`MarkDelta`].
#[derive(Debug, Clone, PartialEq, Eq)]
enum DeltaOps {
    /// Patches against an integer column.
    Int(Vec<IntPatch>),
    /// Patches against a text column, with the dictionary extension
    /// the marked copy interned beyond the base dictionary.
    Text { base_dict_len: u32, extension: Vec<String>, patches: Vec<CodePatch> },
}

/// An ordered patch set turning one column of a base relation into
/// its marked copy. See the [module docs](self) for the format.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MarkDelta {
    column: u32,
    rows: u64,
    ops: DeltaOps,
}

impl MarkDelta {
    /// Index of the patched attribute in the base schema.
    #[must_use]
    pub fn column(&self) -> usize {
        self.column as usize
    }

    /// Length of the base relation the delta was extracted against.
    #[must_use]
    pub fn rows(&self) -> usize {
        self.rows as usize
    }

    /// Number of cell rewrites the delta carries.
    #[must_use]
    pub fn patch_count(&self) -> usize {
        match &self.ops {
            DeltaOps::Int(ps) => ps.len(),
            DeltaOps::Text { patches, .. } => patches.len(),
        }
    }

    /// Number of dictionary-extension entries (always 0 for integer
    /// columns).
    #[must_use]
    pub fn extension_len(&self) -> usize {
        match &self.ops {
            DeltaOps::Int(_) => 0,
            DeltaOps::Text { extension, .. } => extension.len(),
        }
    }

    /// `true` when the delta rewrites nothing and extends no
    /// dictionary — applying it yields a plain clone of the base.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.patch_count() == 0 && self.extension_len() == 0
    }

    /// Serialized size in bytes, without allocating the blob.
    #[must_use]
    pub fn serialized_len(&self) -> usize {
        21 + match &self.ops {
            DeltaOps::Int(ps) => 8 + 20 * ps.len(),
            DeltaOps::Text { extension, patches, .. } => {
                8 + 8 + extension.iter().map(|s| 4 + s.len()).sum::<usize>() + 12 * patches.len()
            }
        }
    }

    /// Serialize into the delta blob format.
    #[must_use]
    pub fn encode(&self) -> Vec<u8> {
        let mut blob = Vec::with_capacity(self.serialized_len());
        blob.extend_from_slice(MAGIC);
        blob.extend_from_slice(&self.column.to_le_bytes());
        blob.extend_from_slice(&self.rows.to_le_bytes());
        match &self.ops {
            DeltaOps::Int(ps) => {
                blob.push(TAG_INT);
                blob.extend_from_slice(&(ps.len() as u64).to_le_bytes());
                for p in ps {
                    blob.extend_from_slice(&p.row.to_le_bytes());
                    blob.extend_from_slice(&p.old.to_le_bytes());
                    blob.extend_from_slice(&p.new.to_le_bytes());
                }
            }
            DeltaOps::Text { base_dict_len, extension, patches } => {
                blob.push(TAG_TEXT);
                blob.extend_from_slice(&base_dict_len.to_le_bytes());
                blob.extend_from_slice(&(extension.len() as u32).to_le_bytes());
                for entry in extension {
                    blob.extend_from_slice(&(entry.len() as u32).to_le_bytes());
                    blob.extend_from_slice(entry.as_bytes());
                }
                blob.extend_from_slice(&(patches.len() as u64).to_le_bytes());
                for p in patches {
                    blob.extend_from_slice(&p.row.to_le_bytes());
                    blob.extend_from_slice(&p.old.to_le_bytes());
                    blob.extend_from_slice(&p.new.to_le_bytes());
                }
            }
        }
        blob
    }

    /// Deserialize a delta blob, validating magic, tags, bounds and
    /// patch-row ordering.
    ///
    /// # Errors
    ///
    /// [`RelationError::Spill`] on any format corruption.
    pub fn decode(bytes: &[u8]) -> Result<Self, RelationError> {
        let mut cur = Cursor::new(bytes);
        if cur.take(8)? != MAGIC {
            return Err(delta_err("bad delta magic"));
        }
        let column = cur.u32()?;
        let rows = cur.u64()?;
        let tag = cur.take(1)?[0];
        let ops = match tag {
            TAG_INT => {
                let count = cur.u64()? as usize;
                let mut ps = Vec::with_capacity(count.min(1 << 20));
                for _ in 0..count {
                    ps.push(IntPatch { row: cur.u32()?, old: cur.i64()?, new: cur.i64()? });
                }
                DeltaOps::Int(ps)
            }
            TAG_TEXT => {
                let base_dict_len = cur.u32()?;
                let next = cur.u32()? as usize;
                let mut extension = Vec::with_capacity(next.min(1 << 20));
                for _ in 0..next {
                    let len = cur.u32()? as usize;
                    let s = std::str::from_utf8(cur.take(len)?)
                        .map_err(|_| delta_err("delta extension entry is not utf-8"))?;
                    extension.push(s.to_string());
                }
                let count = cur.u64()? as usize;
                let code_space = base_dict_len as usize + extension.len();
                let mut patches = Vec::with_capacity(count.min(1 << 20));
                for _ in 0..count {
                    let p = CodePatch { row: cur.u32()?, old: cur.u32()?, new: cur.u32()? };
                    if (p.old as usize) >= base_dict_len as usize {
                        return Err(delta_err("delta old code outside the base dictionary"));
                    }
                    if (p.new as usize) >= code_space {
                        return Err(delta_err("delta new code outside the extended dictionary"));
                    }
                    patches.push(p);
                }
                DeltaOps::Text { base_dict_len, extension, patches }
            }
            other => return Err(delta_err(format!("unknown delta payload tag {other:#x}"))),
        };
        if cur.pos != bytes.len() {
            return Err(delta_err("trailing bytes after delta payload"));
        }
        let delta = MarkDelta { column, rows, ops };
        let mut last: Option<u32> = None;
        for row in delta.patch_rows() {
            if row as u64 >= rows {
                return Err(delta_err("delta patch row outside the base relation"));
            }
            if last.is_some_and(|prev| prev >= row) {
                return Err(delta_err("delta patch rows are not strictly ascending"));
            }
            last = Some(row);
        }
        Ok(delta)
    }

    /// The patched row indices, in ascending order.
    pub fn patch_rows(&self) -> impl Iterator<Item = u32> + '_ {
        let (ints, codes) = match &self.ops {
            DeltaOps::Int(ps) => (Some(ps.iter()), None),
            DeltaOps::Text { patches, .. } => (None, Some(patches.iter())),
        };
        ints.into_iter().flatten().map(|p| p.row).chain(codes.into_iter().flatten().map(|p| p.row))
    }
}

/// Incrementally constructs a [`MarkDelta`] — the write interface the
/// embedding pass uses to emit patches instead of mutating a clone.
///
/// Patches must be pushed in strictly ascending row order (at most
/// one per row); [`finish`](Self::finish) enforces it.
#[derive(Debug)]
pub struct MarkDeltaBuilder {
    column: u32,
    rows: u64,
    ops: DeltaOps,
}

impl MarkDeltaBuilder {
    /// Start a delta against integer column `column` of a base with
    /// `rows` rows.
    #[must_use]
    pub fn int(column: usize, rows: usize) -> Self {
        MarkDeltaBuilder {
            column: column as u32,
            rows: rows as u64,
            ops: DeltaOps::Int(Vec::new()),
        }
    }

    /// Start a delta against text column `column` of a base with
    /// `rows` rows and a dictionary of `base_dict_len` entries.
    #[must_use]
    pub fn text(column: usize, rows: usize, base_dict_len: usize) -> Self {
        MarkDeltaBuilder {
            column: column as u32,
            rows: rows as u64,
            ops: DeltaOps::Text {
                base_dict_len: base_dict_len as u32,
                extension: Vec::new(),
                patches: Vec::new(),
            },
        }
    }

    /// Record an integer rewrite. Panics if the builder targets a
    /// text column.
    pub fn push_int(&mut self, row: usize, old: i64, new: i64) {
        match &mut self.ops {
            DeltaOps::Int(ps) => ps.push(IntPatch { row: row as u32, old, new }),
            DeltaOps::Text { .. } => panic!("push_int on a text-column delta"),
        }
    }

    /// Record a code rewrite. Panics if the builder targets an
    /// integer column.
    pub fn push_code(&mut self, row: usize, old: u32, new: u32) {
        match &mut self.ops {
            DeltaOps::Text { patches, .. } => {
                patches.push(CodePatch { row: row as u32, old, new });
            }
            DeltaOps::Int(_) => panic!("push_code on an integer-column delta"),
        }
    }

    /// Append a dictionary-extension entry, returning the code it
    /// occupies in the extended code space (`base_dict_len + k` for
    /// the k-th appended entry). Panics on an integer-column builder.
    pub fn extend_dict(&mut self, value: &str) -> u32 {
        match &mut self.ops {
            DeltaOps::Text { base_dict_len, extension, .. } => {
                extension.push(value.to_string());
                *base_dict_len + (extension.len() - 1) as u32
            }
            DeltaOps::Int(_) => panic!("extend_dict on an integer-column delta"),
        }
    }

    /// Finalize the delta.
    ///
    /// # Errors
    ///
    /// [`RelationError::Spill`] when patch rows are out of bounds or
    /// not strictly ascending, or codes escape their dictionaries.
    pub fn finish(self) -> Result<MarkDelta, RelationError> {
        let delta = MarkDelta { column: self.column, rows: self.rows, ops: self.ops };
        // Route through the decoder's validation so the builder and
        // the wire share one set of invariants.
        Self::validate(&delta)?;
        Ok(delta)
    }

    /// [`MarkDeltaBuilder::finish`] for producers whose patches are
    /// strictly ascending and in-bounds **by construction** — e.g. the
    /// embedding pass, which walks a plan's fit rows (ascending, one
    /// visit per row) and resolves codes through a table it built
    /// against this builder's own dictionary space. Skips the O(patch)
    /// re-validation in release builds; debug builds still assert the
    /// invariants, so any producer that violates them fails loudly
    /// under test instead of shipping a malformed delta.
    #[must_use]
    pub fn finish_trusted(self) -> MarkDelta {
        let delta = MarkDelta { column: self.column, rows: self.rows, ops: self.ops };
        debug_assert!(
            Self::validate(&delta).is_ok(),
            "trusted delta producer emitted an invalid patch set"
        );
        delta
    }

    fn validate(delta: &MarkDelta) -> Result<(), RelationError> {
        let mut last: Option<u32> = None;
        for row in delta.patch_rows() {
            if row as u64 >= delta.rows {
                return Err(delta_err("delta patch row outside the base relation"));
            }
            if last.is_some_and(|prev| prev >= row) {
                return Err(delta_err("delta patch rows are not strictly ascending"));
            }
            last = Some(row);
        }
        if let DeltaOps::Text { base_dict_len, extension, patches } = &delta.ops {
            let code_space = *base_dict_len as usize + extension.len();
            for p in patches {
                if (p.old as usize) >= *base_dict_len as usize {
                    return Err(delta_err("delta old code outside the base dictionary"));
                }
                if (p.new as usize) >= code_space {
                    return Err(delta_err("delta new code outside the extended dictionary"));
                }
            }
        }
        Ok(())
    }
}

/// Little-endian cursor over a byte slice.
struct Cursor<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Cursor<'a> {
    fn new(bytes: &'a [u8]) -> Self {
        Cursor { bytes, pos: 0 }
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], RelationError> {
        let end = self.pos.checked_add(n).ok_or_else(|| delta_err("length overflow"))?;
        let slice =
            self.bytes.get(self.pos..end).ok_or_else(|| delta_err("truncated delta blob"))?;
        self.pos = end;
        Ok(slice)
    }

    fn u32(&mut self) -> Result<u32, RelationError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().expect("4 bytes")))
    }

    fn u64(&mut self) -> Result<u64, RelationError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().expect("8 bytes")))
    }

    fn i64(&mut self) -> Result<i64, RelationError> {
        Ok(i64::from_le_bytes(self.take(8)?.try_into().expect("8 bytes")))
    }
}

impl Relation {
    /// Diff `marked` against `self` on `column`, producing the delta
    /// that [`apply_delta`](Self::apply_delta) turns back into a
    /// byte-identical copy of `marked`.
    ///
    /// For text columns, `marked`'s dictionary must be a
    /// prefix-extension of the base's (which is what in-place
    /// embedding of a clone always produces — interning only
    /// appends); the suffix becomes the delta's extension section, so
    /// the rebuilt copy reproduces even entries no surviving row
    /// references.
    ///
    /// # Errors
    ///
    /// [`RelationError::InvalidSchema`] when the relations disagree
    /// on schema, length, or dictionary prefix, or `column` is out of
    /// range.
    pub fn extract_delta(
        &self,
        marked: &Relation,
        column: usize,
    ) -> Result<MarkDelta, RelationError> {
        if self.schema() != marked.schema() {
            return Err(RelationError::InvalidSchema(
                "delta extraction requires identical schemas".to_string(),
            ));
        }
        if self.len() != marked.len() {
            return Err(RelationError::InvalidSchema(format!(
                "delta extraction requires equal lengths (base {}, marked {})",
                self.len(),
                marked.len()
            )));
        }
        if column >= self.schema().arity() {
            return Err(RelationError::InvalidSchema(format!(
                "column index {column} out of range for arity {}",
                self.schema().arity()
            )));
        }
        match (self.column(column), marked.column(column)) {
            (ColumnView::Int(base), ColumnView::Int(copy)) => {
                let mut builder = MarkDeltaBuilder::int(column, self.len());
                for (row, (&old, &new)) in base.iter().zip(copy).enumerate() {
                    if old != new {
                        builder.push_int(row, old, new);
                    }
                }
                builder.finish()
            }
            (
                ColumnView::Text { codes: base, dict: base_dict },
                ColumnView::Text { codes: copy, dict: copy_dict },
            ) => {
                let prefix_ok = copy_dict.len() >= base_dict.len()
                    && base_dict
                        .entries()
                        .iter()
                        .zip(copy_dict.entries())
                        .all(|(a, b)| a.as_ref() == b.as_ref());
                if !prefix_ok {
                    return Err(RelationError::InvalidSchema(
                        "marked dictionary is not a prefix-extension of the base dictionary"
                            .to_string(),
                    ));
                }
                let mut builder = MarkDeltaBuilder::text(column, self.len(), base_dict.len());
                for entry in &copy_dict.entries()[base_dict.len()..] {
                    builder.extend_dict(entry);
                }
                for (row, (&old, &new)) in base.iter().zip(copy).enumerate() {
                    if old != new {
                        builder.push_code(row, old, new);
                    }
                }
                builder.finish()
            }
            _ => Err(RelationError::InvalidSchema(
                "delta extraction requires matching column types".to_string(),
            )),
        }
    }

    /// Rebuild a marked copy from `self` and a delta: clone the base,
    /// intern the dictionary extension in order, then apply the
    /// patches. The result is byte-identical to the copy the delta
    /// was extracted from.
    ///
    /// Every patch's `old` value is checked against the base — a
    /// delta extracted from a *different* base errors instead of
    /// silently corrupting the copy.
    ///
    /// # Errors
    ///
    /// [`RelationError::InvalidSchema`] on shape mismatches (length,
    /// column index, column type, key column) and
    /// [`RelationError::Spill`] on integrity failures (stale `old`
    /// values, extension entries already present in the base).
    pub fn apply_delta(&self, delta: &MarkDelta) -> Result<Relation, RelationError> {
        if delta.rows() != self.len() {
            return Err(RelationError::InvalidSchema(format!(
                "delta was extracted against {} rows but the base has {}",
                delta.rows(),
                self.len()
            )));
        }
        if delta.column() >= self.schema().arity() {
            return Err(RelationError::InvalidSchema(format!(
                "delta column index {} out of range for arity {}",
                delta.column(),
                self.schema().arity()
            )));
        }
        let mut copy = self.clone();
        match (&delta.ops, copy.column_mut(delta.column())?) {
            (DeltaOps::Int(ps), crate::ColumnMut::Int(xs)) => {
                for p in ps {
                    let cell = &mut xs[p.row as usize];
                    if *cell != p.old {
                        return Err(delta_err(format!(
                            "delta integrity: row {} holds {} but the delta expects {}",
                            p.row, *cell, p.old
                        )));
                    }
                    *cell = p.new;
                }
            }
            (
                DeltaOps::Text { base_dict_len, extension, patches },
                crate::ColumnMut::Text(mut tc),
            ) => {
                if tc.dict().len() != *base_dict_len as usize {
                    return Err(delta_err(format!(
                        "delta integrity: base dictionary has {} entries but the delta expects {}",
                        tc.dict().len(),
                        base_dict_len
                    )));
                }
                for (k, entry) in extension.iter().enumerate() {
                    let code = tc.intern(entry);
                    if code as usize != *base_dict_len as usize + k {
                        return Err(delta_err(format!(
                            "delta integrity: extension entry {entry:?} already in the base \
                             dictionary"
                        )));
                    }
                }
                for p in patches {
                    if tc.code(p.row as usize) != p.old {
                        return Err(delta_err(format!(
                            "delta integrity: row {} holds code {} but the delta expects {}",
                            p.row,
                            tc.code(p.row as usize),
                            p.old
                        )));
                    }
                    tc.set(p.row as usize, p.new);
                }
            }
            _ => {
                return Err(RelationError::InvalidSchema(
                    "delta payload type does not match the target column".to_string(),
                ))
            }
        }
        Ok(copy)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{AttrType, Schema, Value};

    fn int_pair() -> (Relation, Relation) {
        let schema = Schema::builder()
            .key_attr("k", AttrType::Integer)
            .categorical_attr("c", AttrType::Integer)
            .build()
            .unwrap();
        let mut base = Relation::new(schema);
        for i in 0..10 {
            base.push(vec![Value::Int(i), Value::Int(100 + i)]).unwrap();
        }
        let mut marked = base.clone();
        for row in [1usize, 4, 9] {
            marked.update_value(row, 1, Value::Int(200 + row as i64)).unwrap();
        }
        (base, marked)
    }

    fn text_pair() -> (Relation, Relation) {
        let schema = Schema::builder()
            .key_attr("k", AttrType::Integer)
            .categorical_attr("c", AttrType::Text)
            .build()
            .unwrap();
        let mut base = Relation::new(schema);
        for (i, c) in ["red", "green", "blue", "red", "green"].iter().enumerate() {
            base.push(vec![Value::Int(i as i64), Value::Text((*c).into())]).unwrap();
        }
        let mut marked = base.clone();
        // Rewrites into an existing entry and into a foreign one.
        marked.update_value(0, 1, Value::Text("blue".into())).unwrap();
        marked.update_value(3, 1, Value::Text("violet".into())).unwrap();
        (base, marked)
    }

    #[test]
    fn int_delta_round_trips() {
        let (base, marked) = int_pair();
        let delta = base.extract_delta(&marked, 1).unwrap();
        assert_eq!(delta.patch_count(), 3);
        assert_eq!(delta.extension_len(), 0);
        let rebuilt = base.apply_delta(&delta).unwrap();
        assert_eq!(rebuilt, marked);
    }

    #[test]
    fn text_delta_round_trips_with_dictionary_extension() {
        let (base, marked) = text_pair();
        let delta = base.extract_delta(&marked, 1).unwrap();
        assert_eq!(delta.patch_count(), 2);
        assert_eq!(delta.extension_len(), 1);
        let rebuilt = base.apply_delta(&delta).unwrap();
        // Byte identity: codes and dictionary order, not just values.
        let (rc, rd) = rebuilt.column(1).as_text().unwrap();
        let (mc, md) = marked.column(1).as_text().unwrap();
        assert_eq!(rc, mc);
        assert_eq!(rd.entries().len(), md.entries().len());
        assert!(rd.entries().iter().zip(md.entries()).all(|(a, b)| a.as_ref() == b.as_ref()));
    }

    #[test]
    fn encode_decode_round_trips() {
        let (base, marked) = text_pair();
        let delta = base.extract_delta(&marked, 1).unwrap();
        let blob = delta.encode();
        assert_eq!(blob.len(), delta.serialized_len());
        assert_eq!(MarkDelta::decode(&blob).unwrap(), delta);
        let (base, marked) = int_pair();
        let delta = base.extract_delta(&marked, 1).unwrap();
        let blob = delta.encode();
        assert_eq!(blob.len(), delta.serialized_len());
        assert_eq!(MarkDelta::decode(&blob).unwrap(), delta);
    }

    #[test]
    fn corrupt_blobs_error_instead_of_panicking() {
        let (base, marked) = text_pair();
        let delta = base.extract_delta(&marked, 1).unwrap();
        let good = delta.encode();
        let mut bad = good.clone();
        bad[0] = b'X';
        assert!(matches!(MarkDelta::decode(&bad), Err(RelationError::Spill(_))));
        assert!(MarkDelta::decode(&good[..good.len() - 2]).is_err());
        let mut trailing = good.clone();
        trailing.push(0);
        assert!(MarkDelta::decode(&trailing).is_err());
        let mut bad_tag = good;
        bad_tag[20] = 0x7f;
        assert!(MarkDelta::decode(&bad_tag).is_err());
    }

    #[test]
    fn apply_checks_old_values_against_the_base() {
        let (base, marked) = int_pair();
        let delta = base.extract_delta(&marked, 1).unwrap();
        // A different base: same schema/len, different cell contents.
        let mut other = base.clone();
        other.update_value(1, 1, Value::Int(-7)).unwrap();
        assert!(matches!(other.apply_delta(&delta), Err(RelationError::Spill(_))));
    }

    #[test]
    fn shape_mismatches_are_refused() {
        let (base, marked) = int_pair();
        let delta = base.extract_delta(&marked, 1).unwrap();
        let mut short = Relation::new(base.schema().clone());
        short.push(vec![Value::Int(0), Value::Int(100)]).unwrap();
        assert!(matches!(short.apply_delta(&delta), Err(RelationError::InvalidSchema(_))));
        assert!(base.extract_delta(&short, 1).is_err());
        assert!(base.extract_delta(&marked, 9).is_err());
        let (tbase, tmarked) = text_pair();
        assert!(tbase.extract_delta(&marked, 1).is_err());
        assert!(tbase.apply_delta(&delta).is_err());
        let tdelta = tbase.extract_delta(&tmarked, 1).unwrap();
        assert!(base.apply_delta(&tdelta).is_err());
    }

    #[test]
    fn empty_delta_applies_as_a_clone() {
        let (base, _) = int_pair();
        let delta = base.extract_delta(&base, 1).unwrap();
        assert!(delta.is_empty());
        let rebuilt = base.apply_delta(&delta).unwrap();
        assert_eq!(rebuilt, base);
    }

    #[test]
    fn builder_enforces_row_order_and_bounds() {
        let mut b = MarkDeltaBuilder::int(1, 5);
        b.push_int(3, 0, 1);
        b.push_int(3, 1, 2);
        assert!(b.finish().is_err());
        let mut b = MarkDeltaBuilder::int(1, 5);
        b.push_int(5, 0, 1);
        assert!(b.finish().is_err());
        let mut b = MarkDeltaBuilder::text(1, 5, 2);
        assert_eq!(b.extend_dict("x"), 2);
        assert_eq!(b.extend_dict("y"), 3);
        b.push_code(0, 1, 3);
        assert!(b.finish().is_ok());
        let mut b = MarkDeltaBuilder::text(1, 5, 2);
        b.push_code(0, 1, 2);
        assert!(b.finish().is_err(), "new code escapes the extended dictionary");
    }
}
