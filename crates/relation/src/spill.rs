//! Spilled-segment byte stores and the on-disk segment format.
//!
//! A [`crate::SegmentedRelation`] keeps only a bounded working set of
//! its segments resident; the rest live as serialized blobs behind a
//! [`SegmentStore`]. The store is deliberately dumb — an append-only
//! arena of bytes addressed by [`SpillHandle`]s and read back by
//! *byte range* (the mmap access pattern: the pager reads a segment's
//! fixed-size header first, then exactly the column ranges it needs)
//! — so backends stay trivial: [`MemStore`] is a `Vec<u8>` for
//! hermetic tests, [`FileStore`] a positioned file for relations
//! larger than RAM.
//!
//! ```
//! use catmark_relation::spill::{MemStore, SegmentStore};
//!
//! let mut store = MemStore::new();
//! let handle = store.append(b"segment bytes").unwrap();
//! // Byte-range read, mmap-style: no need to fetch the whole blob.
//! assert_eq!(store.read(handle, 8..13).unwrap(), b"bytes");
//! assert_eq!(store.spilled_bytes(), 13);
//! ```
//!
//! # Segment format
//!
//! One blob per segment:
//!
//! ```text
//! [0..8)    magic  b"CMKSEG1\0"
//! [8..12)   rows   u32 LE
//! [12..16)  ncols  u32 LE (must equal the schema arity)
//! [16..16+16*ncols)  column directory: (offset u64, len u64) LE,
//!                    offsets relative to the blob start
//! ...       column payloads:
//!           Int:  tag 0x01, rows × i64 LE
//!           Text: tag 0x02, dict-entry count u32, entries as
//!                 (len u32, utf-8 bytes), then rows × u32 LE codes
//! ```
//!
//! The directory is what makes reads range-addressable: the header's
//! size is computable from the schema alone, so a pager can fetch the
//! directory and then each column's exact byte range independently.

use std::ops::Range;

use crate::{AttrType, ColumnView, Relation, RelationError, Schema};

/// Magic bytes opening every serialized segment.
const MAGIC: &[u8; 8] = b"CMKSEG1\0";
/// Column payload tag for integer columns.
const TAG_INT: u8 = 0x01;
/// Column payload tag for text columns.
const TAG_TEXT: u8 = 0x02;

/// Address of one spilled segment inside a [`SegmentStore`]: the
/// arena offset of its first byte plus its serialized length.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpillHandle {
    /// Offset of the blob's first byte in the store's arena.
    pub offset: u64,
    /// Serialized length of the blob in bytes.
    pub len: u64,
}

/// An append-only byte arena with range-addressed reads — the
/// storage contract behind spilled segments.
///
/// Implementations never interpret the bytes; the segment format
/// above is the pager's business. Rewriting a dirty segment appends a
/// fresh blob (the old range becomes garbage), which keeps every
/// backend a strict log.
pub trait SegmentStore: std::fmt::Debug + Send {
    /// Append `bytes` as one blob, returning its handle.
    ///
    /// # Errors
    ///
    /// [`RelationError::Spill`] when the backend cannot persist the
    /// blob (I/O failure, arena exhausted).
    fn append(&mut self, bytes: &[u8]) -> Result<SpillHandle, RelationError>;

    /// Read `range` (relative to the blob start) of the blob at
    /// `handle` — the mmap-style partial read the pager uses to fetch
    /// a header or a single column payload.
    ///
    /// # Errors
    ///
    /// [`RelationError::Spill`] when the range exceeds the blob or
    /// the backend fails to read.
    fn read(&self, handle: SpillHandle, range: Range<u64>) -> Result<Vec<u8>, RelationError>;

    /// Total bytes ever appended (including superseded blobs).
    fn spilled_bytes(&self) -> u64;
}

fn spill_err(msg: impl Into<String>) -> RelationError {
    RelationError::Spill(msg.into())
}

fn check_range(handle: SpillHandle, range: &Range<u64>) -> Result<(), RelationError> {
    if range.start > range.end || range.end > handle.len {
        return Err(spill_err(format!(
            "range {}..{} outside blob of {} bytes",
            range.start, range.end, handle.len
        )));
    }
    Ok(())
}

/// In-memory [`SegmentStore`]: one growable byte arena. The hermetic
/// default for tests and for bounding the *columnar working set*
/// (decoded segments) rather than total process memory.
#[derive(Debug, Default)]
pub struct MemStore {
    arena: Vec<u8>,
}

impl MemStore {
    /// Empty store.
    #[must_use]
    pub fn new() -> Self {
        MemStore::default()
    }
}

impl SegmentStore for MemStore {
    fn append(&mut self, bytes: &[u8]) -> Result<SpillHandle, RelationError> {
        let offset = self.arena.len() as u64;
        self.arena.extend_from_slice(bytes);
        Ok(SpillHandle { offset, len: bytes.len() as u64 })
    }

    fn read(&self, handle: SpillHandle, range: Range<u64>) -> Result<Vec<u8>, RelationError> {
        check_range(handle, &range)?;
        let start = (handle.offset + range.start) as usize;
        let end = (handle.offset + range.end) as usize;
        self.arena
            .get(start..end)
            .map(<[u8]>::to_vec)
            .ok_or_else(|| spill_err("handle outside arena"))
    }

    fn spilled_bytes(&self) -> u64 {
        self.arena.len() as u64
    }
}

/// File-backed [`SegmentStore`]: an append-only spill file with
/// positioned byte-range reads — the backend for relations larger
/// than RAM.
#[derive(Debug)]
pub struct FileStore {
    file: std::sync::Mutex<std::fs::File>,
    end: u64,
}

impl FileStore {
    /// Create (truncating) the spill file at `path`.
    ///
    /// # Errors
    ///
    /// [`RelationError::Spill`] when the file cannot be created.
    pub fn create(path: impl AsRef<std::path::Path>) -> Result<Self, RelationError> {
        let file = std::fs::OpenOptions::new()
            .read(true)
            .write(true)
            .create(true)
            .truncate(true)
            .open(path.as_ref())
            .map_err(|e| spill_err(format!("create {:?}: {e}", path.as_ref())))?;
        Ok(FileStore { file: std::sync::Mutex::new(file), end: 0 })
    }

    /// Open an existing spill file at `path` without truncating it,
    /// appending after its current end — the reopen path for
    /// content-addressed piles (see [`crate::versioned`]), whose
    /// record framing makes the existing bytes re-indexable.
    ///
    /// # Errors
    ///
    /// [`RelationError::Spill`] when the file cannot be opened or
    /// its length read.
    pub fn open(path: impl AsRef<std::path::Path>) -> Result<Self, RelationError> {
        let file = std::fs::OpenOptions::new()
            .read(true)
            .write(true)
            .create(true)
            .truncate(false)
            .open(path.as_ref())
            .map_err(|e| spill_err(format!("open {:?}: {e}", path.as_ref())))?;
        let end = file.metadata().map_err(|e| spill_err(format!("stat: {e}")))?.len();
        Ok(FileStore { file: std::sync::Mutex::new(file), end })
    }
}

impl SegmentStore for FileStore {
    fn append(&mut self, bytes: &[u8]) -> Result<SpillHandle, RelationError> {
        use std::io::{Seek, SeekFrom, Write};
        let offset = self.end;
        let mut file = self.file.lock().expect("spill file lock is never poisoned");
        file.seek(SeekFrom::Start(offset)).map_err(|e| spill_err(format!("seek: {e}")))?;
        file.write_all(bytes).map_err(|e| spill_err(format!("write: {e}")))?;
        self.end += bytes.len() as u64;
        Ok(SpillHandle { offset, len: bytes.len() as u64 })
    }

    fn read(&self, handle: SpillHandle, range: Range<u64>) -> Result<Vec<u8>, RelationError> {
        use std::io::{Read, Seek, SeekFrom};
        check_range(handle, &range)?;
        let mut out = vec![0u8; (range.end - range.start) as usize];
        let mut file = self.file.lock().expect("spill file lock is never poisoned");
        file.seek(SeekFrom::Start(handle.offset + range.start))
            .map_err(|e| spill_err(format!("seek: {e}")))?;
        file.read_exact(&mut out).map_err(|e| spill_err(format!("read: {e}")))?;
        Ok(out)
    }

    fn spilled_bytes(&self) -> u64 {
        self.end
    }
}

/// Serialize one segment (a schema-conformant [`Relation`]) into the
/// blob format above.
#[must_use]
pub fn encode_segment(rel: &Relation) -> Vec<u8> {
    let ncols = rel.schema().arity();
    let header_len = 16 + 16 * ncols;
    let mut payloads: Vec<Vec<u8>> = Vec::with_capacity(ncols);
    for i in 0..ncols {
        let mut buf = Vec::new();
        match rel.column(i) {
            ColumnView::Int(xs) => {
                buf.push(TAG_INT);
                for &x in xs {
                    buf.extend_from_slice(&x.to_le_bytes());
                }
            }
            ColumnView::Text { codes, dict } => {
                buf.push(TAG_TEXT);
                buf.extend_from_slice(&(dict.len() as u32).to_le_bytes());
                for entry in dict.entries() {
                    buf.extend_from_slice(&(entry.len() as u32).to_le_bytes());
                    buf.extend_from_slice(entry.as_bytes());
                }
                for &c in codes {
                    buf.extend_from_slice(&c.to_le_bytes());
                }
            }
        }
        payloads.push(buf);
    }
    let total: usize = header_len + payloads.iter().map(Vec::len).sum::<usize>();
    let mut blob = Vec::with_capacity(total);
    blob.extend_from_slice(MAGIC);
    blob.extend_from_slice(&(rel.len() as u32).to_le_bytes());
    blob.extend_from_slice(&(ncols as u32).to_le_bytes());
    let mut offset = header_len as u64;
    for payload in &payloads {
        blob.extend_from_slice(&offset.to_le_bytes());
        blob.extend_from_slice(&(payload.len() as u64).to_le_bytes());
        offset += payload.len() as u64;
    }
    for payload in &payloads {
        blob.extend_from_slice(payload);
    }
    blob
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
        let end = self.pos.checked_add(n).ok_or_else(|| spill_err("length overflow"))?;
        let slice =
            self.bytes.get(self.pos..end).ok_or_else(|| spill_err("truncated segment blob"))?;
        self.pos = end;
        Ok(slice)
    }

    fn u32(&mut self) -> Result<u32, RelationError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().expect("4 bytes")))
    }

    fn u64(&mut self) -> Result<u64, RelationError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().expect("8 bytes")))
    }
}

/// Read one segment back from `store` by ranged reads: the header
/// (whose size follows from `schema` alone), then each column's exact
/// byte range from the directory.
///
/// # Errors
///
/// [`RelationError::Spill`] on format/IO corruption, or the schema
/// errors [`Relation::from_columns`] raises when the decoded columns
/// do not fit `schema`.
pub fn read_segment(
    store: &dyn SegmentStore,
    handle: SpillHandle,
    schema: &Schema,
) -> Result<Relation, RelationError> {
    let ncols = schema.arity();
    let header_len = (16 + 16 * ncols) as u64;
    let header = store.read(handle, 0..header_len)?;
    let mut cur = Cursor::new(&header);
    if cur.take(8)? != MAGIC {
        return Err(spill_err("bad segment magic"));
    }
    let rows = cur.u32()? as usize;
    if cur.u32()? as usize != ncols {
        return Err(spill_err("segment column count does not match schema arity"));
    }
    let mut columns = Vec::with_capacity(ncols);
    for attr in schema.attrs() {
        let offset = cur.u64()?;
        let len = cur.u64()?;
        let payload = store.read(handle, offset..offset + len)?;
        let mut body = Cursor::new(&payload);
        let tag = body.take(1)?[0];
        let column = match (attr.ty, tag) {
            (AttrType::Integer, TAG_INT) => {
                let mut xs = Vec::with_capacity(rows);
                for _ in 0..rows {
                    xs.push(i64::from_le_bytes(body.take(8)?.try_into().expect("8 bytes")));
                }
                crate::Column::Int(xs)
            }
            (AttrType::Text, TAG_TEXT) => {
                let ndict = body.u32()? as usize;
                let mut dict = crate::Dictionary::new();
                for _ in 0..ndict {
                    let len = body.u32()? as usize;
                    let s = std::str::from_utf8(body.take(len)?)
                        .map_err(|_| spill_err("dictionary entry is not utf-8"))?;
                    dict.intern(s);
                }
                if dict.len() != ndict {
                    return Err(spill_err("duplicate dictionary entries in segment blob"));
                }
                let mut codes = Vec::with_capacity(rows);
                for _ in 0..rows {
                    codes.push(body.u32()?);
                }
                crate::Column::Text { codes, dict }
            }
            _ => {
                return Err(spill_err(format!(
                    "column tag {tag:#x} does not match schema type {}",
                    attr.ty.name()
                )))
            }
        };
        columns.push(column);
    }
    Relation::from_columns(schema.clone(), columns)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{AttrType, Value};

    fn sample() -> Relation {
        let schema = Schema::builder()
            .key_attr("k", AttrType::Integer)
            .categorical_attr("c", AttrType::Text)
            .build()
            .unwrap();
        let mut rel = Relation::new(schema);
        for (k, c) in [(1, "x"), (2, "y"), (3, "x")] {
            rel.push(vec![Value::Int(k), Value::Text(c.into())]).unwrap();
        }
        rel
    }

    #[test]
    fn encode_read_round_trips_through_mem_store() {
        let rel = sample();
        let mut store = MemStore::new();
        let handle = store.append(&encode_segment(&rel)).unwrap();
        let back = read_segment(&store, handle, rel.schema()).unwrap();
        assert_eq!(back.len(), rel.len());
        assert_eq!(back, rel);
    }

    #[test]
    fn empty_segment_round_trips() {
        let rel = Relation::new(sample().schema().clone());
        let mut store = MemStore::new();
        let handle = store.append(&encode_segment(&rel)).unwrap();
        let back = read_segment(&store, handle, rel.schema()).unwrap();
        assert_eq!(back.len(), 0);
    }

    #[test]
    #[allow(clippy::reversed_empty_ranges)] // start > end is the case under test
    fn range_reads_are_partial_and_bounds_checked() {
        let mut store = MemStore::new();
        let h = store.append(b"0123456789").unwrap();
        assert_eq!(store.read(h, 2..5).unwrap(), b"234");
        assert!(store.read(h, 5..11).is_err());
        assert!(store.read(h, 7..6).is_err());
    }

    #[test]
    fn corrupt_blobs_error_instead_of_panicking() {
        let rel = sample();
        let mut store = MemStore::new();
        let mut blob = encode_segment(&rel);
        blob[0] = b'X';
        let h = store.append(&blob).unwrap();
        assert!(matches!(read_segment(&store, h, rel.schema()), Err(RelationError::Spill(_))));
        // Truncated payload.
        let good = encode_segment(&rel);
        let h = store.append(&good[..good.len() - 4]).unwrap();
        assert!(read_segment(&store, h, rel.schema()).is_err());
    }

    #[test]
    fn handles_address_multiple_blobs_independently() {
        let rel = sample();
        let mut store = MemStore::new();
        let a = store.append(&encode_segment(&rel)).unwrap();
        let b = store.append(b"garbage-in-between").unwrap();
        let c = store.append(&encode_segment(&rel)).unwrap();
        assert!(a.offset < b.offset && b.offset < c.offset);
        for h in [a, c] {
            let back = read_segment(&store, h, rel.schema()).unwrap();
            assert_eq!(back.len(), rel.len());
        }
        assert_eq!(store.spilled_bytes(), c.offset + c.len);
    }
}
