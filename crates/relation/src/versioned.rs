//! Content-addressed blob storage and versioned segment manifests.
//!
//! This module turns the dumb append-only [`SegmentStore`] arena into
//! a *pile*: every sealed segment blob is keyed by its SHA-256
//! content hash, and a commit log of **manifests** (the `CMKVER1`
//! wire format) records each relation version as an ordered list of
//! blob hashes. A segment blob depends only on its rows, so a manifest
//! needs no other state. Two consequences fall out:
//!
//! * **Structural sharing.** An updated relation shares every
//!   unchanged segment blob with its ancestors — committing a version
//!   that touched one segment out of sixteen appends one blob, and
//!   the other fifteen manifest entries point at bytes already in the
//!   pile. Eviction write-backs of clean segments dedup the same way,
//!   so a [`crate::spill::FileStore`] behind a [`ContentStore`] stops
//!   rewriting clean segments entirely.
//! * **Time travel.** Any recorded version reopens as a
//!   [`SegmentedRelation`] ([`VersionLog::open_version`]) against the
//!   same pile — the hook the service layer uses to run watermark
//!   detection against historical versions for leak attribution.
//!
//! The incremental re-mark drivers in `catmark-core` diff two
//! manifests' hash lists to find the *dirty* segments — the only ones
//! that need re-planning and re-embedding under churn.
//!
//! # Pile record format
//!
//! The inner store holds self-describing records so an on-disk pile
//! can be reopened and re-indexed by a linear scan
//! ([`ContentStore::open_file`]):
//!
//! ```text
//! [0..8)    magic  b"CMKBLB1\0"
//! [8..40)   SHA-256 of the payload
//! [40..48)  payload length u64 LE
//! [48..)    payload (a CMKSEG1 segment blob)
//! ```
//!
//! [`SpillHandle`]s returned by the store address the *payload*, so
//! the pager's ranged reads work unchanged.
//!
//! # Manifest record format (`CMKVER1`)
//!
//! A [`VersionLog`] serializes as concatenated records:
//!
//! ```text
//! [0..8)    magic  b"CMKVER1\0"
//! [8..16)   version id u64 LE
//! [16..24)  parent id u64 LE (u64::MAX = none)
//! [24..32)  segment_rows u64 LE
//! [32..36)  arity u32 LE
//! [36..40)  segment count u32 LE
//! ...       per attribute: tag u8 (0 = no dictionary, 1 = dictionary:
//!           entry count u32, entries as (len u32, utf-8))
//! ...       per segment: blob hash (32 bytes), rows u64 LE
//! ```
//!
//! Writers emit tag 0 for every attribute. Logs written while
//! manifests still persisted a relation-level dictionary carry tag 1
//! for text attributes; readers check those entries' lengths and
//! UTF-8 and skip them. Any other tag is an error.

use std::collections::{HashMap, HashSet};
use std::ops::Range;
use std::sync::{Arc, Mutex};

use catmark_crypto::HashAlgorithm;

use crate::segment::SegmentedRelation;
use crate::spill::{MemStore, SegmentStore, SpillHandle};
use crate::{FileStore, RelationError, Schema};

/// SHA-256 content hash of one segment blob.
pub type BlobHash = [u8; 32];

/// Magic bytes opening every pile record.
const BLOB_MAGIC: &[u8; 8] = b"CMKBLB1\0";
/// Bytes of pile record framing before the payload.
const BLOB_HEADER: u64 = 48;
/// Magic bytes opening every manifest record.
const VER_MAGIC: &[u8; 8] = b"CMKVER1\0";
/// Parent-id sentinel for a rootless manifest.
const NO_PARENT: u64 = u64::MAX;

fn spill_err(msg: impl Into<String>) -> RelationError {
    RelationError::Spill(msg.into())
}

/// Render a blob hash as lowercase hex (manifest listings, service
/// payloads).
#[must_use]
pub fn hash_hex(hash: &BlobHash) -> String {
    use std::fmt::Write as _;
    let mut text = String::with_capacity(64);
    for b in hash {
        write!(text, "{b:02x}").expect("writing to a String never fails");
    }
    text
}

fn sha256(bytes: &[u8]) -> BlobHash {
    HashAlgorithm::Sha256.digest(bytes).try_into().expect("sha-256 digests are 32 bytes")
}

#[derive(Debug)]
struct ContentStoreInner {
    store: Box<dyn SegmentStore>,
    /// Content hash → payload handle of the first (only) copy.
    index: HashMap<BlobHash, SpillHandle>,
    /// Payload offset → content hash (the reverse map commits use).
    by_offset: HashMap<u64, BlobHash>,
    /// Payload handles in append order (what gc walks).
    order: Vec<SpillHandle>,
    dedup_hits: u64,
}

/// A content-addressed, append-only wrapper over any [`SegmentStore`]:
/// appends are keyed by SHA-256, so a blob whose bytes are already in
/// the pile returns the existing handle instead of growing the log.
///
/// The store is a cheaply cloneable handle (shared state behind an
/// `Arc`), so one clone can back a [`SegmentedRelation`]'s pager while
/// another resolves hashes for the commit log.
#[derive(Debug, Clone)]
pub struct ContentStore {
    inner: Arc<Mutex<ContentStoreInner>>,
}

impl ContentStore {
    /// Wrap a fresh (empty) backing store.
    #[must_use]
    pub fn new(store: Box<dyn SegmentStore>) -> Self {
        ContentStore {
            inner: Arc::new(Mutex::new(ContentStoreInner {
                store,
                index: HashMap::new(),
                by_offset: HashMap::new(),
                order: Vec::new(),
                dedup_hits: 0,
            })),
        }
    }

    /// An in-memory pile (hermetic tests, the service's default).
    #[must_use]
    pub fn in_memory() -> Self {
        ContentStore::new(Box::new(MemStore::new()))
    }

    /// Create (truncating) an on-disk pile at `path`.
    ///
    /// # Errors
    ///
    /// [`RelationError::Spill`] when the file cannot be created.
    pub fn create_file(path: impl AsRef<std::path::Path>) -> Result<Self, RelationError> {
        Ok(ContentStore::new(Box::new(FileStore::create(path)?)))
    }

    /// Reopen an existing on-disk pile, rebuilding the hash index by
    /// scanning its record framing.
    ///
    /// # Errors
    ///
    /// [`RelationError::Spill`] on I/O failure or corrupt framing.
    pub fn open_file(path: impl AsRef<std::path::Path>) -> Result<Self, RelationError> {
        let file = FileStore::open(path)?;
        let end = file.spilled_bytes();
        let store = ContentStore::new(Box::new(file));
        {
            let mut inner = store.inner.lock().expect("content store lock is never poisoned");
            let mut pos = 0u64;
            while pos < end {
                if pos + BLOB_HEADER > end {
                    return Err(spill_err("truncated pile record header"));
                }
                let probe = SpillHandle { offset: pos, len: BLOB_HEADER };
                let header = inner.store.read(probe, 0..BLOB_HEADER)?;
                if &header[0..8] != BLOB_MAGIC {
                    return Err(spill_err(format!("bad pile record magic at offset {pos}")));
                }
                let hash: BlobHash = header[8..40].try_into().expect("32 bytes");
                let len = u64::from_le_bytes(header[40..48].try_into().expect("8 bytes"));
                if pos + BLOB_HEADER + len > end {
                    return Err(spill_err(format!("truncated pile payload at offset {pos}")));
                }
                let handle = SpillHandle { offset: pos + BLOB_HEADER, len };
                inner.index.entry(hash).or_insert(handle);
                inner.by_offset.insert(handle.offset, hash);
                inner.order.push(handle);
                pos += BLOB_HEADER + len;
            }
        }
        Ok(store)
    }

    /// The payload handle of the blob with content `hash`, if stored.
    #[must_use]
    pub fn handle_of(&self, hash: &BlobHash) -> Option<SpillHandle> {
        self.inner.lock().expect("content store lock is never poisoned").index.get(hash).copied()
    }

    /// The content hash of the blob behind `handle`, if the handle was
    /// issued by this store.
    #[must_use]
    pub fn hash_at(&self, handle: SpillHandle) -> Option<BlobHash> {
        self.inner
            .lock()
            .expect("content store lock is never poisoned")
            .by_offset
            .get(&handle.offset)
            .copied()
    }

    /// Number of distinct blobs in the pile.
    #[must_use]
    pub fn unique_blobs(&self) -> u64 {
        self.inner.lock().expect("content store lock is never poisoned").index.len() as u64
    }

    /// Appends satisfied by an existing blob (no bytes written) — the
    /// "clean segments are never rewritten" counter.
    #[must_use]
    pub fn dedup_hits(&self) -> u64 {
        self.inner.lock().expect("content store lock is never poisoned").dedup_hits
    }

    /// Copy every blob referenced by `live` manifests into `dest` (in
    /// pile order), dropping the rest — garbage collection by rewrite,
    /// the only safe shape for an append-only log. Handles change;
    /// manifests stay valid because they reference *hashes*.
    ///
    /// # Errors
    ///
    /// [`RelationError::Spill`] when a live hash is missing from this
    /// pile or the copy fails.
    pub fn gc_into<'a>(
        &self,
        live: impl IntoIterator<Item = &'a VersionManifest>,
        dest: &ContentStore,
    ) -> Result<GcStats, RelationError> {
        let mut wanted: HashSet<BlobHash> = HashSet::new();
        for manifest in live {
            for seg in &manifest.segments {
                wanted.insert(seg.hash);
            }
        }
        let (order, total_blobs) = {
            let inner = self.inner.lock().expect("content store lock is never poisoned");
            (inner.order.clone(), inner.index.len() as u64)
        };
        let mut stats = GcStats::default();
        let mut copied: HashSet<BlobHash> = HashSet::new();
        for handle in order {
            let Some(hash) = self.hash_at(handle) else { continue };
            if !wanted.contains(&hash) || !copied.insert(hash) {
                continue;
            }
            let bytes = self.read(handle, 0..handle.len)?;
            dest.clone().append(&bytes)?;
            stats.live_blobs += 1;
            stats.live_bytes += handle.len;
        }
        for hash in &wanted {
            if !copied.contains(hash) {
                return Err(spill_err(format!("live blob {} missing from pile", hash_hex(hash))));
            }
        }
        stats.dropped_blobs = total_blobs - stats.live_blobs;
        Ok(stats)
    }
}

impl SegmentStore for ContentStore {
    fn append(&mut self, bytes: &[u8]) -> Result<SpillHandle, RelationError> {
        let hash = sha256(bytes);
        let mut inner = self.inner.lock().expect("content store lock is never poisoned");
        if let Some(&handle) = inner.index.get(&hash) {
            inner.dedup_hits += 1;
            return Ok(handle);
        }
        let mut framed = Vec::with_capacity(bytes.len() + BLOB_HEADER as usize);
        framed.extend_from_slice(BLOB_MAGIC);
        framed.extend_from_slice(&hash);
        framed.extend_from_slice(&(bytes.len() as u64).to_le_bytes());
        framed.extend_from_slice(bytes);
        let record = inner.store.append(&framed)?;
        let handle = SpillHandle { offset: record.offset + BLOB_HEADER, len: bytes.len() as u64 };
        inner.index.insert(hash, handle);
        inner.by_offset.insert(handle.offset, hash);
        inner.order.push(handle);
        Ok(handle)
    }

    fn read(&self, handle: SpillHandle, range: Range<u64>) -> Result<Vec<u8>, RelationError> {
        self.inner.lock().expect("content store lock is never poisoned").store.read(handle, range)
    }

    fn spilled_bytes(&self) -> u64 {
        self.inner.lock().expect("content store lock is never poisoned").store.spilled_bytes()
    }
}

/// What [`ContentStore::gc_into`] kept and dropped.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct GcStats {
    /// Distinct live blobs copied into the destination pile.
    pub live_blobs: u64,
    /// Payload bytes those blobs occupy.
    pub live_bytes: u64,
    /// Distinct blobs left behind (unreferenced by any live manifest).
    pub dropped_blobs: u64,
}

/// One segment's entry in a [`VersionManifest`]: the blob's content
/// hash and its row count.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SegmentRef {
    /// SHA-256 of the segment's CMKSEG1 blob.
    pub hash: BlobHash,
    /// Rows the segment holds.
    pub rows: u64,
}

/// One committed relation version: an ordered list of segment blob
/// hashes and the attribute count of the schema it was committed
/// under.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct VersionManifest {
    /// This version's id (position in the commit log).
    pub id: u64,
    /// The version this one was derived from, if any.
    pub parent: Option<u64>,
    /// Rows per sealed segment at commit time.
    pub segment_rows: u64,
    /// Attributes in the schema at commit time.
    pub arity: u32,
    /// The segments, in row order.
    pub segments: Vec<SegmentRef>,
}

impl VersionManifest {
    /// Total rows across the manifest's segments.
    #[must_use]
    pub fn rows(&self) -> u64 {
        self.segments.iter().map(|s| s.rows).sum()
    }

    /// Indices of segments whose blob hash differs from `ancestor`'s
    /// entry at the same position (or that have no counterpart) — the
    /// segments an incremental re-mark must touch. `None` when the
    /// diff is not segment-aligned (different segment geometry), in
    /// which case callers must fall back to a full pass.
    #[must_use]
    pub fn dirty_against(&self, ancestor: &VersionManifest) -> Option<Vec<usize>> {
        if self.segment_rows != ancestor.segment_rows
            || self.segments.len() != ancestor.segments.len()
        {
            return None;
        }
        if self.segments.iter().zip(&ancestor.segments).any(|(cur, old)| cur.rows != old.rows) {
            return None;
        }
        Some(
            self.segments
                .iter()
                .zip(&ancestor.segments)
                .enumerate()
                .filter(|(_, (cur, old))| cur.hash != old.hash)
                .map(|(i, _)| i)
                .collect(),
        )
    }

    fn encode_into(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(VER_MAGIC);
        out.extend_from_slice(&self.id.to_le_bytes());
        out.extend_from_slice(&self.parent.unwrap_or(NO_PARENT).to_le_bytes());
        out.extend_from_slice(&self.segment_rows.to_le_bytes());
        out.extend_from_slice(&self.arity.to_le_bytes());
        out.extend_from_slice(&(self.segments.len() as u32).to_le_bytes());
        // Tag 0 ("no dictionary") for every attribute.
        out.resize(out.len() + self.arity as usize, 0);
        for seg in &self.segments {
            out.extend_from_slice(&seg.hash);
            out.extend_from_slice(&seg.rows.to_le_bytes());
        }
    }
}

/// Little-endian cursor over a byte slice (decode side).
struct Cursor<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Cursor<'a> {
    fn take(&mut self, n: usize) -> Result<&'a [u8], RelationError> {
        let end = self.pos.checked_add(n).ok_or_else(|| spill_err("length overflow"))?;
        let slice =
            self.bytes.get(self.pos..end).ok_or_else(|| spill_err("truncated manifest record"))?;
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

/// The append-only commit log of [`VersionManifest`]s for one
/// relation. Version ids are assigned sequentially at commit.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct VersionLog {
    manifests: Vec<VersionManifest>,
}

impl VersionLog {
    /// An empty log.
    #[must_use]
    pub fn new() -> Self {
        VersionLog::default()
    }

    /// All committed manifests, oldest first.
    #[must_use]
    pub fn manifests(&self) -> &[VersionManifest] {
        &self.manifests
    }

    /// The manifest of version `id`.
    #[must_use]
    pub fn get(&self, id: u64) -> Option<&VersionManifest> {
        self.manifests.get(id as usize)
    }

    /// Commit the current state of `seg` as a new version: flush it
    /// (sealing the tail and writing back dirty segments — deduped by
    /// the content store), then record the ordered blob hashes. The
    /// parent is the previous head.
    ///
    /// # Errors
    ///
    /// [`RelationError::Spill`] when flushing fails or `seg`'s pager
    /// is not backed by `store` (its handles don't resolve to hashes).
    pub fn commit(
        &mut self,
        seg: &mut SegmentedRelation,
        store: &ContentStore,
    ) -> Result<u64, RelationError> {
        seg.flush()?;
        let mut segments = Vec::with_capacity(seg.segment_count());
        for i in 0..seg.segment_count() {
            let handle = seg
                .segment_handle(i)
                .ok_or_else(|| spill_err(format!("segment {i} has no written-back blob")))?;
            let hash = store.hash_at(handle).ok_or_else(|| {
                spill_err(format!("segment {i} was not spilled through the content store"))
            })?;
            segments.push(SegmentRef { hash, rows: seg.segment_len(i) as u64 });
        }
        let id = self.manifests.len() as u64;
        let parent = self.manifests.last().map(|m| m.id);
        self.manifests.push(VersionManifest {
            id,
            parent,
            segment_rows: seg.segment_rows() as u64,
            arity: seg.schema().arity() as u32,
            segments,
        });
        Ok(id)
    }

    /// Reopen version `id` as a [`SegmentedRelation`] over `store`,
    /// with every segment cold and an optional pager budget.
    ///
    /// # Errors
    ///
    /// [`RelationError::Spill`] when the version is unknown or one of
    /// its blobs is missing from the pile;
    /// [`RelationError::InvalidSchema`] when `schema` does not match
    /// the manifest's arity.
    pub fn open_version(
        &self,
        id: u64,
        schema: &Schema,
        store: &ContentStore,
        budget: Option<usize>,
    ) -> Result<SegmentedRelation, RelationError> {
        let manifest = self.get(id).ok_or_else(|| spill_err(format!("unknown version {id}")))?;
        if manifest.arity as usize != schema.arity() {
            return Err(RelationError::InvalidSchema(
                "manifest arity does not match the schema".into(),
            ));
        }
        let mut segments = Vec::with_capacity(manifest.segments.len());
        for (i, seg) in manifest.segments.iter().enumerate() {
            let handle = store.handle_of(&seg.hash).ok_or_else(|| {
                spill_err(format!(
                    "version {id} segment {i} blob {} missing from pile",
                    hash_hex(&seg.hash)
                ))
            })?;
            segments.push((handle, seg.rows as usize));
        }
        let mut builder = SegmentedRelation::builder(schema.clone())
            .segment_rows(manifest.segment_rows.max(1) as usize)
            .store(Box::new(store.clone()));
        if let Some(bytes) = budget {
            builder = builder.budget_bytes(bytes);
        }
        Ok(builder.open_spilled(&segments))
    }

    /// Serialize the whole log as concatenated `CMKVER1` records.
    #[must_use]
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::new();
        for manifest in &self.manifests {
            manifest.encode_into(&mut out);
        }
        out
    }

    /// Decode a log serialized by [`VersionLog::encode`], or by a
    /// writer that still persisted dictionary sections (see the
    /// [module docs](self)).
    ///
    /// # Errors
    ///
    /// [`RelationError::Spill`] on corrupt or truncated records.
    pub fn decode(bytes: &[u8]) -> Result<Self, RelationError> {
        let mut cur = Cursor { bytes, pos: 0 };
        let mut manifests = Vec::new();
        while cur.pos < bytes.len() {
            if cur.take(8)? != VER_MAGIC {
                return Err(spill_err("bad manifest record magic"));
            }
            let id = cur.u64()?;
            let parent = match cur.u64()? {
                NO_PARENT => None,
                p => Some(p),
            };
            let segment_rows = cur.u64()?;
            let arity = cur.u32()?;
            let nsegs = cur.u32()? as usize;
            for _ in 0..arity {
                match cur.take(1)?[0] {
                    0 => {}
                    1 => {
                        for _ in 0..cur.u32()? {
                            let len = cur.u32()? as usize;
                            std::str::from_utf8(cur.take(len)?)
                                .map_err(|_| spill_err("dictionary entry is not utf-8"))?;
                        }
                    }
                    tag => return Err(spill_err(format!("bad dictionary tag {tag:#x}"))),
                }
            }
            // A segment entry is 40 bytes: a corrupt count must not
            // reserve more than the input could hold.
            let mut segments = Vec::with_capacity(nsegs.min(bytes.len() / 40));
            for _ in 0..nsegs {
                let hash: BlobHash = cur.take(32)?.try_into().expect("32 bytes");
                let rows = cur.u64()?;
                segments.push(SegmentRef { hash, rows });
            }
            if id as usize != manifests.len() {
                return Err(spill_err("manifest ids must be dense and in order"));
            }
            manifests.push(VersionManifest { id, parent, segment_rows, arity, segments });
        }
        Ok(VersionLog { manifests })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{AttrType, Relation, Value};

    fn schema() -> Schema {
        Schema::builder()
            .key_attr("k", AttrType::Integer)
            .categorical_attr("a", AttrType::Integer)
            .categorical_attr("c", AttrType::Text)
            .build()
            .unwrap()
    }

    fn sample(n: i64) -> Relation {
        let mut rel = Relation::new(schema());
        let cities = ["boston", "austin", "chicago", "dallas", "el paso"];
        for i in 0..n {
            rel.push(vec![
                Value::Int(i),
                Value::Int(i % 7),
                Value::Text(cities[(i % 5) as usize].into()),
            ])
            .unwrap();
        }
        rel
    }

    fn versioned(rel: &Relation, rows: usize) -> (SegmentedRelation, ContentStore) {
        let store = ContentStore::in_memory();
        let seg = SegmentedRelation::builder(rel.schema().clone())
            .segment_rows(rows)
            .store(Box::new(store.clone()))
            .from_relation(rel)
            .unwrap();
        (seg, store)
    }

    #[test]
    fn identical_blobs_are_stored_once() {
        let mut store = ContentStore::in_memory();
        let a = store.append(b"same bytes").unwrap();
        let b = store.append(b"same bytes").unwrap();
        let c = store.append(b"other bytes").unwrap();
        assert_eq!(a, b, "dedup must return the original handle");
        assert_ne!(a, c);
        assert_eq!(store.unique_blobs(), 2);
        assert_eq!(store.dedup_hits(), 1);
        assert_eq!(store.read(a, 0..10).unwrap(), b"same bytes");
        assert_eq!(store.hash_at(a), Some(sha256(b"same bytes")));
        assert_eq!(store.handle_of(&sha256(b"other bytes")), Some(c));
    }

    #[test]
    fn commit_then_reopen_round_trips() {
        let rel = sample(100);
        let (mut seg, store) = versioned(&rel, 30);
        let mut log = VersionLog::new();
        let v0 = log.commit(&mut seg, &store).unwrap();
        assert_eq!(v0, 0);
        assert_eq!(log.manifests().last().unwrap().rows(), 100);
        let mut back = log.open_version(v0, rel.schema(), &store, None).unwrap();
        let round = back.to_relation().unwrap();
        assert_eq!(round, rel);
        // A schema with another attribute count is refused.
        let narrower = Schema::builder()
            .key_attr("k", AttrType::Integer)
            .categorical_attr("a", AttrType::Integer)
            .build()
            .unwrap();
        assert!(matches!(
            log.open_version(v0, &narrower, &store, None),
            Err(RelationError::InvalidSchema(_))
        ));
    }

    #[test]
    fn updated_versions_share_clean_blobs_with_ancestors() {
        let rel = sample(120);
        let (mut seg, store) = versioned(&rel, 30); // 4 segments
        let mut log = VersionLog::new();
        let v0 = log.commit(&mut seg, &store).unwrap();
        let blobs_after_v0 = store.unique_blobs();
        seg.with_segment_mut(2, |r| r.update_value(5, 1, Value::Int(999)).unwrap()).unwrap();
        let v1 = log.commit(&mut seg, &store).unwrap();
        let (m0, m1) = (log.get(v0).unwrap().clone(), log.get(v1).unwrap().clone());
        assert_eq!(m1.parent, Some(v0));
        for i in [0usize, 1, 3] {
            assert_eq!(m0.segments[i].hash, m1.segments[i].hash, "clean segment {i} rewritten");
        }
        assert_ne!(m0.segments[2].hash, m1.segments[2].hash);
        assert_eq!(store.unique_blobs(), blobs_after_v0 + 1, "only the dirty blob is new");
        assert_eq!(m1.dirty_against(&m0), Some(vec![2]));
        assert_eq!(m0.dirty_against(&m0), Some(vec![]));
        // Both versions remain reconstructible.
        let old = log.open_version(v0, rel.schema(), &store, None).unwrap().to_relation().unwrap();
        assert_eq!(old, rel);
        let new = log.open_version(v1, rel.schema(), &store, None).unwrap().to_relation().unwrap();
        assert_eq!(new.value(65, 1).unwrap(), Value::Int(999));
    }

    #[test]
    fn log_encode_decode_round_trips() {
        let rel = sample(45);
        let (mut seg, store) = versioned(&rel, 20);
        let mut log = VersionLog::new();
        log.commit(&mut seg, &store).unwrap();
        seg.with_segment_mut(0, |r| r.update_value(0, 2, Value::Text("nowhere".into())).unwrap())
            .unwrap();
        log.commit(&mut seg, &store).unwrap();
        let decoded = VersionLog::decode(&log.encode()).unwrap();
        assert_eq!(decoded, log);
        assert!(VersionLog::decode(b"CMKVERX_garbage.....................").is_err());
        assert_eq!(VersionLog::decode(b"").unwrap(), VersionLog::new());
        // A header claiming u32::MAX segments fails as truncated.
        let mut huge = log.encode()[..43].to_vec();
        huge[36..40].copy_from_slice(&u32::MAX.to_le_bytes());
        assert!(VersionLog::decode(&huge).is_err());
    }

    #[test]
    fn dictionary_sections_are_checked_and_skipped() {
        let rel = sample(45);
        let (mut seg, store) = versioned(&rel, 20);
        let mut log = VersionLog::new();
        log.commit(&mut seg, &store).unwrap();
        let encoded = log.encode();
        assert_eq!(&encoded[40..43], &[0, 0, 0], "every attribute is written as tag 0");
        // The same record with a tag-1 section on the text attribute.
        let with_section = |tag: u8, entry: &[u8]| {
            let mut out = encoded[..42].to_vec();
            out.push(tag);
            out.extend_from_slice(&1u32.to_le_bytes());
            out.extend_from_slice(&(entry.len() as u32).to_le_bytes());
            out.extend_from_slice(entry);
            out.extend_from_slice(&encoded[43..]);
            out
        };
        assert_eq!(VersionLog::decode(&with_section(1, b"boston")).unwrap(), log);
        assert!(VersionLog::decode(&with_section(1, b"\xff\xfe")).is_err(), "not utf-8");
        assert!(VersionLog::decode(&with_section(2, b"boston")).is_err(), "unknown tag");
        let truncated = with_section(1, b"boston");
        assert!(VersionLog::decode(&truncated[..50]).is_err());
    }

    #[test]
    fn file_pile_reopens_with_its_index() {
        let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("../../target/tmp-versioned-unit");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("pile.cmk");
        let rel = sample(60);
        let hashes: Vec<BlobHash> = {
            let store = ContentStore::create_file(&path).unwrap();
            let mut seg = SegmentedRelation::builder(rel.schema().clone())
                .segment_rows(20)
                .store(Box::new(store.clone()))
                .from_relation(&rel)
                .unwrap();
            let mut log = VersionLog::new();
            log.commit(&mut seg, &store).unwrap();
            log.manifests().last().unwrap().segments.iter().map(|s| s.hash).collect()
        };
        let reopened = ContentStore::open_file(&path).unwrap();
        assert_eq!(reopened.unique_blobs(), hashes.len() as u64);
        for hash in &hashes {
            let handle = reopened.handle_of(hash).expect("blob re-indexed");
            let bytes = reopened.read(handle, 0..handle.len).unwrap();
            assert_eq!(sha256(&bytes), *hash, "payload bytes intact after reopen");
        }
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn gc_keeps_shared_ancestor_blobs_and_drops_orphans() {
        let rel = sample(120);
        let (mut seg, store) = versioned(&rel, 30);
        let mut log = VersionLog::new();
        let v0 = log.commit(&mut seg, &store).unwrap();
        seg.with_segment_mut(1, |r| r.update_value(3, 1, Value::Int(777)).unwrap()).unwrap();
        let v1 = log.commit(&mut seg, &store).unwrap();
        // An orphan: bytes in the pile no manifest references.
        store.clone().append(b"abandoned experiment").unwrap();
        let live_before = store.unique_blobs();
        let dest = ContentStore::in_memory();
        let stats = store.gc_into(log.manifests(), &dest).unwrap();
        assert_eq!(stats.live_blobs, 5, "4 shared ancestor blobs + 1 rewritten");
        assert_eq!(stats.dropped_blobs, live_before - 5);
        assert_eq!(dest.unique_blobs(), 5);
        // The clean ancestor blobs survive under the same hashes, so
        // *both* versions reopen from the collected pile.
        for v in [v0, v1] {
            let mut back = log.open_version(v, rel.schema(), &dest, None).unwrap();
            assert_eq!(back.to_relation().unwrap().len(), 120);
        }
        // A missing live blob is an error, not silent data loss.
        let empty = ContentStore::in_memory();
        assert!(empty.gc_into(log.manifests(), &dest).is_err());
    }
}
