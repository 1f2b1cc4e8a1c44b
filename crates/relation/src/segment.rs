//! Segmented, spill-to-disk relation storage for out-of-core
//! pipelines.
//!
//! A [`SegmentedRelation`] is a relation split into fixed-size row
//! **segments**. Each segment is a complete columnar [`Relation`]
//! chunk with *segment-local* dictionaries (compacted at seal time to
//! the entries its rows actually reference, in the order they first
//! appear), so a segment is fully self-describing and can be
//! serialized, dropped from memory, and read back in isolation: its
//! blob depends only on its rows, never on the relation it was cut
//! from or on any other segment. Cold segments spill to a
//! [`SegmentStore`] (a file for real
//! out-of-core runs, an in-memory arena for hermetic tests) in the
//! range-addressable format of [`crate::spill`], and a small pager
//! keeps the **resident working set under a configurable byte
//! budget**, evicting least-recently-used segments (re-serializing
//! them first when dirty). Nothing but per-segment bookkeeping stays
//! resident when every segment is spilled.
//!
//! # Segment-at-a-time access
//!
//! The out-of-core embed/decode drivers in `catmark-core` visit one
//! segment at a time through [`SegmentedRelation::with_segment`] /
//! [`SegmentedRelation::with_segment_mut`];
//! [`SegmentedRelation::to_relation`] materializes the whole relation
//! when a caller needs it in memory.

use crate::spill::{encode_segment, read_segment, MemStore, SegmentStore, SpillHandle};
use crate::{ColumnView, Dictionary, Relation, RelationError, Schema, Value};

/// Default rows per segment when the builder does not override it.
const DEFAULT_SEGMENT_ROWS: usize = 8_192;

/// Builder for a [`SegmentedRelation`]: segment granularity, resident
/// budget, and the backing [`SegmentStore`].
pub struct SegmentedRelationBuilder {
    schema: Schema,
    segment_rows: usize,
    budget: Option<usize>,
    store: Box<dyn SegmentStore>,
}

impl std::fmt::Debug for SegmentedRelationBuilder {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SegmentedRelationBuilder")
            .field("segment_rows", &self.segment_rows)
            .field("budget", &self.budget)
            .finish_non_exhaustive()
    }
}

impl SegmentedRelationBuilder {
    /// Rows per sealed segment (default 8192).
    ///
    /// # Panics
    ///
    /// Panics when `rows == 0`.
    #[must_use]
    pub fn segment_rows(mut self, rows: usize) -> Self {
        assert!(rows > 0, "segments must hold at least one row");
        self.segment_rows = rows;
        self
    }

    /// Byte budget for the **pageable** working set: the decoded
    /// segments currently resident. The pager evicts
    /// least-recently-used sealed segments to stay under it; the
    /// segment currently being read or written and the open tail are
    /// pinned, so the budget is honored whenever it can hold one
    /// segment. The always-resident per-segment bookkeeping
    /// (O(segments), independent of rows and distinct values) is *not*
    /// pageable and is reported separately by
    /// [`SegmentedRelation::resident_overhead_bytes`], like a
    /// database's catalog memory next to its buffer pool.
    #[must_use]
    pub fn budget_bytes(mut self, bytes: usize) -> Self {
        self.budget = Some(bytes);
        self
    }

    /// Replace the default in-memory store with `store` (e.g. a
    /// [`crate::spill::FileStore`] for data larger than RAM).
    #[must_use]
    pub fn store(mut self, store: Box<dyn SegmentStore>) -> Self {
        self.store = store;
        self
    }

    /// Finish building an empty segmented relation.
    #[must_use]
    pub fn build(self) -> SegmentedRelation {
        SegmentedRelation {
            schema: self.schema,
            segment_rows: self.segment_rows,
            budget: self.budget,
            store: self.store,
            slots: Vec::new(),
            len: 0,
            peak_pageable: 0,
            peak_segment: 0,
            clock: 0,
            stats: CacheStats::default(),
        }
    }

    /// Reopen a segmented relation from already-spilled segments — the
    /// versioned-store path (see [`crate::versioned`]): every slot
    /// starts cold (non-resident, clean, sealed) behind its existing
    /// [`SpillHandle`].
    #[must_use]
    pub fn open_spilled(self, segments: &[(SpillHandle, usize)]) -> SegmentedRelation {
        let mut seg = self.build();
        for &(handle, rows) in segments {
            seg.slots.push(Slot {
                rows,
                resident: None,
                handle: Some(handle),
                bytes: 0,
                dirty: false,
                sealed: true,
                content_fp: None,
                last_touch: 0,
            });
            seg.len += rows;
        }
        seg
    }

    /// Partition `rel` into sealed segments (spilling each beyond the
    /// budget as it seals).
    ///
    /// # Errors
    ///
    /// [`RelationError::InvalidSchema`] when `rel`'s schema differs
    /// from the one the builder was created with, or
    /// [`RelationError::Spill`] when the store cannot persist a
    /// segment.
    pub fn from_relation(self, rel: &Relation) -> Result<SegmentedRelation, RelationError> {
        if &self.schema != rel.schema() {
            return Err(RelationError::InvalidSchema(
                "builder schema differs from the relation being segmented".into(),
            ));
        }
        let mut seg = self.build();
        let mut start = 0;
        while start < rel.len() {
            let end = (start + seg.segment_rows).min(rel.len());
            let rows: Vec<usize> = (start..end).collect();
            seg.push_segment(rel.gather(&rows))?;
            start = end;
        }
        Ok(seg)
    }
}

/// One segment's bookkeeping: row count, residency, spill handle and
/// dirtiness.
#[derive(Debug)]
struct Slot {
    rows: usize,
    resident: Option<Relation>,
    handle: Option<SpillHandle>,
    /// Resident-byte estimate of the decoded segment (recorded when
    /// last resident) — what eviction planning budgets with.
    bytes: usize,
    dirty: bool,
    sealed: bool,
    /// Content fingerprint of the blob last written to the store —
    /// lets eviction skip re-serializing a "dirty" segment whose
    /// mutable pass turned out to be a no-op.
    content_fp: Option<u128>,
    last_touch: u64,
}

/// Hit/miss/eviction counters for a bounded cache — the pager here,
/// and the plan caches in `catmark-core` (which reuse this type so
/// every cache in the stack reports observability the same way).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Lookups satisfied without touching the backing store.
    pub hits: u64,
    /// Lookups that had to rebuild or page in the entry.
    pub misses: u64,
    /// Entries dropped to make room under the capacity bound.
    pub evictions: u64,
}

impl CacheStats {
    /// Fold `other`'s counters into these (for service-wide totals).
    pub fn absorb(&mut self, other: CacheStats) {
        self.hits += other.hits;
        self.misses += other.misses;
        self.evictions += other.evictions;
    }
}

/// A relation stored as fixed-size columnar segments behind a
/// budgeted pager — see the [module docs](self).
pub struct SegmentedRelation {
    schema: Schema,
    segment_rows: usize,
    budget: Option<usize>,
    store: Box<dyn SegmentStore>,
    slots: Vec<Slot>,
    len: usize,
    peak_pageable: usize,
    peak_segment: usize,
    clock: u64,
    stats: CacheStats,
}

impl std::fmt::Debug for SegmentedRelation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SegmentedRelation")
            .field("len", &self.len)
            .field("segments", &self.slots.len())
            .field("segment_rows", &self.segment_rows)
            .field("budget", &self.budget)
            .field("resident_bytes", &self.resident_bytes())
            .finish_non_exhaustive()
    }
}

impl SegmentedRelation {
    /// Start building a segmented relation over `schema`.
    #[must_use]
    pub fn builder(schema: Schema) -> SegmentedRelationBuilder {
        SegmentedRelationBuilder {
            schema,
            segment_rows: DEFAULT_SEGMENT_ROWS,
            budget: None,
            store: Box::new(MemStore::new()),
        }
    }

    /// The relation's schema.
    #[must_use]
    pub fn schema(&self) -> &Schema {
        &self.schema
    }

    /// Total number of tuples across all segments.
    #[must_use]
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the relation holds no tuples.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Number of segments (sealed plus the open tail, if any).
    #[must_use]
    pub fn segment_count(&self) -> usize {
        self.slots.len()
    }

    /// Rows per sealed segment.
    #[must_use]
    pub fn segment_rows(&self) -> usize {
        self.segment_rows
    }

    /// The configured resident budget, if any.
    #[must_use]
    pub fn budget_bytes(&self) -> Option<usize> {
        self.budget
    }

    /// Rows in segment `seg`.
    #[must_use]
    pub fn segment_len(&self, seg: usize) -> usize {
        self.slots[seg].rows
    }

    /// Append a tuple to the open tail segment (key duplicates across
    /// segments are tolerated, as with
    /// [`Relation::push_unchecked_key`]; a segmented relation keeps no
    /// global key index). Seals the tail when it reaches
    /// [`SegmentedRelation::segment_rows`].
    ///
    /// # Errors
    ///
    /// Schema mismatches, or [`RelationError::Spill`] when sealing
    /// fails to persist.
    pub fn push(&mut self, values: Vec<Value>) -> Result<(), RelationError> {
        let tail = match self.slots.last() {
            Some(slot) if !slot.sealed => self.slots.len() - 1,
            _ => {
                let rel = Relation::with_capacity(self.schema.clone(), self.segment_rows);
                self.new_slot(rel, false)?;
                self.slots.len() - 1
            }
        };
        let slot = &mut self.slots[tail];
        let rel = slot.resident.as_mut().expect("the open tail is always resident");
        rel.push_unchecked_key(values)?;
        slot.rows += 1;
        // Walking every column and dictionary entry per pushed tuple
        // would make ingest accounting O(rows × columns); the open
        // tail is pinned (never evicted), so its byte figure only
        // feeds peak sampling — refresh it periodically and exactly
        // at seal time.
        if slot.rows.is_multiple_of(256) {
            slot.bytes = rel.resident_bytes();
        }
        self.len += 1;
        if self.slots[tail].rows >= self.segment_rows {
            self.seal_slot(tail)?;
        }
        self.note_usage();
        Ok(())
    }

    /// Seal the open tail segment, even when partial or empty (an
    /// explicit empty trailing segment is valid and exercised by the
    /// boundary tests). A no-op when the tail is already sealed; when
    /// no tail exists an empty segment is created and sealed.
    ///
    /// # Errors
    ///
    /// [`RelationError::Spill`] when the store cannot persist it.
    pub fn seal_tail(&mut self) -> Result<(), RelationError> {
        match self.slots.last() {
            Some(slot) if !slot.sealed => self.seal_slot(self.slots.len() - 1),
            _ => {
                let rel = Relation::new(self.schema.clone());
                self.new_slot(rel, true)
            }
        }
    }

    /// Run `f` over segment `seg` as a read-only [`Relation`], paging
    /// it in (and others out) as needed.
    ///
    /// # Errors
    ///
    /// [`RelationError::Spill`] when paging fails.
    pub fn with_segment<R>(
        &mut self,
        seg: usize,
        f: impl FnOnce(&Relation) -> R,
    ) -> Result<R, RelationError> {
        self.make_resident(seg)?;
        let out = f(self.slots[seg].resident.as_ref().expect("just made resident"));
        Ok(out)
    }

    /// Run `f` over segment `seg` as a mutable [`Relation`] (the
    /// out-of-core embed path), marking it dirty — it re-serializes
    /// on its next eviction. Sealed segments are re-compacted
    /// afterwards: bulk writers (the embedder interns
    /// the whole domain up front) can leave local dictionaries full
    /// of unreferenced entries, which would otherwise defeat the
    /// resident budget segment by segment.
    ///
    /// # Errors
    ///
    /// [`RelationError::Spill`] when paging fails.
    pub fn with_segment_mut<R>(
        &mut self,
        seg: usize,
        f: impl FnOnce(&mut Relation) -> R,
    ) -> Result<R, RelationError> {
        self.make_resident(seg)?;
        let slot = &mut self.slots[seg];
        let rel = slot.resident.as_mut().expect("just made resident");
        let out = f(rel);
        slot.dirty = true;
        if slot.sealed {
            compact_dictionaries(rel);
        }
        slot.bytes = rel.resident_bytes();
        self.enforce_budget(Some(seg))?;
        self.note_usage();
        Ok(out)
    }

    /// Materialize the whole relation in memory (verification and
    /// small-data interop; the output is *not* budget-bounded).
    ///
    /// # Errors
    ///
    /// Paging errors.
    pub fn to_relation(&mut self) -> Result<Relation, RelationError> {
        let mut out = Relation::with_capacity(self.schema.clone(), self.len);
        for seg in 0..self.slots.len() {
            self.make_resident(seg)?;
            let rel = self.slots[seg].resident.as_ref().expect("resident");
            out.append(rel)?;
        }
        Ok(out)
    }

    /// Seal the tail and spill every dirty segment, leaving residency
    /// untouched (cheap crash-consistency point for the store).
    ///
    /// # Errors
    ///
    /// [`RelationError::Spill`] on store failures.
    pub fn flush(&mut self) -> Result<(), RelationError> {
        if self.slots.last().is_some_and(|s| !s.sealed) {
            self.seal_slot(self.slots.len() - 1)?;
        }
        for seg in 0..self.slots.len() {
            if self.slots[seg].dirty && self.slots[seg].resident.is_some() {
                self.write_back(seg)?;
            }
        }
        Ok(())
    }

    /// Current total resident footprint: the pageable decoded
    /// segments plus the always-resident overhead.
    #[must_use]
    pub fn resident_bytes(&self) -> usize {
        self.pageable_bytes() + self.resident_overhead_bytes()
    }

    /// Bytes of decoded segments currently resident — the working
    /// set the budget bounds.
    #[must_use]
    pub fn pageable_bytes(&self) -> usize {
        self.slots.iter().filter(|s| s.resident.is_some()).map(|s| s.bytes).sum()
    }

    /// The always-resident, non-pageable state: per-segment
    /// bookkeeping. O(segments), independent of how many rows or
    /// distinct values each segment holds.
    #[must_use]
    pub fn resident_overhead_bytes(&self) -> usize {
        self.slots.capacity() * std::mem::size_of::<Slot>()
    }

    /// High-water mark of [`SegmentedRelation::pageable_bytes`]
    /// observed at paging and mutation boundaries — the enforced
    /// ceiling the out-of-core bench asserts against the configured
    /// budget.
    #[must_use]
    pub fn peak_pageable_bytes(&self) -> usize {
        self.peak_pageable
    }

    /// Largest single decoded segment observed, in bytes. The pager's
    /// exact contract is `peak_pageable_bytes() <=
    /// max(budget, peak_segment_bytes())`: eviction empties everything
    /// evictable, but the one segment being operated on is pinned, so
    /// a segment bigger than the whole budget is the only way past
    /// the ceiling.
    #[must_use]
    pub fn peak_segment_bytes(&self) -> usize {
        self.peak_segment
    }

    /// Total bytes appended to the backing store.
    #[must_use]
    pub fn spilled_bytes(&self) -> u64 {
        self.store.spilled_bytes()
    }

    /// Pager cache counters: residency hits, page-ins (misses), and
    /// evictions since construction.
    #[must_use]
    pub fn cache_stats(&self) -> CacheStats {
        self.stats
    }

    /// The spill handle of segment `seg`'s last written-back blob
    /// (`None` while the segment has only ever been resident). After
    /// [`SegmentedRelation::flush`] every segment has one — the hook
    /// the versioned commit log uses to map segments to content
    /// hashes.
    #[must_use]
    pub fn segment_handle(&self, seg: usize) -> Option<SpillHandle> {
        self.slots[seg].handle.filter(|_| !self.slots[seg].dirty)
    }

    // ------------------------------------------------------------------
    // Pager internals.
    // ------------------------------------------------------------------

    /// Register `rel` as a fresh slot (the open tail, or sealed
    /// immediately when `seal`).
    fn push_segment(&mut self, rel: Relation) -> Result<(), RelationError> {
        self.len += rel.len();
        self.new_slot(rel, true)
    }

    fn new_slot(&mut self, rel: Relation, seal: bool) -> Result<(), RelationError> {
        let slot = Slot {
            rows: rel.len(),
            bytes: rel.resident_bytes(),
            resident: Some(rel),
            handle: None,
            dirty: true,
            sealed: false,
            content_fp: None,
            last_touch: self.tick(),
        };
        self.slots.push(slot);
        let seg = self.slots.len() - 1;
        if seal {
            self.seal_slot(seg)?;
        } else {
            self.enforce_budget(Some(seg))?;
            self.note_usage();
        }
        Ok(())
    }

    /// Seal segment `seg`: compact its text dictionaries to the
    /// entries its rows reference, serialize it to the store, and
    /// re-enforce the budget.
    fn seal_slot(&mut self, seg: usize) -> Result<(), RelationError> {
        let slot = &mut self.slots[seg];
        let rel = slot.resident.as_mut().expect("sealing requires residency");
        compact_dictionaries(rel);
        slot.bytes = rel.resident_bytes();
        slot.sealed = true;
        self.write_back(seg)?;
        self.enforce_budget(Some(seg))?;
        self.note_usage();
        Ok(())
    }

    /// Serialize segment `seg` (resident) and append it to the store
    /// — unless its content matches the blob already spilled (a
    /// mutable pass that altered nothing), in which case the existing
    /// handle stays valid and the append-only log does not grow.
    fn write_back(&mut self, seg: usize) -> Result<(), RelationError> {
        let (fp, unchanged) = {
            let slot = &self.slots[seg];
            let rel = slot.resident.as_ref().expect("write-back requires residency");
            let fp = segment_content_fp(rel);
            (fp, slot.handle.is_some() && slot.content_fp == Some(fp))
        };
        if unchanged {
            self.slots[seg].dirty = false;
            return Ok(());
        }
        let blob = encode_segment(self.slots[seg].resident.as_ref().expect("resident"));
        let handle = self.store.append(&blob)?;
        let slot = &mut self.slots[seg];
        slot.handle = Some(handle);
        slot.content_fp = Some(fp);
        slot.dirty = false;
        Ok(())
    }

    /// Page segment `seg` in, evicting others to honor the budget.
    fn make_resident(&mut self, seg: usize) -> Result<(), RelationError> {
        let touch = self.tick();
        if self.slots[seg].resident.is_some() {
            self.slots[seg].last_touch = touch;
            self.stats.hits += 1;
            return Ok(());
        }
        self.stats.misses += 1;
        let incoming = self.slots[seg].bytes;
        self.evict_to_fit(incoming, seg)?;
        let handle = self.slots[seg].handle.expect("a non-resident segment is always spilled");
        let rel = read_segment(self.store.as_ref(), handle, &self.schema)?;
        let slot = &mut self.slots[seg];
        slot.bytes = rel.resident_bytes();
        slot.resident = Some(rel);
        slot.last_touch = touch;
        self.enforce_budget(Some(seg))?;
        self.note_usage();
        Ok(())
    }

    /// Evict LRU sealed segments until `incoming` more bytes fit.
    fn evict_to_fit(&mut self, incoming: usize, protect: usize) -> Result<(), RelationError> {
        let Some(budget) = self.budget else { return Ok(()) };
        let target = budget.saturating_sub(incoming);
        while self.pageable_bytes() > target {
            if !self.evict_one(protect)? {
                break;
            }
        }
        Ok(())
    }

    /// Evict resident segments (LRU first) while over budget.
    fn enforce_budget(&mut self, protect: Option<usize>) -> Result<(), RelationError> {
        let Some(budget) = self.budget else { return Ok(()) };
        while self.pageable_bytes() > budget {
            if !self.evict_one(protect.unwrap_or(usize::MAX))? {
                break;
            }
        }
        Ok(())
    }

    /// Evict the least-recently-used evictable segment. Returns false
    /// when nothing can be evicted (only the protected segment or the
    /// open tail remain).
    fn evict_one(&mut self, protect: usize) -> Result<bool, RelationError> {
        let victim = self
            .slots
            .iter()
            .enumerate()
            .filter(|(i, s)| *i != protect && s.sealed && s.resident.is_some())
            .min_by_key(|(_, s)| s.last_touch)
            .map(|(i, _)| i);
        let Some(victim) = victim else { return Ok(false) };
        if self.slots[victim].dirty {
            self.write_back(victim)?;
        }
        self.slots[victim].resident = None;
        self.stats.evictions += 1;
        Ok(true)
    }

    fn tick(&mut self) -> u64 {
        self.clock += 1;
        self.clock
    }

    /// Sample the resident footprints into the high-water marks.
    fn note_usage(&mut self) {
        self.peak_pageable = self.peak_pageable.max(self.pageable_bytes());
        let largest =
            self.slots.iter().filter(|s| s.resident.is_some()).map(|s| s.bytes).max().unwrap_or(0);
        self.peak_segment = self.peak_segment.max(largest);
    }
}

/// Rebuild every text column's dictionary to hold exactly the entries
/// its rows reference, in first-occurrence order — what makes a
/// sealed segment's dictionary *segment-local*, and its blob a
/// function of its rows alone, even when the segment was gathered out
/// of a relation whose dictionary orders the same values differently.
fn compact_dictionaries(rel: &mut Relation) {
    let arity = rel.schema().arity();
    for attr in 0..arity {
        let ColumnView::Text { codes, dict } = rel.column(attr) else { continue };
        // Skip when already compact: codes first appear in the order
        // 0, 1, 2, … and every entry is used.
        let mut seen = 0u32;
        let in_order = codes.iter().all(|&c| {
            if c == seen {
                seen += 1;
            }
            c < seen
        });
        if in_order && seen as usize == dict.len() {
            continue;
        }
        let mut remap: Vec<u32> = vec![u32::MAX; dict.len()];
        let mut compact = Dictionary::new();
        let new_codes: Vec<u32> = codes
            .iter()
            .map(|&c| {
                if remap[c as usize] == u32::MAX {
                    remap[c as usize] = compact.intern(dict.get(c));
                }
                remap[c as usize]
            })
            .collect();
        rel.replace_text_column(attr, new_codes, compact);
    }
}

/// 128-bit (non-cryptographic) fingerprint of a segment's stored
/// content — raw integers, codes, and dictionary entries. Segments
/// are compacted before every write-back, so equal logical content
/// implies equal storage layout and the fingerprint is
/// layout-stable. It gates the skip of a spill append, where a false
/// "unchanged" would mean stale bytes on reload — hence 128 bits of
/// margin rather than the 64 a pure cache key would need.
fn segment_content_fp(rel: &Relation) -> u128 {
    fn mix(h: u64, v: u64, k: u64) -> u64 {
        (h ^ v).wrapping_mul(k).rotate_left(23)
    }
    // Two independent 64-bit folds (distinct odd multipliers and
    // seeds) form a 128-bit verdict: a false "unchanged" here would
    // serve stale bytes after reload, so the collision margin is
    // sized for data safety, not cache efficiency.
    let mut a = 0xCBF2_9CE4_8422_2325u64 ^ rel.len() as u64;
    let mut b = 0x9AE1_6A3B_2F90_404Fu64 ^ (rel.len() as u64).rotate_left(32);
    let mut write = |v: u64| {
        a = mix(a, v, 0x9E37_79B9_7F4A_7C15);
        b = mix(b, v, 0xC2B2_AE3D_27D4_EB4F);
    };
    for attr in 0..rel.schema().arity() {
        match rel.column(attr) {
            ColumnView::Int(xs) => {
                write(0x01);
                for &x in xs {
                    write(x as u64);
                }
            }
            ColumnView::Text { codes, dict } => {
                write(0x02);
                for entry in dict.entries() {
                    write(entry.len() as u64);
                    for &byte in entry.as_bytes() {
                        write(u64::from(byte));
                    }
                }
                for &c in codes {
                    write(u64::from(c));
                }
            }
        }
    }
    (u128::from(a) << 64) | u128::from(b)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spill::FileStore;
    use crate::AttrType;

    fn schema() -> Schema {
        Schema::builder()
            .key_attr("k", AttrType::Integer)
            .categorical_attr("a", AttrType::Integer)
            .categorical_attr("c", AttrType::Text)
            .build()
            .unwrap()
    }

    fn sample_row(i: i64) -> Vec<Value> {
        let cities = ["boston", "austin", "chicago", "dallas", "el paso"];
        vec![Value::Int(i), Value::Int(i % 7), Value::Text(cities[(i % 5) as usize].into())]
    }

    fn sample(n: i64) -> Relation {
        let mut rel = Relation::new(schema());
        for i in 0..n {
            rel.push(sample_row(i)).unwrap();
        }
        rel
    }

    fn segmented(rel: &Relation, rows: usize) -> SegmentedRelation {
        SegmentedRelation::builder(rel.schema().clone())
            .segment_rows(rows)
            .from_relation(rel)
            .unwrap()
    }

    #[test]
    fn from_relation_round_trips() {
        let rel = sample(100);
        for rows in [1, 7, 33, 100, 128] {
            let mut seg = segmented(&rel, rows);
            assert_eq!(seg.len(), 100);
            assert_eq!(seg.segment_count(), 100usize.div_ceil(rows));
            let back = seg.to_relation().unwrap();
            assert_eq!(back, rel);
        }
    }

    #[test]
    fn push_seals_at_the_boundary_and_round_trips() {
        let rel = sample(25);
        let mut seg = SegmentedRelation::builder(rel.schema().clone()).segment_rows(10).build();
        for i in 0..25 {
            seg.push(sample_row(i)).unwrap();
        }
        assert_eq!(seg.segment_count(), 3, "two sealed + one open tail");
        seg.seal_tail().unwrap();
        let back = seg.to_relation().unwrap();
        assert_eq!(back, rel);
    }

    #[test]
    fn empty_trailing_segments_are_valid() {
        let rel = sample(20);
        let mut seg = SegmentedRelation::builder(rel.schema().clone()).segment_rows(10).build();
        for i in 0..20 {
            seg.push(sample_row(i)).unwrap();
        }
        // 20 rows at 10/segment: the tail sealed itself; force an
        // explicit empty trailing segment on top.
        seg.seal_tail().unwrap();
        assert_eq!(seg.segment_count(), 3);
        assert_eq!(seg.segment_len(2), 0);
        assert_eq!(seg.len(), 20);
        let back = seg.to_relation().unwrap();
        assert_eq!(back.len(), 20);
    }

    #[test]
    fn sealed_segments_have_local_dictionaries() {
        // A 2-row segment of 5-city data holds only its own 2 cities.
        let mut tiny = segmented(&sample(2), 5);
        tiny.with_segment(0, |r| {
            let (_, dict) = r.column(2).as_text().unwrap();
            assert_eq!(dict.len(), 2, "segment-local dictionary not compacted");
        })
        .unwrap();
        // Rows 7..14 use all 5 cities, starting at "chicago": the
        // segment orders them as it first sees them, not as the
        // relation it was cut from does.
        let mut seg = segmented(&sample(100), 7);
        seg.with_segment(1, |r| {
            let (codes, dict) = r.column(2).as_text().unwrap();
            let entries: Vec<&str> = dict.entries().iter().map(|e| &**e).collect();
            assert_eq!(entries, ["chicago", "dallas", "el paso", "boston", "austin"]);
            assert_eq!(codes, [0, 1, 2, 3, 4, 0, 1]);
        })
        .unwrap();
    }

    #[test]
    fn budget_is_enforced_and_peak_tracked() {
        let rel = sample(2_000);
        let total = rel.resident_bytes();
        let budget = total / 4;
        let mut seg = SegmentedRelation::builder(rel.schema().clone())
            .segment_rows(125) // 16 segments, each ~1/16 of the data
            .budget_bytes(budget)
            .from_relation(&rel)
            .unwrap();
        for i in 0..seg.segment_count() {
            seg.with_segment(i, |_| ()).unwrap();
        }
        assert!(
            seg.peak_pageable_bytes() <= budget,
            "peak {} exceeds budget {budget}",
            seg.peak_pageable_bytes()
        );
        assert!(seg.pageable_bytes() <= budget);
        assert!(seg.spilled_bytes() > 0, "cold segments must have spilled");
        // The data is still intact after all that paging.
        let back = seg.to_relation().unwrap();
        assert_eq!(back, rel);
    }

    #[test]
    fn dirty_segments_survive_eviction() {
        let rel = sample(300);
        let budget = rel.resident_bytes() / 4;
        let mut seg = SegmentedRelation::builder(rel.schema().clone())
            .segment_rows(30)
            .budget_bytes(budget)
            .from_relation(&rel)
            .unwrap();
        // Rewrite one value per segment, then force everything through
        // the pager again.
        for i in 0..seg.segment_count() {
            seg.with_segment_mut(i, |r| {
                r.update_value(0, 1, Value::Int(999)).unwrap();
            })
            .unwrap();
        }
        let back = seg.to_relation().unwrap();
        for i in 0..seg.segment_count() {
            assert_eq!(
                back.value(i * 30, 1).unwrap(),
                Value::Int(999),
                "segment {i} lost its write"
            );
        }
    }

    #[test]
    fn file_store_backs_a_segmented_relation() {
        let dir =
            std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../target/tmp-segment-unit");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("unit.spill");
        let rel = sample(200);
        let mut seg = SegmentedRelation::builder(rel.schema().clone())
            .segment_rows(32)
            .budget_bytes(rel.resident_bytes() / 3)
            .store(Box::new(FileStore::create(&path).unwrap()))
            .from_relation(&rel)
            .unwrap();
        let back = seg.to_relation().unwrap();
        assert_eq!(back, rel);
        assert!(seg.spilled_bytes() > 0);
        let _ = std::fs::remove_file(&path);
    }
}
