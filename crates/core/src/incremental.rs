//! Incremental re-mark and re-detect under churn: [`MarkSession`]
//! drivers that diff [`VersionManifest`]s instead of re-visiting every
//! segment.
//!
//! A versioned segmented relation (see `catmark_relation::versioned`)
//! commits each state as an ordered list of content-hashed segment
//! blobs. When a marked relation is updated and must be re-marked, the
//! manifests tell the drivers **exactly** which segments changed: a
//! segment whose blob hash matches the last *marked* manifest still
//! holds its marked bytes, and one whose hash differs must be
//! re-embedded. Both drivers run the segment walk of
//! [`crate::outofcore`] with a skip rule, so a clean segment or a
//! vote-cache hit is never paged in.
//!
//! # Why skipping clean segments is byte-identical
//!
//! Embedding is **idempotent**: a fit tuple's new value is a pure
//! function of its key, the watermark, and the domain — never of the
//! value currently stored. Re-embedding an already-marked segment
//! rewrites every fit tuple to the value it already holds. So the full
//! re-pass and the incremental pass agree byte for byte: on dirty
//! segments both run the same per-segment pass (a segment's
//! [`crate::plan::MarkPlan`] is an exact slice of the monolithic one),
//! and on clean segments the full pass is a no-op while the
//! incremental pass does not even page them in. The golden
//! byte-identity suite pins this.
//!
//! Decoding is a sum of commutative per-position vote increments
//! resolved once at the end, so a clean segment's votes can be folded
//! in from a cache ([`VoteCache`], keyed by `(spec identity, key
//! column, target column, blob hash)`) instead of re-hashing its keys —
//! the resolved [`DecodeReport`] is identical to the full streaming
//! decode by commutativity (`VoteAccumulator` merge order never
//! matters).
//!
//! # Contract
//!
//! The caller hands the driver two manifests of the **same** pile:
//! `marked`, committed immediately after the previous (full or
//! incremental) embed, and `current`, committed after the updates and
//! describing `seg`'s present contents. Commit before re-marking —
//! uncommitted mutations are invisible to the diff. When the
//! geometry changed (segment size, segment count, or any segment's
//! row count), the diff is undefined and the drivers fall back to the
//! full segmented pass.

use std::collections::{HashMap, HashSet};

use catmark_relation::{BlobHash, CacheStats, SegmentedRelation, VersionManifest};

use crate::decode::{DecodeReport, VoteAccumulator};
use crate::embed::EmbedReport;
use crate::error::CoreError;
use crate::outofcore::Walk;
use crate::session::MarkSession;
use crate::spec::Watermark;

/// Outcome of [`MarkSession::embed_incremental`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct IncrementalEmbedReport {
    /// The embed pass over the segments actually visited. On the
    /// incremental path `total_tuples`, `fit_tuples`, `touched_rows`,
    /// and `positions_covered` describe the **dirty segments only**
    /// (clean segments already hold their marked bytes); on the
    /// fallback path this is the full-pass report.
    pub report: EmbedReport,
    /// Segments re-embedded because their blob hash changed.
    pub dirty_segments: usize,
    /// Segments skipped because their blob hash still matches the
    /// marked manifest.
    pub clean_segments: usize,
    /// Whether the driver fell back to the full segmented pass
    /// because the manifests' geometries differ.
    pub full_fallback: bool,
}

/// Outcome of [`MarkSession::decode_incremental`].
#[derive(Debug, Clone, PartialEq)]
pub struct IncrementalDecodeReport {
    /// The resolved decode — identical to
    /// [`MarkSession::decode_segmented`] over the same contents.
    pub report: DecodeReport,
    /// Segments whose votes were accumulated fresh this pass.
    pub accumulated_segments: usize,
    /// Segments whose votes were folded in from the [`VoteCache`].
    pub cached_segments: usize,
}

/// What a segment's vote tally depends on besides the blob's bytes:
/// the spec's identity and the indices of the key and target columns
/// the session binds.
pub(crate) type TallyBinding = (u64, usize, usize);

/// Memoized per-segment vote tallies, keyed by `(spec identity, key
/// column, target column, blob hash)`.
///
/// A segment blob's votes are a pure function of its bytes under the
/// spec's keys and the session's column binding, so that key fully
/// identifies them: any version, any position in the relation, any
/// time — and sessions binding different columns over the same blobs
/// never share a tally. After each [`MarkSession::decode_incremental`]
/// pass the cache retains only the hashes of the manifest just decoded
/// (per binding), bounding it to one manifest's worth of tallies per
/// binding while keeping the clean majority warm across churn rounds.
#[derive(Debug, Default)]
pub struct VoteCache {
    entries: HashMap<(TallyBinding, BlobHash), VoteAccumulator>,
    stats: CacheStats,
}

impl VoteCache {
    /// Fresh, empty cache.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Cached segment tallies currently held.
    #[must_use]
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the cache holds no tallies.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Lifetime hit/miss/eviction counters.
    #[must_use]
    pub fn stats(&self) -> CacheStats {
        self.stats
    }

    /// Drop every cached tally. Counters survive — they describe
    /// traffic, not contents.
    pub fn clear(&mut self) {
        self.entries.clear();
    }

    /// Counted lookup.
    pub(crate) fn lookup(
        &mut self,
        key: TallyBinding,
        hash: &BlobHash,
    ) -> Option<&VoteAccumulator> {
        let found = self.entries.get(&(key, *hash));
        if found.is_some() {
            self.stats.hits += 1;
        } else {
            self.stats.misses += 1;
        }
        found
    }

    pub(crate) fn insert(&mut self, binding: TallyBinding, hash: BlobHash, votes: VoteAccumulator) {
        self.entries.insert((binding, hash), votes);
    }

    /// Keep only `binding`'s entries for blobs referenced by
    /// `manifest` (other bindings' entries are untouched). Dropped
    /// entries count as evictions.
    pub(crate) fn retain_manifest(&mut self, binding: TallyBinding, manifest: &VersionManifest) {
        let live: HashSet<&BlobHash> = manifest.segments.iter().map(|s| &s.hash).collect();
        let before = self.entries.len();
        self.entries.retain(|(b, hash), _| *b != binding || live.contains(hash));
        self.stats.evictions += (before - self.entries.len()) as u64;
    }
}

impl MarkSession {
    /// [`MarkSession::embed_segmented`] that re-embeds **only** the
    /// segments whose content hash changed between the `marked`
    /// manifest (committed right after the previous embed) and the
    /// `current` one (committed after the updates, describing `seg`
    /// now). Byte-identical to the full segmented pass — embedding is
    /// idempotent, so segments whose blobs are unchanged already hold
    /// exactly the bytes a full re-pass would write (see the module
    /// docs). Falls back to the full pass when the manifests'
    /// geometries differ.
    ///
    /// # Errors
    ///
    /// Binding drift, watermark length mismatch,
    /// [`CoreError::InvalidSpec`] when `current` does not describe
    /// `seg`, or [`CoreError::Relation`] when paging/spilling fails.
    pub fn embed_incremental(
        &self,
        seg: &mut SegmentedRelation,
        wm: &Watermark,
        marked: &VersionManifest,
        current: &VersionManifest,
    ) -> Result<IncrementalEmbedReport, CoreError> {
        // A changed geometry leaves the per-segment diff undefined:
        // the fallback walks every segment, as the plain driver does.
        let dirty = current.dirty_against(marked);
        let full_fallback = dirty.is_none();
        let visited = dirty.as_ref().map(Vec::len);
        let (report, _) = self.embed_walk(seg, wm, None, Walk::Auto, Some(current), dirty)?;
        let dirty_segments = visited.unwrap_or(seg.segment_count());
        Ok(IncrementalEmbedReport {
            report,
            dirty_segments,
            clean_segments: seg.segment_count() - dirty_segments,
            full_fallback,
        })
    }

    /// [`MarkSession::decode_segmented`] that folds the cached tally of
    /// every blob `cache` already holds for this session's binding —
    /// without paging those segments in — and tallies (and caches)
    /// only new blobs. The resolved report is identical to the full
    /// streaming decode: votes are commutative per-position
    /// increments, so merge order cannot change the resolution.
    /// `manifest` must describe `seg`'s committed contents.
    ///
    /// # Errors
    ///
    /// Binding drift, [`CoreError::InvalidSpec`] when `manifest` does
    /// not describe `seg`, or [`CoreError::Relation`] when paging
    /// fails.
    pub fn decode_incremental(
        &self,
        seg: &mut SegmentedRelation,
        manifest: &VersionManifest,
        cache: &mut VoteCache,
    ) -> Result<IncrementalDecodeReport, CoreError> {
        let (tallies, _) = self.tally_walk(seg, Walk::Auto, Some((manifest, cache)), false)?;
        Ok(IncrementalDecodeReport {
            report: tallies.resolve()?,
            accumulated_segments: tallies.accumulated,
            cached_segments: tallies.cached,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::detect::detect;
    use catmark_datagen::{ItemScanConfig, SalesGenerator};
    use catmark_relation::{ContentStore, Relation, Value, VersionLog};

    const SEG_ROWS: usize = 250;

    fn fixture(tuples: usize, e: u64) -> (Relation, MarkSession, Watermark) {
        let gen = SalesGenerator::new(ItemScanConfig { tuples, ..Default::default() });
        let rel = gen.generate();
        let spec = crate::WatermarkSpec::builder(gen.item_domain())
            .master_key("incremental-tests")
            .e(e)
            .wm_len(10)
            .expected_tuples(tuples)
            .build()
            .unwrap();
        let session = MarkSession::builder(spec)
            .key_column("visit_nbr")
            .target_column("item_nbr")
            .bind(&rel)
            .unwrap();
        (rel, session, Watermark::from_u64(0b1011001110, 10))
    }

    fn versioned(rel: &Relation, store: &ContentStore) -> SegmentedRelation {
        SegmentedRelation::builder(rel.schema().clone())
            .segment_rows(SEG_ROWS)
            .store(Box::new(store.clone()))
            .from_relation(rel)
            .unwrap()
    }

    /// Overwrite ~`frac` of the target column with deterministic
    /// domain values, clustered so only some segments go dirty.
    fn churn(seg: &mut SegmentedRelation, session: &MarkSession, frac_rows: usize, seed: u64) {
        let domain: Vec<Value> = session.spec().domain.values().to_vec();
        let mut state = seed | 1;
        let attr = session.target().index();
        for k in 0..frac_rows {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            // Confine updates to the first quarter of the segments so
            // the rest stay clean.
            let span = (seg.segment_count() / 4).max(1) * SEG_ROWS;
            let row = (state as usize) % span.min(seg.len());
            let value = domain[(k + row) % domain.len()].clone();
            let (s, local) = (row / SEG_ROWS, row % SEG_ROWS);
            seg.with_segment_mut(s, |rel| rel.update_value(local, attr, value)).unwrap().unwrap();
        }
    }

    #[test]
    fn incremental_embed_is_byte_identical_to_full_repass() {
        let (rel, session, wm) = fixture(4_000, 10);
        let store = ContentStore::in_memory();
        let mut log = VersionLog::new();
        let mut seg = versioned(&rel, &store);
        session.embed_segmented(&mut seg, &wm).unwrap();
        let marked_id = log.commit(&mut seg, &store).unwrap();

        churn(&mut seg, &session, 400, 0xC0FFEE);
        let current_id = log.commit(&mut seg, &store).unwrap();
        let marked = log.get(marked_id).unwrap().clone();
        let current = log.get(current_id).unwrap().clone();

        // A twin of the updated, pre-re-mark state for the full pass.
        let mut twin = log.open_version(current_id, rel.schema(), &store, None).unwrap();
        session.embed_segmented(&mut twin, &wm).unwrap();

        let inc = session.embed_incremental(&mut seg, &wm, &marked, &current).unwrap();
        assert!(!inc.full_fallback);
        assert!(inc.dirty_segments > 0, "churn dirtied no segment");
        assert!(inc.clean_segments > 0, "churn dirtied every segment");
        assert_eq!(inc.dirty_segments + inc.clean_segments, seg.segment_count());

        let ours = seg.to_relation().unwrap();
        let theirs = twin.to_relation().unwrap();
        assert!(ours == theirs, "incremental re-mark diverged from the full re-pass");
        // And the re-marked commit shares every clean blob with the
        // marked ancestor.
        let remarked_id = log.commit(&mut seg, &store).unwrap();
        let remarked = log.get(remarked_id).unwrap();
        let still_dirty = remarked.dirty_against(&marked).unwrap();
        assert!(still_dirty.len() <= inc.dirty_segments);
    }

    #[test]
    fn incremental_decode_matches_full_and_reuses_cached_tallies() {
        let (rel, session, wm) = fixture(4_000, 10);
        let store = ContentStore::in_memory();
        let mut log = VersionLog::new();
        let mut seg = versioned(&rel, &store);
        session.embed_segmented(&mut seg, &wm).unwrap();
        let marked_id = log.commit(&mut seg, &store).unwrap();
        let marked = log.get(marked_id).unwrap().clone();

        let full = session.decode_segmented(&mut seg).unwrap();
        let mut cache = VoteCache::new();
        let first = session.decode_incremental(&mut seg, &marked, &mut cache).unwrap();
        assert_eq!(first.report, full, "cold incremental decode diverges");
        assert_eq!(first.accumulated_segments, seg.segment_count());
        assert_eq!(first.cached_segments, 0);

        let second = session.decode_incremental(&mut seg, &marked, &mut cache).unwrap();
        assert_eq!(second.report, full, "warm incremental decode diverges");
        assert_eq!(second.cached_segments, seg.segment_count());
        assert_eq!(second.accumulated_segments, 0);
        assert!(cache.stats().hits >= seg.segment_count() as u64);

        // Churn, re-mark incrementally, and decode again: only the
        // dirtied segments re-accumulate, and the report still equals
        // the full decode of the new state.
        churn(&mut seg, &session, 400, 0xBEEF);
        let cur_id = log.commit(&mut seg, &store).unwrap();
        let cur = log.get(cur_id).unwrap().clone();
        let inc = session.embed_incremental(&mut seg, &wm, &marked, &cur).unwrap();
        let remarked_id = log.commit(&mut seg, &store).unwrap();
        let remarked = log.get(remarked_id).unwrap().clone();
        let third = session.decode_incremental(&mut seg, &remarked, &mut cache).unwrap();
        assert_eq!(third.report, session.decode_segmented(&mut seg).unwrap());
        assert!(third.cached_segments >= seg.segment_count() - inc.dirty_segments);
        assert!(cache.len() <= seg.segment_count(), "cache retained dead blobs");
        assert!(detect(&third.report.watermark, &wm).is_significant(1e-3));
    }

    #[test]
    fn geometry_change_falls_back_to_the_full_pass() {
        let (rel, session, wm) = fixture(1_000, 10);
        let store = ContentStore::in_memory();
        let mut log = VersionLog::new();
        let mut seg = versioned(&rel, &store);
        session.embed_segmented(&mut seg, &wm).unwrap();
        log.commit(&mut seg, &store).unwrap();

        // A manifest of the same data under different segmentation.
        let other_store = ContentStore::in_memory();
        let mut other_log = VersionLog::new();
        let mut coarse = SegmentedRelation::builder(rel.schema().clone())
            .segment_rows(SEG_ROWS * 2)
            .store(Box::new(other_store.clone()))
            .from_relation(&rel)
            .unwrap();
        let foreign_id = other_log.commit(&mut coarse, &other_store).unwrap();
        let foreign = other_log.get(foreign_id).unwrap().clone();

        let current = log.manifests().last().unwrap().clone();
        let inc = session.embed_incremental(&mut seg, &wm, &foreign, &current).unwrap();
        assert!(inc.full_fallback);
        assert_eq!(inc.dirty_segments, seg.segment_count());

        // A manifest that doesn't describe `seg` at all is an error,
        // not a silent wrong diff.
        assert!(matches!(
            session.embed_incremental(&mut seg, &wm, &current, &foreign),
            Err(CoreError::InvalidSpec(_))
        ));
        let mut cache = VoteCache::new();
        assert!(matches!(
            session.decode_incremental(&mut seg, &foreign, &mut cache),
            Err(CoreError::InvalidSpec(_))
        ));
    }
}
