//! Out-of-core watermarking: the segment walk behind every
//! [`MarkSession`] driver over a [`SegmentedRelation`].
//!
//! A relation larger than RAM cannot take the monolithic
//! embed/decode path — it is never fully resident. The segmented,
//! incremental and certified drivers all run one **segment walk**:
//! each segment is paged in (within the configured resident-byte
//! budget), planned, handed to the driver's step — the embed write
//! pass or a vote tally — and paged back out, while only small
//! aggregate state (the coverage bitmap, the per-position vote
//! tallies) crosses segment boundaries. The walk owns what the drivers
//! share: the binding and manifest checks, the global row base, the
//! per-segment plan, paging, and the skip rule that leaves clean
//! segments and vote-cache hits unpaged. A driver supplies its step
//! and the fold the step feeds.
//!
//! # Why streaming is byte-identical
//!
//! Everything the scheme computes per tuple is a pure function of
//! that tuple's primary key under the spec's keys: fitness, `wm_data`
//! position, value base (see [`crate::plan`]). Embedding therefore
//! commutes with any partition of the rows — a segment's
//! [`MarkPlan`] is exactly the corresponding slice of the monolithic
//! plan — and decoding is a sum of commutative per-position vote
//! increments resolved once at the end. The golden byte-identity
//! suite and the segment-boundary proptests pin both facts.
//!
//! # The two-stage pipeline
//!
//! Sequentially, each segment pays `plan` (keyed hashing, CPU-bound)
//! then `embed`/`accumulate` plus paging (store I/O) back to back.
//! Planning only reads the key column, which no pass ever rewrites,
//! so segment `i + 1`'s plan is computable the moment its bytes are
//! readable — it does not depend on segment `i`'s outcome. The
//! pipelined walk exploits exactly that: a single prefetch worker
//! hashes and plans segment `i + 1` from an **off-pager clone** while
//! the main thread embeds or vote-counts segment `i`. All mutation,
//! guard state, reporting, and vote accumulation stay on the main
//! thread in segment order, so every byte and report matches the
//! sequential walk exactly.
//!
//! Memory stays bounded: the pager's budget is still enforced as a
//! hard ceiling on resident segments (`peak_pageable_bytes() <=
//! max(budget, peak_segment_bytes())`, unchanged), and the pipeline
//! adds **at most one in-flight segment clone** on top — the clone
//! channel is a rendezvous, so a new clone is only handed over once
//! the worker has dropped the previous one. Total footprint is
//! therefore `pager budget + one segment clone`, and
//! [`PipelineStats::peak_inflight_bytes`] reports the clone's
//! high-water mark so callers can assert it.
//!
//! [`Walk::Auto`], the walk of the plain `embed_segmented` and
//! `decode_segmented`, pipelines only when the host has more than one
//! CPU and there is more than one segment. Walks with a skip rule —
//! the incremental re-mark, the vote-cached and the certified decodes
//! — stay sequential.
//!
//! # Row blocks
//!
//! [`MarkSession::embed_blocks`] and [`MarkSession::decode_blocks`]
//! run the same per-segment passes over a relation that arrives as row
//! blocks, such as a CSV file read [`BLOCK_ROWS`] rows at a time, on
//! one thread per core: the calling thread reads the blocks into one
//! bounded queue that the other threads work, and works a block itself
//! whenever the queue is full. Each thread plans and passes its blocks
//! into a fold or tally of its own, and those add up to the in-memory
//! ones for the reason above. Each block's result is put in block order
//! once, after the threads join.
//!
//! ```
//! use catmark_core::{detect, MarkSession, Watermark, WatermarkSpec};
//! use catmark_datagen::{ItemScanConfig, SalesGenerator};
//! use catmark_relation::SegmentedRelation;
//!
//! let gen = SalesGenerator::new(ItemScanConfig { tuples: 2_000, ..Default::default() });
//! let rel = gen.generate();
//! let spec = WatermarkSpec::builder(gen.item_domain())
//!     .master_key("my-secret")
//!     .e(10)
//!     .wm_len(10)
//!     .expected_tuples(rel.len())
//!     .build()
//!     .unwrap();
//! let session = MarkSession::builder(spec)
//!     .key_column("visit_nbr")
//!     .target_column("item_nbr")
//!     .bind(&rel)
//!     .unwrap();
//!
//! // Split into segments under a resident budget of 1/4 of the data;
//! // cold segments spill to the (here in-memory) segment store.
//! let mut seg = SegmentedRelation::builder(rel.schema().clone())
//!     .segment_rows(256)
//!     .budget_bytes(rel.resident_bytes() / 4)
//!     .from_relation(&rel)
//!     .unwrap();
//!
//! let wm = Watermark::from_u64(0b10_0111_0101, 10);
//! let report = session.embed_segmented(&mut seg, &wm).unwrap();
//! assert!(report.fit_count() > 0);
//! let decoded = session.decode_segmented(&mut seg).unwrap();
//! assert!(detect(&decoded.watermark, &wm).is_significant(1e-2));
//! assert!(seg.peak_pageable_bytes() <= rel.resident_bytes() / 4);
//! # use catmark_core::session::Outcome;
//! ```

use std::ops::Deref;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::mpsc::{self, TrySendError};
use std::sync::{Arc, Mutex};

use catmark_relation::{Relation, RelationError, Schema, SegmentedRelation, VersionManifest};

use crate::decode::{DecodeReport, Decoder, VoteAccumulator};
use crate::ecc::MajorityVotingEcc;
use crate::embed::{EmbedFold, EmbedReport, Embedder};
use crate::error::CoreError;
use crate::incremental::{TallyBinding, VoteCache};
use crate::plan::{spec_identity, MarkPlan, PlanCache, TextFacts};
use crate::quality::QualityGuard;
use crate::session::MarkSession;
use crate::spec::{Watermark, WatermarkSpec};

/// Resource counters from one segment walk.
///
/// The pipeline's memory contract is `pager budget + one in-flight
/// segment clone`; [`PipelineStats::peak_inflight_bytes`] is the
/// observed size of that one clone (its high-water mark across the
/// pass), never a sum over several — the rendezvous hand-off keeps at
/// most one clone alive at a time.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct PipelineStats {
    /// Segments the pass covered.
    pub segments: usize,
    /// Segments whose plan was built ahead by the prefetch worker
    /// (on a pipelined walk every segment but the first, unless the
    /// worker died).
    pub prefetched: usize,
    /// Largest off-pager segment clone handed to the worker, in
    /// bytes. Zero when nothing was prefetched.
    pub peak_inflight_bytes: usize,
}

/// How a segmented embed or decode walks its segments. Every walk
/// gives the same bytes and reports; they differ in resource shape.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Walk {
    /// Pipeline when the host has more than one CPU and there is more
    /// than one segment.
    Auto,
    /// Plan and run each segment back to back on the calling thread:
    /// the reference the pipeline is pinned against.
    Sequential,
    /// Plan each next segment on a prefetch worker while the calling
    /// thread runs the current one.
    Pipelined,
}

/// A driver's work on the segments its walk visits.
trait Step {
    /// The resident segment as `run` takes it: shared for vote
    /// tallies, exclusive for the embed pass (a writable page-in marks
    /// the segment dirty, so the pager re-serializes it on eviction).
    type Segment<'a>: Deref<Target = Relation>;

    /// Page segment `i` in and run `f` on it.
    fn page<R>(
        seg: &mut SegmentedRelation,
        i: usize,
        f: impl FnOnce(Self::Segment<'_>) -> R,
    ) -> Result<R, RelationError>;

    /// Whether this step has a skip rule. Such walks stay sequential:
    /// the prefetch worker would plan segments the rule never pages in.
    fn skips(&self) -> bool;

    /// The skip rule: settle segment `i` without paging it in and
    /// return `true`.
    fn skip(&mut self, i: usize) -> bool;

    /// Run over resident segment `i`, whose first global row is `base`.
    fn run(
        &mut self,
        rel: Self::Segment<'_>,
        plan: &MarkPlan,
        i: usize,
        base: usize,
    ) -> Result<(), CoreError>;
}

/// The embed step: the write pass over each segment the walk pages in,
/// folded into one report. Given the ascending `dirty` segments of an
/// incremental re-mark, it skips the rest — they already hold their
/// marked bytes.
struct EmbedStep<'a> {
    engine: Embedder<'a>,
    attr_idx: usize,
    wm_data: Vec<bool>,
    guard: Option<&'a mut QualityGuard>,
    dirty: Option<Vec<usize>>,
    fold: EmbedFold,
}

impl Step for EmbedStep<'_> {
    type Segment<'a> = &'a mut Relation;

    fn page<R>(
        seg: &mut SegmentedRelation,
        i: usize,
        f: impl FnOnce(Self::Segment<'_>) -> R,
    ) -> Result<R, RelationError> {
        seg.with_segment_mut(i, |rel| f(rel))
    }

    fn skips(&self) -> bool {
        self.dirty.is_some()
    }

    fn skip(&mut self, i: usize) -> bool {
        self.dirty.as_ref().is_some_and(|dirty| dirty.binary_search(&i).is_err())
    }

    fn run(
        &mut self,
        rel: &mut Relation,
        plan: &MarkPlan,
        _: usize,
        base: usize,
    ) -> Result<(), CoreError> {
        let guard = self.guard.as_deref_mut();
        self.engine.embed_pass(rel, self.attr_idx, &self.wm_data, guard, plan, base, &mut self.fold)
    }
}

/// Where a decode walk's per-segment tallies go: merged into the
/// running votes and — on certified walks, for the evidence bundle —
/// also kept in segment order.
pub(crate) struct VoteFold {
    votes: VoteAccumulator,
    pub(crate) kept: Option<Vec<VoteAccumulator>>,
}

impl VoteFold {
    fn add(&mut self, tally: &VoteAccumulator) {
        self.votes.merge(tally);
        if let Some(kept) = &mut self.kept {
            kept.push(tally.clone());
        }
    }
}

/// The tally step: count each paged-in segment's votes and fold them.
/// Over a vote cache, the skip rule folds a blob this binding tallied
/// before straight from the cache — by reference, never paged in —
/// and fresh tallies go into the cache.
pub(crate) struct TallyStep<'a> {
    spec: &'a WatermarkSpec,
    attr_idx: usize,
    cache: Option<(&'a VersionManifest, &'a mut VoteCache, TallyBinding)>,
    pub(crate) fold: VoteFold,
    /// Segments tallied fresh.
    pub(crate) accumulated: usize,
    /// Segments folded from the cache.
    pub(crate) cached: usize,
}

impl TallyStep<'_> {
    /// Resolve the folded votes exactly as a monolithic decode does.
    pub(crate) fn resolve(&self) -> Result<DecodeReport, CoreError> {
        Decoder::engine(self.spec).resolve(&MajorityVotingEcc, &self.fold.votes)
    }
}

impl Step for TallyStep<'_> {
    type Segment<'a> = &'a Relation;

    fn page<R>(
        seg: &mut SegmentedRelation,
        i: usize,
        f: impl FnOnce(Self::Segment<'_>) -> R,
    ) -> Result<R, RelationError> {
        seg.with_segment(i, |rel| f(rel))
    }

    fn skips(&self) -> bool {
        self.cache.is_some()
    }

    fn skip(&mut self, i: usize) -> bool {
        let Some((manifest, cache, binding)) = &mut self.cache else {
            return false;
        };
        let Some(tally) = cache.lookup(*binding, &manifest.segments[i].hash) else {
            return false;
        };
        self.fold.add(tally);
        self.cached += 1;
        true
    }

    fn run(
        &mut self,
        rel: &Relation,
        plan: &MarkPlan,
        i: usize,
        _: usize,
    ) -> Result<(), CoreError> {
        let tally = VoteAccumulator::of(self.spec, rel, self.attr_idx, plan);
        self.fold.add(&tally);
        self.accumulated += 1;
        if let Some((manifest, cache, binding)) = &mut self.cache {
            cache.insert(*binding, manifest.segments[i].hash, tally);
        }
        Ok(())
    }
}

/// The walking thread's ends of the prefetch worker's channels.
struct Prefetch<'s> {
    clones: mpsc::SyncSender<Relation>,
    plans: mpsc::Receiver<Result<Arc<MarkPlan>, CoreError>>,
    stats: &'s mut PipelineStats,
}

impl MarkSession {
    /// [`MarkSession::embed`] over a [`SegmentedRelation`]: segments
    /// are paged in one at a time, planned, and rewritten in place
    /// under the relation's resident-byte budget. Byte-identical to
    /// embedding the materialized relation in memory.
    ///
    /// # Errors
    ///
    /// Binding drift, watermark length mismatch, or
    /// [`CoreError::Relation`] when paging/spilling fails.
    pub fn embed_segmented(
        &self,
        seg: &mut SegmentedRelation,
        wm: &Watermark,
    ) -> Result<EmbedReport, CoreError> {
        self.embed_segmented_with(seg, wm, None, Walk::Auto).map(|(report, _)| report)
    }

    /// [`MarkSession::embed_segmented`] over a chosen [`Walk`], gated
    /// by `guard` when one is given, plus the walk's resource
    /// counters. The guard's state persists across segments and it
    /// sees proposals on the calling thread in ascending global row
    /// order, so its admit/veto decisions match a monolithic
    /// [`MarkSession::embed_guarded`] on every walk.
    ///
    /// # Errors
    ///
    /// As [`MarkSession::embed_segmented`].
    pub fn embed_segmented_with(
        &self,
        seg: &mut SegmentedRelation,
        wm: &Watermark,
        guard: Option<&mut QualityGuard>,
        walk: Walk,
    ) -> Result<(EmbedReport, PipelineStats), CoreError> {
        self.embed_walk(seg, wm, guard, walk, None, None)
    }

    /// [`MarkSession::decode`] over a [`SegmentedRelation`]: one vote
    /// tally per segment, one resolution at the end. Byte-identical to
    /// decoding the materialized relation.
    ///
    /// # Errors
    ///
    /// Binding drift, or [`CoreError::Relation`] when paging fails.
    pub fn decode_segmented(&self, seg: &mut SegmentedRelation) -> Result<DecodeReport, CoreError> {
        self.decode_segmented_with(seg, Walk::Auto).map(|(report, _)| report)
    }

    /// [`MarkSession::decode_segmented`] over a chosen [`Walk`], plus
    /// the walk's resource counters.
    ///
    /// # Errors
    ///
    /// As [`MarkSession::decode_segmented`].
    pub fn decode_segmented_with(
        &self,
        seg: &mut SegmentedRelation,
        walk: Walk,
    ) -> Result<(DecodeReport, PipelineStats), CoreError> {
        let (tallies, stats) = self.tally_walk(seg, walk, None, false)?;
        Ok((tallies.resolve()?, stats))
    }

    /// The embed driver behind every segmented embed: the embed step
    /// over a walk of `seg`, re-embedding only the `dirty` segments
    /// when an incremental re-mark names them.
    pub(crate) fn embed_walk(
        &self,
        seg: &mut SegmentedRelation,
        wm: &Watermark,
        guard: Option<&mut QualityGuard>,
        walk: Walk,
        manifest: Option<&VersionManifest>,
        dirty: Option<Vec<usize>>,
    ) -> Result<(EmbedReport, PipelineStats), CoreError> {
        let engine = Embedder::engine(self.spec());
        let wm_data = engine.wm_data(wm, &MajorityVotingEcc)?;
        let (attr_idx, fold) = (self.target().index(), EmbedFold::new(self.spec()));
        let mut step = EmbedStep { engine, attr_idx, wm_data, guard, dirty, fold };
        let stats = self.walk(seg, manifest, walk, &mut step)?;
        Ok((step.fold.finish(), stats))
    }

    /// The decode driver behind every segmented decode: the tally step
    /// over a walk of `seg`. Over a `cache`, the walk checks that the
    /// manifest describes `seg` and the cache is trimmed to the
    /// manifest afterwards; `certify` keeps every segment's tally.
    pub(crate) fn tally_walk<'a>(
        &'a self,
        seg: &mut SegmentedRelation,
        walk: Walk,
        cache: Option<(&'a VersionManifest, &'a mut VoteCache)>,
        certify: bool,
    ) -> Result<(TallyStep<'a>, PipelineStats), CoreError> {
        let spec = self.spec();
        let binding = (spec_identity(spec), self.key().index(), self.target().index());
        let manifest = cache.as_ref().map(|(manifest, _)| *manifest);
        let mut step = TallyStep {
            spec,
            attr_idx: self.target().index(),
            cache: cache.map(|(manifest, cache)| (manifest, cache, binding)),
            fold: VoteFold {
                votes: VoteAccumulator::new(spec.wm_data_len),
                kept: certify.then(Vec::new),
            },
            accumulated: 0,
            cached: 0,
        };
        let stats = self.walk(seg, manifest, walk, &mut step)?;
        if let Some((manifest, cache, binding)) = &mut step.cache {
            cache.retain_manifest(*binding, manifest);
        }
        Ok((step, stats))
    }

    /// The segment walk: check the bindings (and that `manifest`, when
    /// given, describes `seg`), visit the segments, and report the
    /// walk's resource counters. The pipelined form runs the same loop
    /// beside a prefetch worker.
    fn walk(
        &self,
        seg: &mut SegmentedRelation,
        manifest: Option<&VersionManifest>,
        walk: Walk,
        step: &mut impl Step,
    ) -> Result<PipelineStats, CoreError> {
        self.key().still_bound(seg.schema())?;
        self.target().still_bound(seg.schema())?;
        if let Some(manifest) = manifest {
            check_manifest(seg, manifest)?;
        }
        // A segment's plan goes through the session cache — embedding
        // never touches the key column, so an embed → decode round trip
        // reuses every plan — only while the cache holds every
        // segment's plan with room to spare: an LRU cache cycled by a
        // scan longer than its capacity evicts each entry before its
        // reuse and would miss every time.
        let cacheable = seg.segment_count() <= PlanCache::CAPACITY / 2;
        let plan_of = &|rel: &Relation| {
            if cacheable {
                self.cache().plan_for(self.spec(), rel, self.key().index())
            } else {
                Ok(Arc::new(MarkPlan::build(self.spec(), rel, self.key().index())))
            }
        };
        let mut stats = PipelineStats { segments: seg.segment_count(), ..PipelineStats::default() };
        let many_cpus = || std::thread::available_parallelism().is_ok_and(|n| n.get() > 1);
        let pipelined = stats.segments > 1
            && !step.skips()
            && (walk == Walk::Pipelined || (walk == Walk::Auto && many_cpus()));
        if !pipelined {
            visit(seg, step, plan_of, None)?;
            return Ok(stats);
        }
        std::thread::scope(|scope| {
            // A rendezvous: clone `i + 1` is handed over only once the
            // worker has dropped clone `i`, so at most one segment
            // clone is ever in flight.
            let (clones, clone_rx) = mpsc::sync_channel::<Relation>(0);
            let (plan_tx, plans) = mpsc::sync_channel(1);
            scope.spawn(move || {
                while let Ok(rel) = clone_rx.recv() {
                    let plan = plan_of(&rel);
                    drop(rel);
                    if plan_tx.send(plan).is_err() {
                        break; // the walk hung up (error path)
                    }
                }
            });
            // Dropping the prefetch ends when `visit` returns stops the
            // worker; the scope joins it.
            visit(seg, step, plan_of, Some(Prefetch { clones, plans, stats: &mut stats }))
        })?;
        Ok(stats)
    }
}

/// The walk's one loop over segment indices, carrying the global row
/// base. Sequential walks apply the skip rule and plan each segment
/// inside its page-in. Pipelined walks (never taken by a step with a
/// skip rule) hand segment `i + 1` to the worker, then take segment
/// `i`'s plan.
fn visit<S: Step>(
    seg: &mut SegmentedRelation,
    step: &mut S,
    plan_of: &impl Fn(&Relation) -> Result<Arc<MarkPlan>, CoreError>,
    mut prefetch: Option<Prefetch<'_>>,
) -> Result<(), CoreError> {
    let mut base = 0;
    for i in 0..seg.segment_count() {
        let rows = seg.segment_len(i);
        if let Some(Prefetch { clones, plans, stats }) = &mut prefetch {
            if i + 1 < seg.segment_count() {
                let clone = seg.with_segment(i + 1, Relation::clone)?;
                stats.peak_inflight_bytes = stats.peak_inflight_bytes.max(clone.resident_bytes());
                if clones.send(clone).is_ok() {
                    stats.prefetched += 1;
                }
            }
            let plan = if i == 0 {
                // Nothing is in flight yet: plan the first segment here
                // while the worker starts on the second.
                seg.with_segment(0, plan_of)??
            } else {
                // The worker only stops after this side hangs up, so a
                // closed channel means it panicked (the scope re-raises
                // that panic too).
                plans.recv().expect("plan prefetch worker disconnected")?
            };
            S::page(seg, i, |rel| step.run(rel, &plan, i, base))??;
        } else if !step.skip(i) {
            S::page(seg, i, |rel| {
                let plan = plan_of(&rel)?;
                step.run(rel, &plan, i, base)
            })??;
        }
        base += rows;
    }
    Ok(())
}

/// Rows per block when a relation streams in as row blocks, as the CLI
/// reads a CSV file. Each block is planned on one thread with
/// [`MarkPlan::build_sequential`]; blocks this size stay below the
/// size at which [`MarkPlan::build`] would thread.
pub const BLOCK_ROWS: usize = 8_192;

/// Where a block sits in its stream.
#[derive(Debug, Clone, Copy, Default)]
struct BlockAt {
    index: usize,
    first_row: usize,
}

impl MarkSession {
    /// [`MarkSession::embed`] over a relation that arrives as row
    /// blocks. `source` hands every block, in row order, to the
    /// function it is given, each with a payload of the caller's (as
    /// `catmark_relation::csv::read_csv_blocks_with_bytes` hands its
    /// blocks and their row bytes), and returns how reading ended. The
    /// blocks are planned and marked on every core, and `render` runs on
    /// each marked block with its index in the stream, its payload and
    /// the rows (ascending, counted from the block's first) that the
    /// pass altered. What `render` returned comes back in block order.
    /// The report equals [`MarkSession::embed`]'s on the relation the
    /// blocks make up, and the marked blocks are its marked rows: every
    /// planned fact and every write depends only on the row's own key
    /// and `wm_data`.
    ///
    /// # Errors
    ///
    /// Before any block is read: watermark length mismatch, binding
    /// drift against `schema` (the schema of every block), or a target
    /// column the write pass refuses, so no block of such a source can
    /// fail. After: the error `source` returned. `source` runs to its
    /// end even after a block fails, so its own error comes first, as
    /// it would reading the whole relation before embedding.
    pub fn embed_blocks<K, R, E>(
        &self,
        wm: &Watermark,
        schema: &Schema,
        source: impl FnOnce(&mut dyn FnMut(Relation, K)) -> Result<(), E>,
        render: impl Fn(usize, &Relation, &K, &[usize]) -> R + Sync,
    ) -> Result<(EmbedReport, Vec<R>), E>
    where
        K: Send,
        R: Send,
        E: From<CoreError>,
    {
        let engine = Embedder::engine(self.spec());
        let wm_data = engine.wm_data(wm, &MajorityVotingEcc)?;
        let (key_idx, attr_idx) = (self.key().index(), self.target().index());
        self.key().still_bound(schema)?;
        self.target().still_bound(schema)?;
        engine.check_target(schema, attr_idx)?;
        let facts = TextFacts::default();
        let work = |fold: &mut EmbedFold, mut rel: Relation, payload: K, at: BlockAt| {
            self.check(&rel)?;
            let plan = MarkPlan::build_block(self.spec(), &rel, key_idx, &facts);
            let before = fold.touched_rows().len();
            engine.embed_pass(&mut rel, attr_idx, &wm_data, None, &plan, at.first_row, fold)?;
            let altered: Vec<usize> =
                fold.touched_rows()[before..].iter().map(|row| row - at.first_row).collect();
            Ok(render(at.index, &rel, &payload, &altered))
        };
        let init = || EmbedFold::new(self.spec());
        let (folds, rendered) = run_blocks(host_threads(), source, init, work)?;
        let fold = folds.into_iter().reduce(|mut fold, part| {
            fold.merge(part);
            fold
        });
        let mut report = fold.unwrap_or_else(init).finish();
        // Each thread's blocks interleave with the others'.
        report.touched_rows.sort_unstable();
        Ok((report, rendered))
    }

    /// [`MarkSession::decode`] over a relation that arrives as row
    /// blocks, with `source` as in [`MarkSession::embed_blocks`] but
    /// without payloads: each thread tallies its blocks' votes, and the
    /// tallies sum into one resolution. Only the blocks in flight are
    /// held, at most three per thread, and one tally per thread, never
    /// the relation.
    ///
    /// # Errors
    ///
    /// Binding drift, or the error `source` returned.
    pub fn decode_blocks<E: From<CoreError>>(
        &self,
        source: impl FnOnce(&mut dyn FnMut(Relation)) -> Result<(), E>,
    ) -> Result<DecodeReport, E> {
        let votes = self.tally_blocks(source)?;
        Ok(Decoder::engine(self.spec()).resolve(&MajorityVotingEcc, &votes)?)
    }

    /// The decode driver behind every block decode: the votes of every
    /// block, summed.
    pub(crate) fn tally_blocks<E: From<CoreError>>(
        &self,
        source: impl FnOnce(&mut dyn FnMut(Relation)) -> Result<(), E>,
    ) -> Result<VoteAccumulator, E> {
        let (spec, attr_idx) = (self.spec(), self.target().index());
        let facts = TextFacts::default();
        let work = |votes: &mut VoteAccumulator, rel: Relation, (), _| {
            self.check(&rel)?;
            let plan = MarkPlan::build_block(spec, &rel, self.key().index(), &facts);
            votes.add(spec, &rel, attr_idx, &plan);
            Ok(())
        };
        let init = || VoteAccumulator::new(spec.wm_data_len);
        let blocks = |push: &mut dyn FnMut(Relation, ())| source(&mut |rel| push(rel, ()));
        let (parts, _) = run_blocks(host_threads(), blocks, init, work)?;
        let votes = parts.into_iter().reduce(|mut votes, part| {
            votes.merge(&part);
            votes
        });
        Ok(votes.unwrap_or_else(init))
    }
}

/// The threads a block driver runs on: one per core.
fn host_threads() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZero::get)
}

/// A block, its payload and where it sits.
type Job<K> = (Relation, K, BlockAt);

/// One thread's share of a block run: its state, once it has worked a
/// block, and each block's result by index.
type Part<S, T> = (Option<S>, Vec<(usize, Result<T, CoreError>)>);

/// The block driver: run `work` over every block `source` pushes, on
/// `threads` threads, each adding to a state of its own from `init`,
/// and return those states for the caller to merge and the results in
/// block order. The calling thread runs `source` and queues each block
/// on one queue of `2 × threads` blocks, which `threads − 1` helpers
/// work; when the queue is full it works the block itself, and once
/// `source` ends it works what is queued. So at most the queue and one
/// block per thread are held. A one-block stream, or any stream on one
/// thread, runs on the calling thread without spawning: the first block
/// is held until a second one arrives. After a block fails, later
/// blocks are dropped unworked while `source` reads on; the error of
/// `source` comes first, then that of the lowest-index block that
/// failed.
fn run_blocks<K: Send, S: Send, T: Send, E: From<CoreError>>(
    threads: usize,
    source: impl FnOnce(&mut dyn FnMut(Relation, K)) -> Result<(), E>,
    init: impl Fn() -> S + Sync,
    work: impl Fn(&mut S, Relation, K, BlockAt) -> Result<T, CoreError> + Sync,
) -> Result<(Vec<S>, Vec<T>), E> {
    // The lowest index of a block that failed.
    let failed = AtomicUsize::new(usize::MAX);
    let run = |(state, results): &mut Part<S, T>, (rel, payload, at): Job<K>| {
        if at.index < failed.load(Ordering::Relaxed) {
            let result = work(state.get_or_insert_with(&init), rel, payload, at);
            if result.is_err() {
                failed.fetch_min(at.index, Ordering::Relaxed);
            }
            results.push((at.index, result));
        }
    };
    let (queue, jobs) = mpsc::sync_channel::<Job<K>>(2 * threads);
    let jobs = Mutex::new(jobs);
    // Each queued block, until the queue closes and empties.
    let next_job = || jobs.lock().expect("the block queue is never poisoned").recv().ok();
    let (read, parts) = std::thread::scope(|scope| {
        let mut here: Part<S, T> = (None, Vec::new());
        let mut helpers = Vec::new();
        let mut held = None;
        let mut next = BlockAt::default();
        let read = source(&mut |rel, payload| {
            let at = next;
            next = BlockAt { index: at.index + 1, first_row: at.first_row + rel.len() };
            let job = (rel, payload, at);
            if threads < 2 {
                return run(&mut here, job);
            }
            if helpers.is_empty() {
                let Some(first) = held.take() else {
                    held = Some(job);
                    return;
                };
                helpers = (1..threads)
                    .map(|_| {
                        scope.spawn(|| {
                            let mut part = (None, Vec::new());
                            while let Some(job) = next_job() {
                                run(&mut part, job);
                            }
                            part
                        })
                    })
                    .collect();
                queue.try_send(first).expect("an empty queue takes a block");
            }
            if let Err(TrySendError::Full(job) | TrySendError::Disconnected(job)) =
                queue.try_send(job)
            {
                run(&mut here, job);
            }
        });
        drop(queue);
        for job in held.into_iter().chain(std::iter::from_fn(next_job)) {
            run(&mut here, job);
        }
        let joined = helpers.into_iter().map(|h| h.join().expect("block workers do not panic"));
        (read, std::iter::once(here).chain(joined).collect::<Vec<_>>())
    });
    read?;
    let (states, results): (Vec<_>, Vec<_>) = parts.into_iter().unzip();
    let mut results: Vec<_> = results.into_iter().flatten().collect();
    results.sort_unstable_by_key(|&(index, _)| index);
    let results = results.into_iter().map(|(_, result)| result).collect::<Result<_, _>>()?;
    Ok((states.into_iter().flatten().collect(), results))
}

/// Check that `manifest` describes `seg`'s committed geometry — the
/// cheap invariant a stale or foreign manifest trips over.
fn check_manifest(seg: &SegmentedRelation, manifest: &VersionManifest) -> Result<(), CoreError> {
    let matches = manifest.segments.len() == seg.segment_count()
        && manifest.segments.iter().enumerate().all(|(i, s)| s.rows == seg.segment_len(i) as u64);
    if matches {
        Ok(())
    } else {
        Err(CoreError::InvalidSpec(format!(
            "manifest v{} ({} segments, {} rows) does not describe this segmented \
             relation ({} segments, {} rows); commit the relation and pass the \
             resulting manifest",
            manifest.id,
            manifest.segments.len(),
            manifest.rows(),
            seg.segment_count(),
            seg.len(),
        )))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::detect::detect;
    use crate::quality::AlterationBudget;
    use catmark_datagen::{ItemScanConfig, SalesGenerator};
    use catmark_relation::Relation;

    fn fixture(tuples: usize, e: u64) -> (Relation, MarkSession, Watermark) {
        let gen = SalesGenerator::new(ItemScanConfig { tuples, ..Default::default() });
        let rel = gen.generate();
        let spec = crate::WatermarkSpec::builder(gen.item_domain())
            .master_key("outofcore-tests")
            .e(e)
            .wm_len(10)
            .expected_tuples(tuples)
            .erasure(crate::decode::ErasurePolicy::Abstain)
            .build()
            .unwrap();
        let session = MarkSession::builder(spec)
            .key_column("visit_nbr")
            .target_column("item_nbr")
            .bind(&rel)
            .unwrap();
        (rel, session, Watermark::from_u64(0b1011001110, 10))
    }

    fn segmented(rel: &Relation, rows: usize, budget: usize) -> SegmentedRelation {
        SegmentedRelation::builder(rel.schema().clone())
            .segment_rows(rows)
            .budget_bytes(budget)
            .from_relation(rel)
            .unwrap()
    }

    #[test]
    fn segmented_round_trip_is_byte_identical_under_quarter_budget() {
        let (rel, session, wm) = fixture(4_000, 10);
        let mut mono = rel.clone();
        let mono_report = session.embed(&mut mono, &wm).unwrap();
        let mono_decode = session.decode(&mono).unwrap();

        let budget = rel.resident_bytes() / 4;
        let mut seg = segmented(&rel, 250, budget);
        let (seg_report, _) =
            session.embed_segmented_with(&mut seg, &wm, None, Walk::Sequential).unwrap();
        assert_eq!(seg_report, mono_report, "embed reports diverge");
        let (seg_decode, _) = session.decode_segmented_with(&mut seg, Walk::Sequential).unwrap();
        assert_eq!(seg_decode, mono_decode, "decode reports diverge");
        assert!(seg.peak_pageable_bytes() <= budget, "budget was not honored");

        let back = seg.to_relation().unwrap();
        assert!(mono == back, "marked bytes diverge");
        assert!(detect(&seg_decode.watermark, &wm).is_significant(1e-3));
    }

    #[test]
    fn pipelined_round_trip_matches_sequential_and_bounds_memory() {
        let (rel, session, wm) = fixture(4_000, 10);
        let budget = rel.resident_bytes() / 4;

        let mut seq = segmented(&rel, 250, budget);
        let (seq_report, _) =
            session.embed_segmented_with(&mut seq, &wm, None, Walk::Sequential).unwrap();
        let (seq_decode, _) = session.decode_segmented_with(&mut seq, Walk::Sequential).unwrap();
        let seq_bytes = seq.to_relation().unwrap();

        let mut piped = segmented(&rel, 250, budget);
        let (pipe_report, embed_stats) =
            session.embed_segmented_with(&mut piped, &wm, None, Walk::Pipelined).unwrap();
        assert_eq!(pipe_report, seq_report, "pipelined embed report diverges");
        let (pipe_decode, decode_stats) =
            session.decode_segmented_with(&mut piped, Walk::Pipelined).unwrap();
        assert_eq!(pipe_decode, seq_decode, "pipelined decode report diverges");
        let pipe_bytes = piped.to_relation().unwrap();
        assert!(seq_bytes == pipe_bytes, "pipelined bytes diverge");

        // The pager ceiling is unchanged by pipelining...
        assert!(
            piped.peak_pageable_bytes() <= budget.max(piped.peak_segment_bytes()),
            "pipelined pager ceiling violated"
        );
        // ...and the pipeline adds at most one in-flight segment clone
        // on top of it.
        for stats in [embed_stats, decode_stats] {
            assert_eq!(stats.segments, piped.segment_count());
            assert_eq!(stats.prefetched, piped.segment_count() - 1);
            assert!(
                stats.peak_inflight_bytes <= piped.peak_segment_bytes(),
                "in-flight clone {} exceeds the largest segment {}",
                stats.peak_inflight_bytes,
                piped.peak_segment_bytes()
            );
        }
    }

    #[test]
    fn guarded_segmented_matches_guarded_monolithic() {
        let (rel, session, wm) = fixture(3_000, 10);
        let mut mono = rel.clone();
        let mut mono_guard = QualityGuard::new(vec![Box::new(AlterationBudget::new(40))]);
        let mono_report = session.embed_guarded(&mut mono, &wm, &mut mono_guard).unwrap();

        let mut seg = segmented(&rel, 177, rel.resident_bytes() / 3);
        let mut seg_guard = QualityGuard::new(vec![Box::new(AlterationBudget::new(40))]);
        let (seg_report, _) = session
            .embed_segmented_with(&mut seg, &wm, Some(&mut seg_guard), Walk::Sequential)
            .unwrap();
        assert_eq!(seg_report, mono_report);
        assert_eq!(mono_guard.log().len(), seg_guard.log().len());
        let back = seg.to_relation().unwrap();
        assert_eq!(back, mono);

        // Guard decisions are order-sensitive; the pipelined walk must
        // reproduce them exactly (the guard runs on the driving thread
        // either way).
        let mut piped = segmented(&rel, 177, rel.resident_bytes() / 3);
        let mut pipe_guard = QualityGuard::new(vec![Box::new(AlterationBudget::new(40))]);
        let (pipe_report, _) = session
            .embed_segmented_with(&mut piped, &wm, Some(&mut pipe_guard), Walk::Pipelined)
            .unwrap();
        assert_eq!(pipe_report, mono_report);
        assert_eq!(pipe_guard.log().len(), mono_guard.log().len());
        let piped_back = piped.to_relation().unwrap();
        assert_eq!(piped_back, mono);
    }

    #[test]
    fn binding_drift_errors_before_any_paging() {
        let (rel, session, wm) = fixture(200, 10);
        let other = catmark_relation::Schema::builder()
            .key_attr("different", catmark_relation::AttrType::Integer)
            .categorical_attr("cols", catmark_relation::AttrType::Integer)
            .build()
            .unwrap();
        let mut seg = SegmentedRelation::builder(other).build();
        for walk in [Walk::Auto, Walk::Pipelined] {
            assert!(matches!(
                session.embed_segmented_with(&mut seg, &wm, None, walk),
                Err(CoreError::ColumnBinding { .. })
            ));
            assert!(matches!(
                session.decode_segmented_with(&mut seg, walk),
                Err(CoreError::ColumnBinding { .. })
            ));
        }
        let _ = rel;
    }

    #[test]
    fn wrong_watermark_length_is_rejected() {
        let (rel, session, _) = fixture(200, 10);
        let mut seg = segmented(&rel, 64, usize::MAX);
        let short = Watermark::from_u64(1, 3);
        for walk in [Walk::Auto, Walk::Pipelined] {
            assert!(matches!(
                session.embed_segmented_with(&mut seg, &short, None, walk),
                Err(CoreError::InvalidSpec(_))
            ));
        }
    }

    #[test]
    fn empty_and_single_row_segments_round_trip() {
        let (rel, session, wm) = fixture(101, 5);
        let mut seg = SegmentedRelation::builder(rel.schema().clone())
            .segment_rows(1)
            .from_relation(&rel)
            .unwrap();
        seg.seal_tail().unwrap(); // explicit empty trailing segment
        let mut mono = rel.clone();
        let mono_report = session.embed(&mut mono, &wm).unwrap();
        let seg_report = session.embed_segmented(&mut seg, &wm).unwrap();
        assert_eq!(seg_report, mono_report);
        assert_eq!(session.decode_segmented(&mut seg).unwrap(), session.decode(&mono).unwrap());

        // Same shape through the pipeline: a 1-row-per-segment split
        // maximizes hand-offs, and the trailing empty segment is a
        // prefetch of an empty clone.
        let mut piped = SegmentedRelation::builder(rel.schema().clone())
            .segment_rows(1)
            .from_relation(&rel)
            .unwrap();
        piped.seal_tail().unwrap();
        let (pipe_report, stats) =
            session.embed_segmented_with(&mut piped, &wm, None, Walk::Pipelined).unwrap();
        assert_eq!(pipe_report, mono_report);
        assert_eq!(stats.prefetched, piped.segment_count() - 1);
    }

    /// Blocks of `sizes` rows of one integer column, row `r` holding `r`.
    fn int_blocks(sizes: &[usize]) -> Vec<Relation> {
        let schema = catmark_relation::Schema::builder()
            .key_attr("k", catmark_relation::AttrType::Integer)
            .build()
            .unwrap();
        let mut first = 0;
        sizes
            .iter()
            .map(|&n| {
                let rows = (first..first + n as i64).collect();
                first += n as i64;
                let columns = vec![catmark_relation::Column::Int(rows)];
                Relation::from_columns(schema.clone(), columns).unwrap()
            })
            .collect()
    }

    /// A source pushing `blocks` with their indices as payloads, then
    /// ending with `end`.
    fn pushing(
        blocks: Vec<Relation>,
        end: Result<(), CoreError>,
    ) -> impl FnOnce(&mut dyn FnMut(Relation, usize)) -> Result<(), CoreError> {
        move |push| {
            for (i, block) in blocks.into_iter().enumerate() {
                push(block, i);
            }
            end
        }
    }

    fn failing(index: usize) -> CoreError {
        CoreError::InvalidSpec(format!("block {index} failed"))
    }

    #[test]
    fn block_results_come_back_in_order_with_every_state() {
        let sizes: Vec<usize> = (0..40).map(|i| i % 7).collect();
        // Each block's result: its index and first row, which its first
        // cell holds.
        let work = |state: &mut Vec<usize>, rel: Relation, i: usize, at: BlockAt| {
            assert_eq!(i, at.index);
            if let Some(first) = rel.value(0, 0).ok().and_then(|v| v.as_int()) {
                assert_eq!(first as usize, at.first_row);
            }
            state.push(at.index);
            Ok((at.index, at.first_row))
        };
        let mut first_rows = vec![0];
        for n in &sizes {
            first_rows.push(first_rows.last().unwrap() + n);
        }
        let expected: Vec<_> = (0..sizes.len()).map(|i| (i, first_rows[i])).collect();
        for threads in 1..=3 {
            let source = pushing(int_blocks(&sizes), Ok(()));
            let (states, results) = run_blocks(threads, source, Vec::new, work).unwrap();
            assert_eq!(results, expected, "{threads} threads");
            assert!(states.len() <= threads, "{threads} threads, {} states", states.len());
            let mut worked: Vec<usize> = states.concat();
            worked.sort_unstable();
            assert_eq!(worked, (0..sizes.len()).collect::<Vec<_>>(), "{threads} threads");
        }
    }

    #[test]
    fn the_lowest_failing_block_and_then_the_source_fail_the_run() {
        let work = |(): &mut (), _: Relation, i: usize, _: BlockAt| match i {
            // The later failure comes first.
            9 => Err(failing(9)),
            13 => {
                std::thread::sleep(std::time::Duration::from_millis(5));
                Err(failing(13))
            }
            _ => Ok(i),
        };
        for threads in 1..=3 {
            let source = pushing(int_blocks(&[3; 30]), Ok(()));
            let err = run_blocks(threads, source, || (), work).unwrap_err();
            assert_eq!(err.to_string(), failing(9).to_string(), "{threads} threads");
            let end = Err(CoreError::InvalidSpec("the source failed".into()));
            let err = run_blocks(threads, pushing(int_blocks(&[3; 30]), end), || (), work);
            let message = err.unwrap_err().to_string();
            assert!(message.contains("the source failed"), "{threads} threads: {message}");
        }
    }

    #[test]
    fn a_queued_block_that_fails_after_a_later_one_still_wins() {
        // At two threads the helper takes block 0 and holds it until
        // block 7 has failed. Meanwhile blocks 1 to 4 fill the queue, so
        // the calling thread works 5 to 7 itself; block 3 fails only
        // after block 7 has.
        let (failed_late, late) = mpsc::channel();
        let late = Mutex::new(late);
        let work = |(): &mut (), _: Relation, i: usize, _: BlockAt| match i {
            0 => {
                let late = late.lock().unwrap().recv_timeout(std::time::Duration::from_secs(10));
                late.expect("block 7 fails while block 0 is held");
                Ok(())
            }
            3 => Err(failing(3)),
            7 => {
                failed_late.send(()).unwrap();
                Err(failing(7))
            }
            _ => Ok(()),
        };
        let err = run_blocks(2, pushing(int_blocks(&[3; 12]), Ok(())), || (), work).unwrap_err();
        assert_eq!(err.to_string(), failing(3).to_string());
    }

    #[test]
    fn a_tap_in_the_source_sees_each_block_once_in_order_on_the_calling_thread() {
        let caller = std::thread::current().id();
        for threads in 1..=3 {
            let mut tapped = Vec::new();
            let blocks = int_blocks(&[2; 25]);
            let source = |push: &mut dyn FnMut(Relation, usize)| {
                pushing(blocks, Ok(()))(&mut |block, i| {
                    assert_eq!(std::thread::current().id(), caller);
                    tapped.push(i);
                    push(block, i);
                })
            };
            let work = |(): &mut (), _: Relation, i: usize, _: BlockAt| Ok(i);
            let (_, results) = run_blocks(threads, source, || (), work).unwrap();
            assert_eq!(tapped, (0..25).collect::<Vec<_>>(), "{threads} threads");
            assert_eq!(results, tapped, "{threads} threads");
        }
    }

    #[test]
    fn one_block_or_one_thread_runs_on_the_calling_thread() {
        let caller = std::thread::current().id();
        let work = |(): &mut (), _: Relation, _: usize, _: BlockAt| Ok(std::thread::current().id());
        let (_, one_block) = run_blocks(3, pushing(int_blocks(&[5]), Ok(())), || (), work).unwrap();
        assert_eq!(one_block, [caller]);
        let (_, one_thread) =
            run_blocks(1, pushing(int_blocks(&[5; 9]), Ok(())), || (), work).unwrap();
        assert_eq!(one_thread, [caller; 9]);
    }

    #[test]
    fn a_run_holds_at_most_the_queue_and_one_block_per_thread() {
        /// A payload counting the blocks alive, and their peak.
        struct Live(Arc<[AtomicUsize; 2]>);
        impl Live {
            fn new(counts: &Arc<[AtomicUsize; 2]>) -> Self {
                let live = counts[0].fetch_add(1, Ordering::SeqCst) + 1;
                counts[1].fetch_max(live, Ordering::SeqCst);
                Live(Arc::clone(counts))
            }
        }
        impl Drop for Live {
            fn drop(&mut self) {
                self.0[0].fetch_sub(1, Ordering::SeqCst);
            }
        }
        for threads in 1..=3 {
            let counts = Arc::new([AtomicUsize::new(0), AtomicUsize::new(0)]);
            let source = |push: &mut dyn FnMut(Relation, Live)| {
                for block in int_blocks(&[4; 60]) {
                    push(block, Live::new(&counts));
                }
                Ok::<_, CoreError>(())
            };
            // Slow work, so the reader runs ahead until the queue is full.
            let work = |(): &mut (), _: Relation, _: Live, _: BlockAt| {
                std::thread::sleep(std::time::Duration::from_micros(300));
                Ok(())
            };
            run_blocks(threads, source, || (), work).unwrap();
            assert_eq!(counts[0].load(Ordering::SeqCst), 0);
            let peak = counts[1].load(Ordering::SeqCst);
            assert!(peak <= 2 * threads + threads, "{threads} threads held {peak} blocks");
        }
    }
}
