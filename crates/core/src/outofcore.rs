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
//! blocks, such as a CSV file read [`BLOCK_ROWS`] rows at a time: one
//! worker per core plans and passes each block into its own fold or
//! tally while the calling thread reads the next, and the workers'
//! folds and tallies add up to the in-memory ones for the reason
//! above.
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

use std::collections::VecDeque;
use std::ops::Deref;
use std::sync::{mpsc, Arc, Mutex};
use std::thread::{Scope, ScopedJoinHandle};

use catmark_relation::{Relation, RelationError, SegmentedRelation, VersionManifest};

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
/// reads a CSV file. Each block is planned on one worker with
/// [`MarkPlan::build_sequential`]; blocks this size stay below the
/// size at which [`MarkPlan::build`] would thread.
pub const BLOCK_ROWS: usize = 8_192;

/// Where a block sits in its stream.
#[derive(Debug, Clone, Copy, Default)]
struct BlockAt {
    index: usize,
    first_row: usize,
}

/// A block's work done: its result, and the block when a tap wants it.
type Done<T> = (Result<T, CoreError>, Option<Relation>);

/// A block on its way to a worker, with where its result goes.
type Job<T> = (Relation, BlockAt, mpsc::SyncSender<Done<T>>);

impl MarkSession {
    /// [`MarkSession::embed`] over a relation that arrives as row
    /// blocks. `source` hands every block, in row order, to the
    /// function it is given (as `catmark_relation::csv::read_csv_blocks`
    /// does) and returns how reading ended. Workers on every core plan
    /// and mark the blocks, then run `render` on each marked block with
    /// its index in the stream; `sink` receives what `render` returned,
    /// block by block in order, on the calling thread. The report equals
    /// [`MarkSession::embed`]'s on the relation the blocks make up, and
    /// the marked blocks are its marked rows: every planned fact and
    /// every write depends only on the row's own key and `wm_data`.
    ///
    /// # Errors
    ///
    /// Watermark length mismatch before any block is read, binding
    /// drift, or the error `source` returned. `source` runs to its end
    /// even after a block fails, so its own error comes first, as it
    /// would reading the whole relation before embedding.
    pub fn embed_blocks<R, E>(
        &self,
        wm: &Watermark,
        source: impl FnOnce(&mut dyn FnMut(Relation)) -> Result<(), E>,
        render: impl Fn(usize, &Relation) -> R + Sync,
        sink: impl FnMut(R),
    ) -> Result<EmbedReport, E>
    where
        R: Send,
        E: From<CoreError>,
    {
        let engine = Embedder::engine(self.spec());
        let wm_data = engine.wm_data(wm, &MajorityVotingEcc)?;
        let (key_idx, attr_idx) = (self.key().index(), self.target().index());
        let facts = TextFacts::default();
        let work = |fold: &mut EmbedFold, rel: &mut Relation, at: BlockAt| {
            self.check(rel)?;
            let plan = MarkPlan::build_block(self.spec(), rel, key_idx, &facts);
            engine.embed_pass(rel, attr_idx, &wm_data, None, &plan, at.first_row, fold)?;
            Ok(render(at.index, rel))
        };
        let init = || EmbedFold::new(self.spec());
        let parts = run_blocks(source, init, work, sink, None::<fn(&Relation)>)?;
        let fold = parts.into_iter().reduce(|mut fold, part| {
            fold.merge(part);
            fold
        });
        let mut report = fold.unwrap_or_else(init).finish();
        // Each worker's blocks interleave with the others'.
        report.touched_rows.sort_unstable();
        Ok(report)
    }

    /// [`MarkSession::decode`] over a relation that arrives as row
    /// blocks, with `source` as in [`MarkSession::embed_blocks`]: each
    /// worker tallies its blocks' votes, and the tallies sum into one
    /// resolution. Only the blocks in flight are held, about two per
    /// worker, and one tally per worker, never the relation.
    ///
    /// # Errors
    ///
    /// Binding drift, or the error `source` returned.
    pub fn decode_blocks<E: From<CoreError>>(
        &self,
        source: impl FnOnce(&mut dyn FnMut(Relation)) -> Result<(), E>,
    ) -> Result<DecodeReport, E> {
        let votes = self.tally_blocks(source, None::<fn(&Relation)>)?;
        Ok(Decoder::engine(self.spec()).resolve(&MajorityVotingEcc, &votes)?)
    }

    /// The decode driver behind every block decode: the votes of every
    /// block, summed. `tap`, when given, sees every block after its
    /// tally, in order.
    pub(crate) fn tally_blocks<E: From<CoreError>>(
        &self,
        source: impl FnOnce(&mut dyn FnMut(Relation)) -> Result<(), E>,
        tap: Option<impl FnMut(&Relation) + Send>,
    ) -> Result<VoteAccumulator, E> {
        let (spec, attr_idx) = (self.spec(), self.target().index());
        let facts = TextFacts::default();
        let work = |votes: &mut VoteAccumulator, rel: &mut Relation, _: BlockAt| {
            self.check(rel)?;
            let plan = MarkPlan::build_block(spec, rel, self.key().index(), &facts);
            votes.add(spec, rel, attr_idx, &plan);
            Ok(())
        };
        let init = || VoteAccumulator::new(spec.wm_data_len);
        let parts = run_blocks(source, init, work, |()| {}, tap)?;
        let votes = parts.into_iter().reduce(|mut votes, part| {
            votes.merge(&part);
            votes
        });
        Ok(votes.unwrap_or_else(init))
    }
}

/// The block driver: run `work` over every block `source` pushes, on
/// one worker per core, each worker adding to a state of its own from
/// `init`; `fold` each block's result in block order on the calling
/// thread, which also runs `source`; and return the states for the
/// caller to merge. Every state is as large as one block needs, not one
/// per block. About two blocks per worker are in flight. A one-block
/// stream, or any stream on one CPU, runs inline without spawning: the
/// first block is held until a second one arrives. `tap` sees each
/// folded block in order, on a thread of its own once the workers
/// start. After a block fails, later blocks are dropped unworked while
/// `source` reads on, so an error of `source` comes before the block's.
fn run_blocks<S: Send, T: Send, E: From<CoreError>>(
    source: impl FnOnce(&mut dyn FnMut(Relation)) -> Result<(), E>,
    init: impl Fn() -> S + Sync,
    work: impl Fn(&mut S, &mut Relation, BlockAt) -> Result<T, CoreError> + Sync,
    fold: impl FnMut(T),
    tap: Option<impl FnMut(&Relation) + Send>,
) -> Result<Vec<S>, E> {
    let threads = std::thread::available_parallelism().map_or(1, std::num::NonZero::get);
    let (read, finished) = std::thread::scope(|scope| {
        let mut blocks = Blocks {
            scope,
            threads,
            init: &init,
            work: &work,
            fold,
            tap: tap.map_or(Tap::Off, Tap::Inline),
            next: BlockAt::default(),
            held: None,
            own: None,
            queue: None,
            workers: Vec::new(),
            pending: VecDeque::new(),
            failed: None,
        };
        let read = source(&mut |rel| blocks.push(rel));
        (read, blocks.finish())
    });
    read?;
    Ok(finished?)
}

/// [`run_blocks`]'s state on the calling thread.
struct Blocks<'scope, 'env, S, T, I, W, F, P> {
    scope: &'scope Scope<'scope, 'env>,
    threads: usize,
    init: &'scope I,
    work: &'scope W,
    fold: F,
    tap: Tap<P>,
    /// Where the next block sits.
    next: BlockAt,
    /// The first block, until a second shows the stream needs workers.
    held: Option<(Relation, BlockAt)>,
    /// The calling thread's state, once it works a block itself.
    own: Option<S>,
    /// The workers' queue, once they run.
    queue: Option<mpsc::Sender<Job<T>>>,
    workers: Vec<ScopedJoinHandle<'scope, S>>,
    /// Results not yet folded, in block order.
    pending: VecDeque<mpsc::Receiver<Done<T>>>,
    failed: Option<CoreError>,
}

impl<'scope, S, T, I, W, F, P> Blocks<'scope, '_, S, T, I, W, F, P>
where
    S: Send + 'scope,
    T: Send + 'scope,
    I: Fn() -> S + Sync,
    W: Fn(&mut S, &mut Relation, BlockAt) -> Result<T, CoreError> + Sync,
    F: FnMut(T),
    P: FnMut(&Relation) + Send + 'scope,
{
    fn push(&mut self, rel: Relation) {
        let at = self.next;
        self.next = BlockAt { index: at.index + 1, first_row: at.first_row + rel.len() };
        if self.failed.is_some() {
            return;
        }
        if self.threads < 2 {
            return self.run_here(rel, at);
        }
        if self.queue.is_none() {
            let Some(first) = self.held.take() else {
                self.held = Some((rel, at));
                return;
            };
            self.start();
            self.send(first);
        }
        self.send((rel, at));
    }

    /// Work a block on the calling thread.
    fn run_here(&mut self, rel: Relation, at: BlockAt) {
        let own = self.own.get_or_insert_with(self.init);
        let done = run(self.work, own, rel, at, true);
        self.settle(done);
    }

    /// Spawn the workers, and the tap's thread.
    fn start(&mut self) {
        let (queue, jobs) = mpsc::channel::<Job<T>>();
        let jobs = Arc::new(Mutex::new(jobs));
        // Without a tap, a block is dropped where it was worked.
        let keep = !matches!(self.tap, Tap::Off);
        for _ in 0..self.threads {
            let (jobs, init, work) = (Arc::clone(&jobs), self.init, self.work);
            self.workers.push(self.scope.spawn(move || {
                let mut state = init();
                loop {
                    let job = jobs.lock().expect("the block queue is never poisoned").recv();
                    let Ok((rel, at, reply)) = job else { break };
                    // A closed reply means the caller stopped folding.
                    let _ = reply.send(run(work, &mut state, rel, at, keep));
                }
                state
            }));
        }
        self.queue = Some(queue);
        if let Tap::Inline(mut tap) = std::mem::replace(&mut self.tap, Tap::Off) {
            let (blocks, rx) = mpsc::sync_channel::<Relation>(2);
            self.scope.spawn(move || rx.into_iter().for_each(|rel| tap(&rel)));
            self.tap = Tap::Thread(blocks);
        }
    }

    /// Queue a block once fewer than two per worker are in flight, then
    /// fold every result that has come back in order.
    fn send(&mut self, (rel, at): (Relation, BlockAt)) {
        if self.pending.len() >= 2 * self.threads {
            self.settle_front();
        }
        let (reply, done) = mpsc::sync_channel(1);
        let queue = self.queue.as_ref().expect("workers run before blocks are queued");
        queue.send((rel, at, reply)).expect("block workers run until the queue closes");
        self.pending.push_back(done);
        while let Some(Ok(done)) = self.pending.front().map(mpsc::Receiver::try_recv) {
            self.pending.pop_front();
            self.settle(done);
        }
    }

    fn settle_front(&mut self) {
        let front = self.pending.pop_front().expect("a block is in flight");
        self.settle(front.recv().expect("block workers do not panic"));
    }

    fn settle(&mut self, (result, rel): Done<T>) {
        match result {
            Ok(out) if self.failed.is_none() => {
                (self.fold)(out);
                if let Some(rel) = rel {
                    self.tap.feed(rel);
                }
            }
            Ok(_) => {}
            Err(e) => {
                self.failed.get_or_insert(e);
            }
        }
    }

    /// Run a held block inline, fold what is in flight, stop the
    /// workers and the tap (the scope joins the tap), and hand back
    /// every state, or the first failure.
    fn finish(mut self) -> Result<Vec<S>, CoreError> {
        if let Some((rel, at)) = self.held.take() {
            self.run_here(rel, at);
        }
        while !self.pending.is_empty() {
            self.settle_front();
        }
        self.queue = None;
        let mut states: Vec<S> = self.own.take().into_iter().collect();
        for worker in self.workers.drain(..) {
            states.push(worker.join().expect("block workers do not panic"));
        }
        self.failed.take().map_or(Ok(states), Err)
    }
}

fn run<S, T>(
    work: &impl Fn(&mut S, &mut Relation, BlockAt) -> Result<T, CoreError>,
    state: &mut S,
    mut rel: Relation,
    at: BlockAt,
    keep: bool,
) -> Done<T> {
    let result = work(state, &mut rel, at);
    (result, keep.then_some(rel))
}

/// [`run_blocks`]'s tap: off, on the calling thread, or fed through a
/// bounded channel to a thread of its own.
enum Tap<P> {
    Off,
    Inline(P),
    Thread(mpsc::SyncSender<Relation>),
}

impl<P: FnMut(&Relation)> Tap<P> {
    fn feed(&mut self, rel: Relation) {
        match self {
            Tap::Off => {}
            Tap::Inline(tap) => tap(&rel),
            Tap::Thread(blocks) => {
                blocks.send(rel).expect("the tap runs until its channel closes");
            }
        }
    }
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
}
