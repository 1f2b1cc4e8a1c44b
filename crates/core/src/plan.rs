//! The shared mark-plan layer: one (optionally parallel) pass over a
//! relation that computes every per-tuple fact the watermarking
//! operators need, computed once and consumed by all of them.
//!
//! Everything in the paper's scheme is a pure function of the keyed
//! hashes of each tuple's primary key: the fitness bit
//! (`H(key, k1) mod e == 0`), the `wm_data` position
//! (`H(key, k2) mod |wm_data|`), and the pseudorandom value base
//! (`msb32(H(key, k1)) mod nA`). Historically the embedder, the blind
//! decoder, the stream marker, the multi-attribute passes, the
//! fingerprint tracer, and the contest resolver each recomputed those
//! hashes independently — and the fitness test and value base each
//! evaluated `H(·, k1)` separately, doubling the dominant cost.
//!
//! [`MarkPlan`] performs the pass once per `(spec keys, key column)`
//! pair, storing only the fit rows (≈ N/e entries), and every operator
//! consumes the same plan. [`PlanCache`] memoizes plans across
//! operators — an embed → decode round trip over the same relation
//! hashes the key column **once** instead of twice (and instead of
//! four `H(·, k1)` passes in the historical code). Plan construction
//! can fan out over threads; chunked row ranges are merged in order,
//! so sequential and parallel builds are byte-identical (pinned by
//! test).

use std::collections::HashMap;
use std::sync::{Arc, Mutex, RwLock};

use catmark_relation::{CacheStats, CanonicalText, ColumnView, Dictionary, Relation};

use crate::error::CoreError;
use crate::fitness::{FitFacts, FitnessSelector, IntFitScanner};
use crate::spec::WatermarkSpec;

/// Per-recipient [`MarkPlan`]s built in one batched pass over the key
/// column.
///
/// The paper's fingerprinting story derives an independent key pair per
/// recipient, so every recipient's fit set / positions / value bases
/// differ — the hash work is irreducible. What *is* reducible is the
/// number of passes: the SHA-256 lanes that normally batch **tuples**
/// under one key, 16 at a time (see
/// [`crate::fitness::FitnessSelector::int_scanner`]), batch four
/// **recipient keys** per tuple here
/// ([`crate::fitness::FitnessSelector::int_scanner4`]), so one
/// streaming read of the key column yields whole-quad facts per tuple:
/// lanes across recipients instead of across rows, with the column hot
/// in cache for all four.
///
/// Each contained plan is **byte-identical** to
/// [`MarkPlan::build_sequential`] under that recipient's spec (pinned
/// by test and proptest): downstream embed/decode/trace consumers can't
/// tell how the plan was built.
#[derive(Debug, Clone)]
pub struct MultiKeyPlan {
    plans: Vec<Arc<MarkPlan>>,
}

impl MultiKeyPlan {
    /// Build one plan per spec in `specs` order, batching recipient
    /// quads through the multi-key hasher where the key column is an
    /// integer column (the common case: primary keys). Non-integer key
    /// columns and trailing partial quads fall back to per-recipient
    /// sequential builds — same bytes, fewer shared passes.
    #[must_use]
    pub fn build(specs: &[WatermarkSpec], rel: &Relation, key_idx: usize) -> MultiKeyPlan {
        let column_fp = column_fingerprint(rel, key_idx);
        let ColumnView::Int(keys) = rel.column(key_idx) else {
            return Self::sequential_knowing_fp(specs, rel, key_idx, column_fp);
        };
        let mut plans = Vec::with_capacity(specs.len());
        let mut quads = specs.chunks_exact(4);
        for quad in &mut quads {
            let sels: Vec<FitnessSelector> = quad.iter().map(FitnessSelector::new).collect();
            let scanner = FitnessSelector::int_scanner4([&sels[0], &sels[1], &sels[2], &sels[3]]);
            let ns: Vec<u64> = quad.iter().map(domain_size).collect();
            let mut fits: [Vec<PlannedRow>; 4] = std::array::from_fn(|lane| {
                Vec::with_capacity(fit_estimate(rel.len(), quad[lane].e))
            });
            for (row, &key) in keys.iter().enumerate() {
                let lanes = scanner.facts4(key);
                for (lane, facts) in lanes.into_iter().enumerate() {
                    if let Some(facts) = facts {
                        fits[lane].push(planned(row, &facts, ns[lane]));
                    }
                }
            }
            for (lane, fit) in fits.into_iter().enumerate() {
                plans.push(Arc::new(MarkPlan {
                    spec_id: spec_identity(&quad[lane]),
                    key_idx,
                    column_fp,
                    rows: rel.len(),
                    n: ns[lane],
                    fit,
                }));
            }
        }
        for spec in quads.remainder() {
            plans.push(Arc::new(MarkPlan::sequential_knowing_fp(spec, rel, key_idx, column_fp)));
        }
        MultiKeyPlan { plans }
    }

    /// The per-recipient reference: N independent
    /// [`MarkPlan::build_sequential`] passes. The batched
    /// [`MultiKeyPlan::build`] must reproduce this byte for byte.
    #[must_use]
    pub fn build_sequential(
        specs: &[WatermarkSpec],
        rel: &Relation,
        key_idx: usize,
    ) -> MultiKeyPlan {
        Self::sequential_knowing_fp(specs, rel, key_idx, column_fingerprint(rel, key_idx))
    }

    fn sequential_knowing_fp(
        specs: &[WatermarkSpec],
        rel: &Relation,
        key_idx: usize,
        column_fp: u64,
    ) -> MultiKeyPlan {
        MultiKeyPlan {
            plans: specs
                .iter()
                .map(|spec| {
                    Arc::new(MarkPlan::sequential_knowing_fp(spec, rel, key_idx, column_fp))
                })
                .collect(),
        }
    }

    /// The per-recipient plans, in the spec order given to the build.
    #[must_use]
    pub fn plans(&self) -> &[Arc<MarkPlan>] {
        &self.plans
    }

    /// Number of recipient plans.
    #[must_use]
    pub fn len(&self) -> usize {
        self.plans.len()
    }

    /// Whether the batch holds no plans.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.plans.is_empty()
    }
}

/// The planned facts for one fit tuple.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PlannedRow {
    /// Row index in the planned relation.
    pub row: u32,
    /// The `wm_data` position this tuple carries.
    pub position: u32,
    /// Value base, already reduced modulo the domain size `nA`.
    pub value_base: u32,
}

/// Per-tuple facts for one `(spec, key column)` pair: the fit rows
/// with their positions and value bases, in ascending row order.
#[derive(Debug, Clone)]
pub struct MarkPlan {
    spec_id: u64,
    key_idx: usize,
    column_fp: u64,
    rows: usize,
    n: u64,
    fit: Vec<PlannedRow>,
}

impl MarkPlan {
    /// Build the plan for `rel` keyed by attribute `key_idx`, choosing
    /// sequential or parallel construction by relation size and
    /// available parallelism.
    #[must_use]
    pub fn build(spec: &WatermarkSpec, rel: &Relation, key_idx: usize) -> MarkPlan {
        Self::build_knowing_fp(spec, rel, key_idx, column_fingerprint(rel, key_idx))
    }

    /// [`MarkPlan::build`] with the key-column fingerprint already in
    /// hand (the cache computes it for its lookup key; no need to walk
    /// the column twice).
    fn build_knowing_fp(
        spec: &WatermarkSpec,
        rel: &Relation,
        key_idx: usize,
        column_fp: u64,
    ) -> MarkPlan {
        let threads = std::thread::available_parallelism().map_or(1, std::num::NonZero::get);
        if threads < 2 || rel.len() < 16_384 {
            Self::sequential_knowing_fp(spec, rel, key_idx, column_fp)
        } else {
            Self::threaded_knowing_fp(spec, rel, key_idx, threads, column_fp)
        }
    }

    /// Single-threaded plan construction — the reference semantics.
    #[must_use]
    pub fn build_sequential(spec: &WatermarkSpec, rel: &Relation, key_idx: usize) -> MarkPlan {
        Self::sequential_knowing_fp(spec, rel, key_idx, column_fingerprint(rel, key_idx))
    }

    /// [`MarkPlan::build_sequential`] for one block of a stream of
    /// row blocks: a text key's facts come from (and go to) `facts`,
    /// which every block of the stream shares.
    pub(crate) fn build_block(
        spec: &WatermarkSpec,
        rel: &Relation,
        key_idx: usize,
        facts: &TextFacts,
    ) -> MarkPlan {
        let column_fp = column_fingerprint(rel, key_idx);
        Self::scan_sequential(spec, rel, key_idx, column_fp, Some(facts))
    }

    fn sequential_knowing_fp(
        spec: &WatermarkSpec,
        rel: &Relation,
        key_idx: usize,
        column_fp: u64,
    ) -> MarkPlan {
        Self::scan_sequential(spec, rel, key_idx, column_fp, None)
    }

    fn scan_sequential(
        spec: &WatermarkSpec,
        rel: &Relation,
        key_idx: usize,
        column_fp: u64,
        shared: Option<&TextFacts>,
    ) -> MarkPlan {
        let sel = FitnessSelector::new(spec);
        let n = domain_size(spec);
        let scan = KeyScan::prepare(&sel, rel.column(key_idx), 1, shared);
        let mut fit = Vec::with_capacity(fit_estimate(rel.len(), spec.e));
        scan.scan(0..rel.len(), n, &mut fit);
        MarkPlan { spec_id: spec_identity(spec), key_idx, column_fp, rows: rel.len(), n, fit }
    }

    /// Plan construction fanned out over `threads` scoped threads.
    ///
    /// Rows are split into contiguous chunks, each scanned
    /// independently, and the per-chunk fit lists concatenated in
    /// chunk order — the result is byte-identical to
    /// [`MarkPlan::build_sequential`].
    ///
    /// # Panics
    ///
    /// Panics when `threads == 0`.
    #[must_use]
    pub fn build_with_threads(
        spec: &WatermarkSpec,
        rel: &Relation,
        key_idx: usize,
        threads: usize,
    ) -> MarkPlan {
        Self::threaded_knowing_fp(spec, rel, key_idx, threads, column_fingerprint(rel, key_idx))
    }

    fn threaded_knowing_fp(
        spec: &WatermarkSpec,
        rel: &Relation,
        key_idx: usize,
        threads: usize,
        column_fp: u64,
    ) -> MarkPlan {
        assert!(threads > 0, "at least one thread required");
        let rows = rel.len();
        let chunk = rows.div_ceil(threads).max(1);
        let sel = FitnessSelector::new(spec);
        let n = domain_size(spec);
        // One scan context serves every chunk: the integer fast-path
        // scanner is compiled once, and a text key column's
        // distinct-entry facts table is hashed once per *plan* — not
        // once per chunk, and not skipped because an individual chunk
        // looked too small to memoize.
        let scan = KeyScan::prepare(&sel, rel.column(key_idx), threads, None);
        let mut chunks: Vec<Vec<PlannedRow>> = Vec::new();
        std::thread::scope(|scope| {
            let handles: Vec<_> = (0..rows)
                .step_by(chunk)
                .map(|start| {
                    let scan = &scan;
                    let end = (start + chunk).min(rows);
                    scope.spawn(move || {
                        let mut fit = Vec::with_capacity(fit_estimate(end - start, spec.e));
                        scan.scan(start..end, n, &mut fit);
                        fit
                    })
                })
                .collect();
            chunks = handles
                .into_iter()
                .map(|h| h.join().expect("plan scan threads do not panic"))
                .collect();
        });
        let fit = chunks.concat();
        MarkPlan { spec_id: spec_identity(spec), key_idx, column_fp, rows, n, fit }
    }

    /// The fit tuples, ascending by row.
    #[must_use]
    pub fn fit(&self) -> &[PlannedRow] {
        &self.fit
    }

    /// Rows in the planned relation (the paper's `N`).
    #[must_use]
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Whether the plan is empty (no fit tuples).
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.fit.is_empty()
    }

    /// The domain value index a fit tuple must carry for watermark bit
    /// `bit`: the value base with its LSB forced, kept inside the
    /// domain.
    #[must_use]
    pub fn value_index(&self, planned: &PlannedRow, bit: bool) -> usize {
        crate::bits::force_lsb_in_domain(u64::from(planned.value_base), bit, self.n) as usize
    }

    /// Whether this plan was built under `spec` for `rel`'s key
    /// column: same keyed parameters and domain size, same row count,
    /// and the same key-column **content** (verified through the
    /// column fingerprint, so a shuffled, subsetted, or re-keyed
    /// relation of equal length is rejected rather than silently
    /// decoded against stale row indices).
    ///
    /// Costs one cheap fingerprint pass over the key column — two
    /// orders of magnitude below the keyed-hash pass a stale plan
    /// would corrupt.
    #[must_use]
    pub fn matches(&self, spec: &WatermarkSpec, rel: &Relation) -> bool {
        self.spec_id == spec_identity(spec)
            && self.rows == rel.len()
            && self.key_idx < rel.schema().arity()
            && self.column_fp == column_fingerprint(rel, self.key_idx)
    }
}

/// The scan context prepared **once per plan build** and shared by
/// every row chunk, sequential or threaded — preparation cost is paid
/// per plan, never per chunk, and the prepared facts make chunked and
/// monolithic scans byte-identical by construction.
///
/// Integer columns compile the fixed-width scanner (two SHA-256 blocks
/// per key, constant second-block schedule pre-expanded, 16 keys per
/// batch). Text columns precompute facts per
/// **dictionary code** when values repeat — `H(T_j(K), k)` hashes each
/// distinct string once per plan, not once per row and not once per
/// chunk — and fall back to per-row hashing for near-unique columns.
enum KeyScan<'a> {
    /// Flat integer keys through the compiled fixed-width scanner
    /// (boxed: its pre-expanded second-block schedule dwarfs the other
    /// variants, and one plan build allocates exactly one).
    Int { scanner: Box<IntFitScanner<'a>>, keys: &'a [i64] },
    /// Text keys dense enough to memoize (≥ 2 rows per distinct entry
    /// on average over the whole relation): facts per dictionary code,
    /// precomputed up front (fanned over threads for large
    /// dictionaries).
    TextMemo { codes: &'a [u32], facts: Vec<Option<FitFacts>> },
    /// Near-unique text keys — e.g. a text primary key — where a
    /// dict-sized facts table would mostly hold single-use entries:
    /// hash per row.
    TextDirect { codes: &'a [u32], dict: &'a Dictionary, sel: &'a FitnessSelector },
}

impl<'a> KeyScan<'a> {
    fn prepare(
        sel: &'a FitnessSelector,
        view: ColumnView<'a>,
        threads: usize,
        shared: Option<&TextFacts>,
    ) -> KeyScan<'a> {
        match view {
            ColumnView::Int(keys) => KeyScan::Int { scanner: Box::new(sel.int_scanner()), keys },
            ColumnView::Text { codes, dict } => {
                if let Some(shared) = shared {
                    return match shared.of(sel, codes, dict) {
                        Some(facts) => KeyScan::TextMemo { codes, facts },
                        None => KeyScan::TextDirect { codes, dict, sel },
                    };
                }
                // Density is judged over the whole relation, not per
                // chunk: a low-cardinality column stays memoized no
                // matter how finely the threaded build chunks it.
                if 2 * dict.len() <= codes.len() {
                    KeyScan::TextMemo { codes, facts: text_facts(sel, dict, threads) }
                } else {
                    KeyScan::TextDirect { codes, dict, sel }
                }
            }
        }
    }

    /// Scan `range` of the key column, appending planned facts for fit
    /// rows.
    fn scan(&self, range: std::ops::Range<usize>, n: u64, out: &mut Vec<PlannedRow>) {
        match self {
            KeyScan::Int { scanner, keys } => {
                let rows = range.clone().step_by(16);
                for (batch, start) in keys[range].chunks(16).zip(rows) {
                    // A short last batch repeats its keys to fill the
                    // lanes; only its own lanes are kept.
                    let lanes = std::array::from_fn(|lane| batch[lane % batch.len()]);
                    for (lane, facts) in scanner.facts16(lanes)[..batch.len()].iter().enumerate() {
                        if let Some(facts) = facts {
                            out.push(planned(start + lane, facts, n));
                        }
                    }
                }
            }
            KeyScan::TextMemo { codes, facts } => {
                for row in range {
                    if let Some(facts) = facts[codes[row] as usize] {
                        out.push(planned(row, &facts, n));
                    }
                }
            }
            KeyScan::TextDirect { codes, dict, sel } => {
                for row in range {
                    let entry = dict.get(codes[row]);
                    if let Some(facts) = sel.facts_canonical(&CanonicalText(entry)) {
                        out.push(planned(row, &facts, n));
                    }
                }
            }
        }
    }
}

/// Fitness facts for every distinct dictionary entry, fanned over
/// `threads` scoped threads when the dictionary is large enough to
/// amortize the spawns. Entry order is the dictionary's code order,
/// so the table is identical however it was computed.
fn text_facts(sel: &FitnessSelector, dict: &Dictionary, threads: usize) -> Vec<Option<FitFacts>> {
    let entries = dict.len();
    if threads < 2 || entries < 4_096 {
        return (0..entries)
            .map(|code| sel.facts_canonical(&CanonicalText(dict.get(code as u32))))
            .collect();
    }
    let chunk = entries.div_ceil(threads);
    let mut facts: Vec<Option<FitFacts>> = vec![None; entries];
    std::thread::scope(|scope| {
        for (index, slots) in facts.chunks_mut(chunk).enumerate() {
            let start = index * chunk;
            scope.spawn(move || {
                for (offset, slot) in slots.iter_mut().enumerate() {
                    let code = (start + offset) as u32;
                    *slot = sel.facts_canonical(&CanonicalText(dict.get(code)));
                }
            });
        }
    });
    facts
}

/// Fitness facts per distinct text key, shared by the plans of every
/// block of one stream ([`MarkPlan::build_block`]): each distinct key
/// is hashed about once per stream, as a plan of the whole relation
/// hashes it, instead of once per block. Only blocks whose keys repeat
/// use it, and it keeps at most [`TextFacts::CAPACITY`] keys; keys past
/// that are hashed in each block that holds them.
#[derive(Debug, Default)]
pub(crate) struct TextFacts(RwLock<HashMap<Arc<str>, Option<FitFacts>>>);

impl TextFacts {
    /// One block's worth of keys. That holds a key column that repeats
    /// a few thousand values, which is where the table pays, while a
    /// stream of ever new keys stops filling it after a block or two
    /// and so keeps its memory and its inserts bounded.
    const CAPACITY: usize = crate::BLOCK_ROWS;

    /// The facts of every entry of `dict` that `codes` uses, in code
    /// order, looked up, or hashed and kept while there is room; `None`
    /// when the block is near-unique (fewer than 2 rows per entry it
    /// uses), where hashing per row is cheaper. Only used entries
    /// count, since a block's dictionary may also hold entries of
    /// earlier blocks.
    fn of(
        &self,
        sel: &FitnessSelector,
        codes: &[u32],
        dict: &Dictionary,
    ) -> Option<Vec<Option<FitFacts>>> {
        let mut used = vec![false; dict.len()];
        for &code in codes {
            used[code as usize] = true;
        }
        let mut missing: Vec<usize> = (0..dict.len()).filter(|&code| used[code]).collect();
        if 2 * missing.len() > codes.len() {
            return None;
        }
        let mut facts = vec![None; dict.len()];
        {
            let known = self.0.read().expect("the text facts table is never poisoned");
            missing.retain(|&code| match known.get(dict.entries()[code].as_ref()) {
                Some(&known) => {
                    facts[code] = known;
                    false
                }
                None => true,
            });
        }
        if missing.is_empty() {
            return Some(facts);
        }
        for &code in &missing {
            facts[code] = sel.facts_canonical(&CanonicalText(dict.get(code as u32)));
        }
        let mut known = self.0.write().expect("the text facts table is never poisoned");
        for &code in &missing {
            if known.len() >= Self::CAPACITY {
                break;
            }
            known.insert(Arc::clone(&dict.entries()[code]), facts[code]);
        }
        Some(facts)
    }
}

/// Expected fit-list capacity for `rows` rows at modulus `e`, with
/// ~4σ binomial slack to avoid a mid-scan reallocation.
fn fit_estimate(rows: usize, e: u64) -> usize {
    let e = usize::try_from(e).unwrap_or(1).max(1);
    let mean = rows / e;
    mean + 4 * (mean as f64).sqrt() as usize + 8
}

fn planned(row: usize, facts: &crate::fitness::FitFacts, n: u64) -> PlannedRow {
    PlannedRow {
        row: u32::try_from(row).expect("relations hold fewer than 2^32 rows"),
        position: u32::try_from(facts.position).expect("wm_data_len fits in u32"),
        value_base: u32::try_from(facts.value_base(n)).expect("domain size fits in u32"),
    }
}

fn domain_size(spec: &WatermarkSpec) -> u64 {
    spec.domain.len() as u64
}

/// FNV-1a identity of the spec parameters a plan depends on. The
/// domain participates through its size only: the plan stores value
/// *indices*, which depend on `nA` but not on the values themselves.
/// Crate-visible so the incremental decode driver can key its vote
/// cache by `(spec identity, blob hash)`.
pub(crate) fn spec_identity(spec: &WatermarkSpec) -> u64 {
    let mut h = Fnv::new();
    h.write(&[match spec.algo {
        catmark_crypto::HashAlgorithm::Md5 => 1,
        catmark_crypto::HashAlgorithm::Sha1 => 2,
        catmark_crypto::HashAlgorithm::Sha256 => 3,
    }]);
    // Length-prefix the variable-length keys so the concatenation is
    // injective: without it, shifting bytes between k1 and k2 around a
    // plain separator would collide two different key pairs into one
    // cache identity.
    h.write(&(spec.k1.as_bytes().len() as u64).to_be_bytes());
    h.write(spec.k1.as_bytes());
    h.write(&(spec.k2.as_bytes().len() as u64).to_be_bytes());
    h.write(spec.k2.as_bytes());
    h.write(&spec.e.to_be_bytes());
    h.write(&(spec.wm_data_len as u64).to_be_bytes());
    h.write(&domain_size(spec).to_be_bytes());
    h.finish()
}

/// Cheap (non-cryptographic) content fingerprint of the key column —
/// how [`PlanCache`] recognizes a relation it has already planned.
/// Integer keys mix word-wide (SplitMix64 finalizer per row); text
/// keys fold FNV-1a over their bytes first. Two orders of magnitude
/// cheaper than one keyed SHA-256 pass over the same column. Not
/// collision-resistant against adversarial inputs: the cache is a
/// same-process memoization, not an integrity boundary.
fn column_fingerprint(rel: &Relation, key_idx: usize) -> u64 {
    fn mix(h: u64, v: u64) -> u64 {
        (h ^ v).wrapping_mul(0x9E37_79B9_7F4A_7C15).rotate_left(23)
    }
    let mut h = 0xCBF2_9CE4_8422_2325u64;
    match rel.column(key_idx) {
        ColumnView::Int(xs) => {
            for &i in xs {
                h = mix(h, i as u64 ^ 0x0100_0000_0000_0000);
            }
        }
        ColumnView::Text { codes, dict } => {
            // FNV each distinct entry once, fold per row by code —
            // same digest the row store produced hashing every row.
            let entry_fp: Vec<u64> = dict
                .entries()
                .iter()
                .map(|s| {
                    let mut f = Fnv::new();
                    f.write(&[0x02]);
                    f.write(s.as_bytes());
                    f.finish()
                })
                .collect();
            for &c in codes {
                h = mix(h, entry_fp[c as usize]);
            }
        }
    }
    h
}

/// Minimal FNV-1a state.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xCBF2_9CE4_8422_2325)
    }

    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x1000_0000_01B3);
        }
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

/// `(spec identity, key attribute index, key-column fingerprint)`.
type PlanKey = (u64, usize, u64);

/// The shared bounded store behind [`PlanCache`] and
/// [`MultiPlanCache`]: a map of entries stamped with a logical clock,
/// evicting the least-recently-used entry when full.
///
/// The historical eviction policy cleared the *whole* store on
/// overflow, so an interleaved workload (a few hot specs plus a
/// stream of one-shot ones) rebuilt its hot plans every
/// `CAPACITY`-th insert. LRU keeps the hot entries: every lookup
/// bumps the entry's stamp, and overflow evicts only the stalest one.
#[derive(Debug)]
struct LruStore<V> {
    entries: HashMap<PlanKey, (V, u64)>,
    clock: u64,
    stats: CacheStats,
}

impl<V> Default for LruStore<V> {
    fn default() -> Self {
        LruStore { entries: HashMap::new(), clock: 0, stats: CacheStats::default() }
    }
}

impl<V: Clone> LruStore<V> {
    /// Look up `key`, refreshing its recency stamp on a hit — no
    /// counter traffic. `insert_or_get` reuses this so a miss that
    /// flows get → build → insert is counted exactly once.
    fn lookup(&mut self, key: &PlanKey) -> Option<V> {
        self.clock += 1;
        let clock = self.clock;
        self.entries.get_mut(key).map(|(value, stamp)| {
            *stamp = clock;
            value.clone()
        })
    }

    /// Counted lookup: the cache-facing entry point.
    fn get(&mut self, key: &PlanKey) -> Option<V> {
        let found = self.lookup(key);
        if found.is_some() {
            self.stats.hits += 1;
        } else {
            self.stats.misses += 1;
        }
        found
    }

    /// Insert `value` under `key` (evicting the least-recently-used
    /// entry if the store is at `capacity`), or return the entry
    /// another thread won the build race with. The preceding counted
    /// `get` already recorded this flow's miss, so the race-check
    /// lookup here stays uncounted.
    fn insert_or_get(&mut self, key: PlanKey, value: V, capacity: usize) -> V {
        if let Some(existing) = self.lookup(&key) {
            return existing;
        }
        if self.entries.len() >= capacity {
            if let Some(&stalest) =
                self.entries.iter().min_by_key(|(_, (_, stamp))| *stamp).map(|(k, _)| k)
            {
                self.entries.remove(&stalest);
                self.stats.evictions += 1;
            }
        }
        self.clock += 1;
        self.entries.insert(key, (value.clone(), self.clock));
        value
    }

    fn len(&self) -> usize {
        self.entries.len()
    }

    fn clear(&mut self) {
        self.entries.clear();
    }
}

/// Memoizes [`MarkPlan`]s keyed by `(spec identity, key attribute,
/// key-column content fingerprint)`.
///
/// Sharing one cache across an embed → decode round trip (or across
/// repeated traces of the same suspect copy) collapses the keyed-hash
/// work to a single pass over the key column. The cache is
/// thread-safe; clones share the same underlying store. Memoization
/// is bounded to [`PlanCache::CAPACITY`] distinct plans with
/// least-recently-used eviction, so a long-lived holder (e.g. a
/// fingerprint registry tracing an endless stream of suspect copies)
/// cannot grow without bound — and a few hot plans survive any amount
/// of one-shot traffic around them.
#[derive(Debug, Clone, Default)]
pub struct PlanCache {
    inner: Arc<Mutex<LruStore<Arc<MarkPlan>>>>,
}

impl PlanCache {
    /// Distinct plans memoized before the least recently used one is
    /// evicted.
    pub const CAPACITY: usize = 64;

    /// Fresh, empty cache.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// The plan for `(spec, rel, key_idx)`, building and memoizing it
    /// on first request.
    ///
    /// # Errors
    ///
    /// [`CoreError::Relation`] when `key_idx` is out of schema range.
    pub fn plan_for(
        &self,
        spec: &WatermarkSpec,
        rel: &Relation,
        key_idx: usize,
    ) -> Result<Arc<MarkPlan>, CoreError> {
        if key_idx >= rel.schema().arity() {
            return Err(CoreError::Relation(catmark_relation::RelationError::InvalidSchema(
                format!("key attribute index {key_idx} out of range"),
            )));
        }
        let key = (spec_identity(spec), key_idx, column_fingerprint(rel, key_idx));
        if let Some(plan) = self.inner.lock().expect("plan cache is never poisoned").get(&key) {
            return Ok(plan);
        }
        // Build outside the lock: plans are immutable, so two threads
        // racing on the same key at worst build twice and agree; and a
        // long build never blocks other cache users (or poisons the
        // mutex if it panics).
        let plan = Arc::new(MarkPlan::build_knowing_fp(spec, rel, key_idx, key.2));
        let mut inner = self.inner.lock().expect("plan cache is never poisoned");
        Ok(inner.insert_or_get(key, plan, Self::CAPACITY))
    }

    /// Number of memoized plans.
    #[must_use]
    pub fn len(&self) -> usize {
        self.inner.lock().expect("plan cache is never poisoned").len()
    }

    /// Whether the cache is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Drop all memoized plans. Lifetime counters survive the clear —
    /// they describe traffic, not contents.
    pub fn clear(&self) {
        self.inner.lock().expect("plan cache is never poisoned").clear();
    }

    /// Lifetime hit/miss/eviction counters for this cache (shared by
    /// all clones, which share the store).
    #[must_use]
    pub fn stats(&self) -> CacheStats {
        self.inner.lock().expect("plan cache is never poisoned").stats
    }
}

/// Memoizes whole [`MultiKeyPlan`]s keyed by `(recipient-set identity,
/// key attribute, key-column content fingerprint)`.
///
/// [`PlanCache`] is the wrong shape for recipient batches: at 1 000
/// registered buyers a single trace inserts 1 000 distinct plans,
/// evicting everything else in the store — every repeated trace of
/// the same suspect re-plans everything. This cache treats the
/// **entire recipient set** as one entry (evicted least-recently-used,
/// like [`PlanCache`]), so a long-lived service tracing the same few
/// suspect copies over and over pays the batched pass once per
/// suspect. Capacity is small ([`MultiPlanCache::CAPACITY`] suspect
/// relations) because each entry is large (≈ recipients × N/e planned
/// rows).
#[derive(Debug, Clone, Default)]
pub struct MultiPlanCache {
    inner: Arc<Mutex<LruStore<Arc<MultiKeyPlan>>>>,
}

impl MultiPlanCache {
    /// Distinct recipient-set plans memoized before the store resets.
    pub const CAPACITY: usize = 4;

    /// Fresh, empty cache.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// The batched plan for `(specs, rel, key_idx)`, building and
    /// memoizing it on first request. The cache key folds every spec's
    /// identity in order, so adding, removing, or reordering recipients
    /// is a different entry.
    ///
    /// # Errors
    ///
    /// [`CoreError::Relation`] when `key_idx` is out of schema range.
    pub fn plan_for(
        &self,
        specs: &[WatermarkSpec],
        rel: &Relation,
        key_idx: usize,
    ) -> Result<Arc<MultiKeyPlan>, CoreError> {
        if key_idx >= rel.schema().arity() {
            return Err(CoreError::Relation(catmark_relation::RelationError::InvalidSchema(
                format!("key attribute index {key_idx} out of range"),
            )));
        }
        let mut set_id = Fnv::new();
        for spec in specs {
            set_id.write(&spec_identity(spec).to_be_bytes());
        }
        let key = (set_id.finish(), key_idx, column_fingerprint(rel, key_idx));
        if let Some(plan) = self.inner.lock().expect("plan cache is never poisoned").get(&key) {
            return Ok(plan);
        }
        // Build outside the lock — same reasoning as [`PlanCache`].
        let plan = Arc::new(MultiKeyPlan::build(specs, rel, key_idx));
        let mut inner = self.inner.lock().expect("plan cache is never poisoned");
        Ok(inner.insert_or_get(key, plan, Self::CAPACITY))
    }

    /// Number of memoized recipient-set plans.
    #[must_use]
    pub fn len(&self) -> usize {
        self.inner.lock().expect("plan cache is never poisoned").len()
    }

    /// Whether the cache is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Drop all memoized plans. Lifetime counters survive the clear.
    pub fn clear(&self) {
        self.inner.lock().expect("plan cache is never poisoned").clear();
    }

    /// Lifetime hit/miss/eviction counters for this cache (shared by
    /// all clones, which share the store).
    #[must_use]
    pub fn stats(&self) -> CacheStats {
        self.inner.lock().expect("plan cache is never poisoned").stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use catmark_datagen::{ItemScanConfig, SalesGenerator};
    use catmark_relation::Value;

    fn fixture(tuples: usize, e: u64) -> (Relation, WatermarkSpec) {
        let gen = SalesGenerator::new(ItemScanConfig { tuples, ..Default::default() });
        let rel = gen.generate();
        let spec = WatermarkSpec::builder(gen.item_domain())
            .master_key("plan-tests")
            .e(e)
            .wm_len(10)
            .expected_tuples(tuples)
            .build()
            .unwrap();
        (rel, spec)
    }

    #[test]
    fn plan_agrees_with_fitness_selector() {
        let (rel, spec) = fixture(4_000, 20);
        let plan = MarkPlan::build_sequential(&spec, &rel, 0);
        let sel = FitnessSelector::new(&spec);
        let expected = sel.fit_rows(&rel, 0);
        assert_eq!(plan.fit().iter().map(|p| p.row as usize).collect::<Vec<_>>(), expected);
        let n = spec.domain.len() as u64;
        for planned in plan.fit() {
            let key = rel.value(planned.row as usize, 0).unwrap();
            assert_eq!(planned.position as usize, sel.position(&key));
            assert_eq!(u64::from(planned.value_base), sel.value_base(&key, n));
        }
    }

    #[test]
    fn parallel_build_is_byte_identical_to_sequential() {
        let (rel, spec) = fixture(10_000, 15);
        let sequential = MarkPlan::build_sequential(&spec, &rel, 0);
        for threads in [1, 2, 3, 7, 16] {
            let parallel = MarkPlan::build_with_threads(&spec, &rel, 0, threads);
            assert_eq!(parallel.fit(), sequential.fit(), "threads={threads}");
            assert_eq!(parallel.rows(), sequential.rows());
        }
    }

    /// A relation whose attribute 1 is a text column drawn from
    /// `pool` (plans key on it; duplicates are the point), plus a spec
    /// over a small integer domain.
    fn text_keyed_fixture(tuples: usize, pool: &[&str]) -> (Relation, WatermarkSpec) {
        use catmark_relation::{AttrType, CategoricalDomain, Schema};
        let schema = Schema::builder()
            .key_attr("id", AttrType::Integer)
            .categorical_attr("k", AttrType::Text)
            .build()
            .unwrap();
        let mut rel = Relation::with_capacity(schema, tuples);
        for i in 0..tuples {
            let k = pool[(i * 7 + i / 11) % pool.len()];
            rel.push(vec![Value::Int(i as i64), Value::Text(k.into())]).unwrap();
        }
        let domain = CategoricalDomain::new((0..50).map(Value::Int).collect()).unwrap();
        let spec = WatermarkSpec::builder(domain)
            .master_key("low-cardinality-text-keys")
            .e(4)
            .wm_len(8)
            .expected_tuples(tuples)
            .build()
            .unwrap();
        (rel, spec)
    }

    #[test]
    fn threaded_text_memo_matches_sequential_on_low_cardinality_keys() {
        // Six distinct keys over 20k rows: every chunk of every
        // threaded build must see the same once-per-plan distinct-entry
        // facts table the sequential build uses (the historical code
        // re-decided memoization per chunk, by chunk length), and the
        // fit lists must stay byte-identical across thread counts.
        let pool = ["red", "green", "blue", "cyan", "violet", "umber"];
        let (rel, spec) = text_keyed_fixture(20_000, &pool);
        let sequential = MarkPlan::build_sequential(&spec, &rel, 1);
        assert!(!sequential.is_empty(), "fixture selects no fit tuples");
        for threads in [2, 3, 7, 16, 61] {
            let threaded = MarkPlan::build_with_threads(&spec, &rel, 1, threads);
            assert_eq!(threaded.fit(), sequential.fit(), "threads={threads}");
        }
    }

    #[test]
    fn near_unique_text_keys_also_agree_across_thread_counts() {
        // The no-memo (per-row hashing) arm of the shared scan context.
        let pool: Vec<String> = (0..4_000).map(|i| format!("user-{i:05}")).collect();
        let pool_refs: Vec<&str> = pool.iter().map(String::as_str).collect();
        let (rel, spec) = text_keyed_fixture(4_096, &pool_refs);
        let sequential = MarkPlan::build_sequential(&spec, &rel, 1);
        for threads in [2, 5] {
            let threaded = MarkPlan::build_with_threads(&spec, &rel, 1, threads);
            assert_eq!(threaded.fit(), sequential.fit(), "threads={threads}");
        }
    }

    #[test]
    fn block_plans_judge_and_keep_only_the_keys_a_block_uses() {
        // The CSV block reader hands a dictionary on to the next block,
        // so a block's dictionary may hold keys only earlier blocks use.
        // A block is judged by the keys its own rows use, and only those
        // are hashed into the stream's table.
        let pool: Vec<String> = (0..4_000).map(|i| format!("user-{i:05}")).collect();
        let pool_refs: Vec<&str> = pool.iter().map(String::as_str).collect();
        let (unique, spec) = text_keyed_fixture(4_096, &pool_refs);
        let repeating = unique.gather(&[0, 1, 2, 3, 4, 5].repeat(100));
        let sel = FitnessSelector::new(&spec);
        let facts = TextFacts::default();
        let memoized = |rel: &Relation| match rel.column(1) {
            ColumnView::Text { codes, dict } => facts.of(&sel, codes, dict).is_some(),
            ColumnView::Int(_) => unreachable!("the fixture keys on text"),
        };
        assert!(!memoized(&unique), "4,000 keys over 4,096 rows hash per row");
        assert!(memoized(&repeating), "6 of 4,000 entries over 600 rows are memoized");
        assert_eq!(facts.0.read().unwrap().len(), 6);
        for rel in [&unique, &repeating] {
            let block = MarkPlan::build_block(&spec, rel, 1, &facts);
            assert_eq!(block.fit(), MarkPlan::build_sequential(&spec, rel, 1).fit());
        }
    }

    #[test]
    fn build_matches_the_sequential_reference_past_the_threading_threshold() {
        // `build` fans rows past 16_384 out over every available CPU;
        // the plan must not depend on how many there are.
        let (rel, spec) = fixture(20_000, 10);
        let reference = MarkPlan::build_sequential(&spec, &rel, 0);
        assert_eq!(MarkPlan::build(&spec, &rel, 0).fit(), reference.fit());

        // Key columns of 0 to 40 rows end in every partial batch of the
        // 16-key scan (the AVX-512F kernel where `avx512f` is detected),
        // with negative and extreme keys in its lanes; every plan must
        // equal the per-key facts.
        let (base, spec) = fixture(40, 3);
        let sel = FitnessSelector::new(&spec);
        let keys: Vec<i64> = (0..40i64)
            .map(|i| match i % 4 {
                0 => i64::MIN + i,
                1 => i64::MAX - i,
                2 => -7_919 * i,
                _ => 104_729 * i,
            })
            .collect();
        for rows in 0..=40 {
            let mut short = Relation::new(base.schema().clone());
            for (row, &key) in keys[..rows].iter().enumerate() {
                let mut values: Vec<Value> =
                    (0..base.schema().arity()).map(|a| base.value(row, a).unwrap()).collect();
                values[0] = Value::Int(key);
                short.push(values).unwrap();
            }
            let expected: Vec<PlannedRow> = keys[..rows]
                .iter()
                .enumerate()
                .filter_map(|(row, &key)| {
                    let facts = sel.facts(&Value::Int(key))?;
                    Some(planned(row, &facts, spec.domain.len() as u64))
                })
                .collect();
            assert_eq!(MarkPlan::build_sequential(&spec, &short, 0).fit(), expected, "rows={rows}");
            assert_eq!(
                MarkPlan::build_with_threads(&spec, &short, 0, 3).fit(),
                expected,
                "rows={rows}"
            );
        }
    }

    #[test]
    fn value_index_forces_lsb_within_domain() {
        let (rel, spec) = fixture(3_000, 10);
        let plan = MarkPlan::build(&spec, &rel, 0);
        let n = spec.domain.len();
        assert!(!plan.is_empty());
        for planned in plan.fit() {
            for bit in [false, true] {
                let t = plan.value_index(planned, bit);
                assert!(t < n);
                assert_eq!(t & 1 == 1, bit);
            }
        }
    }

    #[test]
    fn matches_gates_spec_shape_and_content() {
        let (rel, spec) = fixture(1_000, 10);
        let plan = MarkPlan::build(&spec, &rel, 0);
        assert!(plan.matches(&spec, &rel));
        let rekeyed = spec.derived("other");
        assert!(!plan.matches(&rekeyed, &rel));
        let (smaller, _) = fixture(900, 10);
        assert!(!plan.matches(&spec, &smaller));
        // Same row count, different key content: a stale plan must be
        // rejected, not silently decoded against wrong row indices.
        let mut edited = rel.clone();
        let old = edited.value(0, 0).unwrap().as_int().unwrap();
        edited.update_value(0, 0, Value::Int(old + 1_000_000)).unwrap();
        assert!(!plan.matches(&spec, &edited));
        // Row-shuffled relation of identical content: also rejected.
        let shuffled = catmark_relation::ops::shuffle(&rel, 42);
        assert!(!plan.matches(&spec, &shuffled));
    }

    #[test]
    fn stale_plan_is_an_error_not_a_wrong_decode() {
        use crate::decode::Decoder;
        use crate::ecc::MajorityVotingEcc;
        let (rel, spec) = fixture(1_000, 10);
        let plan = MarkPlan::build(&spec, &rel, 0);
        let shuffled = catmark_relation::ops::shuffle(&rel, 7);
        let err = Decoder::engine(&spec).decode_with_plan(&shuffled, 1, &MajorityVotingEcc, &plan);
        assert!(matches!(err, Err(CoreError::InvalidSpec(_))));
    }

    #[test]
    fn cache_is_bounded() {
        let (rel, spec) = fixture(100, 10);
        let cache = PlanCache::new();
        for i in 0..(PlanCache::CAPACITY + 5) {
            cache.plan_for(&spec.derived(&format!("tenant-{i}")), &rel, 0).unwrap();
        }
        assert!(cache.len() <= PlanCache::CAPACITY);
    }

    #[test]
    fn cache_reuses_plans_and_distinguishes_content() {
        let (rel, spec) = fixture(2_000, 10);
        let cache = PlanCache::new();
        let a = cache.plan_for(&spec, &rel, 0).unwrap();
        let b = cache.plan_for(&spec, &rel, 0).unwrap();
        assert!(Arc::ptr_eq(&a, &b), "identical requests share one plan");
        assert_eq!(cache.len(), 1);

        // Same shape, different key content → a different plan.
        let mut altered = rel.clone();
        let old = altered.value(0, 0).unwrap().as_int().unwrap();
        altered.update_value(0, 0, Value::Int(old + 1_000_000)).unwrap();
        let c = cache.plan_for(&spec, &altered, 0).unwrap();
        assert!(!Arc::ptr_eq(&a, &c));
        assert_eq!(cache.len(), 2);

        // Different keys under the same column → a different plan.
        let d = cache.plan_for(&spec.derived("buyer:acme"), &rel, 0).unwrap();
        assert!(!Arc::ptr_eq(&a, &d));

        cache.clear();
        assert!(cache.is_empty());
    }

    #[test]
    fn lru_eviction_keeps_hot_plans_through_interleaved_cold_traffic() {
        // The clear-on-full baseline wipes the whole store every
        // CAPACITY-th distinct insert, so a workload interleaving a
        // few hot specs with a stream of one-shot ones re-plans the
        // hot set over and over (hit rate for the hot specs over this
        // access pattern: well under 100%). LRU must keep every hot
        // plan resident — their stamps refresh each round while the
        // cold entries evict each other.
        let (rel, spec) = fixture(300, 10);
        let cache = PlanCache::new();
        let hot: Vec<WatermarkSpec> = (0..4).map(|i| spec.derived(&format!("hot-{i}"))).collect();
        let first: Vec<Arc<MarkPlan>> =
            hot.iter().map(|s| cache.plan_for(s, &rel, 0).unwrap()).collect();
        let mut hot_hits = 0usize;
        let mut hot_accesses = 0usize;
        for i in 0..(PlanCache::CAPACITY + 16) {
            cache.plan_for(&spec.derived(&format!("cold-{i}")), &rel, 0).unwrap();
            for (s, original) in hot.iter().zip(&first) {
                let again = cache.plan_for(s, &rel, 0).unwrap();
                hot_accesses += 1;
                if Arc::ptr_eq(original, &again) {
                    hot_hits += 1;
                }
            }
            assert!(cache.len() <= PlanCache::CAPACITY);
        }
        assert_eq!(
            hot_hits, hot_accesses,
            "hot plans were evicted by cold traffic ({hot_hits}/{hot_accesses} hits)"
        );
    }

    #[test]
    fn spec_identity_separates_shifted_key_bytes() {
        // Two different key pairs whose concatenation around a plain
        // separator would be byte-identical (01 FF 02 FF 03): the
        // length-prefixed identity must keep them distinct, or the
        // cache would serve one spec's plan for the other.
        let (_, spec) = fixture(100, 10);
        let mut a = spec.clone();
        a.k1 = catmark_crypto::SecretKey::from_bytes(vec![0x01]);
        a.k2 = catmark_crypto::SecretKey::from_bytes(vec![0x02, 0xFF, 0x03]);
        let mut b = spec;
        b.k1 = catmark_crypto::SecretKey::from_bytes(vec![0x01, 0xFF, 0x02]);
        b.k2 = catmark_crypto::SecretKey::from_bytes(vec![0x03]);
        assert_ne!(spec_identity(&a), spec_identity(&b));
    }

    #[test]
    fn cache_stats_count_hits_misses_and_evictions() {
        let (rel, spec) = fixture(100, 10);
        let cache = PlanCache::new();
        assert_eq!(cache.stats(), CacheStats::default());
        cache.plan_for(&spec, &rel, 0).unwrap();
        cache.plan_for(&spec, &rel, 0).unwrap();
        let warm = cache.stats();
        assert_eq!((warm.hits, warm.misses, warm.evictions), (1, 1, 0));
        // Overflow the store: each cold insert past capacity evicts
        // exactly one entry, and counters survive `clear`.
        for i in 0..(PlanCache::CAPACITY + 3) {
            cache.plan_for(&spec.derived(&format!("cold-{i}")), &rel, 0).unwrap();
        }
        let full = cache.stats();
        assert_eq!(full.evictions, 4, "one eviction per insert past capacity");
        cache.clear();
        assert_eq!(cache.stats(), full, "clear drops plans, not traffic history");
    }

    #[test]
    fn cache_rejects_out_of_range_attribute() {
        let (rel, spec) = fixture(100, 10);
        assert!(PlanCache::new().plan_for(&spec, &rel, 9).is_err());
    }

    #[test]
    fn multi_key_build_matches_sequential_per_recipient() {
        // The batched recipient pass must reproduce each recipient's
        // independent sequential build byte for byte — across batch
        // sizes that exercise full quads, partial quads, the
        // single-recipient case, and duplicate recipients.
        let (rel, spec) = fixture(3_000, 15);
        for count in [0usize, 1, 3, 4, 5, 8, 11] {
            let mut specs: Vec<WatermarkSpec> =
                (0..count).map(|i| spec.derived(&format!("buyer:{}", i % 7))).collect();
            if count > 2 {
                // Force a duplicate pair inside one quad.
                specs[1] = specs[0].clone();
            }
            let batched = MultiKeyPlan::build(&specs, &rel, 0);
            let reference = MultiKeyPlan::build_sequential(&specs, &rel, 0);
            assert_eq!(batched.len(), count);
            assert_eq!(batched.is_empty(), count == 0);
            for (i, (b, r)) in batched.plans().iter().zip(reference.plans()).enumerate() {
                assert_eq!(b.fit(), r.fit(), "count={count} recipient={i}");
                assert_eq!(b.rows(), r.rows());
                assert!(b.matches(&specs[i], &rel), "count={count} recipient={i}");
            }
        }
    }

    #[test]
    fn multi_key_build_falls_back_on_text_key_columns() {
        let pool = ["red", "green", "blue", "cyan"];
        let (rel, spec) = text_keyed_fixture(2_000, &pool);
        let specs: Vec<WatermarkSpec> =
            (0..5).map(|i| spec.derived(&format!("buyer:{i}"))).collect();
        let batched = MultiKeyPlan::build(&specs, &rel, 1);
        for (i, plan) in batched.plans().iter().enumerate() {
            let reference = MarkPlan::build_sequential(&specs[i], &rel, 1);
            assert_eq!(plan.fit(), reference.fit(), "recipient={i}");
        }
    }

    #[test]
    fn multi_plan_cache_reuses_whole_recipient_sets() {
        let (rel, spec) = fixture(1_000, 10);
        let specs: Vec<WatermarkSpec> =
            (0..9).map(|i| spec.derived(&format!("buyer:{i}"))).collect();
        let cache = MultiPlanCache::new();
        let a = cache.plan_for(&specs, &rel, 0).unwrap();
        let b = cache.plan_for(&specs, &rel, 0).unwrap();
        assert!(Arc::ptr_eq(&a, &b), "identical recipient sets share one batch");
        assert_eq!(cache.len(), 1);

        // Reordering recipients is a different entry (plan order is
        // part of the contract).
        let mut reordered = specs.clone();
        reordered.swap(0, 5);
        let c = cache.plan_for(&reordered, &rel, 0).unwrap();
        assert!(!Arc::ptr_eq(&a, &c));

        // Bounded: overflowing the capacity resets rather than grows.
        for i in 0..(MultiPlanCache::CAPACITY + 2) {
            let other: Vec<WatermarkSpec> =
                (0..3).map(|j| spec.derived(&format!("set-{i}-{j}"))).collect();
            cache.plan_for(&other, &rel, 0).unwrap();
        }
        assert!(cache.len() <= MultiPlanCache::CAPACITY);
        cache.clear();
        assert!(cache.is_empty());

        assert!(cache.plan_for(&specs, &rel, 9).is_err());
    }
}
