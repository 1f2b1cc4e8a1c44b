//! The traced replay: each workload's operations run in-process, in the
//! order the binary makes the calls, with a span around every layer.
//!
//! * CLI: the real command runs first (its wall time gives `cli.other`),
//!   then the same work replays through `infer_schema`/`read_csv`,
//!   binding, `MarkSession::plan`, the embed/decode/certify call,
//!   `write_csv` into an unbuffered `File`, and `verify_evidence`.
//! * Daemon: each request goes through `write_frame`/`read_frame`,
//!   `json::parse`, `Service::handle`, `Json::to_text`, and the frames
//!   back. `handle` is timed as a whole; a mirror of the service's
//!   state then replays the csv/plan/core calls the op makes, and
//!   those measured durations become `handle`'s children, so its self
//!   time is the daemon's own bookkeeping.
//! * Socket churn: two threads share a `Mutex<Service>` as the worker
//!   pool does, with spans for lock wait and lock hold.
//!
//! Cycles alternate between traced and untraced; comparing the two
//! gives the tracing overhead.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::fs::File;
use std::io::BufReader;
use std::ops::Range;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use catmark_core::keyfile::TenantKeyRegistry;
use catmark_core::{
    detect, verify_evidence, FingerprintSession, MarkSession, VoteCache, Watermark, WatermarkSpec,
};
use catmark_relation::csv::{infer_schema, read_csv, write_csv};
use catmark_relation::{
    ContentStore, MemStore, Relation, RelationError, Schema, SegmentStore, SegmentedRelation,
    SpillHandle, VersionLog,
};
use catmark_service::{json, read_frame, write_frame, Json, Service, ServiceConfig};

use crate::client::{ok_reply, Exchange};
use crate::data::{self, ATTR};
use crate::jsonr::Value;
use crate::layers::{keyed_hash_mb_per_s, per_layer_metrics, LayerTimes};
use crate::spans::{Recorder, Span};
use crate::stats::median;
use crate::{cli, daemon, Ctx, Metric, Outcome};

/// A traced run's results.
pub struct Traced {
    /// Per-layer metrics.
    pub metrics: Vec<Metric>,
    /// Replayed operations.
    pub attempted: u64,
    /// Failed replayed operations.
    pub failed: u64,
    /// Failure messages.
    pub failures: Vec<String>,
    /// Report fragment (JSON members).
    pub report: String,
}

/// Run the traced replay of `ctx.workload`.
pub fn run(ctx: &Ctx) -> Result<Traced, String> {
    let mut traced = match ctx.workload.as_str() {
        "cli_files" => cli_traced(ctx),
        "daemon_stdio" => stdio_traced(ctx),
        _ => churn_traced(ctx),
    }?;
    let coverage =
        traced.metrics.iter().find(|m| m.name == "trace.coverage").map_or(0.0, |m| m.value);
    if coverage < MIN_COVERAGE {
        traced.failed += 1;
        traced.failures.push(format!("layer spans cover only {coverage:.3} of replayed op time"));
    }
    Ok(traced)
}

/// The share of replayed operation time the layer spans must cover.
const MIN_COVERAGE: f64 = 0.9;

/// Time `f`, in ns.
fn ns<R>(f: impl FnOnce() -> R) -> (R, u64) {
    let start = Instant::now();
    let out = f();
    (out, start.elapsed().as_nanos() as u64)
}

/// A span recorder that is switched off on untraced cycles.
struct Tracer {
    rec: Recorder,
    on: bool,
    request: u64,
    /// Root durations per operation, ms: `(traced, untraced)`.
    roots: BTreeMap<&'static str, (Vec<f64>, Vec<f64>)>,
}

impl Tracer {
    fn new(origin: Instant, first_request: u64) -> Self {
        Tracer {
            rec: Recorder::new(origin),
            on: false,
            request: first_request,
            roots: BTreeMap::new(),
        }
    }

    fn open(&mut self, name: &'static str, parent: Option<usize>) -> Option<usize> {
        self.on.then(|| self.rec.open(name, parent, self.request))
    }

    fn close(&mut self, id: Option<usize>) {
        if let Some(id) = id {
            self.rec.close(id);
        }
    }

    fn span<R>(&mut self, name: &'static str, parent: Option<usize>, f: impl FnOnce() -> R) -> R {
        let id = self.open(name, parent);
        let out = f();
        self.close(id);
        out
    }

    /// Start a replayed operation: a new request id and its root span.
    fn begin(&mut self, op: &'static str) -> (Option<usize>, Instant) {
        self.request += 1;
        (self.open(op, None), Instant::now())
    }

    /// End the operation begun at `start`; returns its latency, ms.
    fn end(&mut self, op: &'static str, root: Option<usize>, start: Instant) -> f64 {
        self.close(root);
        let ms = start.elapsed().as_secs_f64() * 1e3;
        let slot = self.roots.entry(op).or_default();
        if self.on { &mut slot.0 } else { &mut slot.1 }.push(ms);
        ms
    }
}

/// Traced replay time over untraced replay time: the sum over
/// operations of their median root durations, on over off.
fn overhead(roots: &BTreeMap<&'static str, (Vec<f64>, Vec<f64>)>) -> f64 {
    let (mut on, mut off) = (0.0, 0.0);
    for (traced, untraced) in roots.values() {
        if !traced.is_empty() && !untraced.is_empty() {
            on += median(traced);
            off += median(untraced);
        }
    }
    if off > 0.0 {
        on / off
    } else {
        f64::NAN
    }
}

/// Counts and byte sizes recorded where the work happens.
#[derive(Default)]
struct Counters {
    /// Per-occurrence samples (votes, bundle bytes, …), means reported.
    samples: BTreeMap<&'static str, Vec<f64>>,
    /// Per-request byte counts behind the MB/s figures.
    bytes: BTreeMap<&'static str, BTreeMap<u64, u64>>,
}

impl Counters {
    fn sample(&mut self, name: &'static str, v: f64) {
        self.samples.entry(name).or_default().push(v);
    }

    fn bytes(&mut self, name: &'static str, request: u64, n: usize) {
        *self.bytes.entry(name).or_default().entry(request).or_default() += n as u64;
    }

    fn mean(&self, name: &str) -> f64 {
        self.samples.get(name).map_or(0.0, |v| v.iter().sum::<f64>() / v.len() as f64)
    }

    fn absorb(&mut self, other: Counters) {
        for (k, v) in other.samples {
            self.samples.entry(k).or_default().extend(v);
        }
        for (k, v) in other.bytes {
            self.bytes.entry(k).or_default().extend(v);
        }
    }

    fn rate(&self, lt: &LayerTimes, layer: &str, bytes: &str) -> f64 {
        self.bytes.get(bytes).map_or(0.0, |b| lt.mb_per_s(layer, b))
    }
}

fn ratio(hits: f64, misses: f64) -> f64 {
    if hits + misses > 0.0 {
        hits / (hits + misses)
    } else {
        0.0
    }
}

fn err(e: impl std::fmt::Display) -> String {
    e.to_string()
}

/// The metrics every workload computes the same way from its spans.
fn common_layers(lt: &LayerTimes, c: &Counters, values: &mut BTreeMap<&'static str, f64>) {
    for (metric, layer) in [
        ("relation.csv.infer_ms", "relation.csv.infer"),
        ("relation.csv.read_ms", "relation.csv.read"),
        ("relation.csv.write_ms", "relation.csv.write"),
        ("core.plan.ms", "core.plan"),
        ("core.embed.ms", "core.embed"),
        ("core.decode.ms", "core.decode"),
        ("core.evidence.certify_ms", "core.evidence.certify"),
        ("core.evidence.verify_ms", "core.evidence.verify"),
    ] {
        values.insert(metric, lt.self_ms(layer));
    }
    values.insert("relation.csv.read_mb_per_s", c.rate(lt, "relation.csv.read", "csv_read"));
    values.insert("relation.csv.write_mb_per_s", c.rate(lt, "relation.csv.write", "csv_write"));
    values.insert("core.decode.votes", c.mean("votes"));
    values.insert("core.evidence.bundle_bytes", c.mean("bundle_bytes"));
    values.insert("crypto.keyed_hash_mb_per_s", keyed_hash_mb_per_s());
}

/// Coverage and overhead into `values`, and their explanation into the report.
fn trace_quality(
    lt: &LayerTimes,
    roots: &BTreeMap<&'static str, (Vec<f64>, Vec<f64>)>,
    values: &mut BTreeMap<&'static str, f64>,
    report: &mut String,
) {
    let (coverage, worst, worst_op) = lt.coverage();
    let overhead = overhead(roots);
    values.insert("trace.coverage", coverage);
    values.insert("trace.overhead_ratio", overhead);
    let _ = write!(
        report,
        "\"trace\":{{\"coverage\":{coverage:.4},\"least_covered_op\":\"{worst_op}\",\"least_coverage\":{worst:.4},\
         \"uncovered\":\"the root span's self time: harness glue between layer calls (request assembly, frame buffers, result checks inside the op)\",\
         \"overhead_ratio\":{overhead:.4},\"ops\":{{"
    );
    let mut first = true;
    for (op, (on, off)) in roots.iter().filter(|(_, (on, off))| !on.is_empty() && !off.is_empty()) {
        let _ = write!(
            report,
            "{}\"{op}\":{{\"traced_n\":{},\"traced_p50_ms\":{:.3},\"untraced_n\":{},\"untraced_p50_ms\":{:.3}}}",
            if first { "" } else { "," },
            on.len(),
            median(on),
            off.len(),
            median(off)
        );
        first = false;
    }
    let _ = write!(report, "}}}}");
}

// ------------------------------------------------------------------ CLI

fn cli_traced(ctx: &Ctx) -> Result<Traced, String> {
    let setup = cli::setup(ctx, 0)?;
    let spec = data::spec("cli-master");
    let mark = setup.mark.clone();
    let mut t = Tracer::new(Instant::now(), 0);
    let mut c = Counters::default();
    let mut out = Outcome::default();
    let mut other: Vec<f64> = Vec::new();
    let mut plan_stats = (0.0, 0.0);
    let replay_out = setup.main.output.with_extension("replay.csv");
    let replay_bundle = setup.main.bundle.with_extension("replay.evd");
    let start = Instant::now();
    let mut iteration = 0usize;
    while !ctx.expired(start) || iteration < 4 {
        t.on = iteration % 2 == 1;
        for op in cli::OPS {
            let real = cli::run_op(ctx, &setup, &setup.main, op);
            let wall = real.as_ref().map(|s| s.ms).unwrap_or(f64::NAN);
            out.record(real);
            let name: &'static str = match op {
                "embed" => "cli.embed",
                "decode" => "cli.decode",
                "certify" => "cli.certify",
                _ => "cli.verify",
            };
            match cli_replay(
                &mut t,
                &mut c,
                name,
                op,
                &setup,
                &spec,
                &mark,
                &replay_out,
                &replay_bundle,
            ) {
                Ok((ms, session)) => {
                    if let Some(s) = session.map(|s| s.cache().stats()) {
                        plan_stats.0 += s.hits as f64;
                        plan_stats.1 += s.misses as f64;
                    }
                    if t.on && op == "embed" {
                        other.push(wall - ms);
                        if std::fs::read(&replay_out).map_err(err)? != setup.main.marked_ref {
                            out.fail("replayed embed wrote different bytes".into());
                        }
                    }
                }
                Err(e) => out.fail(format!("replay {op}: {e}")),
            }
        }
        iteration += 1;
    }
    let lt = LayerTimes::new(&t.rec.into_spans());
    let mut values = BTreeMap::new();
    common_layers(&lt, &c, &mut values);
    values.insert("cli.other_ms", median(&other));
    values.insert("core.plan.cache_hit_ratio", ratio(plan_stats.0, plan_stats.1));
    let mut report = String::new();
    trace_quality(&lt, &t.roots, &mut values, &mut report);
    Ok(Traced {
        metrics: per_layer_metrics(&values),
        attempted: out.attempted,
        failed: out.failed,
        failures: out.failures,
        report,
    })
}

/// Replay one CLI command in-process, as `src/bin/catmark.rs` runs it,
/// under a root span `name`. Returns the replay's latency (ms) and the
/// session it bound, for its plan-cache counters.
#[allow(clippy::too_many_arguments)]
fn cli_replay(
    t: &mut Tracer,
    c: &mut Counters,
    name: &'static str,
    op: &str,
    setup: &cli::Setup,
    spec: &WatermarkSpec,
    mark: &Watermark,
    replay_out: &std::path::Path,
    replay_bundle: &std::path::Path,
) -> Result<(f64, Option<MarkSession>), String> {
    let (root, began) = t.begin(name);
    let req = t.request;
    if op == "verify" {
        let bytes = t.span("cli.io", root, || std::fs::read(&setup.main.bundle)).map_err(err)?;
        let summary = t.span("core.evidence.verify", root, || verify_evidence(&bytes));
        let ms = t.end(name, root, began);
        let summary = summary.map_err(err)?;
        if summary.decoded != mark.to_string()
            || !summary.claim.is_some_and(|cl| cl.is_significant(0.01))
        {
            return Err("verify_evidence disagrees with the mark".into());
        }
        return Ok((ms, None));
    }
    let input = if op == "embed" { &setup.main.input } else { &setup.main.output };
    let schema = t
        .span("relation.csv.infer", root, || {
            infer_schema(&mut BufReader::new(File::open(input)?), &[ATTR])
                .map_err(std::io::Error::other)
        })
        .map_err(err)?;
    let mut rel = t
        .span("relation.csv.read", root, || {
            read_csv(schema, &mut BufReader::new(File::open(input)?)).map_err(std::io::Error::other)
        })
        .map_err(err)?;
    let session = t.span("cli.bind", root, || data::session(spec, &rel));
    let plan = t.span("core.plan", root, || session.plan(&rel)).map_err(err)?;
    let decoded = match op {
        "embed" => {
            t.span("core.embed", root, || session.embed_planned(&mut rel, mark, &plan))
                .map_err(err)?;
            t.span("relation.csv.write", root, || -> Result<(), String> {
                let mut f = File::create(replay_out).map_err(err)?;
                write_csv(&rel, &mut f).map_err(err)
            })?;
            None
        }
        "decode" => {
            let report = t
                .span("core.decode", root, || {
                    session.decode_planned(&rel, &plan).map(|r| {
                        let v = detect(&r.watermark, mark);
                        (r, v)
                    })
                })
                .map_err(err)?;
            c.sample("votes", report.0.votes_cast as f64);
            Some((report.0.watermark, report.1.is_significant(0.01)))
        }
        _ => {
            let cert = t
                .span("core.evidence.certify", root, || session.detect_certified(&rel, mark))
                .map_err(err)?;
            t.span("cli.io", root, || std::fs::write(replay_bundle, &cert.bundle)).map_err(err)?;
            c.sample("bundle_bytes", cert.bundle.len() as f64);
            let significant = cert.outcome.detection.is_significant(0.01);
            Some((cert.outcome.decode.watermark, significant))
        }
    };
    let ms = t.end(name, root, began);
    c.bytes("csv_read", req, std::fs::metadata(input).map_err(err)?.len() as usize);
    if op == "embed" {
        c.bytes("csv_write", req, setup.main.marked_ref.len());
    }
    if decoded.is_some_and(|(wm, significant)| wm != *mark || !significant) {
        return Err(format!("{op} disagrees with the mark"));
    }
    Ok((ms, Some(session)))
}

// ---------------------------------------------------------- daemon

/// A segment store that counts the bytes it holds.
#[derive(Debug)]
struct Counting {
    inner: MemStore,
    stored: Arc<AtomicU64>,
}

impl SegmentStore for Counting {
    fn append(&mut self, bytes: &[u8]) -> Result<SpillHandle, RelationError> {
        self.stored.fetch_add(bytes.len() as u64, Ordering::Relaxed);
        self.inner.append(bytes)
    }

    fn read(&self, handle: SpillHandle, range: Range<u64>) -> Result<Vec<u8>, RelationError> {
        self.inner.read(handle, range)
    }

    fn spilled_bytes(&self) -> u64 {
        self.inner.spilled_bytes()
    }
}

/// The mirror of one versioned table.
struct Table {
    schema: Schema,
    store: ContentStore,
    stored: Arc<AtomicU64>,
    log: VersionLog,
    votes: VoteCache,
    marked: Option<u64>,
}

/// The daemon's state for one tenant, replayed call by call so that
/// `handle`'s time can be split into the layers it runs.
struct Mirror {
    spec: WatermarkSpec,
    session: Option<MarkSession>,
    fp: Option<FingerprintSession>,
    tables: BTreeMap<String, Table>,
    user_bytes: u64,
    dirty: (u64, u64),
}

/// Segment size of the daemon's versioned tables (its default).
const VERSION_SEGMENT_ROWS: usize = 1024;
/// The daemon's default pager budget.
const BUDGET_BYTES: usize = 64 << 20;

fn field<'a>(request: &'a Json, name: &str) -> Result<&'a str, String> {
    request.get(name).and_then(Json::as_str).ok_or_else(|| format!("request has no {name:?}"))
}

impl Mirror {
    fn new(spec: WatermarkSpec) -> Self {
        Mirror {
            spec,
            session: None,
            fp: None,
            tables: BTreeMap::new(),
            user_bytes: 0,
            dirty: (0, 0),
        }
    }

    fn session(&mut self, rel: &Relation) -> &MarkSession {
        self.session.get_or_insert_with(|| data::session(&self.spec, rel))
    }

    fn fp(&mut self, rel: &Relation) -> &mut FingerprintSession {
        let session = self.session(rel).clone();
        self.fp.get_or_insert_with(|| session.fingerprint())
    }

    fn mark(&self, request: &Json, key: &str) -> Result<Watermark, String> {
        let bits = field(request, key)?;
        let value = u64::from_str_radix(bits, 2).map_err(err)?;
        Ok(Watermark::from_u64(value, self.spec.wm_len))
    }

    fn csv(
        &mut self,
        text: &str,
        parts: &mut Vec<(&'static str, u64)>,
        c: &mut Counters,
        req: u64,
    ) -> Result<Relation, String> {
        let (schema, t1) = ns(|| infer_schema(&mut text.as_bytes(), &[ATTR]));
        let (rel, t2) = ns(|| read_csv(schema?, &mut text.as_bytes()));
        parts.push(("relation.csv.infer", t1));
        parts.push(("relation.csv.read", t2));
        c.bytes("csv_read", req, text.len());
        rel.map_err(err)
    }

    /// Time `produce` plus rendering its relation as the daemon does
    /// (`write_csv` into a buffer, then UTF-8 validation).
    fn render(
        produce: impl FnOnce() -> Result<Relation, String>,
        parts: &mut Vec<(&'static str, u64)>,
        c: &mut Counters,
        req: u64,
    ) -> Result<(), String> {
        let (text, t) = ns(|| {
            let rel = produce()?;
            let mut buf = Vec::new();
            write_csv(&rel, &mut buf).map_err(err)?;
            String::from_utf8(buf).map_err(err)
        });
        parts.push(("relation.csv.write", t));
        c.bytes("csv_write", req, text?.len());
        Ok(())
    }

    /// Replay the calls `Service::handle` makes for `request`; returns
    /// each call's measured duration in call order.
    fn apply(
        &mut self,
        request: &Json,
        c: &mut Counters,
        req: u64,
    ) -> Result<Vec<(&'static str, u64)>, String> {
        let op = field(request, "op")?;
        let mut parts = Vec::new();
        match op {
            "embed" | "decode" => {
                let mut rel = self.csv(field(request, "csv")?, &mut parts, c, req)?;
                let embed = op == "embed";
                let mark = self.mark(request, if embed { "mark" } else { "claim" })?;
                let session = self.session(&rel).clone();
                let (plan, t) = ns(|| session.plan(&rel));
                parts.push(("core.plan", t));
                let plan = plan.map_err(err)?;
                if embed {
                    let (r, t) = ns(|| session.embed_planned(&mut rel, &mark, &plan));
                    parts.push(("core.embed", t));
                    r.map_err(err)?;
                    Self::render(|| Ok(rel), &mut parts, c, req)?;
                } else {
                    let (r, t) = ns(|| {
                        session
                            .decode_planned(&rel, &plan)
                            .map(|r| (detect(&r.watermark, &mark), r))
                    });
                    parts.push(("core.decode", t));
                    c.sample("votes", r.map_err(err)?.1.votes_cast as f64);
                }
            }
            "mark_delta" => {
                let rel = self.csv(field(request, "csv")?, &mut parts, c, req)?;
                let buyer = field(request, "buyer")?;
                let fp = self.fp(&rel);
                let (r, t) = ns(|| fp.mark_delta(&rel, buyer));
                parts.push(("core.fingerprint.mark_delta", t));
                let (delta, _) = r.map_err(err)?;
                let (blob, t) = ns(|| delta.encode());
                parts.push(("relation.delta.encode", t));
                c.sample("delta_bytes", blob.len() as f64);
            }
            "trace" => {
                let rel = self.csv(field(request, "csv")?, &mut parts, c, req)?;
                let buyers: Vec<&str> = request
                    .get("buyers")
                    .and_then(Json::as_array)
                    .map(|b| b.iter().filter_map(Json::as_str).collect())
                    .unwrap_or_default();
                let fp = self.fp(&rel);
                let (r, t) = ns(|| {
                    for b in &buyers {
                        fp.register(b);
                    }
                    fp.trace(&rel)
                });
                parts.push(("core.fingerprint.trace", t));
                r.map_err(err)?;
            }
            "update" => self.update(request, &mut parts, c, req)?,
            "detect_at" => {
                let name = field(request, "name")?;
                let version = request.get("version").and_then(Json::as_u64).ok_or("no version")?;
                let claimed = self.mark(request, "claim")?;
                let evidence = request.get("evidence").and_then(Json::as_bool) == Some(true);
                let table = self.tables.get(name).ok_or("unknown table")?;
                let probe = Relation::new(table.schema.clone());
                let session = self.session(&probe).clone();
                let table = self.tables.get_mut(name).expect("checked above");
                let manifest = table.log.get(version).ok_or("unknown version")?.clone();
                let (seg, t) = ns(|| {
                    table.log.open_version(version, &table.schema, &table.store, Some(BUDGET_BYTES))
                });
                parts.push(("relation.versioned.open", t));
                let mut seg = seg.map_err(err)?;
                if evidence {
                    let (r, t) = ns(|| {
                        session.detect_certified_incremental(
                            &mut seg,
                            &claimed,
                            &manifest,
                            &mut table.votes,
                        )
                    });
                    parts.push(("core.evidence.certify", t));
                    c.sample("bundle_bytes", r.map_err(err)?.bundle.len() as f64);
                } else {
                    let (r, t) =
                        ns(|| session.decode_incremental(&mut seg, &manifest, &mut table.votes));
                    parts.push(("core.decode", t));
                    c.sample("votes", r.map_err(err)?.report.votes_cast as f64);
                }
            }
            "verify_evidence" => {
                let bytes = daemon::from_hex(field(request, "bundle")?)?;
                let (r, t) = ns(|| verify_evidence(&bytes));
                parts.push(("core.evidence.verify", t));
                r.map_err(err)?;
            }
            _ => {}
        }
        Ok(parts)
    }

    /// The calls of the daemon's `update`: commit the incoming state,
    /// re-mark its dirty segments, commit the marked state, render it.
    fn update(
        &mut self,
        request: &Json,
        parts: &mut Vec<(&'static str, u64)>,
        c: &mut Counters,
        req: u64,
    ) -> Result<(), String> {
        let name = field(request, "name")?.to_string();
        let text = field(request, "csv")?;
        let rel = self.csv(text, parts, c, req)?;
        self.user_bytes += text.len() as u64;
        let mark = self.mark(request, "mark")?;
        let session = self.session(&rel).clone();
        let table = self.tables.entry(name).or_insert_with(|| {
            let stored = Arc::new(AtomicU64::new(0));
            let store = ContentStore::new(Box::new(Counting {
                inner: MemStore::new(),
                stored: stored.clone(),
            }));
            Table {
                schema: rel.schema().clone(),
                store,
                stored,
                log: VersionLog::new(),
                votes: VoteCache::new(),
                marked: None,
            }
        });
        let (seg, t1) = ns(|| -> Result<_, RelationError> {
            let mut seg = SegmentedRelation::builder(rel.schema().clone())
                .segment_rows(VERSION_SEGMENT_ROWS)
                .budget_bytes(BUDGET_BYTES)
                .store(Box::new(table.store.clone()))
                .from_relation(&rel)?;
            let version = table.log.commit(&mut seg, &table.store)?;
            Ok((seg, version))
        });
        let (mut seg, version) = seg.map_err(err)?;
        let (dirty, t2) = ns(|| -> Result<(usize, usize), String> {
            match table.marked {
                Some(marked) => {
                    let (m, cur) = (
                        table.log.get(marked).ok_or("lost marked version")?,
                        table.log.get(version).ok_or("lost version")?,
                    );
                    let inc = session.embed_incremental(&mut seg, &mark, m, cur).map_err(err)?;
                    Ok((inc.dirty_segments, inc.dirty_segments + inc.clean_segments))
                }
                None => {
                    session.embed_segmented(&mut seg, &mark).map_err(err)?;
                    Ok((seg.segment_count(), seg.segment_count()))
                }
            }
        });
        let (marked, t3) = ns(|| table.log.commit(&mut seg, &table.store));
        table.marked = Some(marked.map_err(err)?);
        parts.push(("relation.versioned.commit", t1));
        parts.push(("core.incremental.embed", t2));
        parts.push(("relation.versioned.commit", t3));
        let (dirty, total) = dirty?;
        if table.log.manifests().len() > 2 {
            self.dirty.0 += dirty as u64;
            self.dirty.1 += total as u64;
        }
        Self::render(|| seg.to_relation().map_err(err), parts, c, req)
    }
}

/// Where the replay's `Service` lives: owned (stdio, no lock) or
/// shared behind the worker pool's mutex.
enum Host<'a> {
    Owned(Box<Service>),
    Shared(&'a Mutex<Service>),
}

/// The in-process exchange: frames, JSON, `Service::handle`, and the
/// mirror that attributes `handle`'s time.
struct InProcess<'a> {
    t: Tracer,
    c: Counters,
    host: Host<'a>,
    bound: Option<String>,
    mirror: Mirror,
}

fn root_name(request: &[u8]) -> &'static str {
    let text = std::str::from_utf8(&request[..request.len().min(40)]).unwrap_or("");
    let op = text.strip_prefix("{\"op\":\"").and_then(|r| r.split('"').next()).unwrap_or("");
    match op {
        "hello" => "op.hello",
        "embed" => "op.embed",
        "decode" => "op.decode",
        "mark_delta" => "op.mark_delta",
        "trace" => "op.trace",
        "update" => "op.update",
        "detect_at" if request.windows(15).any(|w| w == b"\"evidence\":true") => {
            "op.detect_at+evidence"
        }
        "detect_at" => "op.detect_at",
        "verify_evidence" => "op.verify_evidence",
        "shutdown" => "op.shutdown",
        _ => "op.other",
    }
}

impl<'a> InProcess<'a> {
    fn new(host: Host<'a>, spec: WatermarkSpec, origin: Instant, first_request: u64) -> Self {
        InProcess {
            t: Tracer::new(origin, first_request),
            c: Counters::default(),
            host,
            bound: None,
            mirror: Mirror::new(spec),
        }
    }

    fn handle(&mut self, parent: Option<usize>, request: &Json) -> (Json, Option<usize>) {
        let t = &mut self.t;
        match &mut self.host {
            Host::Owned(service) => {
                let h = t.open("service.daemon.handle", parent);
                let (reply, _) = service.handle(&mut self.bound, request);
                t.close(h);
                (reply, h)
            }
            Host::Shared(service) => {
                let wait = t.open("service.daemon.lock_wait", parent);
                let mut guard =
                    service.lock().expect("no replay thread panics holding the service");
                t.close(wait);
                let hold = t.open("service.daemon.lock_hold", parent);
                let h = t.open("service.daemon.handle", hold);
                let (reply, _) = guard.handle(&mut self.bound, request);
                t.close(h);
                drop(guard);
                t.close(hold);
                (reply, h)
            }
        }
    }
}

impl Exchange for InProcess<'_> {
    fn cycle(&mut self, n: usize) {
        // Pairs of cycles, so every operation a cycle pair sends runs
        // both traced and untraced.
        self.t.on = (n / 2) % 2 == 1;
    }

    fn call(&mut self, bytes: &[u8], probe: bool) -> Result<(Value, f64), String> {
        // Probe-size requests run untraced and unrecorded, so layer
        // figures and the overhead comparison cover the main size only.
        let on = self.t.on;
        self.t.on = on && !probe;
        let result = self.replay(bytes, probe);
        self.t.on = on;
        result
    }
}

impl InProcess<'_> {
    fn replay(&mut self, bytes: &[u8], probe: bool) -> Result<(Value, f64), String> {
        let name = if probe { "op.probe" } else { root_name(bytes) };
        let (root, began) = self.t.begin(name);
        let req = self.t.request;
        let frame = self.t.span("service.wire.frame", root, || {
            let mut wire = Vec::with_capacity(bytes.len() + 4);
            write_frame(&mut wire, bytes).and_then(|()| read_frame(&mut wire.as_slice()))
        });
        let frame = frame.map_err(err)?.ok_or("empty frame")?;
        let request = self.t.span("service.json.parse", root, || {
            std::str::from_utf8(&frame).map_err(err).and_then(|text| json::parse(text).map_err(err))
        })?;
        let (reply, h) = self.handle(root, &request);
        let text = self.t.span("service.json.encode", root, || reply.to_text());
        let back = self.t.span("service.wire.frame", root, || {
            let mut wire = Vec::with_capacity(text.len() + 4);
            write_frame(&mut wire, text.as_bytes()).and_then(|()| read_frame(&mut wire.as_slice()))
        });
        let ms = self.t.end(name, root, began);
        let back = back.map_err(err)?.ok_or("empty frame")?;
        if self.t.on {
            self.c.bytes("json_in", req, bytes.len());
            self.c.sample("bytes_in", bytes.len() as f64);
            self.c.sample("bytes_out", back.len() as f64);
        }
        // Counters describe traced main-size requests only.
        let mut untraced = Counters::default();
        let counters = if self.t.on { &mut self.c } else { &mut untraced };
        let parts = self.mirror.apply(&request, counters, req)?;
        if let Some(h) = h {
            self.t.rec.attribute(h, &parts);
        }
        Ok((ok_reply(&back)?, ms))
    }
}

/// The service's own cache counters, read through a `hello`.
fn cache_stats(service: &mut Service, tenant: &str) -> Json {
    let hello =
        Json::obj(vec![("op", Json::Str("hello".into())), ("tenant", Json::Str(tenant.into()))]);
    let (reply, _) = service.handle(&mut None, &hello);
    reply.get("cache_stats").cloned().unwrap_or(Json::Null)
}

fn stat(stats: &Json, cache: &str, field: &str) -> f64 {
    stats.get(cache).and_then(|c| c.get(field)).and_then(Json::as_f64).unwrap_or(0.0)
}

/// The daemon metrics from the replay's spans, counters, and the
/// service's cache statistics.
fn daemon_layers(
    spans: &[Span],
    c: &Counters,
    mirrors: &[&Mirror],
    stats: &Json,
    roots: &BTreeMap<&'static str, (Vec<f64>, Vec<f64>)>,
    report: &mut String,
) -> Vec<Metric> {
    let lt = LayerTimes::new(spans);
    let mut v = BTreeMap::new();
    common_layers(&lt, c, &mut v);
    v.insert("service.json.parse_ms", lt.self_ms("service.json.parse"));
    v.insert("service.json.parse_mb_per_s", c.rate(&lt, "service.json.parse", "json_in"));
    v.insert("service.json.encode_ms", lt.self_ms("service.json.encode"));
    v.insert("service.wire.frame_ms", lt.self_ms("service.wire.frame"));
    v.insert("service.wire.bytes_in", c.mean("bytes_in"));
    v.insert("service.wire.bytes_out", c.mean("bytes_out"));
    v.insert("service.daemon.handle_ms", lt.total_ms("service.daemon.handle"));
    v.insert("service.daemon.self_ms", lt.self_ms("service.daemon.handle"));
    v.insert("service.daemon.lock_wait_ms", lt.total_ms("service.daemon.lock_wait"));
    v.insert("service.daemon.lock_hold_ms", lt.total_ms("service.daemon.lock_hold"));
    v.insert(
        "core.plan.cache_hit_ratio",
        ratio(stat(stats, "plan", "hits"), stat(stats, "plan", "misses")),
    );
    v.insert("core.fingerprint.mark_delta_ms", lt.self_ms("core.fingerprint.mark_delta"));
    v.insert("core.fingerprint.trace_ms", lt.self_ms("core.fingerprint.trace"));
    let (mut hits, mut misses, mut dedup, mut stored, mut user, mut dirty, mut segs) =
        (0.0, 0.0, 0.0, 0u64, 0u64, 0u64, 0u64);
    for m in mirrors {
        if let Some(fp) = &m.fp {
            let s = fp.registry().multi_plan_cache().stats();
            hits += s.hits as f64;
            misses += s.misses as f64;
        }
        for table in m.tables.values() {
            dedup += table.store.dedup_hits() as f64;
            stored += table.stored.load(Ordering::Relaxed);
        }
        user += m.user_bytes;
        dirty += m.dirty.0;
        segs += m.dirty.1;
    }
    v.insert("core.fingerprint.multi_plan_hit_ratio", ratio(hits, misses));
    v.insert("relation.delta.encode_ms", lt.self_ms("relation.delta.encode"));
    v.insert("relation.delta.bytes", c.mean("delta_bytes"));
    v.insert("relation.versioned.commit_ms", lt.self_ms("relation.versioned.commit"));
    v.insert("relation.versioned.open_ms", lt.self_ms("relation.versioned.open"));
    v.insert("relation.versioned.dedup_hits", dedup);
    v.insert(
        "relation.versioned.bytes_per_user_byte",
        if user > 0 { stored as f64 / user as f64 } else { 0.0 },
    );
    v.insert("core.incremental.embed_ms", lt.self_ms("core.incremental.embed"));
    v.insert("core.incremental.dirty_ratio", ratio(dirty as f64, (segs - dirty) as f64));
    v.insert(
        "core.incremental.vote_hit_ratio",
        ratio(stat(stats, "votes", "hits"), stat(stats, "votes", "misses")),
    );
    v.insert("relation.segment.pager_hits", stat(stats, "pager", "hits"));
    v.insert("relation.segment.pager_misses", stat(stats, "pager", "misses"));
    v.insert("relation.segment.pager_evictions", stat(stats, "pager", "evictions"));
    trace_quality(&lt, roots, &mut v, report);
    per_layer_metrics(&v)
}

fn registry(tenant: &str, spec: &WatermarkSpec) -> Result<TenantKeyRegistry, String> {
    TenantKeyRegistry::from_registry_file(&data::registry_file(tenant, spec)).map_err(err)
}

fn stdio_traced(ctx: &Ctx) -> Result<Traced, String> {
    let inputs = daemon::stdio_inputs(ctx.seed);
    let mut service = Service::new(ServiceConfig::default());
    service.add_registry(registry("acme", &inputs.spec)?).map_err(err)?;
    let mut x =
        InProcess::new(Host::Owned(Box::new(service)), inputs.spec.clone(), Instant::now(), 0);
    let t0_version = daemon::stdio_prepare(&mut x, &inputs)?;
    let mut out = Outcome::default();
    let deltas = daemon::stdio_cycles(ctx, &mut x, &inputs, t0_version, &mut out);
    for e in daemon::check_deltas(&inputs, &deltas) {
        out.fail(e);
    }
    let Host::Owned(mut service) = x.host else { unreachable!("built as owned above") };
    let stats = cache_stats(&mut service, "acme");
    let mut report = String::new();
    let metrics =
        daemon_layers(&x.t.rec.into_spans(), &x.c, &[&x.mirror], &stats, &x.t.roots, &mut report);
    Ok(Traced {
        metrics,
        attempted: out.attempted,
        failed: out.failed,
        failures: out.failures,
        report,
    })
}

fn churn_traced(ctx: &Ctx) -> Result<Traced, String> {
    let mark = data::mark(ctx.seed);
    let tenants = daemon::tenants(ctx.seed, &mark);
    let mut service = Service::new(ServiceConfig::default());
    for t in &tenants {
        service.add_registry(registry(t.name, &t.spec)?).map_err(err)?;
    }
    let service = Mutex::new(service);
    let origin = Instant::now();
    let mark_text = mark.to_string();
    // Set-up (first full updates) runs untraced on each thread's own
    // exchange; the measured rounds start together.
    let barrier = std::sync::Barrier::new(tenants.len());
    let results = std::thread::scope(|scope| {
        let handles: Vec<_> = tenants
            .iter()
            .enumerate()
            .map(|(i, tenant)| {
                let (service, barrier, mark) = (&service, &barrier, &mark_text);
                scope.spawn(move || -> Result<_, String> {
                    let mut x = InProcess::new(
                        Host::Shared(service),
                        tenant.spec.clone(),
                        origin,
                        (i as u64) << 40,
                    );
                    let prepared = daemon::churn_prepare(&mut x, tenant, mark);
                    barrier.wait();
                    let mut tables = prepared?;
                    let out = daemon::churn_rounds(
                        ctx,
                        tenant,
                        &mut x,
                        &mut tables,
                        mark,
                        Instant::now(),
                    );
                    Ok((out, x.t, x.c, x.mirror))
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().unwrap_or_else(|_| Err("replay thread panicked".to_string())))
            .collect::<Vec<_>>()
    });
    let mut out = Outcome::default();
    let (mut spans, mut counters, mut mirrors, mut roots) =
        (Vec::new(), Counters::default(), Vec::new(), BTreeMap::new());
    for r in results {
        let (o, t, c, m) = r?;
        out.absorb(o);
        let base = spans.len();
        spans.extend(t.rec.into_spans().into_iter().map(|mut s| {
            s.parent = s.parent.map(|p| p + base);
            s
        }));
        for (op, (on, off)) in t.roots {
            let slot: &mut (Vec<f64>, Vec<f64>) = roots.entry(op).or_default();
            slot.0.extend(on);
            slot.1.extend(off);
        }
        counters.absorb(c);
        mirrors.push(m);
    }
    let mut service = service.into_inner().map_err(|_| "service lock poisoned".to_string())?;
    let stats = cache_stats(&mut service, tenants[0].name);
    let mut report = String::new();
    let refs: Vec<&Mirror> = mirrors.iter().collect();
    let metrics = daemon_layers(&spans, &counters, &refs, &stats, &roots, &mut report);
    Ok(Traced {
        metrics,
        attempted: out.attempted,
        failed: out.failed,
        failures: out.failures,
        report,
    })
}
