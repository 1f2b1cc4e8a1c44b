//! The multi-tenant watermarking daemon.
//!
//! A [`Service`] holds one [`TenantKeyRegistry`] per tenant and a
//! cache of bound [`MarkSession`]s / [`FingerprintSession`]s keyed by
//! `(tenant, key name, key column, target column)`. Connections speak
//! the framed JSON protocol (see [`crate::wire`] and `docs/SERVICE.md`
//! at the repository root): a client first binds a tenant with the
//! `hello` op, then issues `embed` / `decode` / `mark_copy` /
//! `mark_delta` / `apply_delta` / `trace` ops carrying relations as
//! inline CSV. Because the sessions are cached, repeated operations
//! against the same data reuse the plan caches underneath — a warm
//! service re-plans nothing, which is where the batched-tracing
//! throughput comes from.
//!
//! `mark_delta` is the wire face of delta distribution: instead of a
//! full fingerprinted CSV it returns a hex-encoded [`MarkDelta`] patch
//! blob that `apply_delta` (or [`Relation::apply_delta`] in-process)
//! replays against the shared base to reconstruct the recipient's
//! copy byte-for-byte — a fraction of the bytes of `mark_copy` per
//! recipient.
//!
//! # Versioned relations under churn
//!
//! The `update` / `versions` / `detect_at` ops give each tenant named
//! *versioned* relations backed by a content-addressed segment store
//! ([`ContentStore`] + [`VersionLog`]). Every `update` commits the
//! incoming state, re-marks **only the segments whose content hash
//! changed** since the last marked version
//! ([`MarkSession::embed_incremental`] — byte-identical to a full
//! re-pass because embedding is idempotent), and commits the marked
//! result; unchanged segment blobs are shared between versions, so
//! history costs one copy of the churn, not one copy per version.
//! `detect_at` reopens any committed version straight from the store
//! and blind-decodes it through a per-table [`VoteCache`] that folds
//! memoized tallies for segments it has seen before.
//!
//! # Concurrency
//!
//! [`serve_unix_pool`] runs a bounded pool of worker threads over one
//! shared `Service` behind a mutex: the lock is held per *request*,
//! not per connection, so slow or idle clients from one tenant never
//! stall another tenant's traffic.
//!
//! # Tenant isolation
//!
//! Key material is resolved through the *bound* tenant: every lookup
//! calls [`TenantKeyRegistry::get`] with the tenant the connection
//! authenticated as, so naming another tenant's registry in a request
//! yields [`CoreError::TenantIsolation`] from the registry itself —
//! the daemon has no code path that touches foreign key material.
//!
//! # Segment sizing
//!
//! Versioned tables are stored as segments of 1024 rows, and
//! `detect_at` pages them in under the [`ServiceConfig::budget_bytes`]
//! pager budget. `embed` and `decode` carry their relation inline as
//! CSV, so it is parsed whole and marked or decoded in memory.

use std::collections::HashMap;
use std::io::{self, BufReader, Read, Write};

use catmark_core::keyfile::TenantKeyRegistry;
use catmark_core::{
    detect, verify_evidence, CoreError, FingerprintSession, MarkSession, VoteCache, Watermark,
};
use catmark_relation::csv::{read_csv_inferred, write_csv};
use catmark_relation::{
    hash_hex, CacheStats, ContentStore, MarkDelta, Relation, Schema, SegmentedRelation, VersionLog,
};

use crate::json::{self, Json};
use crate::wire::{read_frame, write_frame};

/// Tuning knobs for a [`Service`].
#[derive(Debug, Clone)]
pub struct ServiceConfig {
    /// Resident-byte budget of the segment pager on versioned tables.
    pub budget_bytes: usize,
}

impl Default for ServiceConfig {
    fn default() -> Self {
        ServiceConfig { budget_bytes: 64 << 20 }
    }
}

/// Cache key for bound sessions: tenant, key name, key column,
/// target column.
type SessionKey = (String, String, String, String);

/// Segment granularity for versioned tables: content addressing needs
/// *some* segmentation to localize churn.
const VERSION_SEGMENT_ROWS: usize = 1024;

/// One versioned relation held by the daemon: a content-addressed
/// blob pile, its commit log, the memoized per-segment vote tallies,
/// and the id of the last *marked* version (the incremental diff
/// base).
struct VersionedTable {
    schema: Schema,
    store: ContentStore,
    log: VersionLog,
    votes: VoteCache,
    marked: Option<u64>,
}

/// The daemon state: tenant registries plus warm session caches and
/// per-tenant versioned tables.
pub struct Service {
    config: ServiceConfig,
    registries: HashMap<String, TenantKeyRegistry>,
    sessions: HashMap<SessionKey, MarkSession>,
    fingerprints: HashMap<SessionKey, FingerprintSession>,
    /// Versioned tables keyed by `(tenant, table name)` — isolation
    /// by construction: lookups always carry the bound tenant.
    tables: HashMap<(String, String), VersionedTable>,
    /// Segment-pager traffic accumulated across all out-of-core
    /// passes this daemon has run.
    pager: CacheStats,
}

impl Service {
    /// Create an empty service.
    #[must_use]
    pub fn new(config: ServiceConfig) -> Self {
        Service {
            config,
            registries: HashMap::new(),
            sessions: HashMap::new(),
            fingerprints: HashMap::new(),
            tables: HashMap::new(),
            pager: CacheStats::default(),
        }
    }

    /// Register a tenant's key material.
    ///
    /// # Errors
    ///
    /// [`CoreError::InvalidSpec`] when the tenant is already
    /// registered — replacing live key material requires a restart,
    /// by design.
    pub fn add_registry(&mut self, registry: TenantKeyRegistry) -> Result<(), CoreError> {
        let tenant = registry.tenant().to_string();
        if self.registries.contains_key(&tenant) {
            return Err(CoreError::InvalidSpec(format!(
                "service: tenant {tenant:?} is already registered"
            )));
        }
        self.registries.insert(tenant, registry);
        Ok(())
    }

    /// The registered tenant names, sorted.
    #[must_use]
    pub fn tenants(&self) -> Vec<&str> {
        let mut names: Vec<&str> = self.registries.keys().map(String::as_str).collect();
        names.sort_unstable();
        names
    }

    /// Process one request on behalf of a connection. `bound` is the
    /// connection's hello-established tenant; the returned flag is
    /// `true` when the request asked the daemon to shut down.
    pub fn handle(&mut self, bound: &mut Option<String>, request: &Json) -> (Json, bool) {
        let Some(op) = request.get("op").and_then(Json::as_str) else {
            return (err_response("request has no \"op\" field"), false);
        };
        if op == "shutdown" {
            return (ok_response(vec![("bye", Json::Bool(true))]), true);
        }
        let result = self.dispatch(op, bound, request);
        (result.unwrap_or_else(|msg| err_response(&msg)), false)
    }

    fn dispatch(
        &mut self,
        op: &str,
        bound: &mut Option<String>,
        request: &Json,
    ) -> Result<Json, String> {
        if op == "hello" {
            let tenant = str_field(request, "tenant")?;
            let registry =
                self.registries.get(tenant).ok_or_else(|| format!("unknown tenant {tenant:?}"))?;
            let keys: Vec<Json> =
                registry.entries().map(|(name, _)| Json::Str(name.to_string())).collect();
            *bound = Some(tenant.to_string());
            return Ok(ok_response(vec![
                ("tenant", Json::Str(tenant.to_string())),
                ("keys", Json::Arr(keys)),
                ("cache_stats", self.cache_stats_json()),
            ]));
        }
        if op == "verify_evidence" {
            // Deliberately tenantless, like "hello": checking a
            // serialized evidence bundle needs no key material, so any
            // connection — a counterparty, an auditor — may ask.
            return Self::verify_evidence_op(request);
        }
        let Some(tenant) = bound.clone() else {
            return Err(format!("op {op:?} requires a tenant: send a \"hello\" op first"));
        };
        match op {
            "embed" => self.embed_op(&tenant, request),
            "decode" => self.decode_op(&tenant, request),
            "mark_copy" => self.mark_copy_op(&tenant, request),
            "mark_delta" => self.mark_delta_op(&tenant, request),
            "apply_delta" => Self::apply_delta_op(request),
            "trace" => self.trace_op(&tenant, request),
            "update" => self.update_op(&tenant, request),
            "versions" => self.versions_op(&tenant, request),
            "detect_at" => self.detect_at_op(&tenant, request),
            other => Err(format!("unknown op {other:?}")),
        }
    }

    /// Resolve the spec for `(tenant, key)` on behalf of `bound` —
    /// the isolation choke point: the lookup always carries the
    /// connection's authenticated tenant.
    fn spec_for(
        &self,
        bound: &str,
        tenant: &str,
        key: &str,
    ) -> Result<catmark_core::WatermarkSpec, String> {
        let registry =
            self.registries.get(tenant).ok_or_else(|| format!("unknown tenant {tenant:?}"))?;
        registry.get(bound, key).cloned().map_err(|e| e.to_string())
    }

    /// Fetch (binding on first use, rebinding on schema drift) the
    /// cached [`MarkSession`] for the request's coordinates.
    fn session_for(
        &mut self,
        bound: &str,
        request: &Json,
        rel: &Relation,
    ) -> Result<(&MarkSession, SessionKey), String> {
        let tenant = request.get("tenant").and_then(Json::as_str).unwrap_or(bound);
        let key = str_field(request, "key")?;
        let key_attr = str_field(request, "key_attr")?;
        let attr = str_field(request, "attr")?;
        let cache_key: SessionKey =
            (tenant.to_string(), key.to_string(), key_attr.to_string(), attr.to_string());
        // Resolve the key through the registry on *every* request —
        // the registry lookup is where tenant isolation lives, and a
        // warm session cached by the key's own tenant must not let a
        // differently-bound connection skip that check.
        let spec = self.spec_for(bound, tenant, key)?;
        let stale = match self.sessions.get(&cache_key) {
            None => true,
            Some(session) => {
                // Rebind when the payload's schema no longer resolves
                // the bound columns to the same indices.
                rel.schema().index_of(key_attr).ok() != Some(session.key().index())
                    || rel.schema().index_of(attr).ok() != Some(session.target().index())
            }
        };
        if stale {
            let session = MarkSession::builder(spec)
                .key_column(key_attr)
                .target_column(attr)
                .bind(rel)
                .map_err(|e| e.to_string())?;
            self.sessions.insert(cache_key.clone(), session);
            self.fingerprints.remove(&cache_key);
        }
        Ok((self.sessions.get(&cache_key).expect("just ensured"), cache_key))
    }

    /// The warm [`FingerprintSession`] for the request's coordinates
    /// — registered buyers and plan caches persist across requests.
    fn fingerprint_for(
        &mut self,
        bound: &str,
        request: &Json,
        rel: &Relation,
    ) -> Result<&mut FingerprintSession, String> {
        let (_, cache_key) = self.session_for(bound, request, rel)?;
        if !self.fingerprints.contains_key(&cache_key) {
            let fp = self.sessions.get(&cache_key).expect("bound above").fingerprint();
            self.fingerprints.insert(cache_key.clone(), fp);
        }
        Ok(self.fingerprints.get_mut(&cache_key).expect("just ensured"))
    }

    fn embed_op(&mut self, bound: &str, request: &Json) -> Result<Json, String> {
        let attr = str_field(request, "attr")?;
        let mut rel = parse_csv(str_field(request, "csv")?, attr)?;
        let (session, _) = self.session_for(bound, request, &rel)?;
        let mark = Watermark::parse(str_field(request, "mark")?, session.spec().wm_len)
            .map_err(|e| format!("mark: {e}"))?;
        let report = session.embed(&mut rel, &mark).map_err(|e| e.to_string())?;
        Ok(ok_response(vec![
            ("csv", Json::Str(render_csv(&rel)?)),
            ("total", Json::Num(report.total_tuples as f64)),
            ("fit", Json::Num(report.fit_tuples as f64)),
            ("altered", Json::Num(report.altered as f64)),
        ]))
    }

    fn decode_op(&mut self, bound: &str, request: &Json) -> Result<Json, String> {
        let attr = str_field(request, "attr")?;
        let rel = parse_csv(str_field(request, "csv")?, attr)?;
        let (session, _) = self.session_for(bound, request, &rel)?;
        let report = session.decode(&rel).map_err(|e| e.to_string())?;
        let mut fields = vec![
            ("mark", Json::Str(report.watermark.to_string())),
            ("fit", Json::Num(report.fit_tuples as f64)),
            ("votes", Json::Num(report.votes_cast as f64)),
        ];
        if let Some(claim) = request.get("claim").and_then(Json::as_str) {
            let claimed = Watermark::parse(claim, report.watermark.len())
                .map_err(|e| format!("claim: {e}"))?;
            let verdict = detect(&report.watermark, &claimed);
            fields.push(("matched_bits", Json::Num(verdict.matched_bits as f64)));
            fields.push(("total_bits", Json::Num(verdict.total_bits as f64)));
            fields.push(("false_positive", Json::Num(verdict.false_positive_probability)));
        }
        Ok(ok_response(fields))
    }

    fn mark_copy_op(&mut self, bound: &str, request: &Json) -> Result<Json, String> {
        let attr = str_field(request, "attr")?;
        let buyer = str_field(request, "buyer")?.to_string();
        let rel = parse_csv(str_field(request, "csv")?, attr)?;
        let fp = self.fingerprint_for(bound, request, &rel)?;
        let (copy, report) = fp.mark_copy(&rel, &buyer).map_err(|e| e.to_string())?;
        Ok(ok_response(vec![
            ("buyer", Json::Str(buyer)),
            ("csv", Json::Str(render_csv(&copy)?)),
            ("total", Json::Num(report.total_tuples as f64)),
            ("fit", Json::Num(report.fit_tuples as f64)),
            ("altered", Json::Num(report.altered as f64)),
        ]))
    }

    fn mark_delta_op(&mut self, bound: &str, request: &Json) -> Result<Json, String> {
        let attr = str_field(request, "attr")?;
        let buyer = str_field(request, "buyer")?.to_string();
        let rel = parse_csv(str_field(request, "csv")?, attr)?;
        let fp = self.fingerprint_for(bound, request, &rel)?;
        let (delta, report) = fp.mark_delta(&rel, &buyer).map_err(|e| e.to_string())?;
        let blob = delta.encode();
        Ok(ok_response(vec![
            ("buyer", Json::Str(buyer)),
            ("delta", Json::Str(to_hex(&blob))),
            ("delta_bytes", Json::Num(blob.len() as f64)),
            ("patches", Json::Num(delta.patch_count() as f64)),
            ("total", Json::Num(report.total_tuples as f64)),
            ("fit", Json::Num(report.fit_tuples as f64)),
            ("altered", Json::Num(report.altered as f64)),
        ]))
    }

    fn apply_delta_op(request: &Json) -> Result<Json, String> {
        let attr = str_field(request, "attr")?;
        let rel = parse_csv(str_field(request, "csv")?, attr)?;
        let blob = from_hex(str_field(request, "delta")?)?;
        let delta = MarkDelta::decode(&blob).map_err(|e| e.to_string())?;
        let copy = rel.apply_delta(&delta).map_err(|e| e.to_string())?;
        Ok(ok_response(vec![
            ("csv", Json::Str(render_csv(&copy)?)),
            ("patches", Json::Num(delta.patch_count() as f64)),
        ]))
    }

    fn trace_op(&mut self, bound: &str, request: &Json) -> Result<Json, String> {
        let attr = str_field(request, "attr")?;
        let rel = parse_csv(str_field(request, "csv")?, attr)?;
        let buyers: Vec<String> = match request.get("buyers") {
            None => Vec::new(),
            Some(json) => json
                .as_array()
                .ok_or("\"buyers\" must be an array of strings")?
                .iter()
                .map(|b| b.as_str().map(str::to_string).ok_or("\"buyers\" must contain strings"))
                .collect::<Result<_, _>>()?,
        };
        let fp = self.fingerprint_for(bound, request, &rel)?;
        for buyer in &buyers {
            fp.register(buyer);
        }
        let results = fp.trace(&rel).map_err(|e| e.to_string())?;
        let ranked: Vec<Json> = results
            .iter()
            .map(|r| {
                Json::obj(vec![
                    ("buyer", Json::Str(r.buyer.clone())),
                    ("matched_bits", Json::Num(r.detection.matched_bits as f64)),
                    ("total_bits", Json::Num(r.detection.total_bits as f64)),
                    ("false_positive", Json::Num(r.detection.false_positive_probability)),
                ])
            })
            .collect();
        Ok(ok_response(vec![("results", Json::Arr(ranked))]))
    }

    /// Daemon-wide cache observability, aggregated across every warm
    /// session, fingerprint registry, versioned table, and the
    /// segment pager.
    fn cache_stats_json(&self) -> Json {
        let mut plan = CacheStats::default();
        for session in self.sessions.values() {
            plan.absorb(session.cache().stats());
        }
        let mut fingerprint = CacheStats::default();
        for fp in self.fingerprints.values() {
            fingerprint.absorb(fp.registry().plan_cache().stats());
            fingerprint.absorb(fp.registry().multi_plan_cache().stats());
        }
        let mut votes = CacheStats::default();
        for table in self.tables.values() {
            votes.absorb(table.votes.stats());
        }
        Json::obj(vec![
            ("plan", stats_json(plan)),
            ("fingerprint", stats_json(fingerprint)),
            ("votes", stats_json(votes)),
            ("pager", stats_json(self.pager)),
        ])
    }

    /// `update`: commit a new version of a named relation into the
    /// tenant's content-addressed store and re-mark it. The first
    /// update runs the full segmented embed; later updates diff the
    /// committed manifest against the last *marked* one and re-embed
    /// only the dirty segments ([`MarkSession::embed_incremental`]),
    /// which is byte-identical to the full pass. Both the pre-mark
    /// and the marked states are committed, so `detect_at` can reach
    /// either.
    fn update_op(&mut self, bound: &str, request: &Json) -> Result<Json, String> {
        let attr = str_field(request, "attr")?;
        let name = str_field(request, "name")?.to_string();
        let rel = parse_csv(str_field(request, "csv")?, attr)?;
        let budget = self.config.budget_bytes;
        let (_, cache_key) = self.session_for(bound, request, &rel)?;
        let session = self.sessions.get(&cache_key).expect("bound above");
        let mark = Watermark::parse(str_field(request, "mark")?, session.spec().wm_len)
            .map_err(|e| format!("mark: {e}"))?;
        let table = self.tables.entry((bound.to_string(), name.clone())).or_insert_with(|| {
            VersionedTable {
                schema: rel.schema().clone(),
                store: ContentStore::in_memory(),
                log: VersionLog::new(),
                votes: VoteCache::new(),
                marked: None,
            }
        });
        if table.schema != *rel.schema() {
            return Err(format!(
                "versioned relation {name:?} was committed under a different schema"
            ));
        }
        let mut seg = SegmentedRelation::builder(rel.schema().clone())
            .segment_rows(VERSION_SEGMENT_ROWS)
            .budget_bytes(budget)
            .store(Box::new(table.store.clone()))
            .from_relation(&rel)
            .map_err(|e| e.to_string())?;
        let version = table.log.commit(&mut seg, &table.store).map_err(|e| e.to_string())?;
        let (report, dirty, clean, fallback) = match table.marked {
            Some(marked_id) => {
                let marked = table.log.get(marked_id).expect("marked versions stay logged");
                let current = table.log.get(version).expect("just committed");
                let inc = session
                    .embed_incremental(&mut seg, &mark, marked, current)
                    .map_err(|e| e.to_string())?;
                (inc.report, inc.dirty_segments, inc.clean_segments, inc.full_fallback)
            }
            None => {
                let report = session.embed_segmented(&mut seg, &mark).map_err(|e| e.to_string())?;
                (report, seg.segment_count(), 0, false)
            }
        };
        let marked_version = table.log.commit(&mut seg, &table.store).map_err(|e| e.to_string())?;
        table.marked = Some(marked_version);
        let marked_rel = seg.to_relation().map_err(|e| e.to_string())?;
        self.pager.absorb(seg.cache_stats());
        Ok(ok_response(vec![
            ("name", Json::Str(name)),
            ("version", Json::Num(version as f64)),
            ("marked_version", Json::Num(marked_version as f64)),
            ("dirty_segments", Json::Num(dirty as f64)),
            ("clean_segments", Json::Num(clean as f64)),
            ("full_fallback", Json::Bool(fallback)),
            ("total", Json::Num(report.total_tuples as f64)),
            ("fit", Json::Num(report.fit_tuples as f64)),
            ("altered", Json::Num(report.altered as f64)),
            ("csv", Json::Str(render_csv(&marked_rel)?)),
        ]))
    }

    /// `versions`: the commit history of a named versioned relation —
    /// ids, parents, row counts, and the content hashes of each
    /// version's segment blobs, plus store-level sharing counters.
    fn versions_op(&mut self, bound: &str, request: &Json) -> Result<Json, String> {
        let name = str_field(request, "name")?;
        let table = self
            .tables
            .get(&(bound.to_string(), name.to_string()))
            .ok_or_else(|| format!("unknown versioned relation {name:?}"))?;
        let versions: Vec<Json> = table
            .log
            .manifests()
            .iter()
            .map(|m| {
                Json::obj(vec![
                    ("id", Json::Num(m.id as f64)),
                    ("parent", m.parent.map_or(Json::Null, |p| Json::Num(p as f64))),
                    ("rows", Json::Num(m.rows() as f64)),
                    ("marked", Json::Bool(table.marked == Some(m.id))),
                    (
                        "segments",
                        Json::Arr(
                            m.segments.iter().map(|s| Json::Str(hash_hex(&s.hash))).collect(),
                        ),
                    ),
                ])
            })
            .collect();
        Ok(ok_response(vec![
            ("name", Json::Str(name.to_string())),
            ("versions", Json::Arr(versions)),
            ("unique_blobs", Json::Num(table.store.unique_blobs() as f64)),
            ("dedup_hits", Json::Num(table.store.dedup_hits() as f64)),
        ]))
    }

    /// `detect_at`: open a historical version of a named relation
    /// straight from the content-addressed store, blind-decode it
    /// through the vote cache ([`MarkSession::decode_incremental`]),
    /// and weigh a claimed mark against the result.
    fn detect_at_op(&mut self, bound: &str, request: &Json) -> Result<Json, String> {
        let name = str_field(request, "name")?;
        let version = request
            .get("version")
            .and_then(Json::as_u64)
            .ok_or("request needs a numeric \"version\" field")?;
        let schema = self
            .tables
            .get(&(bound.to_string(), name.to_string()))
            .ok_or_else(|| format!("unknown versioned relation {name:?}"))?
            .schema
            .clone();
        let budget = self.config.budget_bytes;
        // Bind (or reuse) the session against the table's schema —
        // the probe relation carries the schema, nothing else.
        let probe = Relation::new(schema.clone());
        let (_, cache_key) = self.session_for(bound, request, &probe)?;
        let session = self.sessions.get(&cache_key).expect("bound above");
        let claimed = Watermark::parse(str_field(request, "claim")?, session.spec().wm_len)
            .map_err(|e| format!("claim: {e}"))?;
        let table =
            self.tables.get_mut(&(bound.to_string(), name.to_string())).expect("checked above");
        let manifest = table
            .log
            .get(version)
            .ok_or_else(|| format!("unknown version {version} of {name:?}"))?
            .clone();
        let mut seg = table
            .log
            .open_version(version, &schema, &table.store, Some(budget))
            .map_err(|e| e.to_string())?;
        // With "evidence":true the certified twin runs instead: same
        // incremental decode through the same vote cache, plus the
        // serialized CMKEVD1 bundle (hex) for the caller to archive.
        if request.get("evidence").and_then(Json::as_bool) == Some(true) {
            let certified = session
                .detect_certified_incremental(&mut seg, &claimed, &manifest, &mut table.votes)
                .map_err(|e| e.to_string())?;
            self.pager.absorb(seg.cache_stats());
            let verdict = certified.outcome;
            return Ok(ok_response(vec![
                ("name", Json::Str(name.to_string())),
                ("version", Json::Num(version as f64)),
                ("mark", Json::Str(verdict.decode.watermark.to_string())),
                ("fit", Json::Num(verdict.decode.fit_tuples as f64)),
                ("votes", Json::Num(verdict.decode.votes_cast as f64)),
                ("matched_bits", Json::Num(verdict.detection.matched_bits as f64)),
                ("total_bits", Json::Num(verdict.detection.total_bits as f64)),
                ("false_positive", Json::Num(verdict.detection.false_positive_probability)),
                ("evidence", Json::Str(to_hex(&certified.bundle))),
            ]));
        }
        let inc = session
            .decode_incremental(&mut seg, &manifest, &mut table.votes)
            .map_err(|e| e.to_string())?;
        let verdict = detect(&inc.report.watermark, &claimed);
        self.pager.absorb(seg.cache_stats());
        Ok(ok_response(vec![
            ("name", Json::Str(name.to_string())),
            ("version", Json::Num(version as f64)),
            ("mark", Json::Str(inc.report.watermark.to_string())),
            ("fit", Json::Num(inc.report.fit_tuples as f64)),
            ("votes", Json::Num(inc.report.votes_cast as f64)),
            ("cached_segments", Json::Num(inc.cached_segments as f64)),
            ("accumulated_segments", Json::Num(inc.accumulated_segments as f64)),
            ("matched_bits", Json::Num(verdict.matched_bits as f64)),
            ("total_bits", Json::Num(verdict.total_bits as f64)),
            ("false_positive", Json::Num(verdict.false_positive_probability)),
        ]))
    }

    /// `verify_evidence`: independently re-check a hex-encoded
    /// `CMKEVD1` bundle — no relation, no keys, no tenant. Tampered or
    /// internally inconsistent bundles come back as error envelopes
    /// naming the first failed check.
    fn verify_evidence_op(request: &Json) -> Result<Json, String> {
        let bytes = from_hex(str_field(request, "bundle")?)?;
        let summary = verify_evidence(&bytes).map_err(|e| e.to_string())?;
        let mut fields = vec![
            ("verified", Json::Bool(true)),
            ("key_commitment", Json::Str(summary.key_commitment)),
            ("relation", Json::Str(summary.relation)),
            ("segments", Json::Num(summary.segments as f64)),
            ("fit", Json::Num(summary.fit_tuples as f64)),
            ("votes", Json::Num(summary.votes_cast as f64)),
            ("mark", Json::Str(summary.decoded)),
        ];
        if let Some(claim) = summary.claim {
            fields.push(("claimed", Json::Str(claim.claimed)));
            fields.push(("matched_bits", Json::Num(claim.matched_bits as f64)));
            fields.push(("total_bits", Json::Num(claim.total_bits as f64)));
            fields.push(("false_positive", Json::Num(claim.false_positive_probability)));
        }
        if let Some(contest) = summary.contest {
            fields.push(("contest_outcome", Json::Str(contest.outcome)));
        }
        Ok(ok_response(fields))
    }
}

/// Render a [`CacheStats`] as a JSON object.
fn stats_json(stats: CacheStats) -> Json {
    Json::obj(vec![
        ("hits", Json::Num(stats.hits as f64)),
        ("misses", Json::Num(stats.misses as f64)),
        ("evictions", Json::Num(stats.evictions as f64)),
    ])
}

/// Success envelope: `{"ok":true, ...fields}`.
fn ok_response(fields: Vec<(&str, Json)>) -> Json {
    let mut all = vec![("ok", Json::Bool(true))];
    all.extend(fields);
    Json::obj(all)
}

/// Failure envelope: `{"ok":false,"error":message}`.
fn err_response(message: &str) -> Json {
    Json::obj(vec![("ok", Json::Bool(false)), ("error", Json::Str(message.to_string()))])
}

fn str_field<'a>(request: &'a Json, name: &str) -> Result<&'a str, String> {
    request
        .get(name)
        .and_then(Json::as_str)
        .ok_or_else(|| format!("request needs a string {name:?} field"))
}

fn parse_csv(text: &str, cat_attr: &str) -> Result<Relation, String> {
    read_csv_inferred(text, &[cat_attr]).map_err(|e| e.to_string())
}

fn render_csv(rel: &Relation) -> Result<String, String> {
    let mut buf = Vec::new();
    write_csv(rel, &mut buf).map_err(|e| e.to_string())?;
    String::from_utf8(buf).map_err(|e| e.to_string())
}

fn to_hex(bytes: &[u8]) -> String {
    use std::fmt::Write as _;
    let mut text = String::with_capacity(bytes.len() * 2);
    for b in bytes {
        write!(text, "{b:02x}").expect("writing to a String never fails");
    }
    text
}

fn from_hex(text: &str) -> Result<Vec<u8>, String> {
    let digits = text.as_bytes();
    if !digits.len().is_multiple_of(2) {
        return Err("hex blob has an odd number of digits".to_string());
    }
    if !digits.iter().all(u8::is_ascii_hexdigit) {
        return Err("hex blob holds a non-hex character".to_string());
    }
    Ok(digits
        .chunks_exact(2)
        .map(|pair| {
            let hi = (pair[0] as char).to_digit(16).expect("checked hexdigit");
            let lo = (pair[1] as char).to_digit(16).expect("checked hexdigit");
            (hi * 16 + lo) as u8
        })
        .collect())
}

/// Serve one connection: read framed requests, write framed
/// responses, until the peer disconnects or sends `shutdown`.
/// Returns `true` when the connection requested daemon shutdown.
///
/// # Errors
///
/// Transport-level I/O failures (including EOF mid-frame). Malformed
/// JSON inside a well-formed frame is *not* an error here — the peer
/// gets an `ok:false` response and the connection continues.
pub fn serve_connection(
    service: &mut Service,
    reader: &mut impl Read,
    writer: &mut impl Write,
) -> io::Result<bool> {
    serve_frames(reader, writer, |bound, request| service.handle(bound, request))
}

/// The transport loop behind [`serve_connection`]: frames in, frames
/// out, with the connection's tenant binding threaded through
/// `handle`. Factored out so the worker pool can serve connections
/// against shared (mutex-guarded) service state while each
/// connection keeps its own `hello` binding.
fn serve_frames(
    reader: &mut impl Read,
    writer: &mut impl Write,
    mut handle: impl FnMut(&mut Option<String>, &Json) -> (Json, bool),
) -> io::Result<bool> {
    let mut bound: Option<String> = None;
    while let Some(frame) = read_frame(reader)? {
        let (response, shutdown) = match std::str::from_utf8(&frame) {
            Err(e) => (err_response(&format!("frame is not UTF-8: {e}")), false),
            Ok(text) => match json::parse(text) {
                Err(e) => (err_response(&format!("bad JSON: {e}")), false),
                Ok(request) => handle(&mut bound, &request),
            },
        };
        write_frame(writer, response.to_text().as_bytes())?;
        if shutdown {
            return Ok(true);
        }
    }
    Ok(false)
}

/// Serve a single connection over stdin/stdout — the transport for
/// supervised deployments (inetd-style) and the CI smoke test.
///
/// # Errors
///
/// Transport-level I/O failures.
pub fn serve_stdio(mut service: Service) -> io::Result<()> {
    let stdin = io::stdin();
    let stdout = io::stdout();
    let mut reader = stdin.lock();
    let mut writer = stdout.lock();
    serve_connection(&mut service, &mut reader, &mut writer)?;
    Ok(())
}

/// Default worker count for [`serve_unix`]: the machine's available
/// parallelism, clamped to `2..=8` so even a single-core host can
/// overlap two tenants' connections without one blocking the other's
/// accept.
#[cfg(unix)]
#[must_use]
pub fn default_workers() -> usize {
    std::thread::available_parallelism().map_or(2, std::num::NonZeroUsize::get).clamp(2, 8)
}

/// Serve connections on a Unix domain socket at `path` with
/// [`default_workers`] concurrent workers, until a client sends
/// `shutdown`. See [`serve_unix_pool`].
///
/// # Errors
///
/// Socket setup failures. Per-connection I/O errors drop that
/// connection (with a note on stderr) and the daemon keeps serving.
#[cfg(unix)]
pub fn serve_unix(service: Service, path: &std::path::Path) -> io::Result<()> {
    serve_unix_pool(service, path, default_workers())
}

/// Serve connections on a Unix domain socket at `path` with a bounded
/// pool of `workers` threads over shared service state, until a
/// client sends `shutdown`.
///
/// Each worker blocks in `accept` and serves its connection's frames
/// to completion; the shared [`Service`] (registries, plan/session
/// caches) sits behind a mutex that is held only while a single
/// request is handled, so long-lived connections from different
/// tenants interleave request-by-request instead of serializing
/// connection-by-connection. Tenant isolation is untouched: each
/// connection keeps its own `hello` binding, and key lookups still go
/// through the bound tenant's registry. A pre-existing socket file at
/// `path` is replaced; the socket is removed on clean shutdown.
///
/// # Errors
///
/// Socket setup failures. Per-connection I/O errors drop that
/// connection (with a note on stderr) and the daemon keeps serving.
#[cfg(unix)]
pub fn serve_unix_pool(service: Service, path: &std::path::Path, workers: usize) -> io::Result<()> {
    use std::os::unix::net::{UnixListener, UnixStream};
    use std::sync::atomic::{AtomicBool, Ordering};
    use std::sync::Mutex;

    let workers = workers.max(1);
    let _ = std::fs::remove_file(path);
    let listener = UnixListener::bind(path)?;
    let service = Mutex::new(service);
    let stopping = AtomicBool::new(false);
    std::thread::scope(|scope| {
        for _ in 0..workers {
            scope.spawn(|| loop {
                let conn = listener.accept();
                if stopping.load(Ordering::SeqCst) {
                    break;
                }
                let mut stream = match conn {
                    Ok((stream, _)) => stream,
                    Err(e) => {
                        eprintln!("catmark serve: accept error: {e}");
                        break;
                    }
                };
                let mut reader = match stream.try_clone() {
                    Ok(clone) => BufReader::new(clone),
                    Err(e) => {
                        eprintln!("catmark serve: connection error: {e}");
                        continue;
                    }
                };
                let served = serve_frames(&mut reader, &mut stream, |bound, request| {
                    service.lock().expect("service state is never poisoned").handle(bound, request)
                });
                match served {
                    Ok(true) => {
                        // Shutdown requested: raise the flag, then poke
                        // the listener once per worker so threads blocked
                        // in accept wake up and observe it.
                        stopping.store(true, Ordering::SeqCst);
                        for _ in 0..workers {
                            let _ = UnixStream::connect(path);
                        }
                        break;
                    }
                    Ok(false) => {}
                    Err(e) => eprintln!("catmark serve: connection error: {e}"),
                }
            });
        }
    });
    std::fs::remove_file(path).ok();
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use catmark_core::{ErasurePolicy, WatermarkSpec};
    use catmark_relation::{AttrType, CategoricalDomain, Schema, Value};

    fn sample_relation(tuples: i64) -> Relation {
        let schema = Schema::builder()
            .key_attr("visit_nbr", AttrType::Integer)
            .categorical_attr("item_nbr", AttrType::Integer)
            .build()
            .unwrap();
        let mut rel = Relation::new(schema);
        for i in 0..tuples {
            rel.push(vec![Value::Int(i * 17 + 3), Value::Int(10_000 + (i * 7) % 40)]).unwrap();
        }
        rel
    }

    fn spec(master: &str) -> WatermarkSpec {
        let domain =
            CategoricalDomain::new((0..40).map(|i| Value::Int(10_000 + i)).collect()).unwrap();
        WatermarkSpec::builder(domain)
            .master_key(master)
            .e(3)
            .wm_len(6)
            .wm_data_len(60)
            .erasure(ErasurePolicy::Abstain)
            .build()
            .unwrap()
    }

    fn two_tenant_service(config: ServiceConfig) -> Service {
        let mut service = Service::new(config);
        let mut acme = TenantKeyRegistry::new("acme").unwrap();
        acme.insert("production", spec("acme-master")).unwrap();
        acme.insert("staging", spec("acme-staging")).unwrap();
        let mut globex = TenantKeyRegistry::new("globex").unwrap();
        globex.insert("production", spec("globex-master")).unwrap();
        service.add_registry(acme).unwrap();
        service.add_registry(globex).unwrap();
        service
    }

    fn request(text: &str) -> Json {
        json::parse(text).unwrap()
    }

    fn csv() -> String {
        render_csv(&sample_relation(600)).unwrap()
    }

    fn assert_ok(response: &Json) {
        assert_eq!(response.get("ok").and_then(Json::as_bool), Some(true), "{response:?}");
    }

    fn error_of(response: &Json) -> String {
        assert_eq!(response.get("ok").and_then(Json::as_bool), Some(false), "{response:?}");
        response.get("error").and_then(Json::as_str).unwrap().to_string()
    }

    #[test]
    fn hello_binds_and_lists_keys() {
        let mut service = two_tenant_service(ServiceConfig::default());
        let mut bound = None;
        let (resp, down) =
            service.handle(&mut bound, &request(r#"{"op":"hello","tenant":"acme"}"#));
        assert!(!down);
        assert_ok(&resp);
        assert_eq!(bound.as_deref(), Some("acme"));
        let keys: Vec<&str> =
            resp.get("keys").unwrap().as_array().unwrap().iter().filter_map(Json::as_str).collect();
        assert_eq!(keys, ["production", "staging"]);
        // Unknown tenants don't bind.
        let mut unbound = None;
        let (resp, _) =
            service.handle(&mut unbound, &request(r#"{"op":"hello","tenant":"intruder"}"#));
        assert!(error_of(&resp).contains("unknown tenant"));
        assert!(unbound.is_none());
    }

    #[test]
    fn ops_before_hello_are_refused() {
        let mut service = two_tenant_service(ServiceConfig::default());
        let mut bound = None;
        let req = format!(
            r#"{{"op":"decode","key":"production","key_attr":"visit_nbr","attr":"item_nbr","csv":{}}}"#,
            Json::Str(csv()).to_text()
        );
        let (resp, _) = service.handle(&mut bound, &request(&req));
        assert!(error_of(&resp).contains("hello"));
    }

    #[test]
    fn embed_then_decode_round_trips() {
        let mut service = two_tenant_service(ServiceConfig::default());
        let mut bound = None;
        service.handle(&mut bound, &request(r#"{"op":"hello","tenant":"acme"}"#));
        let embed = format!(
            r#"{{"op":"embed","key":"production","key_attr":"visit_nbr","attr":"item_nbr","mark":"101101","csv":{}}}"#,
            Json::Str(csv()).to_text()
        );
        let (resp, _) = service.handle(&mut bound, &request(&embed));
        assert_ok(&resp);
        assert!(resp.get("fit").and_then(Json::as_u64).unwrap() > 0);
        let marked = resp.get("csv").and_then(Json::as_str).unwrap().to_string();

        let decode = format!(
            r#"{{"op":"decode","key":"production","key_attr":"visit_nbr","attr":"item_nbr","claim":"101101","csv":{}}}"#,
            Json::Str(marked).to_text()
        );
        let (resp, _) = service.handle(&mut bound, &request(&decode));
        assert_ok(&resp);
        assert_eq!(resp.get("mark").and_then(Json::as_str), Some("101101"));
        assert_eq!(resp.get("matched_bits").and_then(Json::as_u64), Some(6));
    }

    /// A service whose tenant `acme`, already bound, holds the key
    /// `wide`: 100 mark bits over 300 positions.
    fn wide_service() -> (Service, Option<String>) {
        let domain =
            CategoricalDomain::new((0..40).map(|i| Value::Int(10_000 + i)).collect()).unwrap();
        let wide = WatermarkSpec::builder(domain)
            .master_key("acme-wide")
            .e(3)
            .wm_len(100)
            .wm_data_len(300)
            .erasure(ErasurePolicy::Abstain)
            .build()
            .unwrap();
        let mut acme = TenantKeyRegistry::new("acme").unwrap();
        acme.insert("wide", wide).unwrap();
        let mut service = Service::new(ServiceConfig::default());
        service.add_registry(acme).unwrap();
        let mut bound = None;
        service.handle(&mut bound, &request(r#"{"op":"hello","tenant":"acme"}"#));
        (service, bound)
    }

    #[test]
    fn marks_longer_than_64_bits_round_trip_as_bits_and_as_hex() {
        let (mut service, mut bound) = wide_service();
        let bits = "1011".repeat(25);
        let hex = format!("0x{}", "b".repeat(25));
        let data = Json::Str(render_csv(&sample_relation(3_000)).unwrap()).to_text();
        for (mark, claim) in [(&bits, &hex), (&hex, &bits)] {
            let embed = format!(
                r#"{{"op":"embed","key":"wide","key_attr":"visit_nbr","attr":"item_nbr","mark":"{mark}","csv":{data}}}"#
            );
            let (resp, _) = service.handle(&mut bound, &request(&embed));
            assert_ok(&resp);
            let marked = Json::Str(resp.get("csv").and_then(Json::as_str).unwrap().into());
            let decode = format!(
                r#"{{"op":"decode","key":"wide","key_attr":"visit_nbr","attr":"item_nbr","claim":"{claim}","csv":{}}}"#,
                marked.to_text()
            );
            let (resp, _) = service.handle(&mut bound, &request(&decode));
            assert_ok(&resp);
            assert_eq!(resp.get("mark").and_then(Json::as_str), Some(bits.as_str()));
            assert_eq!(resp.get("matched_bits").and_then(Json::as_u64), Some(100));
        }
    }

    #[test]
    fn fingerprints_longer_than_64_bits_trace_back_to_the_leaker() {
        let (mut service, mut bound) = wide_service();
        let data = Json::Str(render_csv(&sample_relation(3_000)).unwrap()).to_text();
        let copy = format!(
            r#"{{"op":"mark_copy","key":"wide","key_attr":"visit_nbr","attr":"item_nbr","buyer":"globex-reseller","csv":{data}}}"#
        );
        let (resp, _) = service.handle(&mut bound, &request(&copy));
        assert_ok(&resp);
        let leaked = Json::Str(resp.get("csv").and_then(Json::as_str).unwrap().into()).to_text();
        let trace = format!(
            r#"{{"op":"trace","key":"wide","key_attr":"visit_nbr","attr":"item_nbr","buyers":["initech","globex-reseller","umbrella"],"csv":{leaked}}}"#
        );
        let (resp, _) = service.handle(&mut bound, &request(&trace));
        assert_ok(&resp);
        let results = resp.get("results").unwrap().as_array().unwrap();
        assert_eq!(results[0].get("buyer").and_then(Json::as_str), Some("globex-reseller"));
    }

    #[test]
    fn cross_tenant_lookups_are_isolated() {
        let mut service = two_tenant_service(ServiceConfig::default());
        let mut bound = None;
        service.handle(&mut bound, &request(r#"{"op":"hello","tenant":"acme"}"#));
        // Bound as acme, naming globex's registry: the registry
        // itself refuses.
        let req = format!(
            r#"{{"op":"embed","tenant":"globex","key":"production","key_attr":"visit_nbr","attr":"item_nbr","mark":"101101","csv":{}}}"#,
            Json::Str(csv()).to_text()
        );
        let (resp, _) = service.handle(&mut bound, &request(&req));
        assert!(error_of(&resp).contains("tenant isolation"), "{resp:?}");
    }

    #[test]
    fn fingerprint_copies_trace_back_to_the_leaker() {
        let mut service = two_tenant_service(ServiceConfig::default());
        let mut bound = None;
        service.handle(&mut bound, &request(r#"{"op":"hello","tenant":"acme"}"#));
        let copy_req = format!(
            r#"{{"op":"mark_copy","key":"production","key_attr":"visit_nbr","attr":"item_nbr","buyer":"globex-reseller","csv":{}}}"#,
            Json::Str(csv()).to_text()
        );
        let (resp, _) = service.handle(&mut bound, &request(&copy_req));
        assert_ok(&resp);
        let leaked = resp.get("csv").and_then(Json::as_str).unwrap().to_string();

        let trace_req = format!(
            r#"{{"op":"trace","key":"production","key_attr":"visit_nbr","attr":"item_nbr","buyers":["initech","globex-reseller","umbrella"],"csv":{}}}"#,
            Json::Str(leaked).to_text()
        );
        let (resp, _) = service.handle(&mut bound, &request(&trace_req));
        assert_ok(&resp);
        let results = resp.get("results").unwrap().as_array().unwrap();
        assert_eq!(results.len(), 3);
        assert_eq!(
            results[0].get("buyer").and_then(Json::as_str),
            Some("globex-reseller"),
            "ranked first: {resp:?}"
        );
    }

    #[test]
    fn malformed_requests_get_error_envelopes() {
        let mut service = two_tenant_service(ServiceConfig::default());
        let mut bound = None;
        let (resp, _) = service.handle(&mut bound, &request(r#"{"no_op":1}"#));
        assert!(error_of(&resp).contains("op"));
        service.handle(&mut bound, &request(r#"{"op":"hello","tenant":"acme"}"#));
        let (resp, _) = service.handle(&mut bound, &request(r#"{"op":"frobnicate"}"#));
        assert!(error_of(&resp).contains("unknown op"));
        let (resp, _) = service.handle(&mut bound, &request(r#"{"op":"embed"}"#));
        assert!(error_of(&resp).contains("field"));
        // Bad mark length.
        let req = format!(
            r#"{{"op":"embed","key":"production","key_attr":"visit_nbr","attr":"item_nbr","mark":"1","csv":{}}}"#,
            Json::Str(csv()).to_text()
        );
        let (resp, _) = service.handle(&mut bound, &request(&req));
        assert!(error_of(&resp).contains("wm_len"));
    }

    #[test]
    fn connection_loop_speaks_frames_and_honors_shutdown() {
        let mut service = two_tenant_service(ServiceConfig::default());
        let mut inbox = Vec::new();
        write_frame(&mut inbox, br#"{"op":"hello","tenant":"acme"}"#).unwrap();
        write_frame(&mut inbox, b"not json").unwrap();
        write_frame(&mut inbox, br#"{"op":"shutdown"}"#).unwrap();
        write_frame(&mut inbox, br#"{"op":"hello","tenant":"acme"}"#).unwrap();
        let mut outbox = Vec::new();
        let down = serve_connection(&mut service, &mut inbox.as_slice(), &mut outbox).unwrap();
        assert!(down, "shutdown must be reported");
        let mut replies = outbox.as_slice();
        let hello = read_frame(&mut replies).unwrap().unwrap();
        assert_ok(&json::parse(std::str::from_utf8(&hello).unwrap()).unwrap());
        let bad = read_frame(&mut replies).unwrap().unwrap();
        let bad = json::parse(std::str::from_utf8(&bad).unwrap()).unwrap();
        assert!(error_of(&bad).contains("bad JSON"));
        let bye = read_frame(&mut replies).unwrap().unwrap();
        assert_ok(&json::parse(std::str::from_utf8(&bye).unwrap()).unwrap());
        // Nothing after shutdown was processed.
        assert!(read_frame(&mut replies).unwrap().is_none());
    }

    #[test]
    fn mark_delta_rebuilds_the_mark_copy_in_a_fraction_of_the_bytes() {
        let mut service = two_tenant_service(ServiceConfig::default());
        let mut bound = None;
        service.handle(&mut bound, &request(r#"{"op":"hello","tenant":"acme"}"#));
        let base = csv();
        let copy_req = format!(
            r#"{{"op":"mark_copy","key":"production","key_attr":"visit_nbr","attr":"item_nbr","buyer":"globex-reseller","csv":{}}}"#,
            Json::Str(base.clone()).to_text()
        );
        let (copy, _) = service.handle(&mut bound, &request(&copy_req));
        assert_ok(&copy);

        let delta_req = format!(
            r#"{{"op":"mark_delta","key":"production","key_attr":"visit_nbr","attr":"item_nbr","buyer":"globex-reseller","csv":{}}}"#,
            Json::Str(base.clone()).to_text()
        );
        let (delta, _) = service.handle(&mut bound, &request(&delta_req));
        assert_ok(&delta);
        assert_eq!(delta.get("fit"), copy.get("fit"));
        assert_eq!(delta.get("altered"), copy.get("altered"));
        let blob = delta.get("delta").and_then(Json::as_str).unwrap().to_string();
        let delta_bytes = delta.get("delta_bytes").and_then(Json::as_u64).unwrap() as usize;
        assert_eq!(blob.len(), delta_bytes * 2, "hex doubles the byte count");
        assert!(delta_bytes < base.len(), "the patch must be smaller than the CSV");

        let apply_req = format!(
            r#"{{"op":"apply_delta","attr":"item_nbr","delta":{},"csv":{}}}"#,
            Json::Str(blob).to_text(),
            Json::Str(base).to_text()
        );
        let (rebuilt, _) = service.handle(&mut bound, &request(&apply_req));
        assert_ok(&rebuilt);
        assert_eq!(rebuilt.get("csv"), copy.get("csv"), "apply_delta must rebuild the copy");
    }

    #[test]
    fn apply_delta_refuses_malformed_blobs() {
        let mut service = two_tenant_service(ServiceConfig::default());
        let mut bound = None;
        service.handle(&mut bound, &request(r#"{"op":"hello","tenant":"acme"}"#));
        let ask = |service: &mut Service, bound: &mut Option<String>, blob: &str| {
            let req = format!(
                r#"{{"op":"apply_delta","attr":"item_nbr","delta":{},"csv":{}}}"#,
                Json::Str(blob.to_string()).to_text(),
                Json::Str(csv()).to_text()
            );
            let (resp, _) = service.handle(bound, &request(&req));
            error_of(&resp)
        };
        assert!(ask(&mut service, &mut bound, "abc").contains("odd number"));
        assert!(ask(&mut service, &mut bound, "zz").contains("non-hex"));
        // Valid hex, but not a delta blob.
        assert!(!ask(&mut service, &mut bound, "00112233").is_empty());
    }

    #[cfg(unix)]
    #[test]
    fn worker_pool_interleaves_connections_from_two_tenants() {
        use std::os::unix::net::UnixStream;
        use std::time::Duration;

        struct Client {
            stream: UnixStream,
            reader: BufReader<UnixStream>,
        }
        impl Client {
            fn connect(path: &std::path::Path) -> io::Result<Client> {
                let stream = UnixStream::connect(path)?;
                let reader = BufReader::new(stream.try_clone()?);
                Ok(Client { stream, reader })
            }
            fn ask(&mut self, req: &str) -> Json {
                write_frame(&mut self.stream, req.as_bytes()).unwrap();
                let frame = read_frame(&mut self.reader).unwrap().unwrap();
                json::parse(std::str::from_utf8(&frame).unwrap()).unwrap()
            }
        }

        let path =
            std::env::temp_dir().join(format!("catmark-pool-test-{}.sock", std::process::id()));
        let service = two_tenant_service(ServiceConfig::default());
        let sock = path.clone();
        let daemon = std::thread::spawn(move || serve_unix_pool(service, &sock, 2));

        let mut acme = None;
        for _ in 0..400 {
            match Client::connect(&path) {
                Ok(client) => {
                    acme = Some(client);
                    break;
                }
                Err(_) => std::thread::sleep(Duration::from_millis(5)),
            }
        }
        let mut acme = acme.expect("daemon socket never came up");
        // A sequential accept loop would block here until the first
        // connection closed; the pool serves both at once.
        let mut globex = Client::connect(&path).unwrap();
        assert_ok(&acme.ask(r#"{"op":"hello","tenant":"acme"}"#));
        assert_ok(&globex.ask(r#"{"op":"hello","tenant":"globex"}"#));
        // Interleaved frames on both live connections.
        let embed = |tenant_csv: String| {
            format!(
                r#"{{"op":"embed","key":"production","key_attr":"visit_nbr","attr":"item_nbr","mark":"101101","csv":{}}}"#,
                Json::Str(tenant_csv).to_text()
            )
        };
        assert_ok(&acme.ask(&embed(csv())));
        assert_ok(&globex.ask(&embed(csv())));
        // Isolation holds across the shared pool state: globex's
        // connection cannot reach acme's key material.
        let foreign = format!(
            r#"{{"op":"embed","tenant":"acme","key":"production","key_attr":"visit_nbr","attr":"item_nbr","mark":"101101","csv":{}}}"#,
            Json::Str(csv()).to_text()
        );
        assert!(error_of(&globex.ask(&foreign)).contains("tenant isolation"));
        drop(globex);
        assert_ok(&acme.ask(r#"{"op":"shutdown"}"#));
        drop(acme);
        daemon.join().unwrap().unwrap();
        assert!(!path.exists(), "socket file is removed on shutdown");
    }

    #[test]
    fn versioned_updates_remark_incrementally_and_detect_at_any_version() {
        let mut service = two_tenant_service(ServiceConfig::default());
        let mut bound = None;
        service.handle(&mut bound, &request(r#"{"op":"hello","tenant":"acme"}"#));

        // First update: full embed, two committed versions (pre-mark
        // and marked). 3200 rows make four 1024-row segments.
        let update = |csv: String| {
            format!(
                r#"{{"op":"update","name":"sales","key":"production","key_attr":"visit_nbr","attr":"item_nbr","mark":"101101","csv":{}}}"#,
                Json::Str(csv).to_text()
            )
        };
        let data = render_csv(&sample_relation(3_200)).unwrap();
        let (first, _) = service.handle(&mut bound, &request(&update(data)));
        assert_ok(&first);
        assert_eq!(first.get("full_fallback").and_then(Json::as_bool), Some(false));
        assert_eq!(first.get("clean_segments").and_then(Json::as_u64), Some(0));
        let marked_v1 = first.get("marked_version").and_then(Json::as_u64).unwrap();
        let marked_csv = first.get("csv").and_then(Json::as_str).unwrap().to_string();

        // Churn one row of the marked state and update again: only
        // that row's segment is re-embedded.
        let mut churned = parse_csv(&marked_csv, "item_nbr").unwrap();
        let attr = churned.schema().index_of("item_nbr").unwrap();
        churned.update_value(0, attr, Value::Int(10_039)).unwrap();
        let churned_csv = render_csv(&churned).unwrap();
        let (second, _) = service.handle(&mut bound, &request(&update(churned_csv.clone())));
        assert_ok(&second);
        assert_eq!(second.get("full_fallback").and_then(Json::as_bool), Some(false));
        assert_eq!(second.get("dirty_segments").and_then(Json::as_u64), Some(1));
        assert!(second.get("clean_segments").and_then(Json::as_u64).unwrap() >= 3);
        let marked_v2 = second.get("marked_version").and_then(Json::as_u64).unwrap();

        // The incremental re-mark is byte-identical to a plain
        // in-memory embed of the same churned state.
        let embed = format!(
            r#"{{"op":"embed","key":"production","key_attr":"visit_nbr","attr":"item_nbr","mark":"101101","csv":{}}}"#,
            Json::Str(churned_csv).to_text()
        );
        let (full, _) = service.handle(&mut bound, &request(&embed));
        assert_ok(&full);
        assert_eq!(full.get("csv"), second.get("csv"), "incremental re-mark diverged");

        // Version history: 4 versions, blob sharing across them.
        let (versions, _) =
            service.handle(&mut bound, &request(r#"{"op":"versions","name":"sales"}"#));
        assert_ok(&versions);
        let listed = versions.get("versions").unwrap().as_array().unwrap();
        assert_eq!(listed.len(), 4);
        assert!(listed.iter().any(|v| {
            v.get("id").and_then(Json::as_u64) == Some(marked_v2)
                && v.get("marked").and_then(Json::as_bool) == Some(true)
        }));
        let unique = versions.get("unique_blobs").and_then(Json::as_u64).unwrap();
        let dedup = versions.get("dedup_hits").and_then(Json::as_u64).unwrap();
        assert!(dedup > 0, "versions must share unchanged blobs");
        assert!(unique < 4 * listed[0].get("segments").unwrap().as_array().unwrap().len() as u64);

        // Detection works against any committed marked version.
        for v in [marked_v1, marked_v2] {
            let req = format!(
                r#"{{"op":"detect_at","name":"sales","key":"production","key_attr":"visit_nbr","attr":"item_nbr","version":{v},"claim":"101101"}}"#
            );
            let (resp, _) = service.handle(&mut bound, &request(&req));
            assert_ok(&resp);
            assert_eq!(resp.get("matched_bits").and_then(Json::as_u64), Some(6), "{resp:?}");
        }
        // The second detect_at shares every clean segment's tally
        // with the first via the vote cache.
        let req = format!(
            r#"{{"op":"detect_at","name":"sales","key":"production","key_attr":"visit_nbr","attr":"item_nbr","version":{marked_v2},"claim":"101101"}}"#
        );
        let (warm, _) = service.handle(&mut bound, &request(&req));
        assert_ok(&warm);
        assert_eq!(warm.get("accumulated_segments").and_then(Json::as_u64), Some(0));
        assert!(warm.get("cached_segments").and_then(Json::as_u64).unwrap() > 0);

        // Unknown coordinates are errors, not silent empties.
        let (resp, _) = service.handle(&mut bound, &request(r#"{"op":"versions","name":"nope"}"#));
        assert!(error_of(&resp).contains("unknown versioned relation"));
        let bad = r#"{"op":"detect_at","name":"sales","key":"production","key_attr":"visit_nbr","attr":"item_nbr","version":99,"claim":"101101"}"#;
        let (resp, _) = service.handle(&mut bound, &request(bad));
        assert!(error_of(&resp).contains("unknown version"));

        // Versioned tables are tenant-scoped: globex can't see acme's.
        let mut globex = None;
        service.handle(&mut globex, &request(r#"{"op":"hello","tenant":"globex"}"#));
        let (resp, _) =
            service.handle(&mut globex, &request(r#"{"op":"versions","name":"sales"}"#));
        assert!(error_of(&resp).contains("unknown versioned relation"));

        // Hello reports the daemon-wide cache counters, and the vote
        // cache shows the detect_at traffic.
        let (hello, _) = service.handle(&mut bound, &request(r#"{"op":"hello","tenant":"acme"}"#));
        assert_ok(&hello);
        let stats = hello.get("cache_stats").unwrap();
        for family in ["plan", "fingerprint", "votes", "pager"] {
            assert!(stats.get(family).is_some(), "missing {family} stats: {stats:?}");
        }
        let votes = stats.get("votes").unwrap();
        assert!(votes.get("hits").and_then(Json::as_u64).unwrap() > 0);
        assert!(votes.get("misses").and_then(Json::as_u64).unwrap() > 0);
    }

    #[test]
    fn detect_at_emits_evidence_and_verify_evidence_judges_it_keylessly() {
        let mut service = two_tenant_service(ServiceConfig::default());
        let mut bound = None;
        service.handle(&mut bound, &request(r#"{"op":"hello","tenant":"acme"}"#));
        let update = format!(
            r#"{{"op":"update","name":"sales","key":"production","key_attr":"visit_nbr","attr":"item_nbr","mark":"101101","csv":{}}}"#,
            Json::Str(csv()).to_text()
        );
        let (first, _) = service.handle(&mut bound, &request(&update));
        assert_ok(&first);
        let marked = first.get("marked_version").and_then(Json::as_u64).unwrap();

        // Certified detect_at: same verdict fields, plus the bundle.
        let req = format!(
            r#"{{"op":"detect_at","name":"sales","key":"production","key_attr":"visit_nbr","attr":"item_nbr","version":{marked},"claim":"101101","evidence":true}}"#
        );
        let (resp, _) = service.handle(&mut bound, &request(&req));
        assert_ok(&resp);
        assert_eq!(resp.get("mark").and_then(Json::as_str), Some("101101"));
        assert_eq!(resp.get("matched_bits").and_then(Json::as_u64), Some(6));
        let bundle = resp.get("evidence").and_then(Json::as_str).unwrap().to_string();

        // The checker op needs no hello: a fresh, unbound connection
        // can re-judge the bundle from its hex alone.
        let mut stranger = None;
        let verify = format!(
            r#"{{"op":"verify_evidence","bundle":{}}}"#,
            Json::Str(bundle.clone()).to_text()
        );
        let (resp, _) = service.handle(&mut stranger, &request(&verify));
        assert_ok(&resp);
        assert_eq!(resp.get("verified").and_then(Json::as_bool), Some(true));
        assert_eq!(resp.get("mark").and_then(Json::as_str), Some("101101"));
        assert_eq!(resp.get("matched_bits").and_then(Json::as_u64), Some(6));
        assert!(resp.get("relation").and_then(Json::as_str).unwrap().starts_with("version"));

        // A tampered bundle comes back as a clean error envelope.
        let mut evil = from_hex(&bundle).unwrap();
        let mid = evil.len() / 2;
        evil[mid] ^= 0x10;
        let verify = format!(
            r#"{{"op":"verify_evidence","bundle":{}}}"#,
            Json::Str(to_hex(&evil)).to_text()
        );
        let (resp, _) = service.handle(&mut stranger, &request(&verify));
        assert!(error_of(&resp).contains("rejected"), "{resp:?}");
    }

    #[test]
    fn duplicate_tenant_registration_is_refused() {
        let mut service = Service::new(ServiceConfig::default());
        let mut reg = TenantKeyRegistry::new("acme").unwrap();
        reg.insert("production", spec("m")).unwrap();
        service.add_registry(reg.clone()).unwrap();
        assert!(service.add_registry(reg).is_err());
        assert_eq!(service.tenants(), ["acme"]);
    }

    #[test]
    fn detect_at_keeps_vote_tallies_apart_per_key_column() {
        // One vote cache serves every detect_at on a table, whatever
        // columns the request binds. A tally depends on the key
        // column, so a detect_at keyed on `store` after one keyed on
        // `visit_nbr` must answer exactly as a fresh daemon does.
        let schema = Schema::builder()
            .key_attr("visit_nbr", AttrType::Integer)
            .attr("store", AttrType::Integer)
            .categorical_attr("item_nbr", AttrType::Integer)
            .build()
            .unwrap();
        let mut rel = Relation::new(schema);
        for i in 0..600 {
            let row = [i * 17 + 3, i * 31 % 997, 10_000 + (i * 7) % 40];
            rel.push(row.iter().map(|&v| Value::Int(v)).collect()).unwrap();
        }
        let update = format!(
            r#"{{"op":"update","name":"sales","key":"production","key_attr":"visit_nbr","attr":"item_nbr","mark":"101101","csv":{}}}"#,
            Json::Str(render_csv(&rel).unwrap()).to_text()
        );
        let answer = |warm_first: bool| {
            let mut service = two_tenant_service(ServiceConfig::default());
            let mut bound = None;
            service.handle(&mut bound, &request(r#"{"op":"hello","tenant":"acme"}"#));
            let (first, _) = service.handle(&mut bound, &request(&update));
            let version = first.get("marked_version").and_then(Json::as_u64).unwrap();
            let detect_at = |key_attr: &str| {
                request(&format!(
                    r#"{{"op":"detect_at","name":"sales","key":"production","key_attr":"{key_attr}","attr":"item_nbr","version":{version},"claim":"101101"}}"#
                ))
            };
            if warm_first {
                assert_ok(&service.handle(&mut bound, &detect_at("visit_nbr")).0);
            }
            let (resp, _) = service.handle(&mut bound, &detect_at("store"));
            assert_ok(&resp);
            resp
        };
        let (fresh, warm) = (answer(false), answer(true));
        for field in ["mark", "fit", "votes", "matched_bits", "accumulated_segments"] {
            assert_eq!(warm.get(field), fresh.get(field), "{field} differs on a warm table");
        }
    }
}
