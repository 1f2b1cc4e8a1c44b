//! The daemon workloads.
//!
//! `daemon_stdio`: one `catmark serve` over stdio with one closed-loop
//! client. Requests carry CSV inline and cycle through four distinct
//! relations. Each cycle sends `embed` and `decode` with a claim, then
//! either `mark_delta` (even cycles) or `trace` over 16 buyers, one the
//! known leaker (odd cycles), then three rounds of `detect_at` with
//! evidence on a table committed at set-up and `verify_evidence` of the
//! bundle it returns.
//! Odd cycles also send an `embed` and a `decode` at the scale-probe
//! size.
//!
//! `daemon_socket_churn`: a socket daemon with two workers and two
//! tenants, each on one connection driven by its own client thread.
//! Each round `update`s the tenant's versioned table with one 10%
//! block of rows changed. Then, for the head and two earlier marked
//! versions, it runs `detect_at` without evidence, `detect_at` with
//! evidence, and `verify_evidence` of that bundle. Every fourth round
//! also updates and detects a probe-size table.

use std::os::unix::net::UnixStream;
use std::path::Path;
use std::process::{ChildStdin, ChildStdout, Command, Stdio};
use std::time::{Duration, Instant};

use catmark_core::{FingerprintSession, Watermark, WatermarkSpec};
use catmark_relation::{Column, MarkDelta, Relation};
use catmark_service::Json;

use crate::client::{check_verdict, escaped, keyed, request, s, Conn, Exchange};
use crate::data::{self, Marked};
use crate::jsonr::Value;
use crate::proc::{vm_hwm_mb, Guarded, WorkDir};
use crate::{Ctx, Outcome, Role, Sample};

/// `daemon_stdio` main request size.
pub const STDIO_MAIN_ROWS: usize = 4_000;
/// `daemon_stdio` scale-probe size.
pub const STDIO_PROBE_ROWS: usize = 2_000;
/// Distinct relations the stdio client cycles through.
pub const RELATIONS: usize = 4;
/// Buyers registered for `trace`.
pub const BUYERS: usize = 16;
/// `daemon_socket_churn` table size.
pub const CHURN_MAIN_ROWS: usize = 8_000;
/// `daemon_socket_churn` probe table size.
pub const CHURN_PROBE_ROWS: usize = 2_000;
/// Churn blocks: each round rewrites one block (10% of the rows).
pub const BLOCKS: usize = 10;
/// Tenants (and client threads) of the socket workload.
pub const TENANTS: [&str; 2] = ["acme", "globex"];
/// Set-ups per run; `setup_s` is their median.
pub const SETUPS: usize = 3;
/// Repeats of the cheap requests (no CSV) per cycle or round.
pub const CHEAP_REPEATS: usize = 3;

/// The buyer names.
pub fn buyers() -> Vec<String> {
    (0..BUYERS).map(|b| format!("buyer-{b:02}")).collect()
}

/// One stdio relation: the base, its reference marks, and the
/// escaped payloads the requests carry.
pub struct StdioRelation {
    /// Base, marked reference, and their CSV.
    pub m: Marked,
    /// `base_csv` as a JSON string literal.
    pub base_json: String,
    /// `marked_csv` as a JSON string literal.
    pub marked_json: String,
    /// The leaker's fingerprinted copy as a JSON string literal.
    pub leaked_json: String,
    /// The leaking buyer.
    pub leaker: String,
}

/// The stdio workload's inputs.
pub struct StdioInputs {
    /// The tenant key.
    pub spec: WatermarkSpec,
    /// The run's mark.
    pub mark: Watermark,
    /// Main-size relations.
    pub rels: Vec<StdioRelation>,
    /// The probe-size relation.
    pub probe: StdioRelation,
}

/// Generate the stdio inputs from the seed. A draw whose leaked copy
/// would not trace back to the leaker alone (another buyer matching as
/// many bits) is replaced by the next draw, like an undecodable one.
pub fn stdio_inputs(seed: u64) -> StdioInputs {
    let spec = data::spec("acme-master");
    let mark = data::mark(seed);
    let buyers = buyers();
    let make = |i: u64, rows: usize| {
        for draw in 0.. {
            let m = data::marked(data::mix(seed, 100 + i + 1000 * draw), rows, &spec, &mark);
            let leaker = buyers[(data::mix(seed, 200 + i) % BUYERS as u64) as usize].clone();
            let mut fp = data::session(&spec, &m.base).fingerprint();
            let (leaked, _) = fp.mark_copy(&m.base, &leaker).expect("reference mark_copy");
            for b in &buyers {
                fp.register(b);
            }
            let ranked = fp.trace(&leaked).expect("reference trace");
            let bits = |k: usize| ranked[k].detection.matched_bits;
            if ranked[0].buyer == leaker && bits(1) < bits(0) {
                return StdioRelation {
                    base_json: escaped(&m.base_csv),
                    marked_json: escaped(&m.marked_csv),
                    leaked_json: escaped(&data::csv(&leaked)),
                    leaker,
                    m,
                };
            }
        }
        unreachable!("the draw loop only ends by returning")
    };
    let rels = (0..RELATIONS as u64).map(|i| make(i, STDIO_MAIN_ROWS)).collect();
    let probe = make(RELATIONS as u64, STDIO_PROBE_ROWS);
    StdioInputs { spec, mark, rels, probe }
}

type StdioConn = Conn<ChildStdout, ChildStdin>;

/// A running stdio daemon with its inputs.
pub struct StdioSetup {
    dir: WorkDir,
    daemon: Guarded,
    conn: StdioConn,
    inputs: StdioInputs,
    /// The marked version of the set-up table `t0`.
    t0_version: u64,
}

fn write_registry(dir: &WorkDir, tenant: &str, spec: &WatermarkSpec) -> Result<String, String> {
    let path = dir.file(&format!("{tenant}.reg"));
    std::fs::write(&path, data::registry_file(tenant, spec)).map_err(|e| e.to_string())?;
    Ok(path.to_string_lossy().into_owned())
}

fn hello(conn: &mut impl Exchange, tenant: &str) -> Result<(), String> {
    conn.call(&request("hello", vec![("tenant", s(tenant))], None), false).map(|_| ())
}

/// An `update` request.
pub fn update_request(name: &str, mark: &str, csv_json: &str) -> Vec<u8> {
    request("update", keyed(vec![("name", s(name)), ("mark", s(mark))]), Some(csv_json))
}

/// Check an `update` reply against the expected marked CSV; returns
/// the marked version id.
pub fn check_update(reply: &Value, expected: &[u8]) -> Result<u64, String> {
    if reply.str("csv").map(str::as_bytes) != Some(expected) {
        return Err("update: marked CSV differs from the in-process reference".into());
    }
    reply.num("marked_version").map(|v| v as u64).ok_or_else(|| "update: no marked_version".into())
}

/// A `detect_at` request.
pub fn detect_at_request(name: &str, version: u64, mark: &str, evidence: bool) -> Vec<u8> {
    request(
        "detect_at",
        keyed(vec![
            ("name", s(name)),
            ("version", Json::Num(version as f64)),
            ("claim", s(mark)),
            ("evidence", Json::Bool(evidence)),
        ]),
        None,
    )
}

/// A `verify_evidence` request.
pub fn verify_request(bundle_hex: &str) -> Vec<u8> {
    request("verify_evidence", vec![("bundle", s(bundle_hex))], None)
}

/// Check a `verify_evidence` reply.
pub fn check_verified(reply: &Value, mark: &str) -> Result<(), String> {
    if reply.bool("verified") != Some(true) || reply.str("mark") != Some(mark) {
        return Err(format!("verify_evidence: not verified or wrong mark: {reply:?}"));
    }
    Ok(())
}

/// The evidence bundle of a certified `detect_at` reply, after checking its verdict.
pub fn certified_bundle(reply: &Value, mark: &str) -> Result<String, String> {
    check_verdict(reply, mark)?;
    reply.str("evidence").map(str::to_string).ok_or_else(|| "detect_at: no evidence".into())
}

fn stdio_setup(ctx: &Ctx, index: usize) -> Result<StdioSetup, String> {
    let dir = WorkDir::create(&format!("stdio-{index}")).map_err(|e| e.to_string())?;
    let inputs = stdio_inputs(ctx.seed);
    let registry = write_registry(&dir, "acme", &inputs.spec)?;
    let mut cmd = Command::new(&ctx.catmark);
    cmd.args(["serve", "--registries", &registry])
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::inherit());
    let mut daemon =
        Guarded::spawn_tied(&mut cmd).map_err(|e| format!("spawn catmark serve: {e}"))?;
    let stdin = daemon.child().stdin.take().ok_or("no daemon stdin")?;
    let stdout = daemon.child().stdout.take().ok_or("no daemon stdout")?;
    let mut conn = Conn::new(stdout, stdin);
    let t0_version = stdio_prepare(&mut conn, &inputs)?;
    Ok(StdioSetup { dir, daemon, conn, inputs, t0_version })
}

/// Bind the tenant and commit the set-up table `t0`; returns its
/// marked version.
pub fn stdio_prepare(conn: &mut impl Exchange, inputs: &StdioInputs) -> Result<u64, String> {
    hello(conn, "acme")?;
    let t0 = &inputs.rels[0];
    let (reply, _) =
        conn.call(&update_request("t0", &inputs.mark.to_string(), &t0.base_json), false)?;
    check_update(&reply, &t0.m.marked_csv)
}

/// Stop a daemon cleanly: ask for shutdown on `conn`, then wait for exit.
fn shutdown(conn: &mut impl Exchange, daemon: Guarded) -> Result<(), String> {
    conn.call(&request("shutdown", vec![], None), false)?;
    daemon.finish(Duration::from_secs(10))
}

/// The untraced `daemon_stdio` run.
pub fn run_stdio(ctx: &Ctx) -> Result<Outcome, String> {
    let mut out =
        Outcome { main_rows: STDIO_MAIN_ROWS, probe_rows: STDIO_PROBE_ROWS, ..Outcome::default() };
    let mut kept: Option<StdioSetup> = None;
    for i in 0..SETUPS {
        if let Some(mut old) = kept.take() {
            shutdown(&mut old.conn, old.daemon)?;
        }
        let start = Instant::now();
        let setup = stdio_setup(ctx, i)?;
        out.setups_s.push(start.elapsed().as_secs_f64());
        kept = Some(setup);
    }
    let StdioSetup { dir: _dir, daemon, mut conn, inputs, t0_version } = kept.expect("SETUPS > 0");
    out.calibrate();
    let deltas = stdio_cycles(ctx, &mut conn, &inputs, t0_version, &mut out);
    out.calibrate();
    out.peak_rss_mb = vm_hwm_mb(daemon.pid());
    shutdown(&mut conn, daemon)?;
    for e in check_deltas(&inputs, &deltas) {
        out.fail(e);
    }
    Ok(out)
}

/// The stdio client's measured cycles; returns the `mark_delta`
/// replies for the deferred oracle.
pub fn stdio_cycles(
    ctx: &Ctx,
    conn: &mut impl Exchange,
    inputs: &StdioInputs,
    t0_version: u64,
    out: &mut Outcome,
) -> Vec<(usize, String, String)> {
    let mark = inputs.mark.to_string();
    let buyers = buyers();
    let buyers_json = Json::Arr(buyers.iter().map(|b| s(b.as_str())).collect());
    let mut deltas: Vec<(usize, String, String)> = Vec::new();
    let start = Instant::now();
    let mut cycle = 0usize;
    while !ctx.expired(start) || !out.covers_every_metric() {
        conn.cycle(cycle);
        out.calibrate_once();
        let r = cycle % RELATIONS;
        let rel = &inputs.rels[r];
        let rows = STDIO_MAIN_ROWS;
        let sizes: &[(&StdioRelation, bool)] =
            if cycle % 2 == 1 { &[(rel, false), (&inputs.probe, true)] } else { &[(rel, false)] };
        for &(x, probe) in sizes {
            let rows = x.m.base.len();
            let embed = request("embed", keyed(vec![("mark", s(&mark))]), Some(&x.base_json));
            out.record(conn.call(&embed, probe).and_then(|(reply, ms)| {
                if reply.str("csv").map(str::as_bytes) != Some(&x.m.marked_csv[..]) {
                    return Err("embed: marked CSV differs from the in-process reference".into());
                }
                Ok(Sample { op: "embed", role: Role::Embed, probe, ms, rows })
            }));
            let decode = request("decode", keyed(vec![("claim", s(&mark))]), Some(&x.marked_json));
            out.record(conn.call(&decode, probe).and_then(|(reply, ms)| {
                check_verdict(&reply, &mark)?;
                Ok(Sample { op: "decode", role: Role::Decode, probe, ms, rows })
            }));
        }
        if cycle.is_multiple_of(2) {
            let buyer = &buyers[(cycle / 2) % BUYERS];
            let md = request("mark_delta", keyed(vec![("buyer", s(buyer))]), Some(&rel.base_json));
            out.record(conn.call(&md, false).and_then(|(reply, ms)| {
                let hex = reply.str("delta").ok_or("mark_delta: no delta")?;
                deltas.push((r, buyer.clone(), hex.to_string()));
                Ok(Sample { op: "mark_delta", role: Role::Other, probe: false, ms, rows })
            }));
        } else {
            let trace = request(
                "trace",
                keyed(vec![("buyers", buyers_json.clone())]),
                Some(&rel.leaked_json),
            );
            out.record(conn.call(&trace, false).and_then(|(reply, ms)| {
                let first =
                    reply.arr("results").and_then(|r| r.first()).and_then(|r| r.str("buyer"));
                if first != Some(rel.leaker.as_str()) {
                    return Err(format!(
                        "trace ranked {first:?} first, not the leaker {}",
                        rel.leaker
                    ));
                }
                Ok(Sample { op: "trace", role: Role::Other, probe: false, ms, rows })
            }));
        }
        // The certify and verify requests are cheap; several per cycle
        // give their medians as many samples as the CSV requests get.
        for _ in 0..CHEAP_REPEATS {
            let mut bundle = None;
            out.record(
                conn.call(&detect_at_request("t0", t0_version, &mark, true), false).and_then(
                    |(reply, ms)| {
                        bundle = Some(certified_bundle(&reply, &mark)?);
                        Ok(Sample { op: "detect_at", role: Role::Certify, probe: false, ms, rows })
                    },
                ),
            );
            if let Some(bundle) = bundle {
                out.record(conn.call(&verify_request(&bundle), false).and_then(|(reply, ms)| {
                    check_verified(&reply, &mark)?;
                    Ok(Sample {
                        op: "verify_evidence",
                        role: Role::Verify,
                        probe: false,
                        ms,
                        rows: 0,
                    })
                }));
            }
        }
        cycle += 1;
        if cycle > 4 && out.samples.is_empty() {
            break;
        }
    }
    out.wall_s = start.elapsed().as_secs_f64();
    deltas
}

/// The deferred `mark_delta` oracle: each delta applied to its base
/// must rebuild the buyer's `mark_copy` byte for byte.
pub fn check_deltas(inputs: &StdioInputs, deltas: &[(usize, String, String)]) -> Vec<String> {
    let mut errors = Vec::new();
    let mut copies: std::collections::HashMap<(usize, &str), Vec<u8>> = Default::default();
    let mut fps: Vec<FingerprintSession> =
        inputs.rels.iter().map(|r| data::session(&inputs.spec, &r.m.base).fingerprint()).collect();
    for (r, buyer, hex) in deltas {
        let base = &inputs.rels[*r].m.base;
        let expected = copies.entry((*r, buyer)).or_insert_with(|| {
            let (copy, _) = fps[*r].mark_copy(base, buyer).expect("reference mark_copy");
            data::csv(&copy)
        });
        let rebuilt = from_hex(hex)
            .and_then(|blob| MarkDelta::decode(&blob).map_err(|e| e.to_string()))
            .and_then(|delta| base.apply_delta(&delta).map_err(|e| e.to_string()))
            .map(|copy| data::csv(&copy));
        match rebuilt {
            Ok(bytes) if bytes == *expected => {}
            Ok(_) => {
                errors.push(format!("mark_delta for {buyer}: rebuilt copy differs from mark_copy"))
            }
            Err(e) => errors.push(format!("mark_delta for {buyer}: {e}")),
        }
    }
    errors
}

/// Decode lowercase or uppercase hex.
pub fn from_hex(text: &str) -> Result<Vec<u8>, String> {
    if !text.len().is_multiple_of(2) {
        return Err("odd hex length".into());
    }
    (0..text.len())
        .step_by(2)
        .map(|i| u8::from_str_radix(&text[i..i + 2], 16).map_err(|e| e.to_string()))
        .collect()
}

// ------------------------------------------------------------ churn

/// One table's churn cycle: the first (full) update's payload, then
/// `2 × BLOCKS` rounds that each rewrite one block, after which the
/// table is back where the cycle started, so a run of any length
/// replays the cycle.
pub struct Cycle {
    /// Rows in the table.
    pub rows: usize,
    /// The initial unmarked table as a JSON string literal.
    pub first_json: String,
    /// The reference marked CSV after the first update.
    pub first_expected: Vec<u8>,
    /// Each round's payload: the tenant's current marked table with
    /// one block rewritten.
    pub inputs: Vec<String>,
    /// Each round's reference marked CSV.
    pub expected: Vec<Vec<u8>>,
}

/// Build a table's churn cycle.
pub fn cycle(seed: u64, rows: usize, spec: &WatermarkSpec, mark: &Watermark) -> Cycle {
    let m = data::marked(seed, rows, spec, mark);
    let session = data::session(spec, &m.base);
    let column = |rel: &Relation, i: usize| -> Vec<i64> {
        rel.column(i).as_int().expect("generated columns are integers").to_vec()
    };
    let (visits, stores) = (column(&m.base, 0), column(&m.base, 2));
    let raw_x = column(&m.base, 1);
    let domain = data::domain();
    let codes: Vec<i64> =
        domain.values().iter().map(|v| v.as_int().expect("integer domain")).collect();
    // The alternative value of every row: a different domain value.
    let raw_y: Vec<i64> = raw_x
        .iter()
        .enumerate()
        .map(|(row, &x)| {
            let at = codes.iter().position(|&c| c == x).expect("values come from the domain");
            codes[(at + 1 + row % 7) % codes.len()]
        })
        .collect();
    let build = |items: Vec<i64>| {
        Relation::from_columns(
            data::schema(),
            vec![Column::Int(visits.clone()), Column::Int(items), Column::Int(stores.clone())],
        )
        .expect("columns match the schema")
    };
    let start_state = column(&m.marked, 1);
    let mut state = start_state.clone();
    let mut flipped = [false; BLOCKS];
    let (mut inputs, mut expected) = (Vec::new(), Vec::new());
    for round in 0..2 * BLOCKS {
        let b = round % BLOCKS;
        flipped[b] = !flipped[b];
        let raw = if flipped[b] { &raw_y } else { &raw_x };
        let mut items = state.clone();
        let span = b * rows / BLOCKS..(b + 1) * rows / BLOCKS;
        items[span.clone()].copy_from_slice(&raw[span]);
        let input = build(items);
        let mut marked = input.clone();
        session.embed(&mut marked, mark).expect("reference embed");
        state = column(&marked, 1);
        inputs.push(escaped(&data::csv(&input)));
        expected.push(data::csv(&marked));
    }
    assert_eq!(state, start_state, "a churn cycle returns the table to its start");
    Cycle { rows, first_json: escaped(&m.base_csv), first_expected: m.marked_csv, inputs, expected }
}

/// One tenant's inputs.
pub struct Tenant {
    /// Tenant name.
    pub name: &'static str,
    /// Its key.
    pub spec: WatermarkSpec,
    /// The main table's cycle.
    pub main: Cycle,
    /// The probe table's cycle.
    pub probe: Cycle,
}

/// Both tenants' inputs.
pub fn tenants(seed: u64, mark: &Watermark) -> Vec<Tenant> {
    TENANTS
        .iter()
        .enumerate()
        .map(|(i, &name)| {
            let spec = data::spec(&format!("{name}-master"));
            let main = cycle(data::mix(seed, 300 + i as u64), CHURN_MAIN_ROWS, &spec, mark);
            let probe = cycle(data::mix(seed, 400 + i as u64), CHURN_PROBE_ROWS, &spec, mark);
            Tenant { name, spec, main, probe }
        })
        .collect()
}

type SocketConn = Conn<UnixStream, UnixStream>;

/// A tenant's table state as its client knows it.
pub struct Tables {
    /// Marked versions of the main table so far.
    history: Vec<u64>,
    /// Marked version of the probe table.
    probe_head: u64,
}

/// A tenant connection after set-up.
pub struct TenantConn {
    conn: SocketConn,
    state: Tables,
}

/// Bind `tenant` and run the first (full) updates of its tables.
pub fn churn_prepare(
    conn: &mut impl Exchange,
    tenant: &Tenant,
    mark: &str,
) -> Result<Tables, String> {
    hello(conn, tenant.name)?;
    let (reply, _) = conn.call(&update_request("main", mark, &tenant.main.first_json), false)?;
    let head = check_update(&reply, &tenant.main.first_expected)?;
    let (reply, _) = conn.call(&update_request("probe", mark, &tenant.probe.first_json), false)?;
    let probe_head = check_update(&reply, &tenant.probe.first_expected)?;
    Ok(Tables { history: vec![head], probe_head })
}

/// A running socket daemon.
pub struct SocketSetup {
    dir: WorkDir,
    daemon: Guarded,
    socket: std::path::PathBuf,
    conns: Vec<TenantConn>,
    tenants: Vec<Tenant>,
    mark: Watermark,
}

fn connect(path: &Path) -> Result<SocketConn, String> {
    let stream = UnixStream::connect(path).map_err(|e| format!("connect: {e}"))?;
    let reader = stream.try_clone().map_err(|e| e.to_string())?;
    Ok(Conn::new(reader, stream))
}

fn socket_setup(ctx: &Ctx, index: usize) -> Result<SocketSetup, String> {
    let dir = WorkDir::create(&format!("sock-{index}")).map_err(|e| e.to_string())?;
    let mark = data::mark(ctx.seed);
    let tenants = tenants(ctx.seed, &mark);
    let registries: Vec<String> =
        tenants.iter().map(|t| write_registry(&dir, t.name, &t.spec)).collect::<Result<_, _>>()?;
    let socket = dir.file("d.sock");
    let mut cmd = Command::new(&ctx.catmark);
    cmd.args(["serve", "--registries", &registries.join(","), "--workers", "2", "--socket"])
        .arg(&socket)
        .stdin(Stdio::null())
        .stdout(Stdio::null())
        .stderr(Stdio::null());
    let daemon = Guarded::spawn_tied(&mut cmd).map_err(|e| format!("spawn catmark serve: {e}"))?;
    let waited = Instant::now();
    while UnixStream::connect(&socket).is_err() {
        if waited.elapsed() > Duration::from_secs(10) {
            return Err("socket daemon did not start listening".into());
        }
        std::thread::sleep(Duration::from_millis(2));
    }
    let mark_text = mark.to_string();
    // Each tenant's first (full) updates run on its own connection,
    // concurrently, as the measured rounds do.
    let conns = std::thread::scope(|scope| {
        let handles: Vec<_> = tenants
            .iter()
            .map(|t| {
                let (socket, mark) = (&socket, &mark_text);
                scope.spawn(move || -> Result<TenantConn, String> {
                    let mut conn = connect(socket)?;
                    let state = churn_prepare(&mut conn, t, mark)?;
                    Ok(TenantConn { conn, state })
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().unwrap_or_else(|_| Err("set-up thread panicked".into())))
            .collect::<Result<Vec<_>, _>>()
    })?;
    Ok(SocketSetup { dir, daemon, socket, conns, tenants, mark })
}

fn socket_shutdown(setup: SocketSetup) -> Result<f64, String> {
    let SocketSetup { dir: _dir, daemon, socket, conns, .. } = setup;
    drop(conns);
    let rss = vm_hwm_mb(daemon.pid());
    let mut conn = connect(&socket)?;
    shutdown(&mut conn, daemon)?;
    Ok(rss)
}

/// One tenant's measured rounds.
pub fn churn_rounds(
    ctx: &Ctx,
    tenant: &Tenant,
    conn: &mut impl Exchange,
    tc: &mut Tables,
    mark: &str,
    start: Instant,
) -> Outcome {
    let mut out = Outcome::default();
    let main_rows = tenant.main.rows;
    let mut round = 0usize;
    while !ctx.expired(start) || !out.covers_every_metric() {
        conn.cycle(round);
        // Between this client's requests; the other tenant's request may
        // be in flight, as it is for every measured operation here.
        out.calibrate_once();
        let j = round % tenant.main.inputs.len();
        let update = update_request("main", mark, &tenant.main.inputs[j]);
        let mut head = None;
        out.record(conn.call(&update, false).and_then(|(reply, ms)| {
            head = Some(check_update(&reply, &tenant.main.expected[j])?);
            Ok(Sample { op: "update", role: Role::Embed, probe: false, ms, rows: main_rows })
        }));
        let Some(head) = head else { break };
        tc.history.push(head);
        // Versions to read: the head, then earlier marked versions in a
        // fixed pattern (independent of the seed, so every run walks the
        // vote cache the same way).
        let earlier = |k: usize| tc.history[(round * 7 + k * 3) % tc.history.len()];
        let versions: Vec<u64> =
            (0..CHEAP_REPEATS).map(|k| if k == 0 { head } else { earlier(k) }).collect();
        for &version in &versions {
            out.record(
                conn.call(&detect_at_request("main", version, mark, false), false).and_then(
                    |(reply, ms)| {
                        check_verdict(&reply, mark)?;
                        Ok(Sample {
                            op: "detect_at",
                            role: Role::Decode,
                            probe: false,
                            ms,
                            rows: main_rows,
                        })
                    },
                ),
            );
        }
        for &version in &versions {
            let mut bundle = None;
            out.record(conn.call(&detect_at_request("main", version, mark, true), false).and_then(
                |(reply, ms)| {
                    bundle = Some(certified_bundle(&reply, mark)?);
                    Ok(Sample {
                        op: "detect_at+evidence",
                        role: Role::Certify,
                        probe: false,
                        ms,
                        rows: main_rows,
                    })
                },
            ));
            if let Some(bundle) = bundle {
                out.record(conn.call(&verify_request(&bundle), false).and_then(|(reply, ms)| {
                    check_verified(&reply, mark)?;
                    Ok(Sample {
                        op: "verify_evidence",
                        role: Role::Verify,
                        probe: false,
                        ms,
                        rows: 0,
                    })
                }));
            }
        }
        if round % 4 == 3 {
            let p = (round / 4) % tenant.probe.inputs.len();
            let rows = tenant.probe.rows;
            let update = update_request("probe", mark, &tenant.probe.inputs[p]);
            out.record(conn.call(&update, true).and_then(|(reply, ms)| {
                tc.probe_head = check_update(&reply, &tenant.probe.expected[p])?;
                Ok(Sample { op: "update", role: Role::Embed, probe: true, ms, rows })
            }));
            out.record(
                conn.call(&detect_at_request("probe", tc.probe_head, mark, false), true).and_then(
                    |(reply, ms)| {
                        check_verdict(&reply, mark)?;
                        Ok(Sample { op: "detect_at", role: Role::Decode, probe: true, ms, rows })
                    },
                ),
            );
        }
        round += 1;
    }
    out.wall_s = start.elapsed().as_secs_f64();
    out
}

/// The untraced `daemon_socket_churn` run.
pub fn run_socket_churn(ctx: &Ctx) -> Result<Outcome, String> {
    let mut out =
        Outcome { main_rows: CHURN_MAIN_ROWS, probe_rows: CHURN_PROBE_ROWS, ..Outcome::default() };
    let mut kept: Option<SocketSetup> = None;
    for i in 0..SETUPS {
        if let Some(old) = kept.take() {
            socket_shutdown(old)?;
        }
        let start = Instant::now();
        let setup = socket_setup(ctx, i)?;
        out.setups_s.push(start.elapsed().as_secs_f64());
        kept = Some(setup);
    }
    let mut setup = kept.expect("SETUPS > 0");
    let mark = setup.mark.to_string();
    let conns = std::mem::take(&mut setup.conns);
    let start = Instant::now();
    let returned = std::thread::scope(|scope| {
        let handles: Vec<_> = setup
            .tenants
            .iter()
            .zip(conns)
            .map(|(tenant, mut tc)| {
                let mark = &mark;
                scope.spawn(move || {
                    let out = churn_rounds(ctx, tenant, &mut tc.conn, &mut tc.state, mark, start);
                    (out, tc)
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join()).collect::<Vec<_>>()
    });
    for r in returned {
        let (client, tc) = r.map_err(|_| "client thread panicked".to_string())?;
        out.absorb(client);
        setup.conns.push(tc);
    }
    out.peak_rss_mb = socket_shutdown(setup)?;
    Ok(out)
}
