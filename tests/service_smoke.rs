//! Smoke test for `catmark serve`: spawns the real binary, speaks the
//! framed JSON protocol over stdio and over a Unix socket, round-trips
//! embed → decode → fingerprint → trace for two isolated tenants, and
//! shuts the daemon down cleanly.
//!
//! The CI workflow runs the whole test suite twice — once with the
//! runtime-selected SHA-256 backend and once with
//! `CATMARK_SHA_BACKEND=soft` — and the spawned daemon inherits the
//! environment, so this smoke test covers both backends for free.

use std::process::{Child, Command, Stdio};

use catmark::core::keyfile::TenantKeyRegistry;
use catmark::prelude::*;
use catmark::service::json::{self, Json};
use catmark::service::{read_frame, write_frame};

fn sample() -> (Relation, CategoricalDomain) {
    let gen = SalesGenerator::new(ItemScanConfig { tuples: 800, items: 100, ..Default::default() });
    (gen.generate(), gen.item_domain())
}

fn spec_for(master: &str, domain: CategoricalDomain) -> WatermarkSpec {
    WatermarkSpec::builder(domain)
        .master_key(master)
        .e(4)
        .wm_len(8)
        .wm_data_len(64)
        .erasure(ErasurePolicy::Abstain)
        .build()
        .unwrap()
}

/// Write one-key registries for tenants `acme` and `globex`, return
/// their paths.
fn write_registries(dir: &std::path::Path, domain: &CategoricalDomain) -> (String, String) {
    let mut acme = TenantKeyRegistry::new("acme").unwrap();
    acme.insert("production", spec_for("acme-secret", domain.clone())).unwrap();
    let mut globex = TenantKeyRegistry::new("globex").unwrap();
    globex.insert("production", spec_for("globex-secret", domain.clone())).unwrap();
    let acme_path = dir.join("acme.reg");
    let globex_path = dir.join("globex.reg");
    std::fs::write(&acme_path, acme.to_registry_file()).unwrap();
    std::fs::write(&globex_path, globex.to_registry_file()).unwrap();
    (acme_path.to_str().unwrap().to_owned(), globex_path.to_str().unwrap().to_owned())
}

fn csv_of(rel: &Relation) -> String {
    let mut buf = Vec::new();
    catmark::relation::csv::write_csv(rel, &mut buf).unwrap();
    String::from_utf8(buf).unwrap()
}

/// A stdio client around a spawned `catmark serve` daemon.
struct Daemon {
    child: Child,
}

impl Daemon {
    fn spawn(args: &[&str]) -> Daemon {
        let child = Command::new(env!("CARGO_BIN_EXE_catmark"))
            .arg("serve")
            .args(args)
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .stderr(Stdio::inherit())
            .spawn()
            .expect("spawn catmark serve");
        Daemon { child }
    }

    fn request(&mut self, text: &str) -> Json {
        let stdin = self.child.stdin.as_mut().expect("daemon stdin");
        write_frame(stdin, text.as_bytes()).unwrap();
        let stdout = self.child.stdout.as_mut().expect("daemon stdout");
        let frame = read_frame(stdout).unwrap().expect("daemon closed mid-conversation");
        json::parse(std::str::from_utf8(&frame).unwrap()).unwrap()
    }

    fn shutdown(mut self) {
        let resp = self.request(r#"{"op":"shutdown"}"#);
        assert_eq!(resp.get("ok").and_then(Json::as_bool), Some(true), "{resp:?}");
        let status = self.child.wait().unwrap();
        assert!(status.success(), "daemon exit: {status:?}");
    }
}

fn assert_ok(resp: &Json) {
    assert_eq!(resp.get("ok").and_then(Json::as_bool), Some(true), "{resp:?}");
}

fn field<'a>(resp: &'a Json, name: &str) -> &'a str {
    resp.get(name).and_then(Json::as_str).unwrap_or_else(|| panic!("no {name:?} in {resp:?}"))
}

#[test]
fn stdio_daemon_round_trips_two_isolated_tenants() {
    let dir = std::env::temp_dir().join(format!("catmark-serve-smoke-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let (rel, domain) = sample();
    let (acme_reg, globex_reg) = write_registries(&dir, &domain);
    let data = csv_of(&rel);

    let mut daemon = Daemon::spawn(&["--registries", &format!("{acme_reg},{globex_reg}")]);

    // Bind tenant acme; its key inventory comes back.
    let resp = daemon.request(r#"{"op":"hello","tenant":"acme"}"#);
    assert_ok(&resp);
    let keys: Vec<&str> =
        resp.get("keys").unwrap().as_array().unwrap().iter().filter_map(Json::as_str).collect();
    assert_eq!(keys, ["production"]);

    // Embed a mark, decode it back out of the returned CSV.
    let embed = Json::obj(vec![
        ("op", Json::Str("embed".into())),
        ("key", Json::Str("production".into())),
        ("key_attr", Json::Str("visit_nbr".into())),
        ("attr", Json::Str("item_nbr".into())),
        ("mark", Json::Str("10110011".into())),
        ("csv", Json::Str(data.clone())),
    ]);
    let resp = daemon.request(&embed.to_text());
    assert_ok(&resp);
    assert!(resp.get("fit").and_then(Json::as_u64).unwrap() > 0, "{resp:?}");
    let marked = field(&resp, "csv").to_owned();

    let decode = Json::obj(vec![
        ("op", Json::Str("decode".into())),
        ("key", Json::Str("production".into())),
        ("key_attr", Json::Str("visit_nbr".into())),
        ("attr", Json::Str("item_nbr".into())),
        ("claim", Json::Str("10110011".into())),
        ("csv", Json::Str(marked)),
    ]);
    let resp = daemon.request(&decode.to_text());
    assert_ok(&resp);
    assert_eq!(field(&resp, "mark"), "10110011");
    assert_eq!(resp.get("matched_bits").and_then(Json::as_u64), Some(8));

    // Fingerprint a copy for a buyer, then trace the "leak" back.
    let copy = Json::obj(vec![
        ("op", Json::Str("mark_copy".into())),
        ("key", Json::Str("production".into())),
        ("key_attr", Json::Str("visit_nbr".into())),
        ("attr", Json::Str("item_nbr".into())),
        ("buyer", Json::Str("leaker".into())),
        ("csv", Json::Str(data.clone())),
    ]);
    let resp = daemon.request(&copy.to_text());
    assert_ok(&resp);
    let leaked = field(&resp, "csv").to_owned();

    let trace = Json::obj(vec![
        ("op", Json::Str("trace".into())),
        ("key", Json::Str("production".into())),
        ("key_attr", Json::Str("visit_nbr".into())),
        ("attr", Json::Str("item_nbr".into())),
        (
            "buyers",
            Json::Arr(vec![
                Json::Str("honest-a".into()),
                Json::Str("leaker".into()),
                Json::Str("honest-b".into()),
            ]),
        ),
        ("csv", Json::Str(leaked)),
    ]);
    let resp = daemon.request(&trace.to_text());
    assert_ok(&resp);
    let results = resp.get("results").unwrap().as_array().unwrap();
    assert_eq!(results.len(), 3);
    assert_eq!(results[0].get("buyer").and_then(Json::as_str), Some("leaker"), "{resp:?}");

    // Cross-tenant: bound as acme, naming globex's registry is
    // refused by the registry itself.
    let cross = Json::obj(vec![
        ("op", Json::Str("embed".into())),
        ("tenant", Json::Str("globex".into())),
        ("key", Json::Str("production".into())),
        ("key_attr", Json::Str("visit_nbr".into())),
        ("attr", Json::Str("item_nbr".into())),
        ("mark", Json::Str("10110011".into())),
        ("csv", Json::Str(data.clone())),
    ]);
    let resp = daemon.request(&cross.to_text());
    assert_eq!(resp.get("ok").and_then(Json::as_bool), Some(false), "{resp:?}");
    assert!(field(&resp, "error").contains("tenant isolation"), "{resp:?}");

    // The other tenant works on its own connection — and its key
    // material decodes nothing from acme's marked data (different
    // derived keys), which is the point of per-tenant keys.
    daemon.shutdown();
    let mut globex = Daemon::spawn(&["--registries", &format!("{acme_reg},{globex_reg}")]);
    let resp = globex.request(r#"{"op":"hello","tenant":"globex"}"#);
    assert_ok(&resp);
    globex.shutdown();

    std::fs::remove_dir_all(&dir).ok();
}

#[cfg(unix)]
#[test]
fn unix_socket_daemon_serves_and_cleans_up() {
    use std::os::unix::net::UnixStream;

    let dir = std::env::temp_dir().join(format!("catmark-serve-sock-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let (rel, domain) = sample();
    let (acme_reg, globex_reg) = write_registries(&dir, &domain);
    let sock = dir.join("catmark.sock");
    let sock_str = sock.to_str().unwrap().to_owned();

    let mut child = Command::new(env!("CARGO_BIN_EXE_catmark"))
        .args(["serve", "--registries", &format!("{acme_reg},{globex_reg}"), "--socket", &sock_str])
        .stdin(Stdio::null())
        .stdout(Stdio::null())
        .stderr(Stdio::inherit())
        .spawn()
        .unwrap();

    // Wait for the socket to appear.
    for _ in 0..200 {
        if sock.exists() {
            break;
        }
        std::thread::sleep(std::time::Duration::from_millis(25));
    }
    assert!(sock.exists(), "daemon never bound {sock_str}");

    let mut stream = UnixStream::connect(&sock).unwrap();
    let mut request = |text: String| -> Json {
        write_frame(&mut stream, text.as_bytes()).unwrap();
        let frame = read_frame(&mut stream).unwrap().expect("daemon reply");
        json::parse(std::str::from_utf8(&frame).unwrap()).unwrap()
    };

    let resp = request(r#"{"op":"hello","tenant":"globex"}"#.to_owned());
    assert_ok(&resp);

    let embed = Json::obj(vec![
        ("op", Json::Str("embed".into())),
        ("key", Json::Str("production".into())),
        ("key_attr", Json::Str("visit_nbr".into())),
        ("attr", Json::Str("item_nbr".into())),
        ("mark", Json::Str("11010010".into())),
        ("csv", Json::Str(csv_of(&rel))),
    ]);
    let resp = request(embed.to_text());
    assert_ok(&resp);
    let marked = field(&resp, "csv").to_owned();

    let decode = Json::obj(vec![
        ("op", Json::Str("decode".into())),
        ("key", Json::Str("production".into())),
        ("key_attr", Json::Str("visit_nbr".into())),
        ("attr", Json::Str("item_nbr".into())),
        ("csv", Json::Str(marked)),
    ]);
    let resp = request(decode.to_text());
    assert_ok(&resp);
    assert_eq!(field(&resp, "mark"), "11010010");

    let resp = request(r#"{"op":"shutdown"}"#.to_owned());
    assert_ok(&resp);
    drop(stream);

    let status = child.wait().unwrap();
    assert!(status.success(), "daemon exit: {status:?}");
    assert!(!sock.exists(), "socket file must be removed on clean shutdown");

    std::fs::remove_dir_all(&dir).ok();
}

/// Two tenants on two *simultaneously open* socket connections, frames
/// interleaved request-by-request — the worker pool must serve both
/// without one connection blocking the other's accept (a sequential
/// accept loop deadlocks here). Also exercises the delta-distribution
/// wire ops end to end: `mark_delta` on one connection, `apply_delta`
/// of its blob rebuilding the exact `mark_copy` bytes.
#[cfg(unix)]
#[test]
fn worker_pool_serves_two_concurrent_tenants_with_interleaved_frames() {
    use std::os::unix::net::UnixStream;

    let dir = std::env::temp_dir().join(format!("catmark-serve-pool-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let (rel, domain) = sample();
    let (acme_reg, globex_reg) = write_registries(&dir, &domain);
    let data = csv_of(&rel);
    let sock = dir.join("catmark-pool.sock");
    let sock_str = sock.to_str().unwrap().to_owned();

    let mut child = Command::new(env!("CARGO_BIN_EXE_catmark"))
        .args([
            "serve",
            "--registries",
            &format!("{acme_reg},{globex_reg}"),
            "--socket",
            &sock_str,
            "--workers",
            "2",
        ])
        .stdin(Stdio::null())
        .stdout(Stdio::null())
        .stderr(Stdio::inherit())
        .spawn()
        .unwrap();

    for _ in 0..200 {
        if sock.exists() {
            break;
        }
        std::thread::sleep(std::time::Duration::from_millis(25));
    }
    assert!(sock.exists(), "daemon never bound {sock_str}");

    // Both connections open before either says a word.
    let mut acme = UnixStream::connect(&sock).unwrap();
    let mut globex = UnixStream::connect(&sock).unwrap();
    fn ask(stream: &mut UnixStream, text: &str) -> Json {
        write_frame(stream, text.as_bytes()).unwrap();
        let frame = read_frame(stream).unwrap().expect("daemon reply");
        json::parse(std::str::from_utf8(&frame).unwrap()).unwrap()
    }

    // Interleave: hello on both, then alternate work.
    assert_ok(&ask(&mut acme, r#"{"op":"hello","tenant":"acme"}"#));
    assert_ok(&ask(&mut globex, r#"{"op":"hello","tenant":"globex"}"#));

    let op_str = |name: &str| ("op", Json::Str(name.into()));
    let coords = |extra: Vec<(&'static str, Json)>| {
        let mut fields = vec![
            ("key", Json::Str("production".into())),
            ("key_attr", Json::Str("visit_nbr".into())),
            ("attr", Json::Str("item_nbr".into())),
        ];
        fields.extend(extra);
        fields
    };

    // acme: the reference full copy for a buyer.
    let mut copy_fields = vec![op_str("mark_copy")];
    copy_fields.extend(coords(vec![
        ("buyer", Json::Str("leaker".into())),
        ("csv", Json::Str(data.clone())),
    ]));
    let copy = ask(&mut acme, &Json::obj(copy_fields).to_text());
    assert_ok(&copy);

    // globex: unrelated traffic between acme's requests.
    let mut embed_fields = vec![op_str("embed")];
    embed_fields.extend(coords(vec![
        ("mark", Json::Str("11010010".into())),
        ("csv", Json::Str(data.clone())),
    ]));
    assert_ok(&ask(&mut globex, &Json::obj(embed_fields).to_text()));

    // acme: the same buyer as a delta.
    let mut delta_fields = vec![op_str("mark_delta")];
    delta_fields.extend(coords(vec![
        ("buyer", Json::Str("leaker".into())),
        ("csv", Json::Str(data.clone())),
    ]));
    let delta = ask(&mut acme, &Json::obj(delta_fields).to_text());
    assert_ok(&delta);
    assert_eq!(delta.get("fit"), copy.get("fit"), "{delta:?}");
    let blob = field(&delta, "delta").to_owned();
    assert!(
        blob.len() / 2 < data.len(),
        "delta blob ({} bytes) must undercut the CSV ({} bytes)",
        blob.len() / 2,
        data.len()
    );

    // globex: isolation still enforced through the shared pool state.
    let mut cross_fields = vec![op_str("embed"), ("tenant", Json::Str("acme".into()))];
    cross_fields.extend(coords(vec![
        ("mark", Json::Str("11010010".into())),
        ("csv", Json::Str(data.clone())),
    ]));
    let resp = ask(&mut globex, &Json::obj(cross_fields).to_text());
    assert_eq!(resp.get("ok").and_then(Json::as_bool), Some(false), "{resp:?}");
    assert!(field(&resp, "error").contains("tenant isolation"), "{resp:?}");

    // acme: applying the delta rebuilds the mark_copy bytes exactly.
    let apply = Json::obj(vec![
        op_str("apply_delta"),
        ("attr", Json::Str("item_nbr".into())),
        ("delta", Json::Str(blob)),
        ("csv", Json::Str(data.clone())),
    ]);
    let rebuilt = ask(&mut acme, &apply.to_text());
    assert_ok(&rebuilt);
    assert_eq!(field(&rebuilt, "csv"), field(&copy, "csv"), "delta must rebuild the copy");

    drop(globex);
    assert_ok(&ask(&mut acme, r#"{"op":"shutdown"}"#));
    drop(acme);

    let status = child.wait().unwrap();
    assert!(status.success(), "daemon exit: {status:?}");
    assert!(!sock.exists(), "socket file must be removed on clean shutdown");

    std::fs::remove_dir_all(&dir).ok();
}
