//! `catmark` — command-line watermarking for categorical CSV data.
//!
//! ```text
//! catmark keygen --master <secret> --domain-from data.csv --attr item_nbr \
//!                [--e 60] [--wm-len 10] [--tuples N | --wm-data-len L] > key.catmark
//! catmark embed  --key key.catmark --input data.csv --key-attr visit_nbr \
//!                --attr item_nbr --mark 1011001110 --output marked.csv
//! catmark decode --key key.catmark --input suspect.csv --key-attr visit_nbr \
//!                --attr item_nbr [--claim 1011001110]
//! catmark inspect --key key.catmark
//! catmark rules  --input data.csv --attrs dept,aisle [--min-support 0.05]
//!                [--min-confidence 0.8] [--max-len 2] [--top 20]
//! catmark serve  --registries acme.reg,globex.reg [--socket /tmp/catmark.sock]
//!                [--workers N] [--budget-bytes N]
//! catmark gc     --store pile.cmk --log versions.cmk [--keep 3,4]
//! ```
//!
//! Each command takes only the flags listed for it; any other flag is
//! a usage error. CSV schemas are inferred from the header row plus
//! type sniffing (a column is Integer when every sampled value parses
//! as `i64`).
//! The key file format is documented in `catmark::core::keyfile`.

use std::collections::HashMap;
use std::fs::File;
use std::io::{BufReader, Read, Write};
use std::process::ExitCode;

use catmark::core::keyfile::{from_key_file, to_key_file};
use catmark::core::{CoreError, BLOCK_ROWS};
use catmark::mining::apriori::{mine, AprioriConfig};
use catmark::mining::item::Transactions;
use catmark::mining::rules::RuleSet;
use catmark::prelude::*;
use catmark::relation::csv::{infer_schema, read_csv, read_csv_blocks, write_csv, write_csv_rows};
use catmark::relation::RelationError;

/// A CLI failure, split by whose fault it is: usage errors (bad
/// flags, unknown commands) exit 2, operational errors (unreadable
/// files, binding failures, embedding errors) exit 1. Nothing panics
/// on bad input.
#[derive(Debug)]
enum CliError {
    /// The invocation itself was malformed.
    Usage(String),
    /// The invocation was well-formed but the operation failed.
    Run(String),
}

impl CliError {
    fn run(e: impl std::fmt::Display) -> Self {
        CliError::Run(e.to_string())
    }

    fn message(&self) -> &str {
        match self {
            CliError::Usage(m) | CliError::Run(m) => m,
        }
    }

    fn exit_code(&self) -> ExitCode {
        match self {
            CliError::Usage(_) => ExitCode::from(2),
            CliError::Run(_) => ExitCode::FAILURE,
        }
    }
}

impl From<String> for CliError {
    fn from(m: String) -> Self {
        CliError::Run(m)
    }
}

impl From<CoreError> for CliError {
    fn from(e: CoreError) -> Self {
        CliError::run(e)
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match run(&args) {
        Ok(output) => {
            print!("{output}");
            ExitCode::SUCCESS
        }
        Err(err) => {
            eprintln!("catmark: {}", err.message());
            err.exit_code()
        }
    }
}

/// A command's implementation over its parsed flags.
type Command = fn(&HashMap<String, String>) -> Result<String, CliError>;

/// Dispatch and execute; returns what should be printed to stdout.
fn run(args: &[String]) -> Result<String, CliError> {
    let Some(command) = args.first() else {
        return Err(CliError::Usage(format!("no command given\n\n{USAGE}")));
    };
    if command == "verify-evidence" {
        // Takes a positional bundle path, not --flag pairs.
        return verify_evidence_cmd(&args[1..]);
    }
    let (handler, known): (Command, &[&str]) = match command.as_str() {
        "keygen" => (
            keygen,
            &["master", "domain-from", "attr", "e", "wm-len", "tuples", "wm-data-len", "erasure"],
        ),
        "embed" => (embed, &["key", "input", "key-attr", "attr", "mark", "output"]),
        "decode" => (decode, &["key", "input", "key-attr", "attr", "claim", "evidence"]),
        "inspect" => (inspect, &["key"]),
        "rules" => (rules, &["input", "attrs", "min-support", "min-confidence", "max-len", "top"]),
        "serve" => (serve, &["registries", "socket", "workers", "budget-bytes"]),
        "gc" => (gc, &["store", "log", "keep"]),
        "help" | "--help" | "-h" => return Ok(USAGE.to_owned()),
        other => return Err(CliError::Usage(format!("unknown command {other:?}\n\n{USAGE}"))),
    };
    handler(&parse_flags(command, &args[1..], known)?)
}

const USAGE: &str = "usage:
  catmark keygen  --master <secret> --domain-from <csv> --attr <name>
                  [--e 60] [--wm-len 10] [--tuples N | --wm-data-len L]
                  [--erasure abstain|random-fill|zero-fill]
  catmark embed   --key <file> --input <csv> --key-attr <name> --attr <name>
                  --mark <bits> --output <csv>
  catmark decode  --key <file> --input <csv> --key-attr <name> --attr <name>
                  [--claim <bits>] [--evidence <file>]
  catmark verify-evidence <bundle>
  catmark inspect --key <file>
  catmark rules   --input <csv> --attrs <a,b,…> [--min-support 0.05]
                  [--min-confidence 0.8] [--max-len 2] [--top 20]
  catmark serve   --registries <file,…> [--socket <path>] [--workers N]
                  [--budget-bytes N]
  catmark gc      --store <pile> --log <version-log> [--keep <id,…>]
";

/// Parse `--flag value` pairs for `command`, which takes only the
/// flags named in `known`.
fn parse_flags(
    command: &str,
    args: &[String],
    known: &[&str],
) -> Result<HashMap<String, String>, CliError> {
    let mut flags = HashMap::new();
    let mut iter = args.iter();
    while let Some(flag) = iter.next() {
        let name = flag
            .strip_prefix("--")
            .ok_or_else(|| CliError::Usage(format!("expected --flag, got {flag:?}")))?;
        if !known.contains(&name) {
            return Err(CliError::Usage(format!("{command} does not take --{name}\n\n{USAGE}")));
        }
        let value =
            iter.next().ok_or_else(|| CliError::Usage(format!("--{name} needs a value")))?;
        if flags.insert(name.to_owned(), value.clone()).is_some() {
            return Err(CliError::Usage(format!("--{name} given twice")));
        }
    }
    Ok(flags)
}

fn require<'a>(flags: &'a HashMap<String, String>, name: &str) -> Result<&'a str, CliError> {
    flags
        .get(name)
        .map(String::as_str)
        .ok_or_else(|| CliError::Usage(format!("missing required flag --{name}")))
}

/// Bind a [`MarkSession`] for the CLI's `(--key-attr, --attr)` pair;
/// binding failures (missing column, non-categorical target) surface
/// the relation's actual attributes via `CoreError::ColumnBinding`.
fn bind_session(
    spec: WatermarkSpec,
    rel: &Relation,
    key_attr: &str,
    target_attr: &str,
) -> Result<MarkSession, CliError> {
    MarkSession::builder(spec)
        .key_column(key_attr)
        .target_column(target_attr)
        .bind(rel)
        .map_err(CliError::run)
}

/// Parse an optional flag, falling back to `default`; malformed
/// values are usage errors (exit 2).
fn parsed_flag<T>(flags: &HashMap<String, String>, name: &str, default: T) -> Result<T, CliError>
where
    T: std::str::FromStr,
    T::Err: std::fmt::Display,
{
    flags
        .get(name)
        .map_or(Ok(default), |v| v.parse().map_err(|e| CliError::Usage(format!("--{name}: {e}"))))
}

/// Like [`parsed_flag`], but an *explicitly passed* `0` is a usage
/// error (exit 2): zero would starve the pager (`--budget-bytes`) or
/// leave the daemon with no threads (`--workers`). Omit the flag to
/// get the default instead.
fn positive_flag(
    flags: &HashMap<String, String>,
    name: &str,
    default: usize,
) -> Result<usize, CliError> {
    let value: usize = parsed_flag(flags, name, default)?;
    if value == 0 && flags.contains_key(name) {
        return Err(CliError::Usage(format!(
            "--{name} must be greater than zero (omit the flag for the default)"
        )));
    }
    Ok(value)
}

// ---------------------------------------------------------------- keygen

fn keygen(flags: &HashMap<String, String>) -> Result<String, CliError> {
    let master = require(flags, "master")?;
    let csv_path = require(flags, "domain-from")?;
    let attr = require(flags, "attr")?;
    let e: u64 = parsed_flag(flags, "e", 60)?;
    let wm_len: usize = parsed_flag(flags, "wm-len", 10)?;
    let erasure = match flags.get("erasure").map(String::as_str) {
        None | Some("random-fill") => ErasurePolicy::RandomFill,
        Some("abstain") => ErasurePolicy::Abstain,
        Some("zero-fill") => ErasurePolicy::ZeroFill,
        Some(other) => return Err(CliError::Usage(format!("unknown erasure policy {other:?}"))),
    };
    let rel = load_csv(csv_path, attr)?;
    let attr_idx = rel.schema().index_of(attr).map_err(CliError::run)?;
    let domain = CategoricalDomain::from_column(&rel, attr_idx).map_err(CliError::run)?;
    let mut builder =
        WatermarkSpec::builder(domain).master_key(master).e(e).wm_len(wm_len).erasure(erasure);
    builder = match (flags.get("wm-data-len"), flags.get("tuples")) {
        (Some(l), _) => builder
            .wm_data_len(l.parse().map_err(|e| CliError::Usage(format!("--wm-data-len: {e}")))?),
        (None, Some(n)) => builder
            .expected_tuples(n.parse().map_err(|e| CliError::Usage(format!("--tuples: {e}")))?),
        (None, None) => builder.expected_tuples(rel.len()),
    };
    let spec = builder.build().map_err(CliError::run)?;
    Ok(to_key_file(&spec))
}

// ----------------------------------------------------------------- embed

fn embed(flags: &HashMap<String, String>) -> Result<String, CliError> {
    let spec = load_key(require(flags, "key")?)?;
    let key_attr = require(flags, "key-attr")?;
    let attr = require(flags, "attr")?;
    let mark = Watermark::parse(require(flags, "mark")?, spec.wm_len)
        .map_err(|e| CliError::Usage(format!("--mark: {e}")))?;
    let csv = CsvInput::open(require(flags, "input")?, &[attr])?;
    let session = bind_session(spec, &Relation::new(csv.schema.clone()), key_attr, attr)?;
    // Workers mark and format the blocks; the first carries the header.
    let mut blocks = Vec::new();
    let report = session.embed_blocks(
        &mark,
        |push| csv.blocks(push),
        |index, block| {
            let mut rows = Vec::new();
            let written = if index == 0 {
                write_csv(block, &mut rows)
            } else {
                write_csv_rows(block, &mut rows)
            };
            written.map(|()| rows)
        },
        |rows| blocks.push(rows),
    )?;
    // Created only once the whole input has read: a CSV error leaves no
    // file behind, and --output may name --input.
    let output_path = require(flags, "output")?;
    let mut out =
        File::create(output_path).map_err(|e| CliError::Run(format!("{output_path}: {e}")))?;
    for rows in blocks {
        out.write_all(&rows.map_err(CliError::run)?)
            .map_err(|e| CliError::run(RelationError::Csv(e.to_string())))?;
    }
    Ok(format!(
        "embedded {} into {}: {} tuples, {} fit, {} altered ({:.2}%)\n",
        mark,
        output_path,
        report.total_tuples,
        report.fit_tuples,
        report.altered,
        report.alteration_rate() * 100.0
    ))
}

// ---------------------------------------------------------------- decode

fn decode(flags: &HashMap<String, String>) -> Result<String, CliError> {
    let spec = load_key(require(flags, "key")?)?;
    let key_attr = require(flags, "key-attr")?;
    let attr = require(flags, "attr")?;
    let csv = CsvInput::open(require(flags, "input")?, &[attr])?;
    let claimed = flags
        .get("claim")
        .map(|c| Watermark::parse(c, spec.wm_len))
        .transpose()
        .map_err(|e| CliError::Usage(format!("--claim: {e}")))?;
    let session = bind_session(spec, &Relation::new(csv.schema.clone()), key_attr, attr)?;
    // With --evidence the certified driver runs instead: the same
    // tallies and outcome, plus the serialized bundle.
    let evidence_path = flags.get("evidence");
    let (report, bundle) = match evidence_path {
        Some(_) => {
            let c = session.decode_blocks_certified(claimed.as_ref(), |push| csv.blocks(push))?;
            (c.outcome, Some(c.bundle))
        }
        None => (session.decode_blocks(|push| csv.blocks(push))?, None),
    };
    // Weigh the decode against the claim: pure arithmetic, no second
    // decode pass.
    let detection = claimed.map(|claimed| detect(&report.watermark, &claimed));
    let mut out = format!(
        "decoded mark     {}\nfit tuples       {}\nvotes cast       {}\nforeign values   {}\npositions        {} observed / {} erased / {} conflicting\n",
        report.watermark,
        report.fit_tuples,
        report.votes_cast,
        report.foreign_values,
        report.positions_observed,
        report.positions_erased,
        report.position_conflicts,
    );
    if let Some(verdict) = detection {
        out.push_str(&format!(
            "claim match      {}/{} bits\nfalse positive   {:.3e}\nverdict          {}\n",
            verdict.matched_bits,
            verdict.total_bits,
            verdict.false_positive_probability,
            if verdict.is_significant(1e-2) { "SIGNIFICANT (alpha 1%)" } else { "not significant" },
        ));
    }
    if let (Some(path), Some(bundle)) = (evidence_path, bundle) {
        std::fs::write(path, &bundle).map_err(|e| CliError::Run(format!("{path}: {e}")))?;
        out.push_str(&format!("evidence         {} bytes -> {path}\n", bundle.len()));
    }
    Ok(out)
}

// ------------------------------------------------------- verify-evidence

/// Independently check a serialized `CMKEVD1` evidence bundle — no
/// key file, no relation. Malformed or tampered bundles exit 1 with
/// the first failed check named; verified bundles print the facts
/// they pin.
fn verify_evidence_cmd(args: &[String]) -> Result<String, CliError> {
    let path = match args {
        [single] if !single.starts_with("--") => single.clone(),
        _ => require(&parse_flags("verify-evidence", args, &["bundle"])?, "bundle")?.to_owned(),
    };
    let bytes = std::fs::read(&path).map_err(|e| CliError::Run(format!("{path}: {e}")))?;
    let summary = catmark::core::evidence::verify_evidence(&bytes).map_err(CliError::run)?;
    Ok(format!("{path}: evidence bundle VERIFIED\n{summary}\n"))
}

// --------------------------------------------------------------- inspect

fn inspect(flags: &HashMap<String, String>) -> Result<String, CliError> {
    let spec = load_key(require(flags, "key")?)?;
    Ok(format!(
        "algorithm    {}\ne            {} (≈{:.2}% of tuples altered)\nwm_len       {}\nwm_data_len  {} ({}x redundancy)\nerasure      {:?}\ndomain       {} values ({} bits)\n",
        spec.algo,
        spec.e,
        100.0 / spec.e as f64,
        spec.wm_len,
        spec.wm_data_len,
        spec.wm_data_len / spec.wm_len.max(1),
        spec.erasure,
        spec.domain.len(),
        spec.domain.index_bits(),
    ))
}

// ----------------------------------------------------------------- rules

/// Mine association rules from a CSV — the "know your semantics before
/// you watermark them" companion of `embed` (pipe the strong rules into
/// a constraint program or the `catmark-mining` guards).
fn rules(flags: &HashMap<String, String>) -> Result<String, CliError> {
    let input = require(flags, "input")?;
    let attrs_flag = require(flags, "attrs")?;
    let attrs: Vec<&str> = attrs_flag.split(',').map(str::trim).filter(|s| !s.is_empty()).collect();
    if attrs.is_empty() {
        return Err(CliError::Usage("--attrs needs at least one attribute name".into()));
    }
    let min_support: f64 = parsed_flag(flags, "min-support", 0.05)?;
    let min_confidence: f64 = parsed_flag(flags, "min-confidence", 0.8)?;
    let max_len: usize = parsed_flag(flags, "max-len", 2)?;
    let top: usize = parsed_flag(flags, "top", 20)?;
    if !(0.0..=1.0).contains(&min_support) || !(0.0..=1.0).contains(&min_confidence) {
        return Err(CliError::Usage(
            "--min-support and --min-confidence are fractions in 0..=1".into(),
        ));
    }

    let rel = load_csv_multi(input, &attrs)?;
    let tx = Transactions::from_relation(&rel, &attrs).map_err(CliError::run)?;
    let frequent = mine(&tx, &AprioriConfig { min_support, max_len });
    let ruleset = RuleSet::derive(&frequent, min_confidence);

    let name_of = |attr_idx: usize| rel.schema().attr(attr_idx).name.clone();
    let fmt_value = |v: &Value| match v {
        Value::Int(i) => i.to_string(),
        Value::Text(s) => format!("{s:?}"),
    };
    let mut out = format!(
        "{} transactions, {} frequent itemsets (support ≥ {:.1}%), {} rules (confidence ≥ {:.1}%)\n",
        tx.len(),
        frequent.len(),
        min_support * 100.0,
        ruleset.len(),
        min_confidence * 100.0
    );
    for r in ruleset.rules().iter().take(top) {
        let lhs: Vec<String> = r
            .antecedent
            .items()
            .iter()
            .map(|it| format!("{}={}", name_of(it.attr), fmt_value(&it.value)))
            .collect();
        out.push_str(&format!(
            "{} => {}={}  sup {:.3}  conf {:.3}  lift {:.2}\n",
            lhs.join(" & "),
            name_of(r.consequent.attr),
            fmt_value(&r.consequent.value),
            r.support,
            r.confidence,
            r.lift
        ));
    }
    if ruleset.len() > top {
        out.push_str(&format!("… and {} more (raise --top)\n", ruleset.len() - top));
    }
    Ok(out)
}

// ----------------------------------------------------------------- serve

/// Run the multi-tenant watermarking daemon. Each `--registries`
/// entry is a tenant key-registry file (see
/// `catmark::core::keyfile::TenantKeyRegistry`); with `--socket` the
/// daemon listens on a Unix socket, otherwise it serves one framed
/// JSON connection over stdin/stdout. The wire protocol is documented
/// in `docs/SERVICE.md`.
fn serve(flags: &HashMap<String, String>) -> Result<String, CliError> {
    use catmark::core::keyfile::TenantKeyRegistry;
    use catmark::service::{Service, ServiceConfig};

    let registries_flag = require(flags, "registries")?;
    let paths: Vec<&str> =
        registries_flag.split(',').map(str::trim).filter(|s| !s.is_empty()).collect();
    if paths.is_empty() {
        return Err(CliError::Usage("--registries needs at least one file".into()));
    }
    let budget_bytes: usize = positive_flag(flags, "budget-bytes", 64 << 20)?;
    let workers: usize = positive_flag(flags, "workers", catmark::service::default_workers())?;
    let mut service = Service::new(ServiceConfig { budget_bytes });
    for path in paths {
        let mut text = String::new();
        File::open(path)
            .map_err(|e| format!("{path}: {e}"))?
            .read_to_string(&mut text)
            .map_err(|e| format!("{path}: {e}"))?;
        let registry = TenantKeyRegistry::from_registry_file(&text)
            .map_err(|e| CliError::Run(format!("{path}: {e}")))?;
        let tenant = registry.tenant().to_string();
        service
            .add_registry(registry)
            .map_err(|e| CliError::Run(format!("{path} (tenant {tenant:?}): {e}")))?;
    }
    match flags.get("socket") {
        Some(path) => {
            eprintln!(
                "catmark serve: listening on {path} ({} tenants, {workers} workers)",
                service.tenants().len()
            );
            catmark::service::serve_unix_pool(service, std::path::Path::new(path), workers)
                .map_err(|e| CliError::Run(format!("{path}: {e}")))?;
        }
        None => {
            catmark::service::serve_stdio(service).map_err(CliError::run)?;
        }
    }
    Ok(String::new())
}

// -------------------------------------------------------------------- gc

/// Garbage-collect a content-addressed segment pile: rewrite it
/// keeping only the blobs referenced by live version manifests. With
/// `--keep` only the named version ids stay openable (their blobs are
/// retained, including every blob shared with dropped ancestors);
/// without it every version in the log is treated as live, so gc only
/// reclaims blobs orphaned by dirty-segment rewrites. The log file
/// itself is untouched — manifests reference content *hashes*, which
/// survive the rewrite.
fn gc(flags: &HashMap<String, String>) -> Result<String, CliError> {
    use catmark::relation::{ContentStore, VersionLog, VersionManifest};

    let store_path = require(flags, "store")?;
    let log_path = require(flags, "log")?;
    let bytes = std::fs::read(log_path).map_err(|e| format!("{log_path}: {e}"))?;
    let log = VersionLog::decode(&bytes).map_err(|e| CliError::Run(format!("{log_path}: {e}")))?;
    let live: Vec<&VersionManifest> = match flags.get("keep") {
        None => log.manifests().iter().collect(),
        Some(ids) => ids
            .split(',')
            .map(str::trim)
            .filter(|s| !s.is_empty())
            .map(|id| {
                let id: u64 =
                    id.parse().map_err(|e| CliError::Usage(format!("--keep: {id:?}: {e}")))?;
                log.get(id).ok_or_else(|| {
                    CliError::Usage(format!("--keep: version {id} is not in {log_path}"))
                })
            })
            .collect::<Result<_, _>>()?,
    };
    if live.is_empty() {
        return Err(CliError::Usage("--keep names no versions; nothing would survive".into()));
    }
    let store = ContentStore::open_file(store_path)
        .map_err(|e| CliError::Run(format!("{store_path}: {e}")))?;
    let tmp = format!("{store_path}.gc-tmp");
    let dest = ContentStore::create_file(&tmp).map_err(|e| CliError::Run(format!("{tmp}: {e}")))?;
    let stats = store.gc_into(live.iter().copied(), &dest).map_err(|e| {
        std::fs::remove_file(&tmp).ok();
        CliError::Run(e.to_string())
    })?;
    drop(dest);
    drop(store);
    std::fs::rename(&tmp, store_path).map_err(|e| CliError::Run(format!("{store_path}: {e}")))?;
    Ok(format!(
        "gc {store_path}: kept {} blobs ({} bytes) across {} live versions, dropped {}\n",
        stats.live_blobs,
        stats.live_bytes,
        live.len(),
        stats.dropped_blobs,
    ))
}

// ----------------------------------------------------------- shared bits

fn load_key(path: &str) -> Result<WatermarkSpec, CliError> {
    let mut text = String::new();
    File::open(path)
        .map_err(|e| format!("{path}: {e}"))?
        .read_to_string(&mut text)
        .map_err(|e| format!("{path}: {e}"))?;
    from_key_file(&text).map_err(CliError::run)
}

/// Load a CSV with schema inference: the header names the attributes;
/// a column is Integer when every sampled value parses as `i64`. The
/// first column is the primary key; `marked_attr` is flagged
/// categorical.
fn load_csv(path: &str, marked_attr: &str) -> Result<Relation, CliError> {
    load_csv_multi(path, &[marked_attr])
}

/// [`load_csv`] with several categorical attributes (the `rules`
/// subcommand mines more than one).
fn load_csv_multi(path: &str, cat_attrs: &[&str]) -> Result<Relation, CliError> {
    CsvInput::open(path, cat_attrs)?.read()
}

/// A CSV file whose schema is inferred, open at its first byte; its
/// CSV errors name the file.
struct CsvInput<'a> {
    path: &'a str,
    schema: Schema,
    reader: BufReader<File>,
}

impl<'a> CsvInput<'a> {
    /// The reader's buffer: a few dozen records straddle its edges on a
    /// 2 MB file.
    const BUFFER: usize = 64 * 1024;

    /// Infer `path`'s schema with `cat_attrs` categorical, and re-open
    /// it, since inference consumed the stream.
    fn open(path: &'a str, cat_attrs: &[&str]) -> Result<Self, CliError> {
        let open = || File::open(path).map_err(|e| format!("{path}: {e}"));
        let schema = infer_schema(&mut BufReader::new(open()?), cat_attrs)
            .map_err(|e| format!("{path}: {e}"))?;
        Ok(CsvInput { path, schema, reader: BufReader::with_capacity(Self::BUFFER, open()?) })
    }

    /// The whole relation.
    fn read(self) -> Result<Relation, CliError> {
        let CsvInput { path, schema, mut reader } = self;
        read_csv(schema, &mut reader).map_err(|e| CliError::Run(format!("{path}: {e}")))
    }

    /// The rows, handed to `push` in blocks of [`BLOCK_ROWS`].
    fn blocks(self, push: &mut dyn FnMut(Relation)) -> Result<(), CliError> {
        let CsvInput { path, schema, mut reader } = self;
        read_csv_blocks(schema, &mut reader, BLOCK_ROWS, push)
            .map_err(|e| CliError::Run(format!("{path}: {e}")))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn flag_parsing() {
        let known = ["key", "attr", "lonely", "a"];
        let parse = |args: &[&str]| {
            let args: Vec<String> = args.iter().map(|s| (*s).to_string()).collect();
            parse_flags("test", &args, &known)
        };
        let flags = parse(&["--key", "k.txt", "--attr", "item"]).unwrap();
        assert_eq!(flags["key"], "k.txt");
        assert_eq!(flags["attr"], "item");
        assert!(parse(&["--lonely"]).is_err());
        assert!(parse(&["naked", "v"]).is_err());
        assert!(parse(&["--a", "1", "--a", "2"]).is_err());
        assert!(matches!(parse(&["--other", "1"]), Err(CliError::Usage(_))));
    }

    #[test]
    fn misspelled_flags_are_usage_errors() {
        // Rejected before any file is read: the paths need not exist.
        let args: Vec<String> = [
            "decode",
            "--key",
            "k.catmark",
            "--input",
            "marked.csv",
            "--key-attr",
            "visit_nbr",
            "--attr",
            "item_nbr",
            "--claim",
            "1011001110",
            "--evidnce",
            "run.evd",
        ]
        .iter()
        .map(|s| (*s).to_string())
        .collect();
        let err = run(&args).unwrap_err();
        assert!(matches!(&err, CliError::Usage(msg) if msg.contains("--evidnce")), "{err:?}");
        assert_eq!(err.exit_code(), ExitCode::from(2));
        // Serve validates its flags the same way: a truncated
        // --budget-bytes is not silently dropped.
        let args: Vec<String> = ["serve", "--registries", "acme.reg", "--budget", "1024"]
            .iter()
            .map(|s| (*s).to_string())
            .collect();
        let err = run(&args).unwrap_err();
        let expected = "serve does not take --budget\n";
        assert!(matches!(&err, CliError::Usage(msg) if msg.starts_with(expected)), "{err:?}");
    }

    #[test]
    fn serve_rejects_zero_budget_bytes_with_a_usage_error() {
        let args: Vec<String> = ["serve", "--registries", "acme.reg", "--budget-bytes", "0"]
            .iter()
            .map(|s| (*s).to_string())
            .collect();
        let err = run(&args).unwrap_err();
        assert!(matches!(&err, CliError::Usage(msg) if msg.contains("--budget-bytes")), "{err:?}");
    }

    #[test]
    fn serve_rejects_zero_workers_but_defaults_stay_available() {
        let args: Vec<String> = ["serve", "--registries", "acme.reg", "--workers", "0"]
            .iter()
            .map(|s| (*s).to_string())
            .collect();
        let err = run(&args).unwrap_err();
        assert!(matches!(&err, CliError::Usage(msg) if msg.contains("--workers")), "{err:?}");
        // Omitting the flags entirely is not a usage error: the run
        // proceeds past flag validation and fails later on the
        // (nonexistent) registry file with a *run* error instead.
        let args: Vec<String> = ["serve", "--registries", "/nonexistent/acme.reg"]
            .iter()
            .map(|s| (*s).to_string())
            .collect();
        let err = run(&args).unwrap_err();
        assert!(matches!(&err, CliError::Run(_)), "{err:?}");
    }

    #[test]
    fn mark_parsing() {
        // A 100-bit mark embeds and decodes as bits and as hex; a bad
        // mark is a usage error.
        use catmark::datagen::{ItemScanConfig, SalesGenerator};
        let dir = std::env::temp_dir().join(format!("catmark-mark-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = |name: &str| dir.join(name).to_str().unwrap().to_owned();
        let rel =
            SalesGenerator::new(ItemScanConfig { tuples: 6_000, ..Default::default() }).generate();
        catmark::relation::csv::write_csv(&rel, &mut File::create(path("data.csv")).unwrap())
            .unwrap();
        let run_args =
            |args: &[&str]| run(&args.iter().map(|s| (*s).to_owned()).collect::<Vec<_>>());
        let key = run_args(&[
            "keygen",
            "--master",
            "wide-secret",
            "--domain-from",
            &path("data.csv"),
            "--attr",
            "item_nbr",
            "--e",
            "5",
            "--wm-len",
            "100",
            "--wm-data-len",
            "300",
        ])
        .unwrap();
        std::fs::write(path("key.catmark"), key).unwrap();
        let embed = |mark: &str| {
            run_args(&[
                "embed",
                "--key",
                &path("key.catmark"),
                "--input",
                &path("data.csv"),
                "--key-attr",
                "visit_nbr",
                "--attr",
                "item_nbr",
                "--mark",
                mark,
                "--output",
                &path("marked.csv"),
            ])
        };
        let decode = |claim: &str| {
            run_args(&[
                "decode",
                "--key",
                &path("key.catmark"),
                "--input",
                &path("marked.csv"),
                "--key-attr",
                "visit_nbr",
                "--attr",
                "item_nbr",
                "--claim",
                claim,
            ])
        };
        let bits = "1011".repeat(25);
        let hex = format!("0x{}", "b".repeat(25));
        for (mark, claim) in [(&bits, &hex), (&hex, &bits)] {
            assert!(embed(mark).unwrap().starts_with(&format!("embedded {bits} into")));
            let verdict = decode(claim).unwrap();
            assert!(verdict.contains(&format!("decoded mark     {bits}\n")), "{verdict}");
            assert!(verdict.contains("100/100"), "{verdict}");
        }
        for bad in ["abc", "101", &format!("0x1{}", "0".repeat(25))] {
            let err = embed(bad).unwrap_err();
            assert_eq!(err.exit_code(), ExitCode::from(2), "{err:?}");
            assert!(err.message().starts_with("--mark: "), "{err:?}");
            assert!(matches!(decode(bad), Err(CliError::Usage(m)) if m.starts_with("--claim: ")));
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn rules_subcommand_mines_from_csv() {
        let dir = std::env::temp_dir().join(format!("catmark-rules-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let data_path = dir.join("retail.csv");
        let mut csv = String::from("sku,dept,aisle\n");
        for i in 0..400i64 {
            let dept = i % 4;
            let aisle = if i % 10 == 9 { 99 } else { dept * 10 };
            csv.push_str(&format!("{i},{dept},{aisle}\n"));
        }
        std::fs::write(&data_path, csv).unwrap();

        let arg = |s: &str| s.to_owned();
        let out = run(&[
            arg("rules"),
            arg("--input"),
            arg(data_path.to_str().unwrap()),
            arg("--attrs"),
            arg("dept,aisle"),
            arg("--min-support"),
            arg("0.1"),
            arg("--min-confidence"),
            arg("0.8"),
        ])
        .unwrap();
        assert!(out.contains("400 transactions"), "{out}");
        assert!(out.contains("=>"), "{out}");
        assert!(out.contains("dept=") && out.contains("aisle="), "{out}");

        // Degenerate flags error cleanly.
        assert!(run(&[
            arg("rules"),
            arg("--input"),
            arg(data_path.to_str().unwrap()),
            arg("--attrs"),
            arg(""),
        ])
        .is_err());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn rules_output_is_pinned_on_a_fixed_csv() {
        // An integer key, a text categorical column holding a quoted
        // value with a comma, and an integer categorical column.
        let dir = std::env::temp_dir().join(format!("catmark-rules-pin-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let data_path = dir.join("aisles.csv");
        let mut csv = String::from("sku,dept,aisle\n");
        for i in 0..60i64 {
            let dept = ["produce", "dairy", "\"frozen, bulk\""][(i % 3) as usize];
            let aisle = if i % 7 == 6 { 99 } else { (i % 3) * 10 + i % 2 };
            csv.push_str(&format!("{i},{dept},{aisle}\n"));
        }
        std::fs::write(&data_path, csv).unwrap();

        let args: Vec<String> = [
            "rules",
            "--input",
            data_path.to_str().unwrap(),
            "--attrs",
            "dept,aisle",
            "--min-support",
            "0.1",
            "--min-confidence",
            "0.5",
            "--top",
            "5",
        ]
        .iter()
        .map(|s| (*s).to_string())
        .collect();
        let out = run(&args).unwrap();
        std::fs::remove_dir_all(&dir).ok();
        assert_eq!(
            out,
            "60 transactions, 16 frequent itemsets (support ≥ 10.0%), 6 rules (confidence ≥ 50.0%)\n\
             aisle=1 => dept=\"produce\"  sup 0.150  conf 1.000  lift 3.00\n\
             aisle=10 => dept=\"dairy\"  sup 0.150  conf 1.000  lift 3.00\n\
             aisle=20 => dept=\"frozen, bulk\"  sup 0.150  conf 1.000  lift 3.00\n\
             aisle=21 => dept=\"frozen, bulk\"  sup 0.150  conf 1.000  lift 3.00\n\
             aisle=0 => dept=\"produce\"  sup 0.133  conf 1.000  lift 3.00\n\
             … and 1 more (raise --top)\n"
        );
    }

    #[test]
    fn unknown_command_and_help() {
        assert!(run(&["frobnicate".to_owned()]).is_err());
        assert!(run(&["help".to_owned()]).unwrap().contains("usage"));
        assert!(run(&[]).is_err());
    }

    #[test]
    fn end_to_end_through_temp_files() {
        use catmark::datagen::{ItemScanConfig, SalesGenerator};
        let dir = std::env::temp_dir().join(format!("catmark-cli-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let data_path = dir.join("data.csv");
        let key_path = dir.join("key.catmark");
        let marked_path = dir.join("marked.csv");

        // Write a data set.
        let rel =
            SalesGenerator::new(ItemScanConfig { tuples: 3_000, ..Default::default() }).generate();
        let mut f = File::create(&data_path).unwrap();
        catmark::relation::csv::write_csv(&rel, &mut f).unwrap();

        // keygen → key file.
        let arg = |s: &str| s.to_owned();
        let key_text = run(&[
            arg("keygen"),
            arg("--master"),
            arg("cli-test-secret"),
            arg("--domain-from"),
            arg(data_path.to_str().unwrap()),
            arg("--attr"),
            arg("item_nbr"),
            arg("--e"),
            arg("15"),
            arg("--erasure"),
            arg("abstain"),
        ])
        .unwrap();
        std::fs::write(&key_path, &key_text).unwrap();

        // inspect.
        let info = run(&[arg("inspect"), arg("--key"), arg(key_path.to_str().unwrap())]).unwrap();
        assert!(info.contains("e            15"), "{info}");

        // embed.
        let summary = run(&[
            arg("embed"),
            arg("--key"),
            arg(key_path.to_str().unwrap()),
            arg("--input"),
            arg(data_path.to_str().unwrap()),
            arg("--key-attr"),
            arg("visit_nbr"),
            arg("--attr"),
            arg("item_nbr"),
            arg("--mark"),
            arg("1011001110"),
            arg("--output"),
            arg(marked_path.to_str().unwrap()),
        ])
        .unwrap();
        assert!(summary.contains("embedded 1011001110"), "{summary}");

        // decode with a claim.
        let verdict = run(&[
            arg("decode"),
            arg("--key"),
            arg(key_path.to_str().unwrap()),
            arg("--input"),
            arg(marked_path.to_str().unwrap()),
            arg("--key-attr"),
            arg("visit_nbr"),
            arg("--attr"),
            arg("item_nbr"),
            arg("--claim"),
            arg("1011001110"),
        ])
        .unwrap();
        assert!(verdict.contains("decoded mark     1011001110"), "{verdict}");
        assert!(verdict.contains("SIGNIFICANT"), "{verdict}");

        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn decode_emits_evidence_and_verify_evidence_judges_it() {
        use catmark::datagen::{ItemScanConfig, SalesGenerator};
        let dir = std::env::temp_dir().join(format!("catmark-evd-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let data_path = dir.join("data.csv");
        let key_path = dir.join("key.catmark");
        let marked_path = dir.join("marked.csv");
        let bundle_path = dir.join("run.evd");

        let rel =
            SalesGenerator::new(ItemScanConfig { tuples: 3_000, ..Default::default() }).generate();
        let mut f = File::create(&data_path).unwrap();
        catmark::relation::csv::write_csv(&rel, &mut f).unwrap();

        let arg = |s: &str| s.to_owned();
        let key_text = run(&[
            arg("keygen"),
            arg("--master"),
            arg("cli-evidence-secret"),
            arg("--domain-from"),
            arg(data_path.to_str().unwrap()),
            arg("--attr"),
            arg("item_nbr"),
            arg("--e"),
            arg("15"),
        ])
        .unwrap();
        std::fs::write(&key_path, &key_text).unwrap();
        run(&[
            arg("embed"),
            arg("--key"),
            arg(key_path.to_str().unwrap()),
            arg("--input"),
            arg(data_path.to_str().unwrap()),
            arg("--key-attr"),
            arg("visit_nbr"),
            arg("--attr"),
            arg("item_nbr"),
            arg("--mark"),
            arg("1011001110"),
            arg("--output"),
            arg(marked_path.to_str().unwrap()),
        ])
        .unwrap();

        // Certified decode prints the same verdict text plus the
        // bundle line.
        let verdict = run(&[
            arg("decode"),
            arg("--key"),
            arg(key_path.to_str().unwrap()),
            arg("--input"),
            arg(marked_path.to_str().unwrap()),
            arg("--key-attr"),
            arg("visit_nbr"),
            arg("--attr"),
            arg("item_nbr"),
            arg("--claim"),
            arg("1011001110"),
            arg("--evidence"),
            arg(bundle_path.to_str().unwrap()),
        ])
        .unwrap();
        assert!(verdict.contains("decoded mark     1011001110"), "{verdict}");
        assert!(verdict.contains("SIGNIFICANT"), "{verdict}");
        assert!(verdict.contains("evidence         "), "{verdict}");

        // The checker needs neither the key file nor the CSVs.
        let report = run(&[arg("verify-evidence"), arg(bundle_path.to_str().unwrap())]).unwrap();
        assert!(report.contains("VERIFIED"), "{report}");
        assert!(report.contains("1011001110"), "{report}");

        // A flipped byte is rejected with a run error, not a panic.
        let mut bytes = std::fs::read(&bundle_path).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x20;
        let tampered = dir.join("tampered.evd");
        std::fs::write(&tampered, &bytes).unwrap();
        let err = run(&[arg("verify-evidence"), arg(tampered.to_str().unwrap())]).unwrap_err();
        assert!(matches!(&err, CliError::Run(msg) if msg.contains("rejected")), "{err:?}");

        // Missing files and malformed flags are clean errors too.
        assert!(run(&[arg("verify-evidence"), arg("/nonexistent/x.evd")]).is_err());
        assert!(matches!(
            run(&[arg("verify-evidence"), arg("--bundle"), arg("a"), arg("--extra"), arg("b")]),
            Err(CliError::Usage(_))
        ));
        std::fs::remove_dir_all(&dir).ok();
    }

    /// `embed` and every form of `decode` on a 40k-row file: the bytes,
    /// text and bundles of the in-memory `MarkSession` path, an in-place
    /// embed, and a bad last record that leaves `--output` alone. The
    /// marked column is quoted text, and quoted newlines sit around rows
    /// 8,192 and 16,384.
    #[test]
    fn embed_and_decode_match_the_in_memory_path_on_a_large_file() {
        use catmark::core::DecodeReport;
        let dir = std::env::temp_dir().join(format!("catmark-large-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = |name: &str| dir.join(name).to_str().unwrap().to_owned();
        let mut csv = String::from("visit_nbr,shelf,note\n");
        for i in 0..40_000u64 {
            let k = i * 31 % 12;
            let shelf = match k % 3 {
                0 => format!("\"aisle, {k}\""),
                1 => format!("\"say \"\"{k}\"\" é\""),
                _ => format!("shelf{k}"),
            };
            let wrapped = (8_189..8_195).contains(&i) || (16_382..16_387).contains(&i);
            let note = if wrapped { "\"two\nlines\"" } else { "plain" };
            csv.push_str(&format!("{},{shelf},{note}\n", i * 7 + 3));
        }
        std::fs::write(path("data.csv"), &csv).unwrap();
        let run_args =
            |args: &[&str]| run(&args.iter().map(|s| (*s).to_owned()).collect::<Vec<_>>());
        let key = run_args(&[
            "keygen",
            "--master",
            "large-file-secret",
            "--domain-from",
            &path("data.csv"),
            "--attr",
            "shelf",
            "--e",
            "20",
        ])
        .unwrap();
        std::fs::write(path("key.catmark"), key).unwrap();
        let mark = "1011001110";
        let embed = |input: &str, output: &str| {
            run_args(&[
                "embed",
                "--key",
                &path("key.catmark"),
                "--input",
                input,
                "--key-attr",
                "visit_nbr",
                "--attr",
                "shelf",
                "--mark",
                mark,
                "--output",
                output,
            ])
        };

        // The in-memory reference: one relation, one session.
        let spec = load_key(&path("key.catmark")).unwrap();
        let wm = Watermark::parse(mark, spec.wm_len).unwrap();
        let mut rel = load_csv(&path("data.csv"), "shelf").unwrap();
        let session = bind_session(spec, &rel, "visit_nbr", "shelf").unwrap();
        let report = session.embed(&mut rel, &wm).unwrap();
        let mut marked = Vec::new();
        catmark::relation::csv::write_csv(&rel, &mut marked).unwrap();

        let summary = embed(&path("data.csv"), &path("marked.csv")).unwrap();
        assert_eq!(std::fs::read(path("marked.csv")).unwrap(), marked);
        assert_eq!(
            summary,
            format!(
                "embedded {mark} into {}: {} tuples, {} fit, {} altered ({:.2}%)\n",
                path("marked.csv"),
                report.total_tuples,
                report.fit_tuples,
                report.altered,
                report.alteration_rate() * 100.0
            )
        );

        let decoded = session.decode(&rel).unwrap();
        let detection = detect(&decoded.watermark, &wm);
        let text = |report: &DecodeReport, verdict: Option<&Detection>, bundle: Option<&[u8]>| {
            let mut out = format!(
                "decoded mark     {}\nfit tuples       {}\nvotes cast       {}\nforeign values   {}\npositions        {} observed / {} erased / {} conflicting\n",
                report.watermark,
                report.fit_tuples,
                report.votes_cast,
                report.foreign_values,
                report.positions_observed,
                report.positions_erased,
                report.position_conflicts,
            );
            if let Some(verdict) = verdict {
                out.push_str(&format!(
                    "claim match      {}/{} bits\nfalse positive   {:.3e}\nverdict          {}\n",
                    verdict.matched_bits,
                    verdict.total_bits,
                    verdict.false_positive_probability,
                    if verdict.is_significant(1e-2) {
                        "SIGNIFICANT (alpha 1%)"
                    } else {
                        "not significant"
                    },
                ));
            }
            if let Some(bundle) = bundle {
                out.push_str(&format!(
                    "evidence         {} bytes -> {}\n",
                    bundle.len(),
                    path("run.evd")
                ));
            }
            out
        };
        let plain_bundle = session.decode_certified(&rel).unwrap().bundle;
        let claim_bundle = session.detect_certified(&rel, &wm).unwrap().bundle;
        for (claim, evidence, expected) in [
            (false, false, text(&decoded, None, None)),
            (true, false, text(&decoded, Some(&detection), None)),
            (false, true, text(&decoded, None, Some(&plain_bundle))),
            (true, true, text(&decoded, Some(&detection), Some(&claim_bundle))),
        ] {
            let marked_path = path("marked.csv");
            let mut args = vec![
                "decode",
                "--key",
                &path("key.catmark"),
                "--input",
                &marked_path,
                "--key-attr",
                "visit_nbr",
                "--attr",
                "shelf",
            ]
            .into_iter()
            .map(str::to_owned)
            .collect::<Vec<_>>();
            if claim {
                args.extend(["--claim".to_owned(), mark.to_owned()]);
            }
            if evidence {
                args.extend(["--evidence".to_owned(), path("run.evd")]);
            }
            assert_eq!(run(&args).unwrap(), expected, "claim {claim}, evidence {evidence}");
            if evidence {
                let bundle = if claim { &claim_bundle } else { &plain_bundle };
                assert_eq!(&std::fs::read(path("run.evd")).unwrap(), bundle);
            }
        }

        // `--output` may name `--input`: the file is marked in place.
        std::fs::write(path("inplace.csv"), &csv).unwrap();
        embed(&path("inplace.csv"), &path("inplace.csv")).unwrap();
        assert_eq!(std::fs::read(path("inplace.csv")).unwrap(), marked);

        // A short record at the end fails the run with its physical line
        // (the quoted newlines push it down) and writes nothing.
        std::fs::write(path("bad.csv"), format!("{csv}12345,shelf2\n")).unwrap();
        std::fs::write(path("kept.csv"), b"keep me").unwrap();
        let err = embed(&path("bad.csv"), &path("kept.csv")).unwrap_err();
        assert_eq!(err.exit_code(), ExitCode::FAILURE);
        assert_eq!(
            err.message(),
            format!("{}: csv error: row 40013: 2 fields, expected 3", path("bad.csv"))
        );
        assert_eq!(std::fs::read(path("kept.csv")).unwrap(), b"keep me");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn gc_drops_orphans_but_keeps_blobs_shared_with_ancestors() {
        use catmark::datagen::{ItemScanConfig, SalesGenerator};
        use catmark::relation::{ContentStore, SegmentedRelation, VersionLog};

        let dir = std::env::temp_dir().join(format!("catmark-gc-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let pile = dir.join("pile.cmk");
        let logf = dir.join("versions.cmk");

        let rel =
            SalesGenerator::new(ItemScanConfig { tuples: 1_000, ..Default::default() }).generate();
        let store = ContentStore::create_file(&pile).unwrap();
        let mut log = VersionLog::new();
        let mut seg = SegmentedRelation::builder(rel.schema().clone())
            .segment_rows(250)
            .store(Box::new(store.clone()))
            .from_relation(&rel)
            .unwrap();
        let v1 = log.commit(&mut seg, &store).unwrap();
        // Dirty only the first segment; the other three blobs stay
        // shared between v1 and v2.
        let attr = rel.schema().index_of("item_nbr").unwrap();
        let swapped = rel.value(0, attr).unwrap();
        let other = rel
            .column_iter(attr)
            .find(|v| *v != swapped)
            .expect("generator emits more than one item");
        seg.with_segment_mut(0, |r| r.update_value(0, attr, other)).unwrap().unwrap();
        let v2 = log.commit(&mut seg, &store).unwrap();
        std::fs::write(&logf, log.encode()).unwrap();
        drop(seg);
        drop(store);

        // With every logged version live there is nothing to drop —
        // dirty-segment rewrites appended, they never orphaned v1.
        let arg = |s: &str| s.to_owned();
        let out = run(&[
            arg("gc"),
            arg("--store"),
            arg(pile.to_str().unwrap()),
            arg("--log"),
            arg(logf.to_str().unwrap()),
        ])
        .unwrap();
        assert!(out.contains("dropped 0"), "{out}");

        // Keep only v2: v1's dirtied-away first blob is the lone
        // orphan; the three clean blobs v2 shares with its ancestor
        // must survive the rewrite.
        let out = run(&[
            arg("gc"),
            arg("--store"),
            arg(pile.to_str().unwrap()),
            arg("--log"),
            arg(logf.to_str().unwrap()),
            arg("--keep"),
            arg(&v2.to_string()),
        ])
        .unwrap();
        assert!(out.contains("dropped 1"), "{out}");

        let store = ContentStore::open_file(&pile).unwrap();
        let log = VersionLog::decode(&std::fs::read(&logf).unwrap()).unwrap();
        let mut reopened = log.open_version(v2, rel.schema(), &store, None).unwrap();
        assert_eq!(reopened.to_relation().unwrap().len(), 1_000);
        assert!(
            log.open_version(v1, rel.schema(), &store, None).is_err(),
            "v1's unshared blob should be gone"
        );
        drop(store);

        // Usage errors: unknown ids and empty --keep.
        let bad = run(&[
            arg("gc"),
            arg("--store"),
            arg(pile.to_str().unwrap()),
            arg("--log"),
            arg(logf.to_str().unwrap()),
            arg("--keep"),
            arg("99"),
        ]);
        assert!(matches!(bad, Err(CliError::Usage(_))), "{bad:?}");
        std::fs::remove_dir_all(&dir).ok();
    }
}
