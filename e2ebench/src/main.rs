//! `e2ebench` — the end-to-end benchmark of the `catmark` binary.
//!
//! ```text
//! e2ebench --catmark <path> --workload <cli_files|daemon_stdio|daemon_socket_churn>
//!          --seed <n> --seconds <n> --trace <0|1>
//! ```
//!
//! With `--trace 0` the workload drives the real binary (CLI processes
//! on files, or a daemon over stdio or a Unix socket), checks every
//! output against an in-process reference, and prints the end-to-end
//! metrics. With `--trace 1` it replays the same operations in-process,
//! in the order the binary makes the calls, with a span around each
//! layer, and prints the per-layer metrics. The last stdout line is
//! the result object; the line before it is a report naming the host,
//! sample counts, and tail percentiles. See `README.md` beside this
//! file.

mod cli;
mod client;
mod daemon;
mod data;
mod jsonr;
mod layers;
mod proc;
mod spans;
mod stats;
mod traced;

use std::fmt::Write as _;
use std::path::PathBuf;
use std::time::Instant;

/// What one operation stands for in the end-to-end metrics. Each
/// workload maps its operations onto these roles (see `README.md`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Role {
    /// Marking a relation.
    Embed,
    /// Blind decode weighed against the claimed mark.
    Decode,
    /// Detection that also emits an evidence bundle.
    Certify,
    /// Keyless re-check of an evidence bundle.
    Verify,
    /// Operations outside the four roles (`mark_delta`, `trace`).
    Other,
}

/// One completed, correct operation.
#[derive(Debug, Clone)]
pub struct Sample {
    /// The operation's name on the wire or command line.
    pub op: &'static str,
    /// Its role in the metrics.
    pub role: Role,
    /// Whether it ran at the scale-probe size.
    pub probe: bool,
    /// Latency from request sent (or process spawned) to reply read
    /// (or process reaped), in ms.
    pub ms: f64,
    /// Rows of the relation the operation processed.
    pub rows: usize,
}

/// Everything an untraced run measured.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Completed correct operations.
    pub samples: Vec<Sample>,
    /// Operations attempted.
    pub attempted: u64,
    /// Operations that failed or returned a wrong output.
    pub failed: u64,
    /// The first few failure messages.
    pub failures: Vec<String>,
    /// Measured wall time of the operation loop, s.
    pub wall_s: f64,
    /// Each set-up's duration, s.
    pub setups_s: Vec<f64>,
    /// Peak resident set of the program, MB.
    pub peak_rss_mb: f64,
    /// Main and probe relation sizes.
    pub main_rows: usize,
    /// Probe relation size.
    pub probe_rows: usize,
    /// Timings of the host-speed calibration kernel, ms.
    pub calibration_ms: Vec<f64>,
}

impl Outcome {
    /// Count one attempted operation; record it when it succeeded.
    pub fn record(&mut self, result: Result<Sample, String>) {
        self.attempted += 1;
        match result {
            Ok(sample) => self.samples.push(sample),
            Err(e) => self.fail(e),
        }
    }

    /// Count a failure found after the fact (a deferred oracle check).
    pub fn fail(&mut self, e: String) {
        self.failed += 1;
        if self.failures.len() < 5 {
            self.failures.push(e);
        }
    }

    /// Whether every role has main-size samples and decode has probe
    /// samples, so every metric is defined.
    pub fn covers_every_metric(&self) -> bool {
        let has = |role, probe| self.samples.iter().any(|s| s.role == role && s.probe == probe);
        [Role::Embed, Role::Decode, Role::Certify, Role::Verify].iter().all(|&r| has(r, false))
            && has(Role::Decode, true)
    }

    /// Time the calibration kernel a few times. Call it right before
    /// and right after the measured window, with no operation in flight.
    pub fn calibrate(&mut self) {
        for _ in 0..CALIBRATIONS {
            self.calibrate_once();
        }
    }

    /// Time the calibration kernel once; single-client loops call this
    /// between cycles, while nothing is in flight, to follow the host
    /// through the window.
    pub fn calibrate_once(&mut self) {
        self.calibration_ms.push(calibration_ms());
    }

    /// How much slower than the reference this host ran during the
    /// window: the calibration's median over its reference time, or 1
    /// for a workload that does not calibrate.
    fn slowdown(&self) -> f64 {
        if self.calibration_ms.is_empty() {
            1.0
        } else {
            stats::median(&self.calibration_ms) / CALIBRATION_REFERENCE_MS
        }
    }

    /// Merge a concurrent client's outcome into this one.
    pub fn absorb(&mut self, other: Outcome) {
        self.samples.extend(other.samples);
        self.calibration_ms.extend(other.calibration_ms);
        self.attempted += other.attempted;
        self.failed += other.failed;
        for f in other.failures {
            if self.failures.len() < 5 {
                self.failures.push(f);
            }
        }
        self.wall_s = self.wall_s.max(other.wall_s);
    }

    fn latencies(&self, role: Role, probe: bool) -> Vec<f64> {
        self.samples.iter().filter(|s| s.role == role && s.probe == probe).map(|s| s.ms).collect()
    }
}

/// Calibration runs before and after the window.
const CALIBRATIONS: usize = 10;

/// The kernel's reference time: a round figure near its time on the
/// 2-vCPU development host (0.45–0.8 ms, depending on the host's phase),
/// so calibrated timings read close to raw ones there.
const CALIBRATION_REFERENCE_MS: f64 = 0.5;

/// A fixed amount of CPU work that runs no product code: sorting and
/// folding 32k pseudo-random words. Shared hosts slow down in phases
/// (another tenant on the core, clock changes) that last longer than a
/// run; every operation then slows by about the same factor, and so
/// does this kernel. Dividing latencies by that factor keeps runs from
/// different phases comparable. Product code is excluded so that no
/// change to the product can move the yardstick.
fn calibration_ms() -> f64 {
    let mut words: Vec<u64> = (0..32_768).map(|i| data::mix(i, 0xCA11)).collect();
    let start = Instant::now();
    words.sort_unstable();
    let folded = words.iter().fold(0u64, |acc, &w| acc.rotate_left(5) ^ w.wrapping_mul(31));
    std::hint::black_box(folded);
    start.elapsed().as_secs_f64() * 1e3
}

/// A named metric value with its unit.
pub struct Metric {
    /// Metric name as in `BENCHMARK.json`.
    pub name: String,
    /// Measured value.
    pub value: f64,
    /// Unit.
    pub unit: &'static str,
}

/// Shorthand constructor.
pub fn metric(name: impl Into<String>, value: f64, unit: &'static str) -> Metric {
    Metric { name: name.into(), value, unit }
}

/// Parsed command line.
pub struct Ctx {
    /// The `catmark` binary under test.
    pub catmark: PathBuf,
    /// Workload name.
    pub workload: String,
    /// Input seed.
    pub seed: u64,
    /// Measurement window, s.
    pub seconds: f64,
    /// Traced replay instead of the end-to-end run.
    pub trace: bool,
}

impl Ctx {
    /// Whether the measurement window that started at `start` is over.
    pub fn expired(&self, start: Instant) -> bool {
        start.elapsed().as_secs_f64() >= self.seconds
    }
}

fn parse_args() -> Result<Ctx, String> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let get = |name: &str| -> Result<String, String> {
        let at = args.iter().position(|a| a == name).ok_or(format!("missing {name}"))?;
        args.get(at + 1).cloned().ok_or(format!("{name} needs a value"))
    };
    let num = |v: String, name: &str| v.parse::<u64>().map_err(|e| format!("{name}: {e}"));
    let ctx = Ctx {
        catmark: PathBuf::from(get("--catmark")?),
        workload: get("--workload")?,
        seed: num(get("--seed")?, "--seed")?,
        seconds: num(get("--seconds")?, "--seconds")? as f64,
        trace: match get("--trace")?.as_str() {
            "0" => false,
            "1" => true,
            other => return Err(format!("--trace must be 0 or 1, got {other:?}")),
        },
    };
    if !["cli_files", "daemon_stdio", "daemon_socket_churn"].contains(&ctx.workload.as_str()) {
        return Err(format!("unknown workload {:?}", ctx.workload));
    }
    if !ctx.catmark.is_file() {
        return Err(format!("no catmark binary at {}", ctx.catmark.display()));
    }
    Ok(ctx)
}

/// The host facts every result carries, so runs from different hosts
/// are never compared silently.
fn host_json() -> String {
    let nproc = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
    format!(
        "{{\"nproc\":{nproc},\"sha_backend\":\"{}\",\"keyed_hash_mb_per_s\":{:.1}}}",
        catmark_crypto::Sha256Backend::active().name(),
        layers::keyed_hash_mb_per_s()
    )
}

fn end_to_end(out: &Outcome, report: &mut String) -> Vec<Metric> {
    let mut metrics = vec![metric("setup_s", stats::median(&out.setups_s), "s")];
    let _ = write!(report, "\"roles\":{{");
    for (role, name) in
        [(Role::Embed, "embed"), (Role::Decode, "decode"), (Role::Certify, "certify")]
    {
        let lat = out.latencies(role, false);
        let (p, tail) = stats::tail(&lat);
        metrics.push(metric(format!("{name}_p50_ms"), stats::median(&lat), "ms"));
        metrics.push(metric(format!("{name}_tail_ms"), tail, "ms"));
        let _ = write!(report, "\"{name}\":{{\"n\":{},\"tail_percentile\":{p}}},", lat.len());
    }
    let verify = out.latencies(Role::Verify, false);
    let _ = write!(report, "\"verify\":{{\"n\":{}}}}},", verify.len());
    metrics.push(metric("verify_p50_ms", stats::median(&verify), "ms"));
    let mut ops: Vec<&str> = out.samples.iter().map(|s| s.op).collect();
    ops.sort_unstable();
    ops.dedup();
    let mut entries = Vec::new();
    for op in ops {
        for probe in [false, true] {
            let lat: Vec<f64> = out
                .samples
                .iter()
                .filter(|s| s.op == op && s.probe == probe)
                .map(|s| s.ms)
                .collect();
            if !lat.is_empty() {
                entries.push(format!(
                    "\"{op}{}\":{{\"n\":{},\"p50_ms\":{:.3}}}",
                    if probe { "@probe" } else { "" },
                    lat.len(),
                    stats::median(&lat)
                ));
            }
        }
    }
    let _ = write!(report, "\"ops\":{{{}}},", entries.join(","));
    let rows: usize = out.samples.iter().filter(|s| !s.probe).map(|s| s.rows).sum();
    metrics.push(metric("rows_per_s", rows as f64 / out.wall_s, "rows/s"));
    metrics.push(metric("peak_rss_mb", out.peak_rss_mb, "MB"));
    let decode_main = stats::median(&out.latencies(Role::Decode, false));
    let decode_probe = stats::median(&out.latencies(Role::Decode, true));
    metrics.push(metric(
        "scale_ratio",
        stats::scale_ratio(decode_main, decode_probe, out.main_rows, out.probe_rows),
        "ratio",
    ));
    let slowdown = out.slowdown();
    let _ = write!(
        report,
        "\"main_rows\":{},\"probe_rows\":{},\"wall_s\":{:.3},\"setups_s\":{:?},\"error_rate\":{},\
         \"calibration_ms\":{:.4},\"slowdown\":{:.4},\"raw\":{{{}}}",
        out.main_rows,
        out.probe_rows,
        out.wall_s,
        out.setups_s,
        out.failed as f64 / out.attempted.max(1) as f64,
        if out.calibration_ms.is_empty() { 0.0 } else { stats::median(&out.calibration_ms) },
        slowdown,
        metrics
            .iter()
            .map(|m| format!("\"{}\":{}", m.name, json_number(m.value)))
            .collect::<Vec<_>>()
            .join(",")
    );
    for m in &mut metrics {
        // Medians and throughput track the host's speed; a tail is made
        // of rare stalls that do not, so it stays raw.
        if m.name.ends_with("_tail_ms") {
            continue;
        }
        match m.unit {
            "ms" | "s" => m.value /= slowdown,
            "rows/s" => m.value *= slowdown,
            _ => {}
        }
    }
    metrics
}

fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".to_string()
    }
}

fn main() {
    proc::die_with_parent();
    let ctx = match parse_args() {
        Ok(ctx) => ctx,
        Err(e) => {
            eprintln!("e2ebench: {e}");
            std::process::exit(2);
        }
    };
    let mut report = format!(
        "{{\"workload\":\"{}\",\"seed\":{},\"host\":{},",
        ctx.workload,
        ctx.seed,
        host_json()
    );
    let result = if ctx.trace {
        traced::run(&ctx).map(|t| {
            let _ = write!(report, "{}", t.report);
            (t.metrics, t.attempted, t.failed, t.failures)
        })
    } else {
        let run = match ctx.workload.as_str() {
            "cli_files" => cli::run(&ctx),
            "daemon_stdio" => daemon::run_stdio(&ctx),
            _ => daemon::run_socket_churn(&ctx),
        };
        run.map(|out| {
            let metrics = end_to_end(&out, &mut report);
            if !out.covers_every_metric() {
                eprintln!("e2ebench: some metric has no samples");
            }
            let failed = out.failed + u64::from(!out.covers_every_metric());
            (metrics, out.attempted, failed, out.failures)
        })
    };
    let (metrics, attempted, failed, failures) = match result {
        Ok(r) => r,
        Err(e) => {
            eprintln!("e2ebench: {e}");
            std::process::exit(1);
        }
    };
    for f in &failures {
        eprintln!("e2ebench: failure: {f}");
    }
    let correct = failed == 0 && metrics.iter().all(|m| m.value.is_finite());
    println!("{report}}}");
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name,
                json_number(m.value),
                m.unit
            )
        })
        .collect();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    );
}
