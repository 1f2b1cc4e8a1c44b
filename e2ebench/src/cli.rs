//! `cli_files`: what a CLI user waits for. Each iteration runs
//! `catmark embed`, `decode --claim`, `decode --claim --evidence`, and
//! `verify-evidence` on a CSV file, one process at a time; every
//! fourth iteration runs at the scale-probe size instead.

use std::path::PathBuf;
use std::process::{Command, Stdio};
use std::time::Instant;

use catmark_core::keyfile::to_key_file;
use catmark_core::Watermark;

use crate::data::{self, ATTR, KEY_ATTR};
use crate::proc::{children_peak_rss_mb, Guarded, WorkDir};
use crate::{Ctx, Outcome, Role, Sample};

/// Main relation size (≈2 MB of CSV).
pub const MAIN_ROWS: usize = 120_000;
/// Scale-probe size.
pub const PROBE_ROWS: usize = 30_000;
/// Set-ups per run; `setup_s` is their median.
pub const SETUPS: usize = 3;

/// One size's files.
pub struct Files {
    /// Rows in the relation.
    pub rows: usize,
    /// The unmarked input CSV.
    pub input: PathBuf,
    /// Where `embed` writes.
    pub output: PathBuf,
    /// Where `decode --evidence` writes.
    pub bundle: PathBuf,
    /// The reference marked CSV bytes.
    pub marked_ref: Vec<u8>,
}

/// A prepared working directory.
pub struct Setup {
    /// Owns the files; they are removed when the set-up drops.
    _dir: WorkDir,
    /// The key file.
    pub key: PathBuf,
    /// The run's mark.
    pub mark: Watermark,
    /// Main-size files.
    pub main: Files,
    /// Probe-size files.
    pub probe: Files,
}

/// Generate the inputs, key file, and references, and warm the
/// binary's pages.
pub fn setup(ctx: &Ctx, index: usize) -> Result<Setup, String> {
    let dir = WorkDir::create(&format!("cli-{index}")).map_err(|e| e.to_string())?;
    let spec = data::spec("cli-master");
    let mark = data::mark(ctx.seed);
    let key = dir.file("key.catmark");
    std::fs::write(&key, to_key_file(&spec)).map_err(|e| e.to_string())?;
    let files = |rows: usize, name: &str| -> Result<Files, String> {
        let m = data::marked(data::mix(ctx.seed, rows as u64), rows, &spec, &mark);
        let input = dir.file(&format!("{name}.csv"));
        std::fs::write(&input, &m.base_csv).map_err(|e| e.to_string())?;
        Ok(Files {
            rows,
            input,
            output: dir.file(&format!("{name}.marked.csv")),
            bundle: dir.file(&format!("{name}.evd")),
            marked_ref: m.marked_csv,
        })
    };
    let main = files(MAIN_ROWS, "main")?;
    let probe = files(PROBE_ROWS, "probe")?;
    let setup = Setup { _dir: dir, key, mark, main, probe };
    // Warm-up: one full iteration at the probe size.
    for op in OPS {
        run_op(ctx, &setup, &setup.probe, op)?;
    }
    Ok(setup)
}

/// The four commands of one iteration, in order.
pub const OPS: [&str; 4] = ["embed", "decode", "certify", "verify"];

/// The argument list of one command.
pub fn args(setup: &Setup, files: &Files, op: &str) -> Vec<String> {
    let path = |p: &PathBuf| p.to_string_lossy().into_owned();
    let mark = setup.mark.to_string();
    let common = |input: &PathBuf| {
        vec![
            "--key".to_string(),
            path(&setup.key),
            "--input".into(),
            path(input),
            "--key-attr".into(),
            KEY_ATTR.into(),
            "--attr".into(),
            ATTR.into(),
        ]
    };
    match op {
        "embed" => [
            vec!["embed".into()],
            common(&files.input),
            vec!["--mark".into(), mark, "--output".into(), path(&files.output)],
        ]
        .concat(),
        "decode" => {
            [vec!["decode".into()], common(&files.output), vec!["--claim".into(), mark]].concat()
        }
        "certify" => [
            vec!["decode".into()],
            common(&files.output),
            vec!["--claim".into(), mark, "--evidence".into(), path(&files.bundle)],
        ]
        .concat(),
        _ => vec!["verify-evidence".into(), path(&files.bundle)],
    }
}

/// Run one command and check its output; returns the sample.
pub fn run_op(ctx: &Ctx, setup: &Setup, files: &Files, op: &'static str) -> Result<Sample, String> {
    let mut cmd = Command::new(&ctx.catmark);
    cmd.args(args(setup, files, op))
        .stdin(Stdio::null())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped());
    let start = Instant::now();
    let child = Guarded::spawn(&mut cmd).map_err(|e| format!("spawn catmark {op}: {e}"))?;
    let out = child.output().map_err(|e| format!("catmark {op}: {e}"))?;
    let ms = start.elapsed().as_secs_f64() * 1e3;
    let stdout = String::from_utf8_lossy(&out.stdout);
    if !out.status.success() {
        return Err(format!(
            "catmark {op} exited {}: {}",
            out.status,
            String::from_utf8_lossy(&out.stderr)
        ));
    }
    check(setup, files, op, &stdout)?;
    let (role, rows) = match op {
        "embed" => (Role::Embed, files.rows),
        "decode" => (Role::Decode, files.rows),
        "certify" => (Role::Certify, files.rows),
        _ => (Role::Verify, 0),
    };
    Ok(Sample { op, role, probe: files.rows != MAIN_ROWS, ms, rows })
}

/// The oracle for one command's outputs.
fn check(setup: &Setup, files: &Files, op: &str, stdout: &str) -> Result<(), String> {
    let mark = setup.mark.to_string();
    let ok = match op {
        "embed" => {
            let written = std::fs::read(&files.output).map_err(|e| e.to_string())?;
            written == files.marked_ref && stdout.starts_with(&format!("embedded {mark}"))
        }
        "decode" | "certify" => {
            stdout.contains(&format!("decoded mark     {mark}\n"))
                && stdout.contains(&format!("claim match      {0}/{0} bits", mark.len()))
                && stdout.contains("SIGNIFICANT")
                && (op == "decode" || stdout.contains("evidence         "))
        }
        _ => stdout.contains("evidence bundle VERIFIED") && stdout.contains(&mark),
    };
    if ok {
        Ok(())
    } else {
        Err(format!("catmark {op} at {} rows: wrong output: {stdout}", files.rows))
    }
}

/// The untraced run.
pub fn run(ctx: &Ctx) -> Result<Outcome, String> {
    let mut out = Outcome { main_rows: MAIN_ROWS, probe_rows: PROBE_ROWS, ..Outcome::default() };
    let mut kept = None;
    for i in 0..SETUPS {
        let start = Instant::now();
        let setup = setup(ctx, i)?;
        out.setups_s.push(start.elapsed().as_secs_f64());
        kept = Some(setup);
    }
    let setup = kept.expect("SETUPS > 0");
    out.calibrate();
    let start = Instant::now();
    let mut iteration = 0usize;
    while !ctx.expired(start) || !out.covers_every_metric() {
        out.calibrate_once();
        let files = if iteration % 4 == 3 { &setup.probe } else { &setup.main };
        for op in OPS {
            out.record(run_op(ctx, &setup, files, op));
        }
        iteration += 1;
        if iteration > 4 && out.samples.is_empty() {
            break;
        }
    }
    out.wall_s = start.elapsed().as_secs_f64();
    out.calibrate();
    out.peak_rss_mb = children_peak_rss_mb();
    Ok(out)
}
