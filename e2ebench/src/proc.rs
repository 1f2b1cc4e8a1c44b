//! Process hygiene: every child is killed and reaped when its guard
//! drops (including on panic), daemons die with the harness if the
//! harness is killed, and the run's scratch directory is removed on
//! exit.

use std::path::PathBuf;
use std::process::{Child, Command};

mod sys {
    #[repr(C)]
    pub struct RUsage {
        pub utime: [i64; 2],
        pub stime: [i64; 2],
        pub maxrss: i64,
        pub rest: [i64; 13],
    }

    extern "C" {
        pub fn prctl(option: i32, ...) -> i32;
        pub fn getrusage(who: i32, usage: *mut RUsage) -> i32;
    }

    pub const PR_SET_PDEATHSIG: i32 = 1;
    pub const SIGKILL: u64 = 9;
    pub const RUSAGE_CHILDREN: i32 = -1;
}

/// A child process that is killed and waited for when dropped.
pub struct Guarded {
    child: Option<Child>,
}

impl Guarded {
    /// Spawn a short-lived child. It is not tied to the harness's
    /// lifetime: that needs a `pre_exec` hook, which makes the standard
    /// library fork (copying the harness's page tables, a cost that
    /// grows with the harness's heap) instead of using `posix_spawn`,
    /// and that cost would land in every CLI latency.
    pub fn spawn(cmd: &mut Command) -> std::io::Result<Guarded> {
        Ok(Guarded { child: Some(cmd.spawn()?) })
    }

    /// Spawn a long-lived child (a daemon) that gets SIGKILL if the
    /// harness dies first.
    pub fn spawn_tied(cmd: &mut Command) -> std::io::Result<Guarded> {
        use std::os::unix::process::CommandExt;
        // SAFETY: the hook runs in the forked child before exec and
        // only makes one async-signal-safe syscall; it touches no
        // memory shared with the parent.
        unsafe {
            cmd.pre_exec(|| {
                sys::prctl(sys::PR_SET_PDEATHSIG, sys::SIGKILL);
                Ok(())
            });
        }
        Ok(Guarded { child: Some(cmd.spawn()?) })
    }

    /// The running child.
    pub fn child(&mut self) -> &mut Child {
        self.child.as_mut().expect("the child is present until the guard drops")
    }

    /// The child's process id.
    pub fn pid(&self) -> u32 {
        self.child.as_ref().map_or(0, Child::id)
    }

    /// Collect the child's piped output and exit status.
    pub fn output(mut self) -> std::io::Result<std::process::Output> {
        let child = self.child.take().expect("the child is present until the guard drops");
        child.wait_with_output()
    }

    /// Wait up to `timeout` for the child to exit on its own (the
    /// caller asked it to stop); it is killed if it has not.
    pub fn finish(mut self, timeout: std::time::Duration) -> Result<(), String> {
        let mut child = self.child.take().expect("the child is present until the guard drops");
        let start = std::time::Instant::now();
        while start.elapsed() < timeout {
            match child.try_wait() {
                Ok(Some(status)) if status.success() => return Ok(()),
                Ok(Some(status)) => return Err(format!("daemon exited {status}")),
                Ok(None) => std::thread::sleep(std::time::Duration::from_millis(5)),
                Err(e) => return Err(e.to_string()),
            }
        }
        let _ = child.kill();
        let _ = child.wait();
        Err("daemon did not stop after shutdown; killed".into())
    }
}

impl Drop for Guarded {
    fn drop(&mut self) {
        if let Some(mut child) = self.child.take() {
            let _ = child.kill();
            let _ = child.wait();
        }
    }
}

/// Have the kernel kill this process when its parent (the launcher)
/// dies, so no harness outlives an interrupted run.
pub fn die_with_parent() {
    // SAFETY: prctl(PR_SET_PDEATHSIG) takes a signal number and touches
    // no memory.
    unsafe {
        sys::prctl(sys::PR_SET_PDEATHSIG, sys::SIGKILL);
    }
}

/// Peak resident set of the largest child reaped so far, in MB.
pub fn children_peak_rss_mb() -> f64 {
    let mut usage = sys::RUsage { utime: [0; 2], stime: [0; 2], maxrss: 0, rest: [0; 13] };
    // SAFETY: `usage` is a live, writable struct with the kernel's
    // `struct rusage` layout on 64-bit Linux.
    let rc = unsafe { sys::getrusage(sys::RUSAGE_CHILDREN, &mut usage) };
    if rc == 0 {
        usage.maxrss as f64 / 1024.0
    } else {
        f64::NAN
    }
}

/// A process's peak resident set (`VmHWM`), in MB.
pub fn vm_hwm_mb(pid: u32) -> f64 {
    let status = std::fs::read_to_string(format!("/proc/{pid}/status")).unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// A scratch directory under the checkout, removed when dropped.
pub struct WorkDir {
    path: PathBuf,
}

impl WorkDir {
    /// Create `.bench_tmp/<name>-<pid>` relative to the working
    /// directory (kept relative so socket paths stay short).
    pub fn create(name: &str) -> std::io::Result<WorkDir> {
        let path = PathBuf::from(".bench_tmp").join(format!("{name}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&path);
        std::fs::create_dir_all(&path)?;
        Ok(WorkDir { path })
    }

    /// A path inside the directory.
    pub fn file(&self, name: &str) -> PathBuf {
        self.path.join(name)
    }
}

impl Drop for WorkDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.path);
        // Leave no empty parent behind either.
        let _ = std::fs::remove_dir(".bench_tmp");
    }
}
