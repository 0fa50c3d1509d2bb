//! Operating-system readings the benchmark takes from outside the
//! program under test: CPU time, peak memory, machine-wide CPU
//! accounting, and signals. Everything comes from `/proc` or from libc
//! calls every Rust binary already links, so no extra crate is needed.

use std::path::Path;
use std::time::Duration;

mod ffi {
    #[repr(C)]
    pub struct Timespec {
        pub tv_sec: i64,
        pub tv_nsec: i64,
    }

    extern "C" {
        pub fn clock_gettime(clock: i32, ts: *mut Timespec) -> i32;
        pub fn kill(pid: i32, sig: i32) -> i32;
        pub fn prctl(option: i32, arg2: u64, arg3: u64, arg4: u64, arg5: u64) -> i32;
    }

    pub const CLOCK_THREAD_CPUTIME_ID: i32 = 3;
    pub const PR_SET_PDEATHSIG: i32 = 1;
}

/// `SIGTERM`: asks `ipg serve` for a graceful drain.
pub const SIGTERM: i32 = 15;
/// `SIGKILL`: the last resort when a drain does not finish.
pub const SIGKILL: i32 = 9;

/// CPU time consumed by the calling thread so far.
pub fn thread_cpu() -> Duration {
    let mut ts = ffi::Timespec { tv_sec: 0, tv_nsec: 0 };
    // SAFETY: `ts` is a valid, writable timespec.
    let rc = unsafe { ffi::clock_gettime(ffi::CLOCK_THREAD_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime(CLOCK_THREAD_CPUTIME_ID) failed");
    Duration::new(ts.tv_sec as u64, ts.tv_nsec as u32)
}

/// CPU time consumed by process `pid`'s live threads so far: the sum of
/// their run times in `/proc/<pid>/task/*/schedstat`, which the scheduler
/// keeps in nanoseconds. (`utime`/`stime` in `/proc/<pid>/stat` are
/// sampled at clock ticks; on the reference virtual machine they read up
/// to a third lower in some runs at the same throughput.) Threads that have exited are not
/// counted, so compare two readings only across an interval in which the
/// process keeps its threads.
pub fn pid_cpu(pid: u32) -> Option<Duration> {
    let mut ns = 0u64;
    for task in std::fs::read_dir(format!("/proc/{pid}/task")).ok()?.flatten() {
        // A thread that exits between the listing and the read is skipped.
        if let Ok(text) = std::fs::read_to_string(task.path().join("schedstat")) {
            ns += text.split_whitespace().next()?.parse::<u64>().ok()?;
        }
    }
    Some(Duration::from_nanos(ns))
}

/// Peak resident set size (`VmHWM`) of process `pid` (`"self"` for this
/// one), in MiB.
pub fn peak_rss_mib(pid: &str) -> Option<f64> {
    let status = std::fs::read_to_string(format!("/proc/{pid}/status")).ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}

/// Resets this process's peak resident set size (`VmHWM`) to its current
/// size, so a later [`peak_rss_mib`] covers only what ran after.
pub fn reset_peak_rss() {
    // "5" resets the peak RSS (proc(5), /proc/pid/clear_refs). Failure
    // leaves the peak covering set-up too, which is the older figure.
    let _ = std::fs::write("/proc/self/clear_refs", "5");
}

/// Sends `sig` to `pid`; false when the process is already gone.
pub fn signal(pid: u32, sig: i32) -> bool {
    // SAFETY: kill(2) with a plain pid and signal number.
    unsafe { ffi::kill(pid as i32, sig) == 0 }
}

/// Arranges for the calling process to receive `SIGKILL` when its parent
/// dies. Called in a spawned child before exec, so a benchmark that is
/// itself killed can never leave a server behind.
pub fn die_with_parent() -> std::io::Result<()> {
    // SAFETY: prctl(PR_SET_PDEATHSIG) takes a signal number and no
    // pointers.
    if unsafe { ffi::prctl(ffi::PR_SET_PDEATHSIG, SIGKILL as u64, 0, 0, 0) } == 0 {
        Ok(())
    } else {
        Err(std::io::Error::last_os_error())
    }
}

/// Whether a live process `pid` has `needle` among its command-line
/// arguments.
pub fn process_has_arg(pid: u32, needle: &str) -> bool {
    std::fs::read(format!("/proc/{pid}/cmdline"))
        .map(|raw| raw.split(|&b| b == 0).any(|arg| arg == needle.as_bytes()))
        .unwrap_or(false)
}

/// Machine-wide CPU accounting from the first line of `/proc/stat`.
#[derive(Clone, Copy, Default)]
pub struct CpuTicks {
    total: u64,
    idle: u64,
    steal: u64,
}

impl CpuTicks {
    pub fn now() -> CpuTicks {
        let stat = std::fs::read_to_string("/proc/stat").unwrap_or_default();
        let v: Vec<u64> = stat
            .lines()
            .next()
            .unwrap_or("")
            .split_whitespace()
            .skip(1)
            .filter_map(|f| f.parse().ok())
            .collect();
        let at = |i: usize| v.get(i).copied().unwrap_or(0);
        // user nice system idle iowait irq softirq steal (guest time is
        // already counted in user).
        CpuTicks { total: (0..8).map(at).sum(), idle: at(3) + at(4), steal: at(7) }
    }
}

/// What else the machine was doing over one run's window.
pub struct Noise {
    pub steal_pct: f64,
    pub idle_pct: f64,
    pub loadavg: String,
    pub nproc: usize,
}

impl Noise {
    pub fn between(start: CpuTicks, end: CpuTicks) -> Noise {
        let total = end.total.saturating_sub(start.total).max(1) as f64;
        Noise {
            steal_pct: 100.0 * end.steal.saturating_sub(start.steal) as f64 / total,
            idle_pct: 100.0 * end.idle.saturating_sub(start.idle) as f64 / total,
            loadavg: std::fs::read_to_string("/proc/loadavg")
                .map(|s| s.split_whitespace().take(3).collect::<Vec<_>>().join(" "))
                .unwrap_or_else(|_| "unknown".into()),
            nproc: std::thread::available_parallelism().map_or(1, |n| n.get()),
        }
    }
}

/// Identifies the code under test: the git commit when the checkout is
/// a repository, and in any case an FNV-1a digest over the sources of
/// the workspace crates and of this benchmark (so two runs can be
/// matched to the same code even outside git).
pub fn code_identity(root: &Path) -> (String, u64) {
    // Only a repository rooted here: git would otherwise report the
    // commit of whatever repository encloses the checkout.
    let commit = root
        .join(".git")
        .exists()
        .then(|| {
            std::process::Command::new("git")
                .args(["rev-parse", "--short=12", "HEAD"])
                .current_dir(root)
                .stderr(std::process::Stdio::null())
                .output()
                .ok()
        })
        .flatten()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_owned())
        .unwrap_or_else(|| "none".into());
    let mut files = Vec::new();
    for dir in ["crates", "perfbench/src"] {
        collect_files(&root.join(dir), &mut files);
    }
    files.sort();
    let mut h = ipg_core::ipgc::Fnv1a::new();
    for f in files {
        if let Ok(bytes) = std::fs::read(&f) {
            h.update(f.strip_prefix(root).unwrap_or(&f).to_string_lossy().as_bytes());
            h.update(&bytes);
        }
    }
    (commit, h.finish())
}

fn collect_files(dir: &Path, out: &mut Vec<std::path::PathBuf>) {
    let Ok(rd) = std::fs::read_dir(dir) else { return };
    for e in rd.flatten() {
        let p = e.path();
        match e.file_type() {
            Ok(t) if t.is_dir() => collect_files(&p, out),
            Ok(t)
                if t.is_file()
                    && p.extension().is_some_and(|x| x == "rs" || x == "ipg" || x == "toml") =>
            {
                out.push(p);
            }
            _ => {}
        }
    }
}
