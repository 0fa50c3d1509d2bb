//! The IPG benchmark: one command per workload, printing every metric
//! by name with its unit, checking every result, and ending with one
//! JSON result line.
//!
//! ```text
//! perfbench --workload files|serve|grammar_load --seed N --seconds S --trace 0|1 \
//!     --ipg PATH --metrics NAME:UNIT,...
//! ```
//!
//! `perfbench/run.py` builds this binary and the `ipg` CLI and runs it
//! from the repository root, passing the metric names and units
//! `BENCHMARK.json` declares for the mode (`end_to_end` untraced,
//! `per_layer` traced), which are the only ones a run may print; see
//! `perfbench/README.md` for what each workload and metric means.

mod files;
mod grammar_load;
mod inputs;
mod reference;
mod report;
mod serve;
mod sys;

use report::{result_line, Metric};
use std::path::{Path, PathBuf};
use std::time::Instant;

/// A run whose machine-wide steal share exceeds this is marked noisy in
/// its `noise:` line.
const NOISY_STEAL_PCT: f64 = 5.0;

/// Everything a workload needs to know about its run.
pub struct Ctx {
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// This run's private scratch directory (absolute; removed on exit).
    pub run_dir: PathBuf,
    /// The `.perfbench` directory at the checkout root (relative, short
    /// enough for a Unix socket path).
    pub base: PathBuf,
    /// The `ipg` CLI binary.
    pub ipg: PathBuf,
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    ipg: PathBuf,
    /// The declared metrics of the mode, `(name, unit)`.
    metrics: Vec<(String, String)>,
}

fn parse_args() -> Result<Args, String> {
    let mut a = Args {
        workload: String::new(),
        seed: 1,
        seconds: 10.0,
        trace: false,
        ipg: PathBuf::new(),
        metrics: Vec::new(),
    };
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let val = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => a.workload = val.clone(),
            "--seed" => a.seed = val.parse().map_err(|_| format!("bad --seed {val}"))?,
            "--seconds" => a.seconds = val.parse().map_err(|_| format!("bad --seconds {val}"))?,
            "--trace" => a.trace = val == "1",
            "--ipg" => a.ipg = PathBuf::from(val),
            "--metrics" => {
                a.metrics = val
                    .split(',')
                    .map(|nu| {
                        nu.split_once(':')
                            .map(|(n, u)| (n.to_owned(), u.to_owned()))
                            .ok_or_else(|| format!("bad --metrics entry `{nu}`"))
                    })
                    .collect::<Result<_, _>>()?;
            }
            other => return Err(format!("unknown flag {other}")),
        }
    }
    if !["files", "serve", "grammar_load"].contains(&a.workload.as_str()) {
        return Err(format!(
            "--workload must be files, serve or grammar_load, not `{}`",
            a.workload
        ));
    }
    if a.seconds.is_nan() || a.seconds <= 0.0 {
        return Err("--seconds must be positive".into());
    }
    if a.metrics.is_empty() {
        return Err("--metrics is required (the names and units BENCHMARK.json declares)".into());
    }
    Ok(a)
}

/// The run's scratch directory: caches, the server socket, its trace
/// log. Removed on every exit path, unwinding included.
struct RunDir(PathBuf);

impl Drop for RunDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// Removes scratch directories left by benchmark processes that no
/// longer exist (a run killed before its clean-up).
fn sweep_stale_runs(base: &Path) {
    let Ok(rd) = std::fs::read_dir(base) else { return };
    for e in rd.flatten() {
        let name = e.file_name().to_string_lossy().into_owned();
        if let Some(pid) = name.strip_prefix("run-").and_then(|p| p.parse::<u32>().ok()) {
            if !Path::new(&format!("/proc/{pid}")).exists() {
                let _ = std::fs::remove_dir_all(e.path());
            }
        }
    }
}

/// Compares this run's exact counts with those recorded by an earlier
/// run of the same workload, seed and code; records them if none were.
fn check_exact(
    base: &Path,
    workload: &str,
    seed: u64,
    code: u64,
    exact: &[(String, u64)],
) -> Result<(), String> {
    let dir = base.join("exact");
    std::fs::create_dir_all(&dir).map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
    let path = dir.join(format!("{workload}-seed{seed}-{code:016x}.txt"));
    let text: String = exact.iter().map(|(k, v)| format!("{k} {v}\n")).collect();
    match std::fs::read_to_string(&path) {
        Ok(prev) if prev == text => Ok(()),
        Ok(prev) => {
            let diff = prev.lines().zip(text.lines()).find(|(a, b)| a != b).map_or_else(
                || "a different set of counts".to_owned(),
                |(a, b)| format!("`{a}` before, `{b}` now"),
            );
            Err(format!("exact counts differ from an earlier run with seed {seed}: {diff}"))
        }
        Err(_) => {
            std::fs::write(&path, text).map_err(|e| format!("cannot write {}: {e}", path.display()))
        }
    }
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    let root = std::env::current_dir().expect("current directory");
    let base = PathBuf::from(".perfbench");
    if let Err(e) = std::fs::create_dir_all(&base) {
        eprintln!("perfbench: cannot create {}: {e}", base.display());
        std::process::exit(2);
    }
    if let Some(pid) = serve::stale_server(&base) {
        eprintln!(
            "perfbench: a benchmark server (pid {pid}) from an earlier run is still alive; \
             stop it before benchmarking"
        );
        std::process::exit(3);
    }
    sweep_stale_runs(&base);
    let run = RunDir(root.join(&base).join(format!("run-{}", std::process::id())));
    std::fs::create_dir_all(&run.0).expect("create run directory");

    // The program under test reads its cache location and policy from
    // the environment; pin them to the run's own directory.
    std::env::set_var("IPG_CACHE_DIR", run.0.join("cache"));
    for var in [
        "IPG_NO_CACHE",
        "IPG_ARTIFACT_KEY",
        "IPG_FAULT_SEED",
        "IPG_FAULT_PANIC_PM",
        "IPG_FAULT_STALL_PM",
        "IPG_FAULT_CORRUPT_PM",
    ] {
        std::env::remove_var(var);
    }

    let ctx = Ctx {
        seed: args.seed,
        seconds: args.seconds,
        trace: args.trace,
        run_dir: run.0.clone(),
        base: base.clone(),
        // Absolute: the server is spawned in the run directory.
        ipg: root.join(&args.ipg),
    };
    let (commit, code) = sys::code_identity(&root);
    let ticks = sys::CpuTicks::now();
    let wall = Instant::now();
    let mut out = match args.workload.as_str() {
        "files" => files::run(&ctx),
        "serve" => serve::run(&ctx),
        _ => grammar_load::run(&ctx),
    };
    let noise = sys::Noise::between(ticks, sys::CpuTicks::now());

    if out.failed == 0 {
        if let Err(e) = check_exact(&base, &args.workload, args.seed, code, &out.exact) {
            out.fail(e);
        }
    }

    println!(
        "noise: workload={} seed={} trace={} wall_s={:.2} steal_pct={:.2} noisy={} idle_pct={:.2} loadavg=\"{}\" nproc={} commit={} code={code:016x}",
        args.workload,
        args.seed,
        u8::from(args.trace),
        wall.elapsed().as_secs_f64(),
        noise.steal_pct,
        if noise.steal_pct > NOISY_STEAL_PCT { "yes" } else { "no" },
        noise.idle_pct,
        noise.loadavg,
        noise.nproc,
        commit
    );
    // The result carries exactly the declared metric set for the mode,
    // and the workload may measure nothing else.
    let undeclared: Vec<String> = out
        .metrics
        .0
        .iter()
        .filter(|m| !args.metrics.iter().any(|(n, _)| *n == m.name))
        .map(|m| m.name.clone())
        .collect();
    for name in undeclared {
        out.fail(format!("metric {name} is not declared in BENCHMARK.json for this mode"));
    }
    let mut metrics = Vec::with_capacity(args.metrics.len());
    for (name, unit) in args.metrics {
        let value = match out.metrics.get(&name) {
            Some(m) if m.unit == unit && m.value.is_finite() => m.value,
            Some(m) => {
                out.fail(format!("metric {name} came out as {} {}", m.value, m.unit));
                0.0
            }
            // A per-layer figure of a layer this workload bypasses.
            None if args.trace => 0.0,
            None => {
                out.fail(format!("end-to-end metric {name} was not measured"));
                0.0
            }
        };
        metrics.push(Metric { name, unit, value });
    }
    for e in &out.errors {
        println!("FAILED: {e}");
    }
    let correct = out.failed == 0;
    println!("{}", result_line(correct, out.attempted.max(1), out.failed, &metrics));
    drop(run);
    std::process::exit(if correct { 0 } else { 1 });
}
