//! `ipg serve` — the batch/streaming parse service on a Unix socket,
//! with the corpus registry plus any extra grammars named on the command
//! line (all loaded through the same artifact pipeline).
//!
//! SIGTERM and ctrl-c (SIGINT) trigger a graceful drain instead of an
//! abrupt exit: the acceptor stops, queued one-shot jobs flush, open
//! sessions are sealed and their connections answered `GOAWAY`, and the
//! process exits 0 — so a rolling restart never tears a frame.

use crate::{CmdResult, Failure};
use ipg_formats::Registry;
use ipg_serve::fault::FaultPlan;
use ipg_serve::trace::{self, TraceLog, TraceWriter};
use ipg_serve::{Config, Server};
use std::path::Path;
use std::sync::Arc;
use std::time::Duration;

/// Minimal signal plumbing without a libc dependency: `signal(2)` is in
/// the C runtime every Rust binary already links. The handler does the
/// only async-signal-safe thing it can — set an atomic flag the serve
/// loop polls.
mod sig {
    use std::sync::atomic::{AtomicBool, Ordering};

    pub static REQUESTED: AtomicBool = AtomicBool::new(false);

    extern "C" fn on_signal(_signum: i32) {
        REQUESTED.store(true, Ordering::SeqCst);
    }

    type Handler = extern "C" fn(i32);
    extern "C" {
        fn signal(signum: i32, handler: Handler) -> usize;
    }

    const SIGINT: i32 = 2;
    const SIGTERM: i32 = 15;

    pub fn install() {
        // SAFETY: installing a handler that only performs an atomic
        // store, which is async-signal-safe.
        unsafe {
            signal(SIGINT, on_signal);
            signal(SIGTERM, on_signal);
        }
    }

    pub fn requested() -> bool {
        REQUESTED.load(Ordering::SeqCst)
    }
}

pub fn run(args: &[String]) -> CmdResult {
    let mut socket = None;
    let mut workers = None;
    let mut max_queue = None;
    let mut watch = None;
    let mut metrics_addr = None;
    let mut trace_log = None;
    let mut extra = Vec::new();
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--socket" => {
                socket = Some(
                    it.next().cloned().ok_or_else(|| Failure::usage("--socket needs a path"))?,
                );
            }
            "--metrics-addr" => {
                metrics_addr = Some(
                    it.next()
                        .cloned()
                        .ok_or_else(|| Failure::usage("--metrics-addr needs HOST:PORT"))?,
                );
            }
            "--trace-log" => {
                trace_log = Some(
                    it.next().cloned().ok_or_else(|| Failure::usage("--trace-log needs a path"))?,
                );
            }
            "--watch" => {
                watch = Some(
                    it.next()
                        .cloned()
                        .ok_or_else(|| Failure::usage("--watch needs a directory"))?,
                );
            }
            "--workers" => {
                workers = Some(
                    it.next()
                        .and_then(|v| v.parse::<usize>().ok())
                        .ok_or_else(|| Failure::usage("--workers needs a number"))?,
                );
            }
            "--max-queue" => {
                max_queue = Some(
                    it.next()
                        .and_then(|v| v.parse::<usize>().ok())
                        .ok_or_else(|| Failure::usage("--max-queue needs a number"))?,
                );
            }
            "--grammar" => {
                extra.push(
                    it.next().cloned().ok_or_else(|| Failure::usage("--grammar needs a path"))?,
                );
            }
            other => return Err(Failure::usage(format!("unexpected argument `{other}`"))),
        }
    }
    let Some(socket) = socket else {
        return Err(Failure::usage(
            "usage: ipg serve --socket PATH [--workers N] [--max-queue N] [--watch DIR] \
             [--metrics-addr HOST:PORT] [--trace-log PATH] [--grammar PATH]...",
        ));
    };

    let registry = Registry::corpus();
    for path in &extra {
        let entry = registry.load_path(Path::new(path)).map_err(Failure::runtime)?;
        println!("loaded `{}` from {path}", entry.name);
    }

    let mut cfg = Config::default();
    if let Some(workers) = workers {
        cfg.workers = workers;
    }
    if let Some(bound) = max_queue {
        cfg.max_queue = bound;
    }
    // Chaos-mode escape hatch: IPG_FAULT_* env vars arm the deterministic
    // fault injector (used by the chaos-smoke CI lane; no-op otherwise).
    cfg.faults = FaultPlan::from_env().map(Arc::new);
    if cfg.faults.is_some() {
        println!("fault injection armed from IPG_FAULT_* environment");
    }
    // Structured tracing: the ring is shared between the server (which
    // emits events) and the writer thread (which flushes them to disk).
    let trace = trace_log.as_ref().map(|_| Arc::new(TraceLog::new(trace::DEFAULT_CAPACITY)));
    cfg.trace = trace.clone();

    sig::install();
    let server = Arc::new(Server::with_registry(cfg, registry));
    let writer = match (&trace, &trace_log) {
        (Some(log), Some(path)) => {
            let w = TraceWriter::spawn(Arc::clone(log), Path::new(path))
                .map_err(|e| Failure::runtime(format!("cannot open trace log {path}: {e}")))?;
            println!("tracing request spans to {path} (JSON lines, bounded ring)");
            Some(w)
        }
        _ => None,
    };
    if let Some(addr) = &metrics_addr {
        let bound = server
            .serve_metrics(addr)
            .map_err(|e| Failure::runtime(format!("cannot bind metrics on {addr}: {e}")))?;
        println!("exposing Prometheus metrics on http://{bound}/metrics");
    }
    if let Some(dir) = &watch {
        server
            .watch_dir(Path::new(dir), ipg_serve::watch::DEFAULT_POLL_INTERVAL)
            .map_err(|e| Failure::runtime(format!("cannot watch {dir}: {e}")))?;
        println!("hot reloading grammars from {dir} (invalid artifacts are quarantined)");
    }
    let front = server
        .serve_unix(&socket)
        .map_err(|e| Failure::runtime(format!("cannot bind {socket}: {e}")))?;
    println!(
        "serving {} grammars on {socket} with {} workers (SIGTERM/ctrl-c drains)",
        server.registry().entries().len(),
        server.workers()
    );
    // The acceptor runs on its own thread; poll for a shutdown signal.
    while !sig::requested() {
        std::thread::sleep(Duration::from_millis(50));
    }

    // Graceful drain: stop accepting, refuse new work with GOAWAY, flush
    // queued jobs, seal open sessions, answer idle connections GOAWAY.
    println!("signal received; draining…");
    front.stop_accepting();
    server.drain();
    let stats = server.stats();
    if let Some(writer) = writer {
        let path = writer.path().display().to_string();
        let written = writer.finish();
        let dropped = trace.as_ref().map_or(0, |t| t.dropped());
        println!("trace: {written} events written to {path} ({dropped} dropped under pressure)");
    }
    // The drain summary *checks* the admission ledger, it does not just
    // print it: every admitted request must be classified
    // (completed/shed/failed). The reload/quarantine counters are
    // reported for the CI greps and the chaos harness to compare against
    // what they did; the server has no independent count to check them by.
    if !stats.reconciles() {
        return Err(Failure::runtime(format!(
            "LEDGER MISMATCH after drain: {} submitted != {} completed + {} shed + {} failed \
             (reloads ok/rejected: {}/{}; artifacts quarantined: {})",
            stats.submitted,
            stats.completed,
            stats.shed,
            stats.failed,
            stats.reloads_ok,
            stats.reloads_rejected,
            stats.artifacts_quarantined
        )));
    }
    println!(
        "drained: {} submitted = {} completed + {} shed + {} failed [ledger reconciled] \
         (sessions sealed: {}; reloads ok/rejected: {}/{}; artifacts quarantined: {}); exiting 0",
        stats.submitted,
        stats.completed,
        stats.shed,
        stats.failed,
        stats.sessions_sealed,
        stats.reloads_ok,
        stats.reloads_rejected,
        stats.artifacts_quarantined
    );
    // Give connection threads a beat to deliver their GOAWAYs before the
    // socket file disappears with `front`.
    std::thread::sleep(Duration::from_millis(100));
    drop(front);
    Ok(())
}
