//! The structured trace log: one JSON-lines event stream covering every
//! request from protocol admission through pool dispatch to completion.
//!
//! Every admitted request is assigned a process-unique **span id** at
//! admission ([`next_span`]); the id rides on the `pool::Job`
//! through queueing, stealing, fault injection, and reply delivery, so
//! the events of one request can be joined back together from the log
//! with nothing but `span`. Event shape (one JSON object per line):
//!
//! ```text
//! {"ts_us":123,"span":7,"event":"admit","kind":"parse"}
//! {"ts_us":130,"span":7,"event":"dispatch","worker":2}
//! {"ts_us":131,"span":7,"event":"fault","fault":"panic"}
//! {"ts_us":140,"span":7,"event":"done","outcome":"error","latency_us":17}
//! ```
//!
//! The log is a **bounded ring buffer**: a full ring evicts its oldest
//! line (drop-counted) rather than growing. Every critical section is
//! amortized O(1) — a producer appends one line, and [`TraceLog::drain`] swaps the
//! whole ring out with `std::mem::take` — so producers take the lock
//! outright and no event is lost to contention. A [`TraceWriter`] thread
//! drains the ring to a file (`ipg serve --trace-log`); the drop count is
//! exported so overflow loss is visible, never silent.

use std::collections::VecDeque;
use std::io::Write;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, PoisonError};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Default ring capacity (lines). At ~120 bytes a line this bounds the
/// buffer near 8 MiB under the worst case.
pub const DEFAULT_CAPACITY: usize = 65_536;

/// Hands out process-unique span ids, starting at 1 (0 means "no span").
pub fn next_span() -> u64 {
    static NEXT: AtomicU64 = AtomicU64::new(1);
    NEXT.fetch_add(1, Ordering::Relaxed)
}

/// The shared, bounded event ring.
#[derive(Debug)]
pub struct TraceLog {
    ring: Mutex<VecDeque<String>>,
    capacity: usize,
    started: Instant,
    emitted: AtomicU64,
    dropped: AtomicU64,
}

impl TraceLog {
    /// A ring holding at most `capacity` undrained lines.
    pub fn new(capacity: usize) -> TraceLog {
        TraceLog {
            ring: Mutex::new(VecDeque::new()),
            capacity: capacity.max(1),
            started: Instant::now(),
            emitted: AtomicU64::new(0),
            dropped: AtomicU64::new(0),
        }
    }

    /// Microseconds since the log was created — the `ts_us` field.
    pub fn now_us(&self) -> u64 {
        self.started.elapsed().as_micros() as u64
    }

    /// Appends one pre-rendered JSON line. A full ring evicts its
    /// oldest line and counts the drop.
    pub fn push(&self, line: String) {
        let mut ring = self.ring.lock().unwrap_or_else(PoisonError::into_inner);
        if ring.len() >= self.capacity {
            ring.pop_front();
            self.dropped.fetch_add(1, Ordering::Relaxed);
        }
        ring.push_back(line);
        self.emitted.fetch_add(1, Ordering::Relaxed);
    }

    /// Takes every undrained line (the writer thread's read side). The
    /// ring is swapped out under the lock in O(1) and converted after
    /// the lock is released.
    pub fn drain(&self) -> Vec<String> {
        let ring = std::mem::take(&mut *self.ring.lock().unwrap_or_else(PoisonError::into_inner));
        Vec::from(ring)
    }

    /// Events accepted into the ring since creation.
    pub fn emitted(&self) -> u64 {
        self.emitted.load(Ordering::Relaxed)
    }

    /// Events lost to ring overflow since creation.
    pub fn dropped(&self) -> u64 {
        self.dropped.load(Ordering::Relaxed)
    }

    /// Emits an `admit` event: the request was assigned `span` and
    /// either queued or shed at admission.
    pub(crate) fn admit(&self, span: u64, kind: &str, shed: bool) {
        let ts = self.now_us();
        let queued = if shed { "false" } else { "true" };
        self.push(format!(
            "{{\"ts_us\":{ts},\"span\":{span},\"event\":\"admit\",\"kind\":\"{kind}\",\"queued\":{queued}}}"
        ));
    }

    /// Emits a `dispatch` event: worker `worker` began executing the
    /// span's job.
    pub(crate) fn dispatch(&self, span: u64, worker: usize) {
        let ts = self.now_us();
        self.push(format!(
            "{{\"ts_us\":{ts},\"span\":{span},\"event\":\"dispatch\",\"worker\":{worker}}}"
        ));
    }

    /// Emits a `fault` event: the chaos schedule injected `fault` into
    /// this span's job.
    pub(crate) fn fault(&self, span: u64, fault: &str) {
        let ts = self.now_us();
        self.push(format!(
            "{{\"ts_us\":{ts},\"span\":{span},\"event\":\"fault\",\"fault\":\"{fault}\"}}"
        ));
    }

    /// Emits the terminal `done` event with the ledger classification
    /// and admission→reply latency.
    pub(crate) fn done(&self, span: u64, outcome: &str, latency: Duration) {
        let ts = self.now_us();
        let us = latency.as_micros() as u64;
        self.push(format!(
            "{{\"ts_us\":{ts},\"span\":{span},\"event\":\"done\",\"outcome\":\"{outcome}\",\"latency_us\":{us}}}"
        ));
    }
}

/// The background flusher: drains the ring to a file on a short period
/// and on [`TraceWriter::finish`]. I/O errors after open are counted,
/// not fatal — tracing must never take the service down.
pub struct TraceWriter {
    stop: Arc<AtomicBool>,
    thread: Option<JoinHandle<u64>>,
    path: PathBuf,
}

impl TraceWriter {
    /// Opens (truncating) `path` and spawns the flusher thread.
    ///
    /// # Errors
    ///
    /// The underlying `File::create` error when the path is unwritable.
    pub fn spawn(log: Arc<TraceLog>, path: &Path) -> std::io::Result<TraceWriter> {
        let mut file = std::fs::File::create(path)?;
        let stop = Arc::new(AtomicBool::new(false));
        let stop_flag = Arc::clone(&stop);
        let thread =
            std::thread::Builder::new().name("ipg-serve-trace".into()).spawn(move || {
                let mut written = 0u64;
                loop {
                    let stopping = stop_flag.load(Ordering::Acquire);
                    for line in log.drain() {
                        if writeln!(file, "{line}").is_ok() {
                            written += 1;
                        }
                    }
                    let _ = file.flush();
                    if stopping {
                        return written;
                    }
                    std::thread::sleep(Duration::from_millis(25));
                }
            })?;
        Ok(TraceWriter { stop, thread: Some(thread), path: path.to_owned() })
    }

    /// The file being written.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Stops the flusher after one final drain; returns the number of
    /// lines written over the writer's lifetime.
    pub fn finish(mut self) -> u64 {
        self.stop.store(true, Ordering::Release);
        self.thread.take().and_then(|t| t.join().ok()).unwrap_or(0)
    }
}

impl Drop for TraceWriter {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::Release);
        if let Some(t) = self.thread.take() {
            let _ = t.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn span_ids_are_unique_and_nonzero() {
        let a = next_span();
        let b = next_span();
        assert_ne!(a, 0);
        assert_ne!(a, b);
    }

    #[test]
    fn events_render_as_json_lines_in_order() {
        let log = TraceLog::new(16);
        log.admit(7, "parse", false);
        log.dispatch(7, 2);
        log.fault(7, "panic");
        log.done(7, "error", Duration::from_micros(17));
        let lines = log.drain();
        assert_eq!(lines.len(), 4);
        assert!(lines[0].contains("\"event\":\"admit\"") && lines[0].contains("\"span\":7"));
        assert!(lines[0].contains("\"kind\":\"parse\"") && lines[0].contains("\"queued\":true"));
        assert!(lines[1].contains("\"event\":\"dispatch\"") && lines[1].contains("\"worker\":2"));
        assert!(
            lines[2].contains("\"event\":\"fault\"") && lines[2].contains("\"fault\":\"panic\"")
        );
        assert!(lines[3].contains("\"event\":\"done\"") && lines[3].contains("\"latency_us\":17"));
        // Every line is a single JSON object.
        for l in &lines {
            assert!(l.starts_with('{') && l.ends_with('}'), "{l}");
        }
        assert_eq!(log.emitted(), 4);
        assert_eq!(log.dropped(), 0);
    }

    #[test]
    fn full_ring_evicts_oldest_and_counts_the_drop() {
        let log = TraceLog::new(2);
        log.push("{\"n\":1}".into());
        log.push("{\"n\":2}".into());
        log.push("{\"n\":3}".into());
        assert_eq!(log.dropped(), 1);
        let lines = log.drain();
        assert_eq!(lines, vec!["{\"n\":2}".to_string(), "{\"n\":3}".to_string()]);
    }

    #[test]
    fn contended_pushes_are_never_dropped() {
        let log = Arc::new(TraceLog::new(1 << 16));
        let producers: Vec<_> = (0..2)
            .map(|_| {
                let log = Arc::clone(&log);
                std::thread::spawn(move || {
                    for n in 0..5_000 {
                        log.push(format!("{{\"n\":{n}}}"));
                    }
                })
            })
            .collect();
        let mut drained = 0;
        while !producers.iter().all(|p| p.is_finished()) {
            drained += log.drain().len();
        }
        for p in producers {
            p.join().unwrap();
        }
        drained += log.drain().len();
        assert_eq!((drained, log.emitted(), log.dropped()), (10_000, 10_000, 0));
    }

    #[test]
    fn writer_flushes_to_file_and_reports_line_count() {
        let dir = std::env::temp_dir().join(format!("ipg-trace-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("trace.jsonl");
        let log = Arc::new(TraceLog::new(64));
        let writer = TraceWriter::spawn(Arc::clone(&log), &path).unwrap();
        log.admit(1, "parse", false);
        log.done(1, "done", Duration::from_micros(5));
        let written = writer.finish();
        assert_eq!(written, 2);
        let body = std::fs::read_to_string(&path).unwrap();
        assert_eq!(body.lines().count(), 2);
        assert!(body.lines().all(|l| l.starts_with('{') && l.ends_with('}')));
        let _ = std::fs::remove_dir_all(&dir);
    }
}
