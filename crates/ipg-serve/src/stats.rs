//! Service telemetry: lock-free counters bumped by the workers, read as a
//! consistent-enough snapshot by [`crate::Server::stats`].
//!
//! Every counter is one row of the `counter_table!` invocation below.
//! Each row names the field, its Prometheus name and help text, its
//! exposition kind, and its class in the admission ledger; the JSON key
//! of the `STATS` op is the field name. From that one table come the
//! pool's `Counters` atomics, the named fields of [`StatsSnapshot`], the
//! snapshot's `collect`/`to_json`, the Prometheus registrations in
//! `build_metrics`, and the ledger behind [`StatsSnapshot::reconciles`]
//! and the `ipg_requests_in_flight` gauge.
//!
//! The ledger: every admitted request (`Submitted`) is classified into
//! exactly one `Terminal` bucket, so at quiescence the books reconcile:
//! `submitted == completed + shed + failed`. The chaos harness asserts
//! this identity under injected faults — a panic, stall, or drain that
//! loses a reply shows up as a reconciliation gap. `Info` rows are
//! telemetry outside the ledger.

use crate::histo::LogHistogram;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

/// How a counter is exposed to Prometheus.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum Kind {
    /// Monotone total.
    Counter,
    /// Current value that may fall.
    Gauge,
}

/// A counter's role in the admission ledger.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum Class {
    /// Requests admitted: the ledger's domain.
    Submitted,
    /// One terminal classification of an admitted request.
    Terminal,
    /// Telemetry outside the ledger.
    Info,
}

/// One row of the counter table.
pub(crate) struct Row {
    /// JSON key in the `STATS` object (the field name).
    pub key: &'static str,
    /// Prometheus metric name.
    pub metric: &'static str,
    /// Prometheus `# HELP` text (also the field's doc comment).
    pub help: &'static str,
    pub kind: Kind,
    pub class: Class,
    /// The live atomic behind the row.
    pub cell: fn(&Counters) -> &AtomicU64,
    /// The row's value in a snapshot.
    pub value: fn(&StatsSnapshot) -> u64,
}

/// Expands the counter table: one `field: Kind, Class, "metric", "help";`
/// row per counter, in `STATS` JSON order. A row without a kind or class
/// does not match the macro, so no counter escapes classification.
macro_rules! counter_table {
    ($($field:ident: $kind:ident, $class:ident, $metric:literal, $help:literal;)+) => {
        /// Monotonic counters shared by every worker. All increments use
        /// relaxed ordering: the snapshot is observational, not a
        /// synchronization point.
        #[derive(Debug, Default)]
        pub(crate) struct Counters {
            $(#[doc = $help] pub $field: AtomicU64,)+
            /// Admission→reply latency (shared log₂ bucketing; see
            /// [`crate::histo`]).
            pub latency: LogHistogram,
        }

        /// The counter table, in `STATS` JSON order.
        pub(crate) static ROWS: &[Row] = &[$(Row {
            key: stringify!($field),
            metric: $metric,
            help: $help,
            kind: Kind::$kind,
            class: Class::$class,
            cell: |c| &c.$field,
            value: |s| s.$field,
        },)+];

        /// A point-in-time view of the service (the `STATS` protocol op
        /// returns this as JSON; see the README for the field meanings).
        #[derive(Clone, Debug)]
        pub struct StatsSnapshot {
            $(#[doc = $help] pub $field: u64,)+
            /// Median admission→reply latency, microseconds (log-bucketed).
            pub latency_p50_us: u64,
            /// 99th-percentile admission→reply latency, microseconds.
            pub latency_p99_us: u64,
            /// Seconds since the server started.
            pub elapsed_s: f64,
            /// Completed parses per second since start.
            pub parses_per_s: f64,
            /// Input bytes per second since start.
            pub bytes_per_s: f64,
            /// Total queue depth (pinned session jobs + stealable one-shot
            /// jobs) per worker at snapshot time.
            pub queue_depths: Vec<usize>,
        }

        impl StatsSnapshot {
            pub(crate) fn collect(
                c: &Counters,
                started: Instant,
                queue_depths: Vec<usize>,
            ) -> Self {
                let elapsed_s = started.elapsed().as_secs_f64().max(1e-9);
                let mut s = StatsSnapshot {
                    $($field: c.$field.load(Ordering::Relaxed),)+
                    latency_p50_us: c.latency.percentile(0.50),
                    latency_p99_us: c.latency.percentile(0.99),
                    elapsed_s,
                    parses_per_s: 0.0,
                    bytes_per_s: 0.0,
                    queue_depths,
                };
                s.parses_per_s = s.parses_ok as f64 / elapsed_s;
                s.bytes_per_s = s.bytes_in as f64 / elapsed_s;
                s
            }
        }
    };
}

counter_table! {
    parses_ok: Counter, Info, "ipg_parses_ok_total", "Completed parses.";
    parses_err: Counter, Info, "ipg_parses_err_total", "Failed parses.";
    sessions_opened: Counter, Info, "ipg_sessions_opened_total", "Streaming sessions opened.";
    sessions_closed: Counter, Info, "ipg_sessions_closed_total", "Streaming sessions closed.";
    sessions_evicted: Counter, Info,
        "ipg_sessions_evicted_total", "Sessions dropped by deadline eviction.";
    sessions_sealed: Counter, Info,
        "ipg_sessions_sealed_total", "Sessions sealed with GOAWAY during drain.";
    live_sessions: Gauge, Info,
        "ipg_live_sessions", "Sessions currently live across all workers.";
    bytes_in: Counter, Info, "ipg_bytes_in_total", "Input bytes accepted.";
    steps: Counter, Info, "ipg_vm_steps_total", "VM steps executed by completed work.";
    suspends: Counter, Info, "ipg_suspends_total", "Suspensions taken by streaming sessions.";
    steals: Counter, Info, "ipg_steals_total", "Jobs taken from another worker's queue.";
    submitted: Counter, Submitted,
        "ipg_requests_submitted_total", "Requests admitted (the ledger domain).";
    completed: Counter, Terminal,
        "ipg_requests_completed_total", "Requests answered successfully.";
    shed: Counter, Terminal, "ipg_requests_shed_total", "Requests shed with BUSY/GOAWAY.";
    failed: Counter, Terminal,
        "ipg_requests_failed_total", "Requests answered with a typed error.";
    panics_recovered: Counter, Info,
        "ipg_panics_recovered_total", "Worker panics converted to typed replies.";
    reloads_ok: Counter, Info,
        "ipg_reloads_ok_total", "Hot reloads that swapped a generation in.";
    reloads_rejected: Counter, Info,
        "ipg_reloads_rejected_total", "Hot reloads refused (previous generation kept).";
    artifacts_quarantined: Counter, Info,
        "ipg_artifacts_quarantined_total", "Invalid artifacts quarantined by the watcher.";
}

/// The admission ledger over the table: `(submitted, Σ terminal)`, with
/// `read` giving each row's value. Terminal rows are read first, so on
/// live atomics a request finishing mid-read cannot make the terminal
/// sum overtake `submitted`.
fn ledger(read: impl Fn(&Row) -> u64) -> (u64, u64) {
    let sum = |class| ROWS.iter().filter(|r| r.class == class).map(&read).sum::<u64>();
    let terminal = sum(Class::Terminal);
    (sum(Class::Submitted), terminal)
}

impl Counters {
    #[inline]
    pub(crate) fn add(field: &AtomicU64, n: u64) {
        field.fetch_add(n, Ordering::Relaxed);
    }

    /// Admitted requests not yet classified: the live reconciliation gap.
    pub(crate) fn in_flight(&self) -> u64 {
        let (submitted, terminal) = ledger(|r| (r.cell)(self).load(Ordering::Relaxed));
        submitted.saturating_sub(terminal)
    }
}

impl StatsSnapshot {
    /// `true` when the admission ledger balances: every admitted request
    /// reached exactly one terminal bucket. Only meaningful at quiescence
    /// (in-flight requests are submitted but not yet classified).
    pub fn reconciles(&self) -> bool {
        let (submitted, terminal) = ledger(|r| (r.value)(self));
        submitted == terminal
    }

    /// Renders the snapshot as a single JSON object (the wire format of
    /// the `STATS` op).
    pub fn to_json(&self) -> String {
        let mut out = String::from("{");
        for row in ROWS {
            let _ = write!(out, "\"{}\": {}, ", row.key, (row.value)(self));
        }
        let depths: Vec<String> = self.queue_depths.iter().map(|d| d.to_string()).collect();
        let _ = write!(
            out,
            "\"latency_p50_us\": {}, \"latency_p99_us\": {}, \"elapsed_s\": {:.3}, \
             \"parses_per_s\": {:.1}, \"bytes_per_s\": {:.0}, \"queue_depths\": [{}]}}",
            self.latency_p50_us,
            self.latency_p99_us,
            self.elapsed_s,
            self.parses_per_s,
            self.bytes_per_s,
            depths.join(", ")
        );
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn snapshot() -> StatsSnapshot {
        let c = Counters::default();
        StatsSnapshot::collect(&c, Instant::now(), vec![0, 0])
    }

    #[test]
    fn ledger_reconciles_exactly() {
        let mut s = snapshot();
        s.submitted = 10;
        s.completed = 7;
        s.shed = 2;
        s.failed = 1;
        assert!(s.reconciles());
        // One lost reply breaks the identity in either direction.
        s.failed = 0;
        assert!(!s.reconciles());
        s.failed = 2;
        assert!(!s.reconciles());
    }

    #[test]
    fn in_flight_is_the_live_ledger_gap() {
        let c = Counters::default();
        Counters::add(&c.submitted, 5);
        Counters::add(&c.completed, 2);
        Counters::add(&c.shed, 1);
        // Info rows stay out of the ledger.
        Counters::add(&c.parses_ok, 9);
        assert_eq!(c.in_flight(), 2);
        Counters::add(&c.failed, 2);
        assert_eq!(c.in_flight(), 0);
    }

    #[test]
    fn json_snapshot_names_every_reconciled_counter() {
        let j = snapshot().to_json();
        for key in [
            "submitted",
            "completed",
            "shed",
            "failed",
            "reloads_ok",
            "reloads_rejected",
            "artifacts_quarantined",
        ] {
            assert!(j.contains(&format!("\"{key}\"")), "missing {key} in {j}");
        }
    }
}
