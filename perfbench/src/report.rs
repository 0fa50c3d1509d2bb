//! Sample statistics and the result line.

use std::time::{Duration, Instant};

/// The median of `v` (sorted in place); 0 for an empty sample.
pub fn median(v: &mut [f64]) -> f64 {
    quantile(v, 0.5)
}

/// The `q`-quantile of `v` (sorted in place) by linear interpolation; 0
/// for an empty sample.
pub fn quantile(v: &mut [f64], q: f64) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    v.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

/// The median of whole-number data (the server logs whole
/// microseconds), interpolated within the median's bin as for grouped
/// data, so that it moves with the distribution instead of sticking to
/// one whole number.
pub fn grouped_median(v: &mut [f64]) -> f64 {
    let m = median(v);
    let below = v.iter().filter(|&&x| x < m.floor()).count() as f64;
    let at = v.iter().filter(|&&x| x == m.floor()).count() as f64;
    if at == 0.0 {
        return m;
    }
    m.floor() - 0.5 + (v.len() as f64 / 2.0 - below) / at
}

/// The arithmetic mean; 0 for an empty sample.
pub fn mean(v: &[f64]) -> f64 {
    if v.is_empty() {
        0.0
    } else {
        v.iter().sum::<f64>() / v.len() as f64
    }
}

/// `part / whole`, or 0 when `whole` is 0.
pub fn ratio(part: f64, whole: f64) -> f64 {
    if whole == 0.0 {
        0.0
    } else {
        part / whole
    }
}

/// Length of the wall-clock windows a run is cut into.
pub const WINDOW: Duration = Duration::from_millis(100);

/// Which end of a run's per-window values its figure is taken from.
///
/// On the shared 2-vCPU reference machine the windows of one run move
/// between a slow and a fast machine state about 1.8x apart, over
/// seconds, and the share of windows in each state changes from run to
/// run, which moves a run's median or mean by up to a third. Each
/// workload reports the end of its windows whose level repeats between
/// runs (measurements in `perfbench/README.md`).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum End {
    /// The in-process workloads time their own thread's CPU, which steal
    /// and preemption do not reach: their slow state is a contended core
    /// whose level repeats within a few percent, while the fast state's
    /// level drifts with how idle the host is.
    Slow,
    /// The parse service's round trips cross threads and processes, so
    /// any preemption or steal adds wall time without limit: its slow
    /// windows form a long tail and its fast ones repeat.
    Fast,
}

impl End {
    /// Share of a run's windows beyond the percentile taken: 5%, so
    /// 15 windows or more at `--seconds` of 30.
    const TAIL: f64 = 0.05;

    /// The figure of per-window times (latencies, set-up times).
    pub fn time(self, v: &mut [f64]) -> f64 {
        quantile(v, if self == End::Slow { 1.0 - Self::TAIL } else { Self::TAIL })
    }

    /// The figure of per-window rates (operations or bytes per second).
    pub fn rate(self, v: &mut [f64]) -> f64 {
        quantile(v, if self == End::Slow { Self::TAIL } else { 1.0 - Self::TAIL })
    }
}

/// Work done in one window.
#[derive(Clone, Copy, Default)]
pub struct Window {
    pub ops: u64,
    pub bytes: u64,
    /// Time spent inside the timed calls (wall time, for the server).
    pub busy: Duration,
    /// CPU time the work consumed.
    pub cpu: Duration,
}

/// A run's measurements on a fixed grid of [`WINDOW`]s from `begin`:
/// the work per window and, for each operation (an input, a request
/// kind), the sum and count of its latencies per window. Memory depends
/// only on the run length, not on how fast the program is.
#[derive(Clone)]
pub struct Recorder {
    begin: Instant,
    end: End,
    n_ops: usize,
    pub windows: Vec<Window>,
    lat: Vec<(f64, u32)>,
}

impl Recorder {
    pub fn new(begin: Instant, end: End, seconds: f64, n_ops: usize) -> Recorder {
        let n = (seconds / WINDOW.as_secs_f64()).floor().max(1.0) as usize;
        Recorder {
            begin,
            end,
            n_ops,
            windows: vec![Window::default(); n],
            lat: vec![(0.0, 0); n * n_ops],
        }
    }

    /// The window `at` falls in, if inside the run.
    pub fn index(&self, at: Instant) -> Option<usize> {
        let k =
            (at.checked_duration_since(self.begin)?.as_secs_f64() / WINDOW.as_secs_f64()) as usize;
        (k < self.windows.len()).then_some(k)
    }

    /// The start of window `k` (`k == len` is the end of the run).
    pub fn boundary(&self, k: usize) -> Instant {
        self.begin + WINDOW * k as u32
    }

    pub fn len(&self) -> usize {
        self.windows.len()
    }

    /// Records one operation at `at` (its start or its end, as the
    /// caller files it): its latency under `op` and its work. Operations
    /// outside the run are ignored.
    pub fn record(&mut self, at: Instant, op: usize, us: f64, work: Window) {
        let Some(k) = self.index(at) else { return };
        let w = &mut self.windows[k];
        w.ops += work.ops;
        w.bytes += work.bytes;
        w.busy += work.busy;
        w.cpu += work.cpu;
        let cell = &mut self.lat[k * self.n_ops + op];
        cell.0 += us;
        cell.1 += 1;
    }

    /// Adds another recorder's operations (same grid) into this one.
    pub fn merge(&mut self, other: &Recorder) {
        for (w, o) in self.windows.iter_mut().zip(&other.windows) {
            w.ops += o.ops;
            w.bytes += o.bytes;
            w.busy += o.busy;
            w.cpu += o.cpu;
        }
        for (c, o) in self.lat.iter_mut().zip(&other.lat) {
            c.0 += o.0;
            c.1 += o.1;
        }
    }

    /// A per-window rate `f` of each window with work, in time order.
    pub fn rates(&self, f: impl Fn(&Window) -> f64) -> Vec<f64> {
        self.windows.iter().filter(|w| w.ops > 0).map(f).collect()
    }

    /// The per-window rate `f` at the recorder's [`End`].
    pub fn rate(&self, f: impl Fn(&Window) -> f64) -> f64 {
        self.end.rate(&mut self.rates(f))
    }

    /// One line with every window's rate `f`, so that a run's figure can
    /// be recomputed, or reduced another way, from its output.
    pub fn rates_line(&self, what: &str, f: impl Fn(&Window) -> f64) -> String {
        let v: Vec<String> = self.rates(f).iter().map(|r| format!("{r:.1}")).collect();
        format!("windows: {what} per {} ms window: {}", WINDOW.as_millis(), v.join(" "))
    }

    /// The latency of the operations `keep` selects: per window,
    /// the mean over those operations of each one's mean latency in the
    /// window (a median pooled over different inputs would jump between
    /// the inputs' clusters); then the window at the recorder's [`End`].
    pub fn latency(&self, keep: impl Fn(usize) -> bool) -> f64 {
        let mut v: Vec<f64> = (0..self.len())
            .filter_map(|k| {
                let means: Vec<f64> = (0..self.n_ops)
                    .filter(|&op| keep(op))
                    .map(|op| self.lat[k * self.n_ops + op])
                    .filter(|c| c.1 > 0)
                    .map(|c| c.0 / f64::from(c.1))
                    .collect();
                (!means.is_empty()).then(|| mean(&means))
            })
            .collect();
        self.end.time(&mut v)
    }
}

/// Repeats `once` (which returns the time of the step it measures)
/// until `end`, at least once, and returns the mean time per call.
fn setup_window(
    end: Instant,
    once: &mut impl FnMut() -> Result<Duration, String>,
) -> Result<f64, String> {
    let (mut sum, mut n) = (Duration::ZERO, 0u32);
    while n == 0 || Instant::now() < end {
        sum += once()?;
        n += 1;
    }
    Ok(sum.as_secs_f64() / f64::from(n))
}

/// Set-up time measured before a run: `once` is repeated for `total`,
/// cut into [`WINDOW`]s, and the figure is the mean time per call in the
/// window at `end`. A single set-up takes milliseconds, too short to
/// time on its own on a shared machine.
pub fn setup_time(
    total: Duration,
    end: End,
    mut once: impl FnMut() -> Result<Duration, String>,
) -> Result<f64, String> {
    let windows = (total.as_secs_f64() / WINDOW.as_secs_f64()).ceil().max(1.0) as usize;
    let mut means = Vec::with_capacity(windows);
    for _ in 0..windows {
        means.push(setup_window(Instant::now() + WINDOW, &mut once)?);
    }
    Ok(end.time(&mut means))
}

/// Share of a `serve` run's `--seconds` spent measuring set-up (warm
/// server starts), before the measured traffic.
pub const SETUP_SHARE: f64 = 0.1;

/// In a measured phase of an in-process workload, every
/// `SETUP_EVERY`-th window, the first included, times set-up instead of
/// the workload. The machine's speed drifts between a slow and a fast
/// state over seconds; set-up windows spread over the whole run meet
/// the same mix of states as the workload, where a block of set-up
/// windows before the loop would meet only the state of its few seconds.
pub const SETUP_EVERY: usize = 10;

/// Runs the `windows` [`WINDOW`]s of a phase starting at `begin`: every
/// [`SETUP_EVERY`]-th window repeats the set-up step `setup` (which
/// returns the time of the step it measures) and pushes the mean time
/// per call onto `setup_means`; the others call `work(state, end)`,
/// which runs the workload until `end`.
pub fn interleave<S>(
    state: &mut S,
    begin: Instant,
    windows: usize,
    setup_means: &mut Vec<f64>,
    mut setup: impl FnMut(&mut S) -> Result<Duration, String>,
    mut work: impl FnMut(&mut S, Instant),
) -> Result<(), String> {
    for k in 0..windows {
        let end = begin + WINDOW * (k as u32 + 1);
        if k % SETUP_EVERY == 0 {
            setup_means.push(setup_window(end, &mut || setup(state))?);
        } else {
            work(state, end);
        }
    }
    Ok(())
}

/// One named figure with its unit.
pub struct Metric {
    pub name: String,
    pub unit: String,
    pub value: f64,
}

/// The named figures a workload produced, in the order it produced them.
#[derive(Default)]
pub struct Metrics(pub Vec<Metric>);

impl Metrics {
    pub fn put(&mut self, name: impl Into<String>, unit: &str, value: f64) {
        self.0.push(Metric { name: name.into(), unit: unit.to_owned(), value });
    }

    pub fn get(&self, name: &str) -> Option<&Metric> {
        self.0.iter().find(|m| m.name == name)
    }
}

/// What one run of a workload established.
pub struct Outcome {
    /// Operations the benchmark started and checked.
    pub attempted: u64,
    /// Operations that failed or returned a wrong result.
    pub failed: u64,
    /// The first few failure descriptions.
    pub errors: Vec<String>,
    /// The end-to-end figures (untraced run) or per-layer figures
    /// (traced run).
    pub metrics: Metrics,
    /// Counts that must repeat exactly for a given seed and code
    /// (steps, suspends, frames, artifact bytes), by name.
    pub exact: Vec<(String, u64)>,
}

impl Outcome {
    pub fn new() -> Outcome {
        Outcome {
            attempted: 0,
            failed: 0,
            errors: Vec::new(),
            metrics: Metrics::default(),
            exact: Vec::new(),
        }
    }

    /// Counts one checked operation; a `Some` error marks it failed.
    pub fn check(&mut self, error: Option<String>) {
        self.attempted += 1;
        if let Some(e) = error {
            self.fail(e);
        }
    }

    /// Records a failure that was not tied to one counted operation
    /// (a set-up step, a ledger that does not reconcile).
    pub fn fail(&mut self, e: String) {
        self.failed += 1;
        if self.errors.len() < 8 {
            self.errors.push(e);
        }
    }

    /// [`Outcome::fail`], for returning early from a workload.
    pub fn failing(mut self, e: String) -> Outcome {
        self.fail(e);
        self
    }
}

/// Renders a finite number for JSON (non-finite values become null and
/// are caught by [`result_line`]'s caller as incorrect).
fn num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".into()
    }
}

/// The last line of standard output: the verdict and the metrics.
pub fn result_line(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!("\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}", m.name, num(m.value), m.unit)
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    )
}
