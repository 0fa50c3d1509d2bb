//! The sharded worker pool: one queue per worker, work stealing for
//! one-shot jobs, pinned delivery for streaming-session jobs, and
//! deadline-based eviction so a stalled or hostile stream cannot pin a
//! worker's memory forever.
//!
//! Sharding follows the zero-copy request-processing playbook: each
//! worker owns its sessions outright (no cross-worker locking on the hot
//! path), jobs carry owned buffers, and only the queue handoff takes a
//! lock. Stealing moves work, never sessions: a `Feed` for session `id`
//! must reach the worker holding that session's frame stack, so pinned
//! jobs are not stealable.
//!
//! Fault tolerance:
//!
//! * **Panic isolation** — every job body runs under `catch_unwind`; a
//!   panicking parse (or an injected fault) costs exactly that job, which
//!   is answered with a typed [`Error::WorkerPanic`], and the worker
//!   keeps serving. Shard locks are poison-recovered, so even a panic in
//!   an unexpected place can never wedge the queue handoff.
//! * **Admission control** — the shared (one-shot) queue is bounded; jobs
//!   over the bound are shed at submission with `BUSY` instead of queued.
//!   Pinned session queues stay unbounded by design: session traffic is
//!   self-clocking (one outstanding request per handle/connection), so
//!   its depth is bounded by the number of live sessions, and letting it
//!   through last honors "pinned traffic degrades last".
//! * **Drain** — once `Shared::draining` is set, queued one-shot jobs
//!   still execute (flush), but session jobs are answered `GOAWAY` and
//!   their sessions sealed; workers seal any remaining sessions before
//!   exiting instead of silently dropping them.

use crate::fault::{Fault, FaultPlan};
use crate::stats::Counters;
use crate::{ParseSummary, Response};
use ipg_core::interp::vm::{Outcome, Session};
use ipg_core::{Error, VmParser};
use std::collections::{HashMap, VecDeque};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc::Sender;
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::time::{Duration, Instant};

/// How long an idle worker sleeps between queue checks; also bounds how
/// stale a deadline eviction can be.
const IDLE_WAIT: Duration = Duration::from_millis(20);

/// What one job asks for. Owned buffers only: jobs cross threads. Jobs
/// that execute a grammar carry the parser generation the admission path
/// resolved (a self-contained clone), so a concurrent hot reload can
/// never pull a program out from under queued or running work.
pub(crate) enum JobKind {
    /// Parse `input` in one shot.
    Parse { vm: VmParser<'static>, input: Vec<u8> },
    /// Open a streaming session under `id` (pre-routed to the owner).
    Open { id: u64, vm: VmParser<'static> },
    /// Append a chunk to session `id`.
    Feed { id: u64, bytes: Vec<u8> },
    /// Signal end-of-input to session `id`.
    Finish { id: u64 },
}

impl JobKind {
    /// The session this job touches, if any — the state a caught panic
    /// may have corrupted and must therefore be discarded.
    fn session_id(&self) -> Option<u64> {
        match self {
            JobKind::Parse { .. } => None,
            JobKind::Open { id, .. } | JobKind::Feed { id, .. } | JobKind::Finish { id } => {
                Some(*id)
            }
        }
    }

    fn is_session_job(&self) -> bool {
        self.session_id().is_some()
    }
}

/// One unit of work. `reply` is a rendezvous channel: every job sends
/// exactly one [`Response`]. `accepted` timestamps admission so the
/// latency histogram covers queueing, not just execution; `span` is the
/// trace id assigned at admission, threading the request's events
/// (admit → dispatch → done) through the structured trace log.
pub(crate) struct Job {
    pub(crate) kind: JobKind,
    pub(crate) reply: Sender<Response>,
    pub(crate) accepted: Instant,
    pub(crate) span: u64,
}

impl Job {
    pub(crate) fn new(kind: JobKind, reply: Sender<Response>) -> Job {
        Job { kind, reply, accepted: Instant::now(), span: crate::trace::next_span() }
    }
}

/// A worker's two queues: `pinned` (session jobs, owner-only) and
/// `shared` (one-shot jobs, stealable from the back).
#[derive(Default)]
struct ShardQueues {
    pinned: VecDeque<Job>,
    shared: VecDeque<Job>,
}

pub(crate) struct Shard {
    queues: Mutex<ShardQueues>,
    ready: Condvar,
}

impl Shard {
    pub(crate) fn new() -> Self {
        Shard { queues: Mutex::new(ShardQueues::default()), ready: Condvar::new() }
    }

    /// Locks the queues, recovering from poison: a worker that panicked
    /// while holding the lock left plain queue data (two `VecDeque`s, no
    /// invariants between them), which the next user can safely adopt.
    /// `.expect` here would turn one caught panic into a pool-wide wedge.
    fn lock(&self) -> MutexGuard<'_, ShardQueues> {
        self.queues.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Queues a pinned (session) job. Never shed: see the module docs.
    pub(crate) fn push_pinned(&self, job: Job) {
        let mut q = self.lock();
        q.pinned.push_back(job);
        drop(q);
        self.ready.notify_one();
    }

    /// Queues a one-shot job unless the shared queue is at `bound`;
    /// returns the rejected job so the caller can answer `BUSY` on its
    /// reply channel. The check-and-insert is atomic under the shard
    /// lock, so the bound is exact, not advisory.
    pub(crate) fn try_push_shared(&self, job: Job, bound: usize) -> Result<(), Job> {
        let mut q = self.lock();
        if q.shared.len() >= bound {
            return Err(job);
        }
        q.shared.push_back(job);
        drop(q);
        self.ready.notify_one();
        Ok(())
    }

    /// Total backlog (pinned + shared) — the stats gauge.
    pub(crate) fn depth(&self) -> usize {
        let q = self.lock();
        q.pinned.len() + q.shared.len()
    }

    /// Stealable (shared-queue-only) backlog — the number a thief cares
    /// about; pinned session jobs cannot move.
    fn steal_depth(&self) -> usize {
        self.lock().shared.len()
    }

    pub(crate) fn notify(&self) {
        self.ready.notify_all();
    }

    /// Pops the next local job, preferring pinned work (a stalled `Feed`
    /// blocks a remote caller; batch jobs have no one waiting on latency).
    fn pop_local(&self) -> Option<Job> {
        let mut q = self.lock();
        q.pinned.pop_front().or_else(|| q.shared.pop_front())
    }

    /// Steals one one-shot job from the back of the shared queue.
    fn steal(&self) -> Option<Job> {
        self.lock().shared.pop_back()
    }

    fn wait_brief(&self) {
        let q = self.lock();
        if q.pinned.is_empty() && q.shared.is_empty() {
            let _ = self.ready.wait_timeout(q, IDLE_WAIT).unwrap_or_else(PoisonError::into_inner);
        }
    }

    fn is_empty(&self) -> bool {
        let q = self.lock();
        q.pinned.is_empty() && q.shared.is_empty()
    }

    /// Drains every queued job (drain epilogue: workers have exited, so
    /// whatever raced in would otherwise never be answered).
    pub(crate) fn drain_all(&self) -> Vec<Job> {
        let mut q = self.lock();
        let mut jobs: Vec<Job> = q.pinned.drain(..).collect();
        jobs.extend(q.shared.drain(..));
        jobs
    }
}

/// State shared by the server handle and every worker.
pub(crate) struct Shared {
    pub(crate) shards: Vec<Shard>,
    pub(crate) counters: Counters,
    pub(crate) shutdown: AtomicBool,
    /// Graceful-drain mode: new work is refused with GOAWAY, queued
    /// one-shot work flushes, sessions are sealed.
    pub(crate) draining: AtomicBool,
    pub(crate) next_session: AtomicU64,
    pub(crate) max_steps: u64,
    pub(crate) max_bytes: usize,
    pub(crate) session_deadline: Duration,
    /// Shared-queue bound per shard; beyond it one-shot jobs are shed.
    pub(crate) max_queue: usize,
    /// Retry hint carried in BUSY responses.
    pub(crate) retry_after_ms: u64,
    /// How long a caller waits for its reply before giving up with a
    /// typed deadline error (the job still completes and is accounted
    /// server-side).
    pub(crate) request_deadline: Duration,
    /// Frame payload cap for the wire front end.
    pub(crate) max_frame: usize,
    /// Per-read inactivity timeout and whole-frame deadline on the wire
    /// (the slow-loris guard).
    pub(crate) io_timeout: Duration,
    /// Fault-injection schedule (chaos harness); `None` in production.
    pub(crate) faults: Option<Arc<FaultPlan>>,
    /// Structured trace ring (`ipg serve --trace-log`); `None` disables
    /// event emission entirely (one branch per event site).
    pub(crate) trace: Option<Arc<crate::trace::TraceLog>>,
}

impl Shared {
    /// The worker owning session `id` (ids are dealt round-robin).
    pub(crate) fn owner_of(&self, id: u64) -> usize {
        (id % self.shards.len() as u64) as usize
    }

    pub(crate) fn is_draining(&self) -> bool {
        self.draining.load(Ordering::Acquire)
    }

    /// Classifies a terminal response into the request-level ledger and
    /// records its admission→reply latency. Every admitted request must
    /// pass through here exactly once — that is what makes
    /// `submitted == completed + shed + failed` an invariant rather than
    /// an aspiration.
    pub(crate) fn classify(&self, resp: &Response, accepted: Instant) {
        let c = &self.counters;
        match resp {
            Response::Done(_) | Response::Opened { .. } | Response::NeedInput { .. } => {
                Counters::add(&c.completed, 1);
            }
            Response::Busy { .. } | Response::GoAway => Counters::add(&c.shed, 1),
            Response::Error(_) => Counters::add(&c.failed, 1),
        }
        c.latency.record(accepted.elapsed());
    }
}

/// The trace-log name of a terminal response.
pub(crate) fn outcome_name(resp: &Response) -> &'static str {
    match resp {
        Response::Done(_) => "done",
        Response::Opened { .. } => "opened",
        Response::NeedInput { .. } => "need_input",
        Response::Error(_) => "error",
        Response::Busy { .. } => "busy",
        Response::GoAway => "goaway",
    }
}

/// A live streaming session pinned to one worker. The session holds its
/// own clone of the generation's parser, which keeps that generation
/// alive across hot reloads until the session ends.
struct Active {
    session: Session<'static>,
    deadline: Instant,
}

/// The worker body: drain local work, steal when idle, evict expired
/// sessions, exit on shutdown once the queues are dry.
pub(crate) fn worker_loop(me: usize, shared: Arc<Shared>) {
    let mut sessions: HashMap<u64, Active> = HashMap::new();
    loop {
        let job = shared.shards[me].pop_local().or_else(|| {
            // Idle: steal a batch job from the sibling with the deepest
            // *stealable* backlog (pinned session jobs cannot move, so
            // they must not influence victim selection).
            let victim = (0..shared.shards.len())
                .filter(|w| *w != me)
                .map(|w| (shared.shards[w].steal_depth(), w))
                .max();
            let stolen = match victim {
                Some((depth, w)) if depth > 0 => shared.shards[w].steal(),
                _ => None,
            };
            if stolen.is_some() {
                Counters::add(&shared.counters.steals, 1);
            }
            stolen
        });
        match job {
            Some(job) => run_job(me, job, &shared, &mut sessions),
            None => {
                evict_expired(&shared, &mut sessions);
                if shared.shutdown.load(Ordering::Acquire) && shared.shards[me].is_empty() {
                    let draining = shared.is_draining();
                    for _ in 0..sessions.len() {
                        if draining {
                            // Sealed, not dropped: the host drained and
                            // each session's owner was (or will be) told
                            // GOAWAY by its front end.
                            Counters::add(&shared.counters.sessions_sealed, 1);
                            Counters::add(&shared.counters.sessions_closed, 1);
                        } else {
                            // Abandoned by an abrupt shutdown: the host
                            // chose to stop serving them.
                            Counters::add(&shared.counters.sessions_evicted, 1);
                        }
                        Counters::add(&shared.counters.live_sessions, 1u64.wrapping_neg());
                    }
                    return;
                }
                shared.shards[me].wait_brief();
            }
        }
        evict_expired(&shared, &mut sessions);
    }
}

fn evict_expired(shared: &Arc<Shared>, sessions: &mut HashMap<u64, Active>) {
    if sessions.is_empty() {
        return;
    }
    let now = Instant::now();
    sessions.retain(|_, a| {
        let keep = a.deadline > now;
        if !keep {
            Counters::add(&shared.counters.sessions_evicted, 1);
            Counters::add(&shared.counters.live_sessions, 1u64.wrapping_neg());
        }
        keep
    });
}

/// Renders a caught panic payload for the typed reply.
fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    payload
        .downcast_ref::<&str>()
        .map(|s| (*s).to_string())
        .or_else(|| payload.downcast_ref::<String>().cloned())
        .unwrap_or_else(|| "non-string panic payload".into())
}

fn run_job(me: usize, job: Job, shared: &Arc<Shared>, sessions: &mut HashMap<u64, Active>) {
    let Job { kind, reply, accepted, span } = job;
    if let Some(t) = &shared.trace {
        t.dispatch(span, me);
    }

    // Drain: one-shot jobs queued before the drain began still flush,
    // but session work is refused — the session is sealed and its owner
    // told GOAWAY so it can tear down cleanly instead of timing out.
    if shared.is_draining() && kind.is_session_job() {
        if let Some(id) = kind.session_id() {
            if sessions.remove(&id).is_some() {
                let c = &shared.counters;
                Counters::add(&c.sessions_sealed, 1);
                Counters::add(&c.sessions_closed, 1);
                Counters::add(&c.live_sessions, 1u64.wrapping_neg());
            }
        }
        send_reply(shared, &reply, accepted, span, Response::GoAway);
        return;
    }

    // Fault injection (chaos harness): decided before execution so a
    // `Panic` exercises exactly the same recovery path a real VM or
    // session panic would take.
    let fault = shared.faults.as_ref().map_or(Fault::None, |plan| plan.next_job_fault());
    match (&shared.trace, fault) {
        (Some(t), Fault::Panic) => t.fault(span, "panic"),
        (Some(t), Fault::Stall(_)) => t.fault(span, "stall"),
        _ => {}
    }
    if let Fault::Stall(d) = fault {
        std::thread::sleep(d);
    }
    let inject_panic = fault == Fault::Panic;

    let touched = kind.session_id();
    // AssertUnwindSafe: on Err we discard every value the closure could
    // have left half-mutated — the job itself is consumed, and `touched`
    // names the one session whose state may be torn, which is removed
    // below rather than reused.
    let outcome = catch_unwind(AssertUnwindSafe(|| {
        if inject_panic {
            panic!("injected fault: worker panic");
        }
        execute(kind, shared, sessions)
    }));
    match outcome {
        Ok(resp) => send_reply(shared, &reply, accepted, span, resp),
        Err(payload) => {
            let c = &shared.counters;
            Counters::add(&c.panics_recovered, 1);
            Counters::add(&c.parses_err, 1);
            if let Some(id) = touched {
                if sessions.remove(&id).is_some() {
                    Counters::add(&c.sessions_closed, 1);
                    Counters::add(&c.live_sessions, 1u64.wrapping_neg());
                }
            }
            let msg = panic_message(payload.as_ref());
            send_reply(shared, &reply, accepted, span, Response::Error(Error::WorkerPanic(msg)));
        }
    }
}

/// Classifies and delivers the single reply every job owes, closing the
/// job's trace span. A vanished caller (dropped receiver) is not an
/// error: the work is still accounted.
pub(crate) fn send_reply(
    shared: &Shared,
    reply: &Sender<Response>,
    accepted: Instant,
    span: u64,
    resp: Response,
) {
    shared.classify(&resp, accepted);
    if let Some(t) = &shared.trace {
        t.done(span, outcome_name(&resp), accepted.elapsed());
    }
    let _ = reply.send(resp);
}

/// The actual job bodies. Runs under `catch_unwind`; must not send the
/// reply itself (the caller owns delivery so a panic here still answers).
fn execute(kind: JobKind, shared: &Arc<Shared>, sessions: &mut HashMap<u64, Active>) -> Response {
    let c = &shared.counters;
    match kind {
        JobKind::Parse { vm, input } => {
            Counters::add(&c.bytes_in, input.len() as u64);
            let (result, stats) = vm.parse_bounded(&input, shared.max_steps);
            Counters::add(&c.steps, stats.steps);
            match result {
                Ok(tree) => {
                    Counters::add(&c.parses_ok, 1);
                    Response::Done(ParseSummary {
                        steps: stats.steps,
                        suspends: 0,
                        nodes: tree.arena().len(),
                        bytes: input.len(),
                    })
                }
                Err(e) => {
                    Counters::add(&c.parses_err, 1);
                    Response::Error(e)
                }
            }
        }
        JobKind::Open { id, vm } => {
            let session = vm.streaming().max_steps(shared.max_steps).max_bytes(shared.max_bytes);
            let deadline = Instant::now() + shared.session_deadline;
            sessions.insert(id, Active { session, deadline });
            Counters::add(&c.sessions_opened, 1);
            Counters::add(&c.live_sessions, 1);
            Response::Opened { id }
        }
        JobKind::Feed { id, bytes } => {
            let Some(active) = sessions.get_mut(&id) else {
                return Response::Error(unknown_session(id));
            };
            Counters::add(&c.bytes_in, bytes.len() as u64);
            active.deadline = Instant::now() + shared.session_deadline;
            match active.session.feed(&bytes) {
                Outcome::NeedInput { hint } => Response::NeedInput { hint },
                Outcome::Error(e) => {
                    close_session(shared, sessions, id, false);
                    Response::Error(e)
                }
                Outcome::Done(_) => unreachable!("feed never completes a session"),
            }
        }
        JobKind::Finish { id } => {
            let Some(active) = sessions.get_mut(&id) else {
                return Response::Error(unknown_session(id));
            };
            let outcome = active.session.finish();
            let stats = active.session.stats();
            let suspends = active.session.suspends();
            let bytes = active.session.buffered();
            Counters::add(&c.steps, stats.steps);
            Counters::add(&c.suspends, suspends);
            match outcome {
                Outcome::Done(tree) => {
                    close_session(shared, sessions, id, true);
                    Response::Done(ParseSummary {
                        steps: stats.steps,
                        suspends,
                        nodes: tree.arena().len(),
                        bytes,
                    })
                }
                Outcome::Error(e) => {
                    close_session(shared, sessions, id, false);
                    Response::Error(e)
                }
                Outcome::NeedInput { .. } => unreachable!("finish never needs input"),
            }
        }
    }
}

fn close_session(shared: &Arc<Shared>, sessions: &mut HashMap<u64, Active>, id: u64, ok: bool) {
    sessions.remove(&id);
    let c = &shared.counters;
    Counters::add(&c.sessions_closed, 1);
    Counters::add(&c.live_sessions, 1u64.wrapping_neg());
    Counters::add(if ok { &c.parses_ok } else { &c.parses_err }, 1);
}

fn unknown_session(id: u64) -> Error {
    Error::Session(format!("unknown session {id} (never opened, finished, or evicted)"))
}
