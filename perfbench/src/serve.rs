//! `serve`: the path real clients use — a child `ipg serve --workers 2`
//! on its Unix socket, driven by two closed-loop connections. Half the
//! requests are one-shot `PARSE`, half `OPEN`/`FEED`/`FINISH` sessions
//! in small fixed chunks, over small inputs of all nine grammars.
//! Framing, connection-thread/worker hand-offs and session suspends
//! dominate; the VM is a minority and the artifact path is idle.

use crate::inputs::{self, Rng, Scale, GRAMMARS};
use crate::reference::{self, Expect};
use crate::report::{
    grouped_median, mean, median, quantile, ratio, setup_time, End, Outcome, Recorder, Window,
    SETUP_SHARE,
};
use crate::{sys, Ctx};
use ipg_core::interp::vm::Outcome as Step;
use ipg_serve::proto::{Client, Wire};
use std::collections::HashMap;
use std::io::Read;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

/// Inputs per grammar.
const PER_GRAMMAR: usize = 8;
/// Concurrent client connections (the machine's two cores).
const CONNECTIONS: usize = 2;
/// Session feed size.
const CHUNK: usize = 256;
/// Unmeasured lead-in of every measured phase.
const WARMUP: Duration = Duration::from_millis(300);
/// In a traced run (both of its phases, so that the tracing overhead
/// compares like with like), one STATS round trip per this many jobs per
/// connection: a request that never enters the worker pool, so its round
/// trip is the transport cost alone.
const PROBE_EVERY: usize = 16;

const SOCKET: &str = "s.sock";
const TRACE_LOG: &str = "trace.jsonl";

/// The pid of a still-running server recorded by an earlier benchmark
/// run in this checkout, if any.
pub fn stale_server(base: &Path) -> Option<u32> {
    let pid: u32 = std::fs::read_to_string(base.join("serve.pid")).ok()?.trim().parse().ok()?;
    (sys::process_has_arg(pid, "serve") && sys::process_has_arg(pid, SOCKET)).then_some(pid)
}

/// A running `ipg serve` child. Dropping it (on any exit path, unwinding
/// included) stops the server and waits for it; the socket and trace
/// log live in the run directory, which is removed after.
struct Server {
    child: Option<Child>,
    pid: u32,
    pidfile: PathBuf,
}

impl Server {
    /// Spawns the server and waits for its first correct reply; returns
    /// the server and the time from spawn to that reply.
    fn start(
        ctx: &Ctx,
        traced: bool,
        probe: &[u8],
        want: &Want,
    ) -> Result<(Server, Duration), String> {
        let sock = socket_path(ctx);
        let _ = std::fs::remove_file(&sock);
        let mut cmd = Command::new(&ctx.ipg);
        cmd.args(["serve", "--socket", SOCKET, "--workers", "2"]);
        if traced {
            cmd.args(["--trace-log", TRACE_LOG]);
        }
        cmd.current_dir(&ctx.run_dir).stdin(Stdio::null()).stdout(Stdio::piped());
        // SAFETY: the hook only makes the prctl system call, which is
        // async-signal-safe.
        unsafe {
            use std::os::unix::process::CommandExt;
            cmd.pre_exec(sys::die_with_parent);
        }
        let t0 = Instant::now();
        let child = cmd.spawn().map_err(|e| format!("cannot start {}: {e}", ctx.ipg.display()))?;
        let pidfile = ctx.base.join("serve.pid");
        let mut server = Server { pid: child.id(), child: Some(child), pidfile };
        let _ = std::fs::write(&server.pidfile, server.pid.to_string());
        // Wait for the socket to be bound, then connect a moment later.
        // The acceptor polls with a 5 ms park: a client that races the
        // first poll is answered at once, any other one at the end of the
        // park. Connecting after the first poll makes every start pay
        // the park, as a client arriving a little later would, instead of
        // mixing the two cases.
        while !sock.exists() {
            if let Some(status) = server.child.as_mut().and_then(|c| c.try_wait().ok().flatten()) {
                return Err(format!("ipg serve exited during start-up: {status}"));
            }
            if t0.elapsed() > Duration::from_secs(20) {
                return Err("ipg serve did not bind its socket within 20 s".into());
            }
            std::thread::sleep(Duration::from_micros(20));
        }
        std::thread::sleep(Duration::from_millis(1));
        let mut c =
            Client::connect(&sock).map_err(|e| format!("cannot connect to the new server: {e}"))?;
        let reply = c.parse("dns", probe).map_err(|e| format!("first request failed: {e}"))?;
        let elapsed = t0.elapsed();
        match want.check(&reply, 0) {
            None => Ok((server, elapsed)),
            Some(e) => Err(format!("first reply wrong: {e}")),
        }
    }

    /// Drains the server with SIGTERM and returns its standard output
    /// (which ends with the ledger line).
    fn stop(mut self) -> Result<String, String> {
        let mut child = self.child.take().expect("running");
        let result = terminate(&mut child);
        let _ = std::fs::remove_file(&self.pidfile);
        result?;
        let mut text = String::new();
        if let Some(mut so) = child.stdout.take() {
            let _ = so.read_to_string(&mut text);
        }
        Ok(text)
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        if let Some(mut child) = self.child.take() {
            let _ = terminate(&mut child);
            let _ = std::fs::remove_file(&self.pidfile);
        }
    }
}

/// SIGTERM, a bounded wait for the drain, then SIGKILL; always reaps.
fn terminate(child: &mut Child) -> Result<(), String> {
    sys::signal(child.id(), sys::SIGTERM);
    let t0 = Instant::now();
    while t0.elapsed() < Duration::from_secs(5) {
        match child.try_wait() {
            Ok(Some(status)) if status.success() => return Ok(()),
            Ok(Some(status)) => {
                return Err(format!("ipg serve exited with {status} after SIGTERM"))
            }
            _ => std::thread::sleep(Duration::from_millis(5)),
        }
    }
    let _ = child.kill();
    let _ = child.wait();
    Err("ipg serve did not drain within 5 s of SIGTERM; killed".into())
}

fn socket_path(ctx: &Ctx) -> PathBuf {
    // Relative to the checkout root: Unix socket paths are limited to
    // 108 bytes, and the checkout may live deep in the file system.
    ctx.base.join(ctx.run_dir.file_name().expect("run directory name")).join(SOCKET)
}

/// The reply one request must get.
#[derive(Clone, Copy, Debug)]
struct Want {
    steps: u64,
    suspends: u64,
    nodes: u32,
    bytes: u64,
}

impl Want {
    fn check(&self, reply: &Wire, frames: u64) -> Option<String> {
        match *reply {
            Wire::Done { steps, suspends, nodes, bytes }
                if steps == self.steps
                    && suspends == self.suspends
                    && nodes == self.nodes
                    && bytes == self.bytes =>
            {
                None
            }
            ref other => Some(format!("expected {self:?} after {frames} frames, got {other:?}")),
        }
    }
}

struct Request {
    input: usize,
    grammar: usize,
    session: bool,
    want: Want,
}

/// What one connection observed.
struct ClientLog {
    /// Jobs per window, and each request's latencies (ops are the
    /// indices of the request cycle).
    rec: Recorder,
    /// Every latency in the measured interval, for the tails.
    oneshot_us: Vec<f64>,
    session_us: Vec<f64>,
    /// STATS round trips (traced run only).
    probe_us: Vec<f64>,
    attempted: u64,
    errors: Vec<String>,
}

fn one_request(
    c: &mut Client,
    req: &Request,
    input: &[u8],
) -> Result<Option<String>, std::io::Error> {
    let g = GRAMMARS[req.grammar];
    if !req.session {
        return Ok(req.want.check(&c.parse(g, input)?, 1));
    }
    let id = match c.open(g)? {
        Wire::Opened { id } => id,
        other => return Ok(Some(format!("OPEN {g}: got {other:?}"))),
    };
    for chunk in input.chunks(CHUNK) {
        match c.feed(id, chunk)? {
            Wire::NeedInput { .. } => {}
            other => return Ok(Some(format!("FEED {g}: got {other:?}"))),
        }
    }
    Ok(req.want.check(&c.finish(id)?, frames_of(input.len())))
}

/// Frames a session sends: OPEN, the FEEDs, FINISH.
fn frames_of(len: usize) -> u64 {
    2 + len.div_ceil(CHUNK) as u64
}

/// A closed loop over `reqs` from `offset` until the end of `rec`'s
/// grid; only requests completing inside the grid are measured.
fn client_loop(
    sock: &Path,
    reqs: &[Request],
    inputs: &[Vec<u8>],
    offset: usize,
    rec: Recorder,
    probe: bool,
) -> ClientLog {
    let end = rec.boundary(rec.len());
    let mut log = ClientLog {
        rec,
        oneshot_us: Vec::new(),
        session_us: Vec::new(),
        probe_us: Vec::new(),
        attempted: 0,
        errors: Vec::new(),
    };
    let mut c = match Client::connect(sock) {
        Ok(c) => c,
        Err(e) => {
            log.attempted += 1;
            log.errors.push(format!("connect: {e}"));
            return log;
        }
    };
    let mut k = offset;
    while Instant::now() < end {
        let r = k % reqs.len();
        let req = &reqs[r];
        k += 1;
        let input = &inputs[req.input];
        let t0 = Instant::now();
        let result = one_request(&mut c, req, input);
        let t1 = Instant::now();
        log.attempted += 1;
        match result {
            Ok(None) => {}
            Ok(Some(e)) => log.errors.push(e),
            Err(e) => {
                log.errors.push(format!("I/O error: {e}"));
                break;
            }
        }
        if log.rec.index(t1).is_some() {
            let us = (t1 - t0).as_secs_f64() * 1e6;
            log.rec.record(
                t1,
                r,
                us,
                Window { ops: 1, bytes: input.len() as u64, ..Window::default() },
            );
            if req.session {
                log.session_us.push(us)
            } else {
                log.oneshot_us.push(us)
            }
        }
        if probe && k.is_multiple_of(PROBE_EVERY) {
            let t0 = Instant::now();
            match c.stats() {
                Ok(Wire::Stats(_)) => log.probe_us.push(t0.elapsed().as_secs_f64() * 1e6),
                other => log.errors.push(format!("STATS probe: got {other:?}")),
            }
        }
    }
    log
}

/// One measured phase against a running server.
struct Phase {
    /// All connections' jobs per window, with the window's wall time and
    /// the server's CPU time in it.
    rec: Recorder,
    oneshot_us: Vec<f64>,
    session_us: Vec<f64>,
    probe_us: Vec<f64>,
    stats: String,
}

impl Phase {
    fn jobs(&self) -> u64 {
        self.rec.windows.iter().map(|w| w.ops).sum()
    }
    fn jobs_per_s(&self) -> f64 {
        self.rec.rate(|w| ratio(w.ops as f64, w.busy.as_secs_f64()))
    }
}

fn phase(
    ctx: &Ctx,
    server: &Server,
    reqs: &[Request],
    inputs: &[Vec<u8>],
    seconds: f64,
    probe: bool,
    out: &mut Outcome,
) -> Phase {
    let sock = socket_path(ctx);
    let rec = Recorder::new(Instant::now() + WARMUP, End::Fast, seconds, reqs.len());
    let (logs, cpu) = std::thread::scope(|s| {
        let handles: Vec<_> = (0..CONNECTIONS)
            .map(|t| {
                let (sock, rec) = (&sock, rec.clone());
                s.spawn(move || {
                    client_loop(sock, reqs, inputs, t * reqs.len() / CONNECTIONS, rec, probe)
                })
            })
            .collect();
        // The server's CPU time at each window boundary.
        let mut cpu = Vec::with_capacity(rec.len() + 1);
        for k in 0..=rec.len() {
            std::thread::sleep(rec.boundary(k).saturating_duration_since(Instant::now()));
            cpu.push(sys::pid_cpu(server.pid));
        }
        let logs: Vec<Result<ClientLog, _>> = handles.into_iter().map(|h| h.join()).collect();
        (logs, cpu)
    });
    let mut p = Phase {
        rec,
        oneshot_us: Vec::new(),
        session_us: Vec::new(),
        probe_us: Vec::new(),
        stats: String::new(),
    };
    for log in logs {
        let Ok(l) = log else {
            out.fail("client thread panicked".into());
            continue;
        };
        p.rec.merge(&l.rec);
        p.oneshot_us.extend(l.oneshot_us);
        p.session_us.extend(l.session_us);
        p.probe_us.extend(l.probe_us);
        out.attempted += l.attempted;
        for e in l.errors {
            out.fail(e);
        }
    }
    for k in 0..p.rec.len() {
        let (Some(c0), Some(c1)) = (cpu[k], cpu[k + 1]) else {
            out.fail("could not read the server's CPU time".into());
            break;
        };
        let wall = p.rec.boundary(k + 1) - p.rec.boundary(k);
        let w = &mut p.rec.windows[k];
        w.busy = wall;
        w.cpu = c1.saturating_sub(c0);
    }
    // The ledger must reconcile, and nothing may have been shed or failed.
    p.stats = match Client::connect(&sock).and_then(|mut c| c.stats()) {
        Ok(Wire::Stats(json)) => json,
        other => {
            out.fail(format!("STATS after the phase: got {other:?}"));
            String::new()
        }
    };
    let f = |k: &str| json_num(&p.stats, k).unwrap_or(f64::NAN);
    let (submitted, completed, shed, failed) =
        (f("submitted"), f("completed"), f("shed"), f("failed"));
    if submitted != completed + shed + failed || shed != 0.0 || failed != 0.0 {
        out.fail(format!("ledger: submitted {submitted} = completed {completed} + shed {shed} + failed {failed} must hold with nothing shed or failed"));
    }
    p
}

/// A number field of a flat JSON object.
fn json_num(json: &str, key: &str) -> Option<f64> {
    let at = json.find(&format!("\"{key}\":"))? + key.len() + 3;
    let rest = json[at..].trim_start();
    let end = rest.find([',', '}']).unwrap_or(rest.len());
    rest[..end].trim().parse().ok()
}

/// Checks the drain summary `ipg serve` prints on SIGTERM.
fn check_drain(text: Result<String, String>, out: &mut Outcome) -> String {
    match text {
        Ok(t) if t.contains("[ledger reconciled]") => t,
        Ok(t) => {
            out.fail(format!("ipg serve drained without a reconciled ledger: {}", t.trim()));
            t
        }
        Err(e) => {
            out.fail(e);
            String::new()
        }
    }
}

pub fn run(ctx: &Ctx) -> Outcome {
    let mut out = Outcome::new();

    // Inputs and the replies they must get: steps and tree size from the
    // reference interpreter; record counts and suspends from the
    // in-process VM fed the same chunks (both independent of the wire
    // path under test).
    let gen = inputs::generate(ctx.seed, PER_GRAMMAR, Scale::Small);
    let reg = match reference::load_registry(None) {
        Ok(r) => r,
        Err(e) => return out.failing(e),
    };
    let entries = reference::entries(&reg);
    let expect = match reference::interpret(&entries, &gen) {
        Ok(e) => e,
        Err(e) => return out.failing(e),
    };
    let mut reqs = Vec::new();
    for (i, inp) in gen.iter().enumerate() {
        let vm = entries[inp.grammar].vm();
        let one = match vm.parse_with_stats(&inp.bytes) {
            (Ok(t), st) => (st.steps, t.root().size(), t.arena().len()),
            (Err(e), _) => {
                return out.failing(format!("in-process VM rejects serve input {i}: {e}"))
            }
        };
        let mut s = vm.streaming();
        for chunk in inp.bytes.chunks(CHUNK) {
            if !matches!(s.feed(chunk), Step::NeedInput { .. }) {
                return out.failing(format!("in-process session ended early on serve input {i}"));
            }
        }
        let sess = match s.finish() {
            Step::Done(t) => (s.stats().steps, t.root().size(), t.arena().len(), s.suspends()),
            other => {
                return out
                    .failing(format!("in-process session on serve input {i}: {:?}", other.err()))
            }
        };
        let refx = expect[i];
        let (got_one, got_sess) = (
            Expect { steps: one.0, tree_size: one.1 },
            Expect { steps: sess.0, tree_size: sess.1 },
        );
        if got_one != refx || got_sess != refx {
            return out.failing(format!("serve input {i}: VM disagrees with the interpreter ({one:?}, {sess:?} vs {refx:?})"));
        }
        let bytes = inp.bytes.len() as u64;
        reqs.push(Request {
            input: i,
            grammar: inp.grammar,
            session: false,
            want: Want { steps: refx.steps, suspends: 0, nodes: one.2 as u32, bytes },
        });
        reqs.push(Request {
            input: i,
            grammar: inp.grammar,
            session: true,
            want: Want { steps: refx.steps, suspends: sess.3, nodes: sess.2 as u32, bytes },
        });
        out.exact.push((format!("input{i}.{}.steps", GRAMMARS[inp.grammar]), refx.steps));
        out.exact.push((format!("input{i}.{}.suspends", GRAMMARS[inp.grammar]), sess.3));
        out.exact.push((
            format!("input{i}.{}.frames", GRAMMARS[inp.grammar]),
            frames_of(inp.bytes.len()),
        ));
    }
    let inputs: Vec<Vec<u8>> = gen.into_iter().map(|i| i.bytes).collect();
    Rng::new(ctx.seed).shuffle(&mut reqs);
    let sessions: Vec<&Request> = reqs.iter().filter(|r| r.session).collect();
    let suspends_per_session =
        mean(&sessions.iter().map(|r| r.want.suspends as f64).collect::<Vec<_>>());
    let frames_per_session =
        mean(&sessions.iter().map(|r| frames_of(inputs[r.input].len()) as f64).collect::<Vec<_>>());
    let steps_per_job = mean(&reqs.iter().map(|r| r.want.steps as f64).collect::<Vec<_>>());
    let max_len = inputs.iter().map(Vec::len).max().unwrap_or(0);
    println!(
        "serve: {} inputs (largest {max_len} bytes), {} requests per cycle, {CONNECTIONS} connections, {CHUNK}-byte feeds",
        inputs.len(),
        reqs.len()
    );

    // Set-up: the first start compiles the grammars into the run's cache;
    // then repeated warm starts, spawn to first reply, each server
    // drained before the next starts.
    let dns = GRAMMARS.iter().position(|&g| g == "dns").expect("dns");
    let probe_req = reqs.iter().find(|r| r.grammar == dns && !r.session).expect("a dns one-shot");
    let (probe, probe_want) = (&inputs[probe_req.input], probe_req.want);
    let mut server = match Server::start(ctx, false, probe, &probe_want) {
        Ok((s, _)) => Some(s),
        Err(e) => return out.failing(e),
    };
    let setup_s =
        match setup_time(Duration::from_secs_f64(ctx.seconds * SETUP_SHARE), End::Fast, || {
            if let Some(s) = server.take() {
                check_drain(Server::stop(s), &mut out);
            }
            let (s, d) = Server::start(ctx, false, probe, &probe_want)?;
            server = Some(s);
            Ok(d)
        }) {
            Ok(s) => s,
            Err(e) => return out.failing(e),
        };
    let server = server.expect("started");

    if !ctx.trace {
        let p = phase(ctx, &server, &reqs, &inputs, ctx.seconds, false, &mut out);
        let rss = sys::peak_rss_mib(&server.pid.to_string()).unwrap_or(f64::NAN);
        check_drain(server.stop(), &mut out);
        let r = &p.rec;
        let m = &mut out.metrics;
        m.put("ops_per_s", "1/s", p.jobs_per_s());
        m.put("mb_per_s", "MB/s", r.rate(|w| ratio(w.bytes as f64 / 1e6, w.busy.as_secs_f64())));
        m.put("latency_us", "us", r.latency(|i| !reqs[i].session));
        m.put("latency_alt_us", "us", r.latency(|i| reqs[i].session));
        m.put("peak_rss_mib", "MiB", rss);
        m.put("setup_s", "s", setup_s);
        println!("serve: {} jobs; set-up (warm start) {:.2} ms", p.jobs(), setup_s * 1e3);
        println!("{}", r.rates_line("jobs/s", |w| ratio(w.ops as f64, w.busy.as_secs_f64())));
        return out;
    }

    // Traced run: half the time against the untraced server, then half
    // against a server writing its span log; STATS probes in both.
    let plain = phase(ctx, &server, &reqs, &inputs, ctx.seconds / 2.0, true, &mut out);
    check_drain(server.stop(), &mut out);
    let traced_server = match Server::start(ctx, true, probe, &probe_want) {
        Ok((s, _)) => s,
        Err(e) => return out.failing(e),
    };
    let traced = phase(ctx, &traced_server, &reqs, &inputs, ctx.seconds / 2.0, true, &mut out);
    let drain = check_drain(traced_server.stop(), &mut out);
    let dropped = drain
        .lines()
        .find_map(|l| {
            l.split_once(" dropped under pressure")
                .map(|(a, _)| a.rsplit('(').next().unwrap_or("").to_owned())
        })
        .and_then(|n| n.trim().parse::<f64>().ok());
    let dropped = match dropped {
        Some(d) => d,
        None => {
            out.fail("the traced server did not report its dropped-event count".into());
            0.0
        }
    };
    let spans = read_spans(&ctx.run_dir.join(TRACE_LOG));

    let mut queue: Vec<f64> =
        spans.values().filter_map(|s| Some(s.dispatch?.saturating_sub(s.admit?) as f64)).collect();
    let mut service: Vec<f64> =
        spans.values().filter_map(|s| Some(s.done?.saturating_sub(s.dispatch?) as f64)).collect();
    let parse_spans: Vec<&Span> = spans.values().filter(|s| s.parse).collect();
    let mut server_parse: Vec<f64> =
        parse_spans.iter().filter_map(|s| Some(s.done?.saturating_sub(s.admit?) as f64)).collect();
    let q_parse: Vec<f64> = parse_spans
        .iter()
        .filter_map(|s| Some(s.dispatch?.saturating_sub(s.admit?) as f64))
        .collect();
    let s_parse: Vec<f64> = parse_spans
        .iter()
        .filter_map(|s| Some(s.done?.saturating_sub(s.dispatch?) as f64))
        .collect();
    let mut oneshot = traced.oneshot_us.clone();
    let mut session = traced.session_us.clone();
    let probe_us = &traced.probe_us;
    let rtt_p50 = median(&mut oneshot);

    let m = &mut out.metrics;
    m.put("pool.queue_wait_p50_us", "us", grouped_median(&mut queue));
    m.put("pool.service_p50_us", "us", grouped_median(&mut service));
    // Per job, from the untraced phase. Not an end-to-end figure: in some
    // runs it reads a third lower than in others at the same throughput
    // and latency (5 of 20 runs on the reference machine, each while the
    // machine's load average was near 8 and its idle share rose from 31%
    // to 56%), which no reduction of a run's windows removes.
    m.put(
        "server.cpu_us_per_job",
        "us",
        1e6 / plain.rec.rate(|w| ratio(w.ops as f64, w.cpu.as_secs_f64())),
    );
    m.put("proto.transport_p50_us", "us", rtt_p50 - grouped_median(&mut server_parse));
    m.put(
        "pool.steal_ratio",
        "ratio",
        ratio(
            json_num(&traced.stats, "steals").unwrap_or(0.0),
            json_num(&traced.stats, "completed").unwrap_or(0.0),
        ),
    );
    m.put("session.suspends_per_session", "count", suspends_per_session);
    m.put("session.frames_per_session", "count", frames_per_session);
    m.put("vm.steps_per_job", "count", steps_per_job);
    m.put("trace.dropped", "count", dropped);
    m.put("client.oneshot_p99_us", "us", quantile(&mut oneshot, 0.99));
    m.put("client.session_p99_us", "us", quantile(&mut session, 0.99));
    m.put("client.oneshot_samples", "count", oneshot.len() as f64);
    m.put("client.session_samples", "count", session.len() as f64);
    // Stage sum, on means (which add up, unlike medians): transport (the
    // STATS round trip) + queue + service against the one-shot round trip.
    let (rtt, tr, q, s) = (mean(&oneshot), mean(probe_us), mean(&q_parse), mean(&s_parse));
    let gap_pct = 100.0 * ratio(rtt - (tr + q + s), rtt);
    m.put("stage_gap_pct", "%", gap_pct);
    let overhead = 100.0 * ratio(plain.jobs_per_s() - traced.jobs_per_s(), plain.jobs_per_s());
    m.put("trace.overhead_pct", "%", overhead);
    println!(
        "serve stage sum (one-shot means): transport {tr:.1} us + queue {q:.1} us + service {s:.1} us vs round trip {rtt:.1} us; gap {gap_pct:.2}% ({} spans, {} one-shot)",
        spans.len(),
        parse_spans.len()
    );
    println!(
        "serve tracing overhead: untraced {:.0} jobs/s, traced {:.0} jobs/s ({overhead:.2}%)",
        plain.jobs_per_s(),
        traced.jobs_per_s()
    );
    // The server's span ring drops an event whenever a producer finds it
    // locked (by another producer or by the flusher); the pool figures
    // use only spans whose three events all survived.
    let complete = spans
        .values()
        .filter(|s| s.admit.is_some() && s.dispatch.is_some() && s.done.is_some())
        .count();
    println!(
        "serve trace: {dropped} events dropped by the server; {complete} of {} spans complete{}",
        spans.len(),
        if dropped == 0.0 { "" } else { " (pool figures are from the complete spans only)" }
    );
    out
}

/// Timestamps of one request in the server's span log.
#[derive(Default)]
struct Span {
    admit: Option<u64>,
    dispatch: Option<u64>,
    done: Option<u64>,
    /// A one-shot PARSE (as opposed to a session frame).
    parse: bool,
}

fn read_spans(path: &Path) -> HashMap<u64, Span> {
    let mut spans: HashMap<u64, Span> = HashMap::new();
    let text = std::fs::read_to_string(path).unwrap_or_default();
    for line in text.lines() {
        let (Some(span), Some(ts)) = (json_num(line, "span"), json_num(line, "ts_us")) else {
            continue;
        };
        let s = spans.entry(span as u64).or_default();
        let ts = ts as u64;
        if line.contains("\"event\":\"admit\"") {
            s.admit = Some(ts);
            s.parse = line.contains("\"kind\":\"parse\"");
        } else if line.contains("\"event\":\"dispatch\"") {
            s.dispatch = Some(ts);
        } else if line.contains("\"event\":\"done\"") {
            s.done = Some(ts);
        }
    }
    spans
}
