//! `files`: the paper's use (Fig. 12/13) — an in-process, single-thread
//! closed loop parsing seeded corpus files of all nine grammars with the
//! bytecode VM. The VM does most of the work, `ipg-flate` the rest on
//! `zip_inflate`; the parse service and the artifact codec are idle.

use crate::inputs::{self, Input, Rng, Scale, GRAMMARS};
use crate::reference::{self, Expect};
use crate::report::{interleave, ratio, End, Outcome, Recorder, Window};
use crate::{sys, Ctx};
use ipg_core::blackbox::{Blackbox, BlackboxResult};
use std::cell::Cell;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

/// Files per grammar (one per parameter stratum).
const PER_GRAMMAR: usize = 48;

/// Whether the DEFLATE blackbox times its calls (traced phase only).
static TIME_FLATE: AtomicBool = AtomicBool::new(false);

#[derive(Clone, Copy, Default)]
struct FlateTally {
    out_bytes: u64,
    busy: Duration,
}

thread_local! {
    static FLATE: Cell<FlateTally> = const { Cell::new(FlateTally { out_bytes: 0, busy: Duration::ZERO }) };
}

fn flate_tally() -> FlateTally {
    FLATE.with(Cell::get)
}

/// `zip_inflate`'s DEFLATE blackbox: the same `inflate_with_limit` call
/// as the stock binding, plus a tally of the bytes it produced (checked
/// against the generator's ground truth) and, when tracing, its time.
fn inflate_blackboxes() -> Vec<Blackbox> {
    vec![Blackbox::new("inflate", |input| {
        let t0 = TIME_FLATE.load(Ordering::Relaxed).then(Instant::now);
        let (data, consumed) =
            ipg_flate::inflate_with_limit(input, 1 << 30).map_err(|e| e.to_string())?;
        FLATE.with(|c| {
            let mut t = c.get();
            t.out_bytes += data.len() as u64;
            if let Some(t0) = t0 {
                t.busy += t0.elapsed();
            }
            c.set(t);
        });
        Ok(BlackboxResult { consumed, data, attr_values: vec![] })
    })]
}

/// Per-grammar tallies of one phase.
#[derive(Clone, Copy, Default)]
struct Tally {
    files: u64,
    bytes: u64,
    busy: Duration,
    flate_busy: Duration,
    flate_out: u64,
}

struct Phase {
    per: [Tally; 9],
    /// Wall time of the parse windows (set-up windows excluded).
    wall: Duration,
    /// Per-window work and per-input parse times.
    rec: Recorder,
}

impl Phase {
    fn total(&self) -> Tally {
        self.per.iter().fold(Tally::default(), |a, t| Tally {
            files: a.files + t.files,
            bytes: a.bytes + t.bytes,
            busy: a.busy + t.busy,
            flate_busy: a.flate_busy + t.flate_busy,
            flate_out: a.flate_out + t.flate_out,
        })
    }
}

/// Times loading the nine grammars from the warm cache into a fresh
/// registry: the set-up a user of the library pays.
fn load_once() -> Result<Duration, String> {
    let t0 = Instant::now();
    let reg = reference::load_registry(Some(inflate_blackboxes))?;
    let d = t0.elapsed();
    drop(reg);
    Ok(d)
}

/// One closed-loop phase over `order` for `seconds`, checking each parse
/// against the reference, with set-up windows interleaved (their mean
/// load times are pushed onto `setup`).
fn phase(
    vms: &[&ipg_core::VmParser<'_>],
    inputs: &[Input],
    expect: &[Expect],
    order: &[usize],
    seconds: f64,
    setup: &mut Vec<f64>,
    out: &mut Outcome,
) -> Phase {
    let start = Instant::now();
    let mut p = Phase {
        per: [Tally::default(); 9],
        wall: Duration::ZERO,
        rec: Recorder::new(start, End::Slow, seconds, inputs.len()),
    };
    let mut k = 0;
    let windows = p.rec.len();
    let parse_until = |out: &mut Outcome, end: Instant| {
        let w0 = Instant::now();
        while Instant::now() < end {
            let i = order[k % order.len()];
            k += 1;
            let inp = &inputs[i];
            let before = flate_tally();
            let cpu0 = sys::thread_cpu();
            let t0 = Instant::now();
            let (result, stats) = vms[inp.grammar].parse_with_stats(&inp.bytes);
            let dt = t0.elapsed();
            let cpu = sys::thread_cpu() - cpu0;
            let after = flate_tally();
            let error = match result {
                Err(e) => Some(format!("{} file {i}: VM rejects: {e}", GRAMMARS[inp.grammar])),
                Ok(tree) => {
                    let got = Expect { steps: stats.steps, tree_size: tree.root().size() };
                    let inflated = after.out_bytes - before.out_bytes;
                    if got != expect[i] {
                        Some(format!(
                            "{} file {i}: VM gave {got:?}, interpreter {:?}",
                            GRAMMARS[inp.grammar], expect[i]
                        ))
                    } else if inflated != inp.inflated {
                        Some(format!(
                            "{} file {i}: inflated {inflated} bytes, generator wrote {}",
                            GRAMMARS[inp.grammar], inp.inflated
                        ))
                    } else {
                        None
                    }
                }
            };
            out.check(error);
            let t = &mut p.per[inp.grammar];
            t.files += 1;
            t.bytes += inp.bytes.len() as u64;
            t.busy += dt;
            t.flate_busy += after.busy - before.busy;
            t.flate_out += after.out_bytes - before.out_bytes;
            // Filed under the window the parse started in: the last parse
            // of a window may end in the set-up window after it.
            p.rec.record(
                t0,
                i,
                cpu.as_secs_f64() * 1e6,
                Window { ops: 1, bytes: inp.bytes.len() as u64, busy: dt, cpu },
            );
        }
        p.wall += w0.elapsed();
    };
    if let Err(e) = interleave(out, start, windows, setup, |_| load_once(), parse_until) {
        out.fail(e);
    }
    p
}

/// A count per CPU-second of the timed calls, in one window.
fn per_cpu_s(n: u64, w: &Window) -> f64 {
    ratio(n as f64, w.cpu.as_secs_f64())
}

pub fn run(ctx: &Ctx) -> Outcome {
    let mut out = Outcome::new();

    // Warm the benchmark's cache directory; set-up (loading the nine
    // grammars from it into a fresh registry) is timed in the phases.
    let reg = match reference::load_registry(Some(inflate_blackboxes)) {
        Ok(r) => r,
        Err(e) => return out.failing(e),
    };
    let entries = reference::entries(&reg);

    let inputs = inputs::generate(ctx.seed, PER_GRAMMAR, Scale::Files);
    let expect = match reference::interpret(&entries, &inputs) {
        Ok(e) => e,
        Err(e) => return out.failing(e),
    };
    let vms: Vec<_> = entries.iter().map(|e| e.vm()).collect();
    let mut order: Vec<usize> = (0..inputs.len()).collect();
    Rng::new(ctx.seed).shuffle(&mut order);

    // Exact counts, from one untimed VM pass: steps and memo use.
    let mut memo = [(0u64, 0u64); 9];
    let mut steps = [0u64; 9];
    for (i, inp) in inputs.iter().enumerate() {
        let (_, st) = vms[inp.grammar].parse_with_stats(&inp.bytes);
        memo[inp.grammar].0 += st.memo_hits;
        memo[inp.grammar].1 += st.memo_entries as u64;
        steps[inp.grammar] += st.steps;
        out.exact.push((format!("file{i}.{}.steps", GRAMMARS[inp.grammar]), st.steps));
        out.exact.push((
            format!("file{i}.{}.memo_entries", GRAMMARS[inp.grammar]),
            st.memo_entries as u64,
        ));
    }
    let total_bytes: usize = inputs.iter().map(|i| i.bytes.len()).sum();
    println!(
        "files: {} inputs, {:.2} MiB per pass, {PER_GRAMMAR} per grammar",
        inputs.len(),
        total_bytes as f64 / (1 << 20) as f64,
    );

    // The peak memory figure covers the timed loop only, not the
    // reference interpreter's pass above.
    sys::reset_peak_rss();
    let mut setup = Vec::new();
    if !ctx.trace {
        let p = phase(&vms, &inputs, &expect, &order, ctx.seconds, &mut setup, &mut out);
        let setup_s = End::Slow.time(&mut setup);
        let t = p.total();
        let busy = t.busy.as_secs_f64();
        let r = &p.rec;
        let m = &mut out.metrics;
        m.put("ops_per_s", "1/s", r.rate(|w| per_cpu_s(w.ops, w)));
        m.put("mb_per_s", "MB/s", r.rate(|w| per_cpu_s(w.bytes, w) / 1e6));
        m.put("latency_us", "us", r.latency(|i| !inputs[i].large));
        m.put("latency_alt_us", "us", r.latency(|i| inputs[i].large));
        m.put("peak_rss_mib", "MiB", sys::peak_rss_mib("self").unwrap_or(f64::NAN));
        m.put("setup_s", "s", setup_s);
        println!(
            "files: {} parses in {:.2} s busy / {:.2} s wall; set-up (registry load) {:.3} ms",
            t.files,
            busy,
            p.wall.as_secs_f64(),
            setup_s * 1e3
        );
        println!("{}", r.rates_line("parses per CPU-second", |w| per_cpu_s(w.ops, w)));
        return out;
    }

    // Traced run: half the time untraced (the reference for the tracing
    // overhead), half with the DEFLATE blackbox timed.
    let plain = phase(&vms, &inputs, &expect, &order, ctx.seconds / 2.0, &mut setup, &mut out);
    TIME_FLATE.store(true, Ordering::Relaxed);
    let traced = phase(&vms, &inputs, &expect, &order, ctx.seconds / 2.0, &mut setup, &mut out);
    TIME_FLATE.store(false, Ordering::Relaxed);

    let t = traced.total();
    let busy = t.busy.as_secs_f64();
    let m = &mut out.metrics;
    let zi = GRAMMARS.iter().position(|&g| g == "zip_inflate").expect("zip_inflate");
    for (g, name) in GRAMMARS.iter().enumerate() {
        let tg = &traced.per[g];
        m.put(
            format!("vm.{name}.mb_per_s"),
            "MB/s",
            ratio(tg.bytes as f64 / 1e6, tg.busy.as_secs_f64()),
        );
        m.put(format!("vm.{name}.time_share"), "ratio", ratio(tg.busy.as_secs_f64(), busy));
        m.put(
            format!("vm.{name}.steps_per_file"),
            "count",
            ratio(steps[g] as f64, PER_GRAMMAR as f64),
        );
        m.put(
            format!("vm.{name}.memo_hit_ratio"),
            "ratio",
            ratio(memo[g].0 as f64, memo[g].1 as f64),
        );
    }
    let z = &traced.per[zi];
    m.put("flate.mb_per_s", "MB/s", ratio(z.flate_out as f64 / 1e6, z.flate_busy.as_secs_f64()));
    m.put(
        "flate.share_of_zip_inflate",
        "ratio",
        ratio(z.flate_busy.as_secs_f64(), z.busy.as_secs_f64()),
    );
    m.put("registry.load_ms", "ms", End::Slow.time(&mut setup) * 1e3);

    // Stage sum: VM self time plus DEFLATE time is the parse time by
    // construction, so the gap to the loop's wall time is the benchmark's
    // own cost (result checks, clock reads), not the program's.
    let wall = traced.wall.as_secs_f64();
    let flate = t.flate_busy.as_secs_f64();
    let gap_pct = 100.0 * ratio(wall - busy, wall);
    m.put("stage_gap_pct", "%", gap_pct);
    // The same estimator as the end-to-end `mb_per_s`, so the two phases
    // are compared in the same machine mode.
    let plain_mbs = plain.rec.rate(|w| per_cpu_s(w.bytes, w));
    let traced_mbs = traced.rec.rate(|w| per_cpu_s(w.bytes, w));
    let overhead = 100.0 * ratio(plain_mbs - traced_mbs, plain_mbs);
    m.put("trace.overhead_pct", "%", overhead);
    println!(
        "files stage sum: vm self {:.1} ms + flate {:.1} ms = parse {:.1} ms; loop wall {:.1} ms; gap {gap_pct:.2}%",
        (busy - flate) * 1e3,
        flate * 1e3,
        busy * 1e3,
        wall * 1e3
    );
    println!(
        "files tracing overhead: untraced {:.1} MB/s, traced {:.1} MB/s ({overhead:.2}%)",
        plain_mbs / 1e6,
        traced_mbs / 1e6
    );
    out
}
