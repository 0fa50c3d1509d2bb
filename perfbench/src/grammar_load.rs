//! `grammar_load`: what every `ipg` CLI call and every server restart
//! pays — `ipgc::Cache::load_or_compile` over the nine corpus specs,
//! alternating an empty cache directory (miss: compile → encode → write)
//! with a warm one (hit: read → verify → reconstruct → validate). The VM
//! and the parse service do nothing here.

use crate::report::{interleave, median, ratio, End, Outcome, Recorder, Window};
use crate::{sys, Ctx};
use ipg_core::analysis::anchor_requirement;
use ipg_core::blackbox::Blackbox;
use ipg_core::bytecode::compile;
use ipg_core::frontend::parse_grammar_with;
use ipg_core::ipgc::{self, Cache, CacheOutcome, CachedProgram, MissReason};
use ipg_formats::{corpus_descriptors, FormatDescriptor};
use std::path::Path;
use std::time::{Duration, Instant};

/// What a correct load must reproduce, from an in-memory compile that
/// bypasses the artifact codec and the cache.
struct Reference {
    listing: String,
    program: CachedProgram,
}

fn references(specs: &[FormatDescriptor]) -> Result<Vec<Reference>, String> {
    specs
        .iter()
        .map(|d| {
            let program = CachedProgram::compile(d.spec, (d.blackboxes)())
                .map_err(|e| format!("{}: {e}", d.name))?;
            Ok(Reference { listing: program.program.disassemble(&program.grammar), program })
        })
        .collect()
}

/// Removes every file in `dir`, keeping the directory.
fn empty_dir(dir: &Path) {
    if let Ok(rd) = std::fs::read_dir(dir) {
        for e in rd.flatten() {
            let _ = std::fs::remove_file(e.path());
        }
    }
}

/// One pass of nine `load_or_compile` calls; returns the work done in
/// the calls. Every loaded program is checked (untimed) against its
/// reference and the expected hit/miss outcome.
fn pass(
    cache: &Cache,
    specs: &[FormatDescriptor],
    refs: &[Reference],
    hit: bool,
    out: &mut Outcome,
) -> Window {
    let mut w = Window::default();
    for (d, r) in specs.iter().zip(refs) {
        let cpu0 = sys::thread_cpu();
        let t0 = Instant::now();
        let result = cache.load_or_compile(d.name, d.spec, (d.blackboxes)());
        w.busy += t0.elapsed();
        w.cpu += sys::thread_cpu() - cpu0;
        w.ops += 1;
        w.bytes += d.spec.len() as u64;
        let error = match result {
            Err(e) => Some(format!("{}: load failed: {e}", d.name)),
            Ok((p, outcome)) => {
                let want =
                    if hit { CacheOutcome::Hit } else { CacheOutcome::Miss(MissReason::Absent) };
                if outcome != want {
                    Some(format!("{}: expected {want:?}, got {outcome:?}", d.name))
                } else if p.source_hash != r.program.source_hash
                    || p.anchor != r.program.anchor
                    || p.hints != r.program.hints
                    || p.program.disassemble(&p.grammar) != r.listing
                {
                    Some(format!("{}: loaded program differs from the in-memory compile", d.name))
                } else {
                    None
                }
            }
        };
        out.check(error);
    }
    w
}

/// Per-stage times of one nine-grammar pass, calling the functions the
/// cache composes one at a time.
#[derive(Default, Clone, Copy)]
struct Stages {
    frontend_miss: Duration,
    frontend_hit: Duration,
    bytecode: Duration,
    analysis: Duration,
    encode: Duration,
    decode: Duration,
    validate: Duration,
    io_miss: Duration,
    io_hit: Duration,
}

impl Stages {
    fn miss_sum(&self) -> Duration {
        self.io_miss + self.frontend_miss + self.bytecode + self.analysis + self.encode
    }
    fn hit_sum(&self) -> Duration {
        self.io_hit + self.decode + self.frontend_hit + self.validate
    }
}

fn timed<T>(acc: &mut Duration, f: impl FnOnce() -> T) -> T {
    let t0 = Instant::now();
    let v = f();
    *acc += t0.elapsed();
    v
}

/// The staged pipeline: the miss side writes into `cold` (emptied
/// first), the hit side reads `warm`'s artifact.
fn staged_pass(
    cold: &Cache,
    warm: &Cache,
    specs: &[FormatDescriptor],
    out: &mut Outcome,
) -> Stages {
    empty_dir(cold.dir());
    let mut s = Stages::default();
    for d in specs {
        let bbs: Vec<Blackbox> = (d.blackboxes)();
        let hash = ipgc::source_hash(d.spec, &bbs);
        // Miss: look up (absent), compile, encode, write.
        let cold_path = cold.path_for(d.name, hash);
        let absent = timed(&mut s.io_miss, || std::fs::read(&cold_path).is_err());
        let grammar = match timed(&mut s.frontend_miss, || parse_grammar_with(d.spec, bbs.clone()))
        {
            Ok(g) => g,
            Err(e) => {
                out.fail(format!("{}: frontend: {e}", d.name));
                continue;
            }
        };
        let program = timed(&mut s.bytecode, || compile(&grammar));
        let (hints, anchor) =
            timed(&mut s.analysis, || (program.size_hints(), anchor_requirement(&grammar)));
        let bytes =
            timed(&mut s.encode, || ipgc::encode(d.spec, &grammar, &program, anchor, hints));
        let wrote = timed(&mut s.io_miss, || {
            let tmp = cold_path.with_extension("ipgc.tmp");
            std::fs::write(&tmp, &bytes).and_then(|()| std::fs::rename(&tmp, &cold_path))
        });
        // Hit: read, decode (digest verified), re-run the frontend on the
        // embedded source, validate.
        let warm_bytes = timed(&mut s.io_hit, || std::fs::read(warm.path_for(d.name, hash)));
        let error = match (absent, wrote, warm_bytes) {
            (false, _, _) => Some("cold cache was not empty".to_owned()),
            (_, Err(e), _) => Some(format!("artifact write: {e}")),
            (_, _, Err(e)) => Some(format!("warm artifact read: {e}")),
            (true, Ok(()), Ok(wb)) => {
                if wb != bytes {
                    Some("warm artifact differs from a fresh encode".to_owned())
                } else {
                    match timed(&mut s.decode, || ipgc::decode_with_key(&wb, None)) {
                        Err(e) => Some(format!("decode: {e}")),
                        Ok(a) => {
                            match timed(&mut s.frontend_hit, || parse_grammar_with(&a.spec, bbs)) {
                                Err(e) => Some(format!("frontend on the embedded source: {e}")),
                                Ok(g) => timed(&mut s.validate, || a.validate_against(&g))
                                    .err()
                                    .map(|e| format!("validate: {e}")),
                            }
                        }
                    }
                }
            }
        };
        out.check(error.map(|e| format!("{}: {e}", d.name)));
    }
    s
}

pub fn run(ctx: &Ctx) -> Outcome {
    let mut out = Outcome::new();
    let specs = corpus_descriptors();
    let refs = match references(&specs) {
        Ok(r) => r,
        Err(e) => return out.failing(e),
    };
    let spec_bytes: usize = specs.iter().map(|d| d.spec.len()).sum();
    let cold = Cache::at(ctx.run_dir.join("cold")).with_key(None);
    let warm = Cache::at(ctx.run_dir.join("warm")).with_key(None);

    // Set-up is warming the cache directory: a full miss pass into it,
    // done once here and timed in the measured phase.
    let warm_up = |out: &mut Outcome| {
        empty_dir(warm.dir());
        Ok(pass(&warm, &specs, &refs, false, out).busy)
    };
    warm_up(&mut out).expect("a pass reports failures through `out`");
    let mut artifact_bytes = 0u64;
    for (d, r) in specs.iter().zip(&refs) {
        let len =
            std::fs::metadata(warm.path_for(d.name, r.program.source_hash)).map_or(0, |m| m.len());
        artifact_bytes += len;
        out.exact.push((format!("{}.artifact_bytes", d.name), len));
    }
    println!(
        "grammar_load: nine specs, {spec_bytes} source bytes, {artifact_bytes} artifact bytes"
    );

    // Alternating miss/hit passes for `seconds`, with set-up windows
    // interleaved. A window's operations are grammar loads, its bytes the
    // spec sources they compiled or reconstructed; latency op 0 is a
    // nine-grammar hit pass, op 1 a miss pass.
    let alternate = |seconds: f64, out: &mut Outcome| {
        let (mut misses, mut hits, mut setup) = (Vec::new(), Vec::new(), Vec::new());
        let start = Instant::now();
        let mut rec = Recorder::new(start, End::Slow, seconds, 2);
        let windows = rec.len();
        let load = |out: &mut Outcome, end: Instant| {
            while Instant::now() < end {
                // Passes are filed under the window they started in: the
                // last one of a window may end in the set-up window after it.
                empty_dir(cold.dir());
                let t0 = Instant::now();
                let miss = pass(&cold, &specs, &refs, false, out);
                rec.record(t0, 1, miss.cpu.as_secs_f64() * 1e6, miss);
                let t0 = Instant::now();
                let hit = pass(&warm, &specs, &refs, true, out);
                rec.record(t0, 0, hit.cpu.as_secs_f64() * 1e6, hit);
                misses.push(miss.busy.as_secs_f64());
                hits.push(hit.busy.as_secs_f64());
            }
        };
        interleave(out, start, windows, &mut setup, &warm_up, load)
            .expect("a pass reports failures through `out`");
        (misses, hits, End::Slow.time(&mut setup), rec)
    };

    // The peak memory figure covers the measured passes only.
    sys::reset_peak_rss();
    if !ctx.trace {
        let (misses, hits, setup_s, r) = alternate(ctx.seconds, &mut out);
        let m = &mut out.metrics;
        m.put("ops_per_s", "1/s", r.rate(|w| ratio(w.ops as f64, w.cpu.as_secs_f64())));
        m.put("mb_per_s", "MB/s", r.rate(|w| ratio(w.bytes as f64 / 1e6, w.cpu.as_secs_f64())));
        m.put("latency_us", "us", r.latency(|op| op == 0));
        m.put("latency_alt_us", "us", r.latency(|op| op == 1));
        m.put("peak_rss_mib", "MiB", sys::peak_rss_mib("self").unwrap_or(f64::NAN));
        m.put("setup_s", "s", setup_s);
        println!(
            "grammar_load: {} miss and {} hit passes; set-up (cache warm-up) {:.3} ms",
            misses.len(),
            hits.len(),
            setup_s * 1e3
        );
        println!(
            "{}",
            r.rates_line("loads per CPU-second", |w| ratio(w.ops as f64, w.cpu.as_secs_f64()))
        );
        return out;
    }

    // Traced run: the composed cache passes interleaved with the same
    // work staged one public function at a time, so that both see the
    // same machine state. The program has no tracing switch here, so the
    // run reports no tracing overhead; the composed-vs-staged difference
    // is the stage-sum gap.
    let (mut misses, mut hits, mut staged) = (Vec::new(), Vec::new(), Vec::new());
    let start = Instant::now();
    while start.elapsed().as_secs_f64() < ctx.seconds {
        empty_dir(cold.dir());
        misses.push(pass(&cold, &specs, &refs, false, &mut out).busy.as_secs_f64());
        hits.push(pass(&warm, &specs, &refs, true, &mut out).busy.as_secs_f64());
        staged.push(staged_pass(&cold, &warm, &specs, &mut out));
    }
    let med = |f: &dyn Fn(&Stages) -> Duration| {
        median(&mut staged.iter().map(|s| f(s).as_secs_f64() * 1e6).collect::<Vec<_>>())
    };
    let miss_us = median(&mut misses) * 1e6;
    let hit_us = median(&mut hits) * 1e6;
    let miss_sum = med(&|s| s.miss_sum());
    let hit_sum = med(&|s| s.hit_sum());

    let m = &mut out.metrics;
    m.put("frontend.us", "us", (med(&|s| s.frontend_miss) + med(&|s| s.frontend_hit)) / 2.0);
    m.put("bytecode.us", "us", med(&|s| s.bytecode));
    m.put("analysis.us", "us", med(&|s| s.analysis));
    m.put("ipgc.encode_us", "us", med(&|s| s.encode));
    m.put("ipgc.decode_us", "us", med(&|s| s.decode));
    m.put("ipgc.validate_us", "us", med(&|s| s.validate));
    m.put("cache.io_us", "us", med(&|s| s.io_miss + s.io_hit));
    m.put("ipgc.artifact_bytes", "bytes", artifact_bytes as f64);
    let gap_pct = 100.0 * ratio(miss_us + hit_us - miss_sum - hit_sum, miss_us + hit_us);
    m.put("stage_gap_pct", "%", gap_pct);
    println!(
        "grammar_load stage sums (medians per nine-grammar pass, {} staged passes): miss {miss_sum:.0} us vs compile pass {miss_us:.0} us; hit {hit_sum:.0} us vs hit pass {hit_us:.0} us; gap {gap_pct:.2}%",
        staged.len()
    );
    out
}
