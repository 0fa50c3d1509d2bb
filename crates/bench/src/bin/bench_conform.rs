//! The conformance-fuzzing harness as a binary: grammar-driven generation,
//! cross-engine agreement, mutation sweep, and the baseline probe matrix,
//! reported as `BENCH_conform.json`.
//!
//! Usage: `cargo run --release -p bench --bin bench_conform [-- --quick]
//! [-- --out PATH] [-- --corpus-dir DIR] [-- --seed N]`
//!
//! * `--quick` — CI-smoke scale (fewer generations/mutants per grammar).
//! * `--out PATH` — JSON report path (default `BENCH_conform.json`).
//! * `--corpus-dir DIR` — also write every generated input to
//!   `DIR/<grammar>/seed_<n>.bin` (the CI job uploads this directory when
//!   the harness finds a divergence).
//! * `--seed N` — base seed of the sweep (default 0), so nightly runs can
//!   explore fresh regions.
//!
//! Exit status is non-zero when any generation fails, any engine pair
//! disagrees (tree, step count, or error), or a baseline panics — i.e. the
//! binary is itself the conformance gate. Throughput (generations/s,
//! mutants/s) is informational.

use bench::harness::{Cli, Report};
use ipg_core::interp::Parser;
use ipg_gen::{mutate::mutate, GenConfig, Generator};
use std::time::Instant;

#[derive(Default)]
struct Row {
    grammar: String,
    generations: u64,
    gen_failures: u64,
    mutants: u64,
    mutants_accepted: u64,
    divergences: u64,
    baseline_probes: u64,
    baseline_accepts: u64,
    avg_len: f64,
    gens_per_s: f64,
    mutants_per_s: f64,
}

/// Step fuel: a pathological loop becomes a clean reported divergence
/// instead of a hung CI job.
const FUEL: u64 = 50_000_000;

fn main() {
    let cli = Cli::parse("BENCH_conform.json", &["--corpus-dir", "--seed"]);
    let base_seed: u64 = cli.value("--seed").map_or(0, |s| s.parse().expect("seed u64"));
    let corpus_dir = cli.value("--corpus-dir").map(str::to_owned);
    // Full mode sweeps twice the mutants of `tests/conformance.rs` (whose
    // 64 x 4 exactly meets the acceptance floor): the binary is the deeper,
    // seed-steerable gate; the test is the fast always-on one.
    let (n_gens, n_mutants) = if cli.quick { (12u64, 4u64) } else { (64, 8) };

    let mut rows: Vec<Row> = Vec::new();
    let mut failed = false;
    for entry in ipg_formats::pinned_corpus() {
        let (name, g) = (entry.name.as_str(), entry.grammar());
        let parser = Parser::new(g).max_steps(FUEL);
        let vm = entry.vm().clone().max_steps(FUEL);
        let generator = Generator::new(g).with_config(GenConfig::default());
        let mut row = Row { grammar: name.to_owned(), ..Default::default() };
        let mut total_len = 0usize;
        let t_gen = Instant::now();
        let mut inputs = Vec::with_capacity(n_gens as usize);
        for i in 0..n_gens {
            let seed = base_seed + i;
            match generator.generate_valid(seed) {
                Some(bytes) => {
                    if let Some(dir) = &corpus_dir {
                        let d = format!("{dir}/{name}");
                        let _ = std::fs::create_dir_all(&d);
                        let _ = std::fs::write(format!("{d}/seed_{seed}.bin"), &bytes);
                    }
                    total_len += bytes.len();
                    row.generations += 1;
                    inputs.push((seed, bytes));
                }
                None => {
                    eprintln!("{name}: generation FAILED for seed {seed}");
                    row.gen_failures += 1;
                }
            }
        }
        let gen_elapsed = t_gen.elapsed().as_secs_f64();

        let t_check = Instant::now();
        for (seed, bytes) in &inputs {
            match ipg_formats::Registry::compare_engines(&parser, &vm, bytes) {
                Ok(true) => {}
                Ok(false) => {
                    eprintln!("{name}: seed {seed}: generated input rejected by both engines");
                    row.divergences += 1;
                }
                Err(msg) => {
                    eprintln!("{name}: seed {seed}: DIVERGENCE on generated input: {msg}");
                    row.divergences += 1;
                }
            }
            for o in ipg_baselines::probe::run(name, bytes) {
                row.baseline_probes += 1;
                row.baseline_accepts += o.accepted as u64;
            }
            for m in 0..n_mutants {
                let mut mutant = bytes.clone();
                mutate(&mut mutant, *seed, m);
                row.mutants += 1;
                match ipg_formats::Registry::compare_engines(&parser, &vm, &mutant) {
                    Ok(accepted) => row.mutants_accepted += accepted as u64,
                    Err(msg) => {
                        eprintln!("{name}: seed {seed} mutant {m}: DIVERGENCE: {msg}");
                        row.divergences += 1;
                    }
                }
                for o in ipg_baselines::probe::run(name, &mutant) {
                    row.baseline_probes += 1;
                    row.baseline_accepts += o.accepted as u64;
                }
            }
        }
        let check_elapsed = t_check.elapsed().as_secs_f64();

        row.avg_len = total_len as f64 / row.generations.max(1) as f64;
        row.gens_per_s = row.generations as f64 / gen_elapsed.max(1e-9);
        row.mutants_per_s = row.mutants as f64 / check_elapsed.max(1e-9);
        println!(
            "{name:<12} gens {:>3}/{n_gens} ({:>7.0}/s, avg {:>6.0} B)  mutants {:>4} \
             ({:>5.1}% accepted)  baseline accepts {:>4}/{:<4}  divergences {}",
            row.generations,
            row.gens_per_s,
            row.avg_len,
            row.mutants,
            100.0 * row.mutants_accepted as f64 / row.mutants.max(1) as f64,
            row.baseline_accepts,
            row.baseline_probes,
            row.divergences,
        );
        if row.gen_failures > 0 || row.divergences > 0 {
            failed = true;
        }
        rows.push(row);
    }

    let mut report = Report::new("ipg-bench-conform/1", cli.quick);
    report.field("base_seed", base_seed);
    report.results(rows.iter().map(|r| {
        format!(
            "{{\"grammar\": \"{}\", \"generations\": {}, \"gen_failures\": {}, \
             \"avg_len\": {:.0}, \"gens_per_s\": {:.0}, \"mutants\": {}, \
             \"mutants_accepted\": {}, \"mutants_per_s\": {:.0}, \
             \"baseline_probes\": {}, \"baseline_accepts\": {}, \"divergences\": {}}}",
            r.grammar,
            r.generations,
            r.gen_failures,
            r.avg_len,
            r.gens_per_s,
            r.mutants,
            r.mutants_accepted,
            r.mutants_per_s,
            r.baseline_probes,
            r.baseline_accepts,
            r.divergences,
        )
    }));
    report.field("ok", !failed);
    report.write(&cli.out);

    if failed {
        eprintln!("conformance harness found failures (see report)");
        std::process::exit(1);
    }
}
