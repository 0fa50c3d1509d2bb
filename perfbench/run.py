#!/usr/bin/env python3
"""Builds and runs the IPG benchmark.

Run from the repository root:

    python3 perfbench/run.py --workload files|serve|grammar_load \
        --seed N --seconds S --trace 0|1

Builds the `ipg` CLI (the server the `serve` workload spawns) and the
benchmark binary in release mode into $CARGO_TARGET_DIR (default
`.bench_build`), then runs the benchmark with the metric names and units
`BENCHMARK.json` declares for the mode (`end_to_end` with `--trace 0`,
`per_layer` with `--trace 1`): the one list of them the benchmark has. Build output goes to standard
error; the benchmark's report goes to standard output and ends with one
JSON result line. The exit status is non-zero when the build fails, an
argument is wrong, or any checked result is wrong.
"""

import json
import os
import subprocess
import sys


def declared_metrics(argv):
    """`NAME:UNIT,...` for the mode `--trace` selects in `argv`."""
    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    trace = argv[argv.index("--trace") + 1] if "--trace" in argv[:-1] else "0"
    key = "per_layer" if trace == "1" else "end_to_end"
    return ",".join(f"{m['name']}:{m['unit']}" for m in bench[key])


def main():
    if not (os.path.isfile("Cargo.toml") and os.path.isfile("crates/ipg-cli/Cargo.toml")):
        print("perfbench: run from the repository root (crates/ipg-cli is missing)", file=sys.stderr)
        return 2
    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    builds = [
        ["cargo", "build", "--release", "--offline", "--quiet", "-p", "ipg-cli"],
        ["cargo", "build", "--release", "--offline", "--quiet", "--manifest-path", "perfbench/Cargo.toml"],
    ]
    for cmd in builds:
        # Keep standard output for the report: build chatter goes to stderr.
        status = subprocess.run(cmd, env=env, stdout=sys.stderr.fileno()).returncode
        if status != 0:
            print(f"perfbench: `{' '.join(cmd)}` failed with status {status}", file=sys.stderr)
            return 1
    metrics = declared_metrics(sys.argv[1:])
    exe = os.path.join(target, "release", "perfbench")
    ipg = os.path.join(target, "release", "ipg")
    sys.stdout.flush()
    # Replace this process, so signals and the exit status reach the
    # benchmark directly and no wrapper outlives it.
    os.execv(exe, [exe, *sys.argv[1:], "--ipg", ipg, "--metrics", metrics])


if __name__ == "__main__":
    sys.exit(main())
