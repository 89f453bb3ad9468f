#!/usr/bin/env python3
"""Builds and runs the DOCS benchmark (see README.md).

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --all [--seed <n>] [--seconds <s>] [--trace <0|1>]

Run from the repository root. The benchmark is built from source with
cargo (release profile, offline) into $CARGO_TARGET_DIR, or `.bench_build`
when that is unset. Each workload runs in a fresh process; the last line
of its standard output is the JSON result, and the exit code is non-zero
when the build fails, a correctness check fails, or the run times out.
`--all` runs every workload in turn: the two that BENCHMARK.json gates
and `paper_campaign`, which runs and checks the same way but is not gated.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ["paper_campaign", "large_pool", "durable_tenants"]
RUN_TIMEOUT_S = 170


def build():
    target = os.path.abspath(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    cmd = [
        "cargo", "build", "--release", "--offline", "--quiet",
        "--manifest-path", os.path.join(HERE, "Cargo.toml"),
    ]
    # Build output goes to stderr: stdout carries only the results.
    done = subprocess.run(cmd, env=env, stdout=sys.stderr, stderr=sys.stderr)
    if done.returncode != 0:
        return None
    binary = os.path.join(target, "release", "perfbench")
    return binary if os.path.isfile(binary) else None


def run_one(binary, args):
    proc = subprocess.Popen([binary] + args)
    try:
        return proc.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        print(f"perfbench: run {args} timed out after {RUN_TIMEOUT_S} s", file=sys.stderr)
        return 1


def option(argv, flag, default):
    if flag in argv:
        i = argv.index(flag)
        if i + 1 < len(argv):
            return argv[i + 1]
    return default


def main(argv):
    try:
        binary = build()
    except OSError as e:
        print(f"perfbench: cannot run cargo: {e}", file=sys.stderr)
        return 1
    if binary is None:
        print("perfbench: build failed", file=sys.stderr)
        return 1
    if "--all" not in argv:
        return run_one(binary, argv)
    seed = option(argv, "--seed", "1")
    seconds = option(argv, "--seconds", "20")
    trace = option(argv, "--trace", "0")
    code = 0
    for w in WORKLOADS:
        args = ["--workload", w, "--seed", seed, "--seconds", seconds, "--trace", trace]
        code = run_one(binary, args) or code
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
