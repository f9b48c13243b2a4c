#!/usr/bin/env python3
"""Build the waves server and the benchmark from source, then run one workload.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run it from the repository root. Both builds go to $CARGO_TARGET_DIR
(default .bench_build) and are offline; an up-to-date build costs well
under a second. The benchmark binary spawns `waves serve` processes,
drives the workload, and prints the result as one JSON object on the
last line of standard output. Working files go under .bench_work/, and
a traced run leaves its spans there. The exit code is the benchmark's:
0 only if every operation succeeded and every answer was correct.
"""

import argparse
import os
import subprocess
import sys


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    if not (os.path.isfile("Cargo.toml") and os.path.isdir(os.path.join("crates", "cli"))):
        print("run.py: run from the repository root: no workspace Cargo.toml with crates/cli here", file=sys.stderr)
        return 1
    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    builds = (
        ["cargo", "build", "--release", "--offline", "--quiet", "-p", "waves-cli"],
        ["cargo", "build", "--release", "--offline", "--quiet", "--manifest-path", os.path.join("perfbench", "Cargo.toml")],
    )
    for cmd in builds:
        # Build chatter goes to stderr: stdout ends with the result line.
        if subprocess.run(cmd, env=env, stdout=sys.stderr).returncode != 0:
            print("run.py: build failed: " + " ".join(cmd), file=sys.stderr)
            return 1
    release = os.path.join(target, "release")
    bench = [
        os.path.join(release, "perfbench"),
        "--waves", os.path.join(release, "waves"),
        "--work", ".bench_work",
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", str(args.trace),
    ]
    return subprocess.run(bench).returncode


if __name__ == "__main__":
    sys.exit(main())
