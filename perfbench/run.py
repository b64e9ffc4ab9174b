#!/usr/bin/env python3
"""Build and run the heardof consensus benchmark.

Usage (from the repository root):

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Builds the benchmark binary from source with cargo (offline; target
directory from CARGO_TARGET_DIR, default `.bench_build`), then runs it
with the same arguments. The binary prints a table and, as the last
line of stdout, one JSON result object. Exits non-zero without a
result when the build or the run fails.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
MANIFEST = os.path.join(HERE, "Cargo.toml")
BIN = "heardof-perfbench"


def build() -> str:
    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    done = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet", "--manifest-path", MANIFEST],
        env=env,
        stdout=sys.stderr,
    )
    if done.returncode != 0:
        sys.exit(f"perfbench: build failed (exit {done.returncode})")
    return os.path.join(target, "release", BIN)


def main() -> None:
    binary = build()
    try:
        done = subprocess.run([binary] + sys.argv[1:], timeout=170)
    except subprocess.TimeoutExpired:
        sys.exit("perfbench: run timed out")
    sys.exit(done.returncode)


if __name__ == "__main__":
    main()
