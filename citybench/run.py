#!/usr/bin/env python3
"""Builds the citybench binary from source and runs one workload.

Usage (from the repository root):

    python3 citybench/run.py --workload firehose --seed 1 --seconds 10 --trace 0

The build goes to $CARGO_TARGET_DIR (default: citybench/target). Span files
and the result record go to <target dir>/citybench-out. The last line of
standard output is the binary's JSON result.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def main():
    manifest = os.path.join(HERE, "Cargo.toml")
    # The benchmark builds against the repository's crates; without them
    # there is nothing to measure.
    if not os.path.isfile(os.path.join(ROOT, "crates", "live", "Cargo.toml")):
        print("citybench: repository crates not found next to citybench/", file=sys.stderr)
        return 2
    target = os.environ.get("CARGO_TARGET_DIR") or os.path.join(HERE, "target")
    target = os.path.abspath(target)
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    build = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet", "--manifest-path", manifest],
        stdout=sys.stderr,
        env=env,
    )
    if build.returncode != 0:
        print("citybench: build failed", file=sys.stderr)
        return build.returncode or 1
    out_dir = os.path.join(target, "citybench-out")
    os.makedirs(out_dir, exist_ok=True)
    binary = os.path.join(target, "release", "citybench")
    run = subprocess.run([binary, "--out-dir", out_dir] + sys.argv[1:], env=env)
    return run.returncode


if __name__ == "__main__":
    sys.exit(main())
