#!/usr/bin/env python3
"""Build the benchmark from source and run one workload.

Usage, from the repository root:

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

The Rust package next to this file is built in release mode (into
$CARGO_TARGET_DIR, default `.bench_build`) and then run with the same
arguments. Build output goes to stderr, so the last line of stdout is the
benchmark's JSON result. Exits non-zero, without a result, when the build or
the run fails or the run exceeds its time limit.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
MANIFEST = os.path.join(HERE, "Cargo.toml")
OUT_DIR = os.path.join(HERE, "out")
BUILD_TIMEOUT_S = 880
RUN_TIMEOUT_S = 170


def run(cmd, timeout, stdout):
    """Run `cmd`, killing it (and waiting for it) past `timeout` seconds."""
    proc = subprocess.Popen(cmd, stdout=stdout, stderr=sys.stderr)
    try:
        return proc.wait(timeout=timeout)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        print(f"perfbench: {cmd[0]} exceeded {timeout} s", file=sys.stderr)
        return 124
    except BaseException:
        proc.kill()
        proc.wait()
        raise


def main():
    target = os.environ.setdefault("CARGO_TARGET_DIR", ".bench_build")
    build = [
        "cargo", "build", "--release", "--offline", "--quiet",
        "--manifest-path", MANIFEST,
    ]
    code = run(build, BUILD_TIMEOUT_S, sys.stderr)
    if code != 0:
        print(f"perfbench: build failed with code {code}", file=sys.stderr)
        return code or 1
    binary = os.path.join(target, "release", "perfbench")
    if not os.path.isfile(binary):
        print(f"perfbench: {binary} missing after build", file=sys.stderr)
        return 1
    sys.stdout.flush()
    return run([binary, *sys.argv[1:], "--out-dir", OUT_DIR], RUN_TIMEOUT_S, sys.stdout)


if __name__ == "__main__":
    sys.exit(main())
