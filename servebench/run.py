#!/usr/bin/env python3
"""Builds the server and the benchmark from source, then runs one workload.

Run from the root of the repository:

    python3 servebench/run.py --workload paced_drm --seed 1 --seconds 10 --trace 0

Both builds use the release profile without optional features and share
one target directory: ``$CARGO_TARGET_DIR`` if set, else ``.bench_build``.
The benchmark's last stdout line is its JSON result; see
``servebench/METRICS.md``. Exits 1 after printing the result when the
run fails verification (``"correct": false``). Exits non-zero, printing
no result, when the repository sources are missing, a build fails or the
benchmark cannot run.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
REQUIRED = ("Cargo.toml", "Cargo.lock", "crates/server/Cargo.toml", "scripts/validate_trace.py")


def commit_id():
    """The checked-out commit, read from .git without running git."""
    head = os.path.join(ROOT, ".git", "HEAD")
    try:
        with open(head) as f:
            ref = f.read().strip()
        if ref.startswith("ref: "):
            with open(os.path.join(ROOT, ".git", ref[5:])) as f:
                return f.read().strip()
        return ref
    except OSError:
        return "unknown"


def cargo_build(args, target_dir):
    env = dict(os.environ, CARGO_TARGET_DIR=target_dir)
    cmd = ["cargo", "build", "--release", "--offline", "--quiet"] + args
    # Cargo's progress goes to stderr so stdout ends with the result line.
    return subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr).returncode


def main():
    missing = [p for p in REQUIRED if not os.path.isfile(os.path.join(ROOT, p))]
    if missing:
        print(f"servebench: repository sources missing: {', '.join(missing)}", file=sys.stderr)
        return 2
    target_dir = os.path.abspath(
        os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    )
    if cargo_build(["-p", "ddc-server", "--bin", "ddc_server"], target_dir) != 0:
        print("servebench: building ddc_server failed", file=sys.stderr)
        return 1
    if cargo_build(["--manifest-path", os.path.join(HERE, "Cargo.toml")], target_dir) != 0:
        print("servebench: building the benchmark failed", file=sys.stderr)
        return 1
    release = os.path.join(target_dir, "release")
    cmd = [
        os.path.join(release, "servebench"),
        "--server-bin",
        os.path.join(release, "ddc_server"),
        "--out-dir",
        os.path.join(HERE, "out"),
        "--commit",
        commit_id(),
    ] + sys.argv[1:]
    return subprocess.run(cmd, cwd=ROOT).returncode


if __name__ == "__main__":
    sys.exit(main())
