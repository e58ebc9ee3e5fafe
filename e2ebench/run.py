#!/usr/bin/env python3
"""Build and run the GreenNFV workspace benchmark.

Usage, from the repository root:

    python3 e2ebench/run.py --workload <name> [--seed N] [--seconds S] [--trace 0|1]
                            [--size full|tiny]

Builds the benchmark package (e2ebench/, a Cargo workspace of its own) and
the repository's `repro` binary, whose `shard-worker` mode the
`fleet-sharded` workload spawns, then runs one workload. Build output goes
to standard error; the benchmark's report goes to standard output, ending
with one JSON line. Build artifacts go to $CARGO_TARGET_DIR, or to
.bench_build at the repository root when it is unset.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def fail(msg):
    print(f"e2ebench/run.py: {msg}", file=sys.stderr)
    sys.exit(2)


def build(target_dir):
    """Builds both binaries; returns (benchmark, repro) paths."""
    env = dict(os.environ, CARGO_TARGET_DIR=target_dir)
    steps = [
        ["cargo", "build", "--release", "--offline", "--manifest-path",
         os.path.join(HERE, "Cargo.toml")],
        ["cargo", "build", "--release", "--offline", "-p", "greennfv-bench", "--bin", "repro"],
    ]
    for cmd in steps:
        done = subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr, stderr=sys.stderr)
        if done.returncode != 0:
            fail(f"build failed: {' '.join(cmd)}")
    release = os.path.join(target_dir, "release")
    return os.path.join(release, "e2ebench"), os.path.join(release, "repro")


def probe(cmd):
    try:
        out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, check=True)
        return out.stdout.strip() or "unknown"
    except (OSError, subprocess.CalledProcessError):
        return None


def main():
    if not os.path.isfile(os.path.join(ROOT, "Cargo.toml")) or not os.path.isdir(
        os.path.join(ROOT, "crates")
    ):
        fail(f"{ROOT} holds no GreenNFV workspace to build")
    target_dir = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    target_dir = os.path.abspath(os.path.join(ROOT, target_dir))
    bench, repro = build(target_dir)
    rustc = probe(["rustc", "--version"]) or "unknown"
    rev = probe(["git", "rev-parse", "HEAD"]) or "none (not a git checkout)"
    cmd = [
        bench, *sys.argv[1:],
        "--worker", repro,
        "--trace-dir", os.path.join(target_dir, "e2ebench-spans"),
        "--rustc", rustc,
        "--git-rev", rev,
    ]
    sys.stdout.flush()
    sys.exit(subprocess.run(cmd, cwd=ROOT).returncode)


if __name__ == "__main__":
    main()
