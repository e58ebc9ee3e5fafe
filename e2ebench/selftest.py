#!/usr/bin/env python3
"""Self-test of the benchmark: every workload at a tiny size.

Usage, from the repository root:

    python3 e2ebench/selftest.py

Runs each workload the benchmark implements (those BENCHMARK.json names
and the two it leaves out) once untraced and once traced through
e2ebench/run.py at `--size tiny`, and asserts that the last line is the
result object, that every metric BENCHMARK.json names is printed with its
unit and a finite value, and that every output check passed. It also
asserts that `fleet-sharded` fails loudly, printing no result, when the
shard-worker binary is missing. Exits non-zero on the first failure.
"""

import json
import math
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ["fleet-full", "scenario-incremental", "train-ddpg", "fleet-sharded"]
ROOT = os.path.dirname(HERE)


def run(args):
    return subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), *args],
        cwd=ROOT, capture_output=True, text=True,
    )


def check_result(spec, workload, trace, out):
    lines = out.stdout.strip().splitlines()
    assert out.returncode == 0, f"{workload} trace={trace} exited {out.returncode}:\n{out.stderr[-2000:]}"
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}, result.keys()
    assert result["correct"] is True and result["failed"] == 0, lines[-1]
    assert isinstance(result["attempted"], int) and result["attempted"] >= 1, lines[-1]
    wanted = spec["per_layer"] if trace else spec["end_to_end"]
    metrics = result["metrics"]
    assert set(metrics) == {m["name"] for m in wanted}, sorted(set(metrics) ^ {m["name"] for m in wanted})
    for m in wanted:
        got = metrics[m["name"]]
        assert got["unit"] == m["unit"], (m["name"], got["unit"], m["unit"])
        value = got["value"]
        assert isinstance(value, (int, float)) and math.isfinite(value), (m["name"], value)
        if not trace:
            assert value > 0, (m["name"], value)
    checks = [l for l in lines if l.startswith("check ")]
    assert checks and all(l.endswith(": ok") for l in checks), checks
    return len(checks)


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    assert {w["name"] for w in spec["workloads"]} <= set(WORKLOADS), spec["workloads"]
    for name in WORKLOADS:
        for trace in (0, 1):
            out = run(["--workload", name, "--size", "tiny", "--seconds", "1",
                       "--trace", str(trace), "--seed", "7"])
            n = check_result(spec, name, trace, out)
            print(f"ok {name} trace={trace} ({n} output checks)", flush=True)

    # A missing shard-worker binary is an error, never a skipped workload.
    target = os.path.abspath(os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR") or ".bench_build"))
    bench = os.path.join(target, "release", "e2ebench")
    out = subprocess.run(
        [bench, "--workload", "fleet-sharded", "--size", "tiny", "--seconds", "1",
         "--worker", os.path.join(target, "no-such-repro")],
        cwd=ROOT, capture_output=True, text=True,
    )
    assert out.returncode != 0 and '"correct"' not in out.stdout, out.stdout
    assert "does not exist" in out.stderr, out.stderr
    print("ok fleet-sharded fails loudly without its worker binary")
    print("selftest passed")


if __name__ == "__main__":
    main()
