"""Self-test of the benchmark: run from the checkout root as

    python3 bench/selftest.py

A short run of every workload must emit every declared metric with its
unit, with no failed op; two traced runs with the same seed must give
exactly the same named call counts.  Takes about two minutes.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
# counts that must repeat exactly: the workload passes are whole in a traced
# run, so a count per op depends on the inputs alone
EXACT = ["algebra.is_tpp.calls_per_op", "algebra.commutant.calls_per_op",
         "tps.schmidt.svd_calls_per_call"]
# layer metrics that only cli_calls exercises; there they must not be 0
CLI_ONLY = ("cli.", "serialize.")


def run(workload, trace, seed=3, seconds=1):
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=300)
    if proc.returncode != 0:
        raise SystemExit(f"{workload} trace={trace} exited {proc.returncode}:\n"
                         f"{proc.stderr[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def must_be_positive(name, workload):
    """End-to-end metrics and the import breakdown always; the CLI and
    serialize times on cli_calls, the one workload that runs them."""
    if name.startswith(CLI_ONLY):
        return workload == "cli_calls"
    return "." not in name or name.startswith("import.")


def check(result, declared, label):
    problems = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        problems.append(f"result keys {sorted(result)}")
    if not result["correct"] or result["failed"] or result["attempted"] < 1:
        problems.append(f"attempted {result['attempted']}, failed {result['failed']}")
    if set(result["metrics"]) != {m["name"] for m in declared}:
        problems.append("metric names differ from BENCHMARK.json")
    for m in declared:
        got = result["metrics"].get(m["name"], {})
        if got.get("unit") != m["unit"] or not isinstance(got.get("value"), (int, float)):
            problems.append(f"{m['name']}: {got}")
        elif got["value"] <= 0 and must_be_positive(m["name"], label.split()[0]):
            problems.append(f"{m['name']} is {got['value']}")
    return [f"{label}: {p}" for p in problems]


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    problems = []
    for w in spec["workloads"]:
        name = w["name"]
        problems += check(run(name, 0), spec["end_to_end"], f"{name} trace 0")
        first, second = run(name, 1), run(name, 1)
        problems += check(first, spec["per_layer"], f"{name} trace 1")
        for metric in EXACT:
            a = first["metrics"][metric]["value"]
            b = second["metrics"][metric]["value"]
            print(f"{name:<15} {metric:<36} {a:g} {b:g}")
            if a != b:
                problems.append(f"{name}: {metric} differs across traced runs: {a} vs {b}")
    for p in problems:
        print(f"FAIL {p}")
    print("selftest", "failed" if problems else "passed")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
