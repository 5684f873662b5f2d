"""tpskit benchmark: one workload per run, closed loop with one caller.

    python3 bench/run.py --workload tpp_certify --seed 1 --seconds 30 --trace 0

It measures the library under src/ of the checkout that holds this
directory, with BLAS pinned to BLAS_THREADS threads and the run pinned to
one core; it refuses to run when BLAS reports more threads than the cores
this process may use.  The gated op metrics (ref_*) are op times scaled to
a reference speed by a fixed kernel timed between ops (see harness.py).
BENCHMARK.json at the checkout root names the workloads and metrics.
Inputs come from --seed and are built before timing starts; every op is
checked against the ground truth they were built with.  The loop runs
whole passes of the workload's plan of ops: it stops at the first pass end
after --seconds.

--trace 0 prints the end-to-end metrics.  --trace 1 spends half the time
untraced and half with every public tpskit function wrapped, and prints the
per-layer metrics and the tracing overhead.  --profile N prints the cProfile
top N by cumulative time instead.  The last stdout line is one JSON object
with correct, attempted, failed and metrics; the exit code is 1 when any op
failed.  Records, span dumps and CLI input files go to .bench_out/.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
BLAS_THREADS = 1


def fail(message):
    print(f"bench: {message}", file=sys.stderr)
    sys.exit(2)


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=30.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--profile", type=int, default=0, metavar="N",
                   help="print the cProfile top N by cumulative time")
    return p.parse_args(argv)


def main(argv=None):
    args = parse_args(argv)
    if not (SRC / "tpskit" / "__init__.py").is_file():
        fail(f"no tpskit sources under {SRC}")
    try:
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    except (OSError, ValueError) as e:
        fail(f"cannot read BENCHMARK.json: {e}")
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        fail(f"unknown workload {args.workload!r}")
    # pinned before numpy loads, and inherited by every child interpreter
    for var in BLAS_VARS:
        os.environ[var] = str(BLAS_THREADS)
    os.environ["PYTHONPATH"] = str(SRC)
    sys.path.insert(0, str(SRC))

    import tpskit
    if Path(tpskit.__file__).resolve().parent != (SRC / "tpskit").resolve():
        fail(f"tpskit imported from {tpskit.__file__}, not from {SRC}")
    import harness
    return harness.main(args, spec, ROOT, OUT, BLAS_THREADS)


if __name__ == "__main__":
    sys.exit(main())
