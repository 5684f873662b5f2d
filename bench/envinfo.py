"""What a result was measured on, and the measurements made in fresh
interpreters: set-up time and the `-X importtime` breakdown."""

from __future__ import annotations

import ctypes
import glob
import os
import platform
import statistics
import subprocess
import sys
import time
from functools import partial
from pathlib import Path

import numpy as np
import scipy

IMPORT = [sys.executable, "-c", "import tpskit"]


def blas_runtime_threads():
    """Thread count OpenBLAS reports at run time, or None when numpy's
    bundled OpenBLAS cannot be found."""
    libdir = Path(np.__file__).parent.parent / "numpy.libs"
    for lib in glob.glob(str(libdir / "*openblas*")):
        handle = ctypes.CDLL(lib)
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(handle, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def cpu_model():
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def git_commit(root):
    if not (Path(root) / ".git").exists():
        return None
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, timeout=10,
                              capture_output=True, text=True)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def environment(root, seed, blas_threads):
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model(),
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": blas_threads,
        "blas_threads_runtime": blas_runtime_threads(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "git_commit": git_commit(root),
        "seed": seed,
    }


def setup_seconds(env, cwd, runs):
    """Median wall time of a fresh interpreter running `import tpskit`,
    after one untimed run that warms the file cache and bytecode.  Output
    goes to pipes: run() then returns when the child closes them, where
    without pipes its timed wait polls in steps of up to 50 ms."""
    run = partial(subprocess.run, IMPORT, env=env, cwd=cwd, check=True,
                  timeout=120, capture_output=True)
    run()
    times = []
    for _ in range(runs):
        start = time.perf_counter()
        run()
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def _package_totals(stderr, packages):
    """Cumulative microseconds per package from `-X importtime` output,
    summed over the package's outermost entries (those not nested in another
    module of the same package).  Children are printed before their parent,
    one level deeper."""
    lines = []
    for line in stderr.splitlines():
        parts = line.split("|")
        if len(parts) != 3 or not parts[1].strip().isdigit():
            continue  # the header or unrelated output
        name = parts[2]
        lines.append((len(name) - len(name.lstrip()), name.strip().split(".")[0],
                      int(parts[1])))
    totals = dict.fromkeys(packages, 0)
    for idx, (depth, top, cumulative) in enumerate(lines):
        if top in totals:
            parent = next((t for d, t, _ in lines[idx + 1:] if d < depth), None)
            if parent != top:
                totals[top] += cumulative
    return totals


def import_breakdown(env, cwd, runs, packages=("numpy", "scipy", "tpskit")):
    """Median `-X importtime` ms of each package over fresh interpreters
    running `import tpskit`."""
    samples = {p: [] for p in packages}
    for _ in range(runs):
        proc = subprocess.run([sys.executable, "-X", "importtime", *IMPORT[1:]],
                              env=env, cwd=cwd, check=True, timeout=120,
                              capture_output=True, text=True)
        for p, us in _package_totals(proc.stderr, packages).items():
            samples[p].append(us / 1000.0)
    return {p: statistics.median(v) for p, v in samples.items()}
