import os
import sys

# one BLAS thread: the suite's matrices are small, and worker threads only
# contend with other processes for the cores; numpy is not imported yet,
# and the CLI subprocesses inherit the setting
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

sys.path.insert(0, os.path.dirname(__file__))

# pytest puts src/ on sys.path (pyproject's pythonpath); subprocesses such
# as `python -m tpskit.cli` find the checkout through PYTHONPATH instead
_SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
os.environ["PYTHONPATH"] = os.pathsep.join(
    filter(None, [_SRC, os.environ.get("PYTHONPATH")]))
