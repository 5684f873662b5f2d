import os
import sys

sys.path.insert(0, os.path.dirname(__file__))

# pytest puts src/ on sys.path (pyproject's pythonpath); subprocesses such
# as `python -m tpskit.cli` find the checkout through PYTHONPATH instead
_SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
os.environ["PYTHONPATH"] = os.pathsep.join(
    filter(None, [_SRC, os.environ.get("PYTHONPATH")]))
