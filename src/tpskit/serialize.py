"""JSON wire formats: complex scalars as [re, im] pairs, matrices as
row-major {rows, cols, data} records."""

from __future__ import annotations

import numpy as np

from .algebra import OperatorAlgebra, _from_closed_span
from .core import DEFAULT_TOL, Tolerance, as_matrix
from .errors import InputError
from .observables import ObservablePair, observable_pair
from .tps import SchmidtReport, Tps, tps_new


def complex_to_json(z: complex) -> list:
    return [float(z.real), float(z.imag)]


def matrix_to_json(m) -> dict:
    a = as_matrix(m)
    return {
        "rows": int(a.shape[0]),
        "cols": int(a.shape[1]),
        "data": [complex_to_json(z) for z in a.reshape(-1)],
    }


def _is_int(v) -> bool:
    """A JSON integer: true and false are ints to Python, not to JSON."""
    return isinstance(v, int) and not isinstance(v, bool)


def matrix_from_json(obj, field: str = "matrix") -> np.ndarray:
    if not isinstance(obj, dict):
        raise InputError(f"field '{field}' must be an object")
    for key in ("rows", "cols", "data"):
        if key not in obj:
            raise InputError(f"field '{field}.{key}' is missing")
    rows, cols = obj["rows"], obj["cols"]
    if not (_is_int(rows) and _is_int(cols) and rows >= 0 and cols >= 0):
        raise InputError(f"field '{field}.rows/cols' must be nonnegative integers")
    data = obj["data"]
    if not isinstance(data, list) or len(data) != rows * cols:
        raise InputError(
            f"field '{field}.data' must hold rows*cols = {rows * cols} entries")
    if not all(isinstance(e, list) and len(e) == 2
               and all(_is_int(v) or isinstance(v, float) for v in e)
               for e in data):
        raise InputError(
            f"field '{field}.data' entries must be [re, im] pairs of numbers")
    try:
        flat = np.array([complex(*e) for e in data], dtype=np.complex128)
    except OverflowError:  # an integer beyond the float range
        raise InputError(f"field '{field}.data' entries must be finite")
    if flat.size and not np.all(np.isfinite(flat.real) & np.isfinite(flat.imag)):
        raise InputError(f"field '{field}.data' entries must be finite")
    return flat.reshape(rows, cols)


def tps_to_json(t: Tps) -> dict:
    return {
        "dim": t.dim,
        "k": t.k,
        "l": t.l,
        "basis": matrix_to_json(t.basis),
    }


def tps_from_json(obj, tol: Tolerance = DEFAULT_TOL) -> Tps:
    if not isinstance(obj, dict):
        raise InputError("tps file must hold a JSON object")
    for key in ("k", "l", "basis"):
        if key not in obj:
            raise InputError(f"field '{key}' is missing from the tps record")
    basis = matrix_from_json(obj["basis"], "basis")
    k, l = obj["k"], obj["l"]
    if not (_is_int(k) and _is_int(l)):
        raise InputError("fields 'k' and 'l' must be integers")
    if "dim" in obj and not (_is_int(obj["dim"]) and obj["dim"] == k * l):
        raise InputError("field 'dim' disagrees with k*l")
    return tps_new(k, l, basis, tol)


def observable_pair_to_json(p: ObservablePair) -> dict:
    return {
        "r": matrix_to_json(p.r),
        "t": matrix_to_json(p.t),
        "hermitian": bool(p.hermitian),
    }


def observable_pair_from_json(obj, tol: Tolerance = DEFAULT_TOL) -> ObservablePair:
    if not isinstance(obj, dict):
        raise InputError("observable file must hold a JSON object")
    for key in ("r", "t"):
        if key not in obj:
            raise InputError(f"field '{key}' is missing from the observable record")
    r = matrix_from_json(obj["r"], "r")
    t = matrix_from_json(obj["t"], "t")
    return observable_pair(r, t, tol)


def algebra_to_json(a: OperatorAlgebra) -> dict:
    return {
        "n": a.dim_space,
        "span": [matrix_to_json(m) for m in a.span_basis],
    }


def algebra_from_json(obj, tol: Tolerance = DEFAULT_TOL) -> OperatorAlgebra:
    if not isinstance(obj, dict):
        raise InputError("algebra file must hold a JSON object")
    for key in ("n", "span"):
        if key not in obj:
            raise InputError(f"field '{key}' is missing from the algebra record")
    n = obj["n"]
    if not (_is_int(n) and n >= 1):
        raise InputError("field 'n' must be a positive integer")
    span = obj["span"]
    if not isinstance(span, list) or not span:
        raise InputError("field 'span' must be a nonempty list of matrices")
    mats = [matrix_from_json(m, f"span[{idx}]") for idx, m in enumerate(span)]
    for idx, m in enumerate(mats):
        if m.shape != (n, n):
            raise InputError(f"field 'span[{idx}]' must be n x n, n = {n}")
    return _from_closed_span(np.array(mats), tol)


def vector_from_json(obj, field: str = "state") -> np.ndarray:
    m = matrix_from_json(obj, field)
    if m.shape[1] != 1:
        raise InputError(f"field '{field}' must be a single-column matrix")
    return m.reshape(-1)


def schmidt_to_json(report: SchmidtReport) -> dict:
    return {
        "rank": report.rank,
        "coefficients": [float(c) for c in report.coefficients],
        "left_vectors": matrix_to_json(report.left_vectors),
        "right_vectors": matrix_to_json(report.right_vectors),
    }
