"""Man-made grid structures: turn a chosen basis into product vectors, or
make one prescribed state separable (or entangled) by construction."""

from __future__ import annotations

import numpy as np

from .core import DEFAULT_TOL, Tolerance, as_matrix, as_vector, complete_orthonormal
from .errors import (
    DimensionMismatch,
    NonCompositeDim,
    ShapeTooSmall,
    ZeroState,
)
from .tps import Tps, tps_new


def _check_shape(n: int, k: int, l: int):
    if k < 1 or l < 1:
        raise DimensionMismatch("factor dimensions must be >= 1")
    if k * l != n:
        if k >= 2 and l >= 2 and _is_prime(n):
            raise NonCompositeDim(
                f"dimension {n} is prime; no nontrivial grid exists")
        raise DimensionMismatch(f"{k} x {l} grid does not tile dimension {n}")


def _is_prime(n: int) -> bool:
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1
    return True


def _rescaled(v: np.ndarray) -> np.ndarray:
    """The state times the power of two that brings its largest entry
    magnitude into [1/2, 1): an exact scaling after which its norm neither
    underflows nor overflows, so only an exactly zero state is refused."""
    peak = np.max(np.abs(v), initial=0.0)
    if peak == 0:
        raise ZeroState("cannot refactor the zero vector")
    e = -np.frexp(peak)[1]
    return np.ldexp(v.real, e) + 1j * np.ldexp(v.imag, e)


def tps_making_basis_product(basis, k: int, l: int,
                             tol: Tolerance = DEFAULT_TOL) -> Tps:
    """Grid structure in which every column of the given basis is a product
    vector: column p becomes the grid vector of cell (p // l, p % l)."""
    b = as_matrix(basis)
    n = b.shape[0]
    _check_shape(n, k, l)
    return tps_new(k, l, b, tol)


def _complete_columns(cols: np.ndarray, n: int) -> np.ndarray:
    """Extend linearly independent columns to an invertible n x n matrix.

    Keeps the given columns first and appends, in index order, the standard
    basis vectors of the coordinates that partial pivoting on the columns
    leaves free: each column, once eliminated against the earlier ones,
    pivots on its largest remaining entry (ties to the highest index, so the
    appended vectors favour low indices).  The choice depends on the
    directions of the columns, not their scale.
    """
    a = cols.astype(np.complex128)
    free = np.ones(n, dtype=bool)
    for j in range(cols.shape[1]):
        mags = np.where(free, np.abs(a[:, j]), -1.0)
        p = n - 1 - int(np.argmax(mags[::-1]))
        free[p] = False
        a -= np.outer(a[:, j] / a[p, j], a[p])
    return np.hstack([cols, np.eye(n, dtype=np.complex128)[:, free]])


def tps_making_state_product(w, k: int, l: int, orthonormal: bool = False,
                             tol: Tolerance = DEFAULT_TOL) -> Tps:
    """Structure making the given state a product vector (grid cell (0, 0)).

    The basis holds w/||w||, so its conditioning does not depend on the
    scale of w.  With orthonormal=True it is completed to a unitary basis, so
    the result is inner-product compatible.
    """
    v = as_vector(w)
    n = v.size
    _check_shape(n, k, l)
    v = _rescaled(v)
    col = (v / np.linalg.norm(v)).reshape(n, 1)
    if orthonormal:
        basis = complete_orthonormal(col, n, tol)
    else:
        basis = _complete_columns(col, n)
    return tps_making_basis_product(basis, k, l, tol)


def tps_making_state_entangled(w, k: int, l: int, orthonormal: bool = False,
                               tol: Tolerance = DEFAULT_TOL) -> Tps:
    """Structure under which the given state has Schmidt rank exactly 2.

    Splits w = w1 + w2 with w1 along a standard basis direction not parallel
    to w, assigns the two parts to the off-diagonal grid cells (0, 1) and
    (1, 0), and fills the rest of the basis lexicographically.  The basis
    holds the two parts divided by ||w||.
    """
    v = as_vector(w)
    n = v.size
    _check_shape(n, k, l)
    if k < 2 or l < 2:
        raise ShapeTooSmall("an entangling grid needs both factors >= 2")
    v = _rescaled(v)
    norm = np.linalg.norm(v)

    # smallest-index coordinate direction not parallel to w
    u_idx = 0
    for idx in range(n):
        e = np.zeros(n, dtype=np.complex128)
        e[idx] = 1.0
        resid = v - v[idx] * e
        if np.linalg.norm(resid) > 1e-6 * norm:
            u_idx = idx
            break
    u = np.zeros(n, dtype=np.complex128)
    u[u_idx] = 1.0
    w1 = u * (norm / np.sqrt(2.0))
    w2 = v - w1

    if orthonormal:
        q, _ = np.linalg.qr(np.column_stack([w1, w2]))
        c = q.conj().T @ v  # w in the orthonormal frame of span{w1, w2}
        # both coordinates must stay away from zero for a rank-2 layout
        if min(abs(c[0]), abs(c[1])) < 1e-6 * norm:
            rot = np.array([[1, 1], [1, -1]], dtype=np.complex128) / np.sqrt(2)
            q = q @ rot
        pair = q
        rest = complete_orthonormal(pair, n, tol)[:, 2:]
    else:
        pair = np.column_stack([w1, w2]) / norm
        rest = _complete_columns(pair, n)[:, 2:]

    basis = np.zeros((n, n), dtype=np.complex128)
    basis[:, 0 * l + 1] = pair[:, 0]
    basis[:, 1 * l + 0] = pair[:, 1]
    cells = [p for p in range(n) if p not in (0 * l + 1, 1 * l + 0)]
    for col, cell in enumerate(cells):
        basis[:, cell] = rest[:, col]
    return tps_new(k, l, basis, tol)


def dual_verdict(w, k: int, l: int, tol: Tolerance = DEFAULT_TOL):
    """Pair of structures giving opposite separability verdicts on one state."""
    product_tps = tps_making_state_product(w, k, l, orthonormal=True, tol=tol)
    entangled_tps = tps_making_state_entangled(w, k, l, orthonormal=True, tol=tol)
    return product_tps, entangled_tps
