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

    Keeps the given columns first and appends standard basis vectors in
    index order.  They are picked greedily: each time the one with the
    largest residual against the span so far (ties to the lowest index), so
    the choice depends on the directions of the columns, not their scale.
    """
    q, _ = np.linalg.qr(cols)
    eye = np.eye(n, dtype=np.complex128)
    # projector onto the complement of the span so far: its column p is the
    # residual of e_p, with squared norm resid[p, p]
    resid = eye - q @ q.conj().T
    chosen = []
    for _ in range(n - cols.shape[1]):
        d = resid.diagonal().real
        p = int(np.argmax(d))
        chosen.append(p)
        v = resid[:, p] / np.sqrt(d[p])
        resid -= np.outer(v, v.conj())
    chosen.sort()
    return np.hstack([cols, eye[:, chosen]])


def tps_making_state_product(w, k: int, l: int, orthonormal: bool = False,
                             tol: Tolerance = DEFAULT_TOL) -> Tps:
    """Structure making the given state a product vector (grid cell (0, 0)).

    With orthonormal=True the state is normalized and completed to a unitary
    basis, so the result is inner-product compatible.
    """
    v = as_vector(w)
    n = v.size
    _check_shape(n, k, l)
    norm = np.linalg.norm(v)
    if norm == 0:
        raise ZeroState("cannot refactor the zero vector")
    if orthonormal:
        basis = complete_orthonormal((v / norm).reshape(n, 1), n, tol)
    else:
        basis = _complete_columns(v.reshape(n, 1), n)
    return tps_making_basis_product(basis, k, l, tol)


def tps_making_state_entangled(w, k: int, l: int, orthonormal: bool = False,
                               tol: Tolerance = DEFAULT_TOL) -> Tps:
    """Structure under which the given state has Schmidt rank exactly 2.

    Splits w = w1 + w2 with w1 along a standard basis direction not parallel
    to w, assigns the two parts to the off-diagonal grid cells (0, 1) and
    (1, 0), and fills the rest of the basis lexicographically.
    """
    v = as_vector(w)
    n = v.size
    _check_shape(n, k, l)
    if k < 2 or l < 2:
        raise ShapeTooSmall("an entangling grid needs both factors >= 2")
    norm = np.linalg.norm(v)
    if norm == 0:
        raise ZeroState("cannot refactor the zero vector")

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
        pair = np.column_stack([w1, w2])
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
