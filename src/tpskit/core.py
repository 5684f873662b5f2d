"""Dense complex linear-algebra kernels used by every other module.

Matrices are plain ``numpy`` arrays of dtype complex128; states are column
vectors (shape ``(n,)`` or ``(n, 1)`` is accepted at the boundary and
normalized to ``(n,)`` internally where convenient).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields

import numpy as np

from .errors import DimensionMismatch, NumericOverflow

COND_LIMIT = 1e6  # eigenvector conditioning guard for non-Hermitian input


@dataclass(frozen=True)
class Tolerance:
    """Numerical thresholds shared across the library.

    eig_cluster : relative gap used when grouping eigenvalues into clusters
    rank_rel    : relative singular-value cutoff for numeric ranks
    residual    : absolute residual bound for verification checks
    """

    eig_cluster: float = 1e-8
    rank_rel: float = 1e-10
    residual: float = 1e-10

    def __post_init__(self):
        if not (0 < self.eig_cluster < np.inf and 0 < self.rank_rel
                and 0 < self.residual < np.inf):
            raise ValueError("tolerances must be strictly positive and finite")
        if not self.rank_rel < 1:
            raise ValueError("rank_rel must be < 1")


DEFAULT_TOL = Tolerance()


@dataclass(frozen=True, eq=False)
class Frozen:
    """Base of the value types, compared by identity: each field annotated
    ``np.ndarray`` is a private read-only copy of the array given, and a
    copy, pickle or `dataclasses.replace`, rebuilt through ``__init__``,
    keeps no cached property of the original."""

    def __post_init__(self):
        for f in fields(self):
            if f.type in ("np.ndarray", np.ndarray):
                a = np.array(getattr(self, f.name))
                a.flags.writeable = False
                object.__setattr__(self, f.name, a)

    def __reduce__(self):
        return (type(self), tuple(getattr(self, f.name) for f in fields(self)))

    @classmethod
    def _owning(cls, **values):
        """Hold fresh or read-only arrays themselves, made read-only in place,
        with no copy and no check; a value for a cached property seeds it."""
        obj = cls.__new__(cls)
        for v in values.values():
            if isinstance(v, np.ndarray):
                v.flags.writeable = False
        obj.__dict__.update(values)
        return obj


def as_matrix(m, rows: int | None = None, cols: int | None = None) -> np.ndarray:
    """Coerce input to a finite complex128 2-d array, checking shape if given."""
    a = np.asarray(m, dtype=np.complex128)
    if a.ndim == 1:
        a = a.reshape(-1, 1)
    if a.ndim != 2:
        raise DimensionMismatch(f"expected a matrix, got ndim={a.ndim}")
    if rows is not None and a.shape[0] != rows:
        raise DimensionMismatch(f"expected {rows} rows, got {a.shape[0]}")
    if cols is not None and a.shape[1] != cols:
        raise DimensionMismatch(f"expected {cols} columns, got {a.shape[1]}")
    if not np.isfinite(a).all():
        raise ValueError("matrix entries must be finite")
    return a


def as_vector(w, n: int | None = None) -> np.ndarray:
    """Coerce input to a finite complex128 1-d array of length ``n``."""
    a = np.asarray(w, dtype=np.complex128).reshape(-1)
    if n is not None and a.size != n:
        raise DimensionMismatch(f"expected a vector of length {n}, got {a.size}")
    if not np.isfinite(a).all():
        raise ValueError("vector entries must be finite")
    return a


def pow2_scaled(a: np.ndarray) -> np.ndarray:
    """A non-empty a times the power of two that brings its largest entry
    magnitude into [1/2, 1): an exact scaling after which norms and products
    of such arrays neither underflow nor overflow.  Zeros are unchanged."""
    e = -np.frexp(np.abs(a).max())[1]
    return np.ldexp(a.real, e) + 1j * np.ldexp(a.imag, e)


def cluster_values(values: np.ndarray, tol: Tolerance) -> list[np.ndarray]:
    """Group scalars into clusters by single-linkage with a relative gap.

    Works for real and complex values.  The gap threshold is
    ``eig_cluster * (spread + 1)`` where spread is the diameter of the value
    set, so a constant spectrum forms a single cluster.  Returns index arrays,
    ordered by ascending cluster representative (lexicographic (re, im) for
    complex input).
    """
    values = np.asarray(values)
    n = values.size
    if n == 0:
        return []
    dist = np.abs(values[:, None] - values[None, :])
    spread = float(np.max(dist))
    threshold = tol.eig_cluster * (spread + 1.0)

    order = np.lexsort((values.imag, values.real)) if np.iscomplexobj(values) \
        else np.argsort(values)
    # single linkage: square the proximity relation (reflexive, so each
    # squaring doubles the path length) until it is transitively closed, then
    # label each value by the lowest index it reaches; the relation is held
    # as a float64 0/1 matrix, because a bool matmul does not use BLAS
    links, reach = 0, (dist <= threshold).astype(np.float64)
    while (grown := np.count_nonzero(reach)) != links:
        links, reach = grown, ((reach @ reach) > 0).astype(np.float64)
    labels = np.argmax(reach, axis=1).tolist()
    # clusters in order of their first member along the sort order
    groups: dict[int, list[int]] = {}
    for i in order.tolist():
        groups.setdefault(labels[i], []).append(i)
    return [np.array(idx) for idx in groups.values()]


def singular_rank(s: np.ndarray, tol: Tolerance = DEFAULT_TOL) -> int:
    """Number of descending singular values above ``rank_rel`` times the
    largest one.  Raises NumericOverflow (a ValueError) when the largest is
    not finite: the SVD of a finite matrix overflowed, and its rank is not
    measured."""
    if s.size == 0 or s[0] == 0.0:
        return 0
    if not math.isfinite(s[0]):
        raise NumericOverflow("singular values overflow: the largest is not finite")
    return int(np.count_nonzero(s > tol.rank_rel * s[0]))


def numeric_rank(m, tol: Tolerance = DEFAULT_TOL) -> int:
    """Number of singular values above ``rank_rel`` times the largest one."""
    a = as_matrix(m)
    if a.size == 0:
        return 0
    return singular_rank(np.linalg.svd(a, compute_uv=False), tol)


def subspace_residual(p: np.ndarray, q: np.ndarray) -> float:
    """``||p - q q† p||``: how far span(p) is from span(q), for orthonormal
    columns q."""
    return float(np.linalg.norm(p - q @ (q.conj().T @ p)))


def intertwiners(lefts, rights, cut: float) -> np.ndarray:
    """Frobenius-orthonormal basis of {X : L X = X R for every pair (L, R)}.

    ``lefts`` holds m x m matrices and ``rights`` the matching n x n ones;
    the result has shape (dim, m, n).  With lefts = rights this is the joint
    commutant.  The null space is that of the Gram matrix of the stacked map
    vec_col(X) -> (kron(I, L) - kron(R^T, I)) vec_col(X), assembled termwise
    as kron(I, sum L†L) + kron(sum (R R†)^T, I) - C - C†, with
    C = sum kron(R^T, L†); its eigenvalues are the squared singular values of
    the stacked system.  They carry eps * ||gram|| noise on exact zeros, so
    eigenvalues up to ``cut`` times max(top eigenvalue, 1) count as zero;
    that floor assumes unit-scale inputs, which both callers give
    (`algebra.commutant` and the complementarity oracle of the tests).
    """
    ls = np.asarray(lefts, dtype=np.complex128)
    rs = np.asarray(rights, dtype=np.complex128)
    m, n = ls.shape[1], rs.shape[1]
    s1 = np.einsum("gji,gjk->ik", ls.conj(), ls)
    s2 = np.einsum("gij,gkj->ik", rs.conj(), rs)
    c1 = np.einsum("gji,glk->ikjl", rs, ls.conj()).reshape(n * m, n * m)
    gram = (np.kron(np.eye(n, dtype=np.complex128), s1)
            + np.kron(s2, np.eye(m, dtype=np.complex128)) - (c1 + c1.conj().T))
    evals, evecs = np.linalg.eigh(gram)
    null = evecs[:, evals <= cut * max(float(evals[-1]), 1.0)]
    return null.T.reshape(-1, n, m).transpose(0, 2, 1)


def phase_fix(v: np.ndarray) -> np.ndarray:
    """Rotate a vector's global phase so its largest-magnitude entry is
    real positive (ties broken by lowest index); a matrix has each of its
    columns rotated so.  Zero vectors are returned unchanged."""
    v = np.asarray(v, dtype=np.complex128)
    mags = np.abs(v)
    top = mags.max(axis=0)
    p = np.argmax(mags > top - 1e-14 * (top + 1), axis=0, keepdims=True)
    pivot = np.take_along_axis(v, p, axis=0)
    zero = pivot == 0.0
    return v * np.where(zero, 1.0, np.abs(pivot) / np.where(zero, 1.0, pivot))


def grid_from_fibers(fibers, axis: int) -> np.ndarray:
    """Grid basis (column j*l + i = cell (j, i)) laid out from fibers, a
    sequence of them or their stacked array.

    With axis=2 fiber i is an n x k matrix holding cell (j, i) in column j;
    with axis=1 fiber j is n x l, holding cell (j, i) in column i.  Each
    fiber is rescaled once so that its first column is a unit vector whose
    largest-magnitude entry (lowest index on ties) is real positive.
    """
    f = np.asarray(fibers)
    y0 = f[:, :, 0]
    pivot = y0[np.arange(len(f)), np.argmax(np.abs(y0), axis=1)]
    scale = np.linalg.norm(y0, axis=1) * (pivot / np.abs(pivot))
    return np.moveaxis(f / scale[:, None, None], 0, axis).reshape(f.shape[1], -1)
