"""Man-made grid structures: turn a chosen basis into product vectors, or
make one prescribed state separable (or entangled) by construction."""

from __future__ import annotations

import numpy as np

from .core import (
    DEFAULT_TOL,
    Tolerance,
    as_matrix,
    as_vector,
    complete_orthonormal,
    singular_rank,
)
from .errors import (
    DimensionMismatch,
    NonCompositeDim,
    ShapeTooSmall,
    SingularBasis,
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


def _complete_column(col: np.ndarray) -> np.ndarray:
    """Extend a nonzero column to an invertible n x n matrix.

    Keeps the column first and appends, in index order, the standard basis
    vectors of every coordinate but its pivot, its largest-magnitude entry
    (ties to the highest index, so the appended vectors favour low indices).
    The choice depends on the direction of the column, not its scale.
    """
    n = col.shape[0]
    p = n - 1 - int(np.argmax(np.abs(col[::-1, 0])))
    return np.hstack([col, np.delete(np.eye(n, dtype=np.complex128), p, axis=1)])


def _state_basis(v: np.ndarray, orthonormal: bool, tol: Tolerance) -> np.ndarray:
    """v/||v|| completed to a basis (a unitary one when orthonormal), refused
    as `tps_new`'s rank test refuses it but without an SVD.

    A unitary basis has every singular value 1 to rounding, so it passes
    (an SVD could refuse it only for a rank_rel within rounding of 1).  For
    a unit column c the pivot completion has n - 2 singular values 1 and
    s+ >= 1 >= s- with s+^2 = 1 + r, r the norm of c off its pivot, and
    s+ s- = |c_p|, the determinant; `singular_rank` judges that pair.
    """
    v = _rescaled(v)
    col = (v / np.linalg.norm(v)).reshape(v.size, 1)
    if orthonormal:
        return complete_orthonormal(col, v.size, tol)
    mags = np.sort(np.abs(col[:, 0]))
    s_plus = np.sqrt(1 + np.linalg.norm(mags[:-1]))
    if singular_rank(np.array([s_plus, mags[-1] / s_plus]), tol) < 2:
        raise SingularBasis("basis matrix is numerically singular")
    return _complete_column(col)


def tps_making_state_product(w, k: int, l: int, orthonormal: bool = False,
                             tol: Tolerance = DEFAULT_TOL) -> Tps:
    """Structure making the given state a product vector (grid cell (0, 0)).

    The basis holds w/||w||, so its conditioning does not depend on the
    scale of w.  With orthonormal=True it is completed to a unitary basis, so
    the result is inner-product compatible.  The basis gets `tps_new`'s rank
    verdict from its known singular values, without an SVD.
    """
    v = as_vector(w)
    _check_shape(v.size, k, l)
    return Tps(dim=v.size, k=k, l=l, basis=_state_basis(v, orthonormal, tol))


def _check_entangling(k: int, l: int):
    if k < 2 or l < 2:
        raise ShapeTooSmall("an entangling grid needs both factors >= 2")


def _repaired(basis: np.ndarray, k: int, l: int) -> Tps:
    """The state-product basis with three cells re-paired: cells (0, 1) and
    (1, 0) get (c0 +- c1)/sqrt 2 for c0 = w/||w|| in cell (0, 0) and c1 in
    cell (0, 1), and cell (0, 0) gets cell (1, 0).  A 2 x 2 unitary mix, so
    the singular values, and with them `tps_new`'s rank verdict, are those
    of the product basis, and w has coefficient ||w||/sqrt 2 on two cells."""
    b = np.array(basis)
    c0, c1 = b[:, 0], b[:, 1]
    b[:, [0, 1, l]] = np.column_stack([b[:, l], (c0 + c1) / np.sqrt(2.0),
                                       (c0 - c1) / np.sqrt(2.0)])
    return Tps(dim=k * l, k=k, l=l, basis=b)


def tps_making_state_entangled(w, k: int, l: int, orthonormal: bool = False,
                               tol: Tolerance = DEFAULT_TOL) -> Tps:
    """Structure under which the given state has Schmidt rank exactly 2,
    with two equal Schmidt coefficients: the basis of
    `tps_making_state_product` with three of its cells re-paired (no SVD
    either)."""
    v = as_vector(w)
    _check_shape(v.size, k, l)
    _check_entangling(k, l)
    return _repaired(_state_basis(v, orthonormal, tol), k, l)


def dual_verdict(w, k: int, l: int, tol: Tolerance = DEFAULT_TOL):
    """Pair of structures giving opposite separability verdicts on one state:
    the orthonormal product structure, and its basis re-paired.  Both are
    unitary, so the one SVD is the unitary completion's."""
    product_tps = tps_making_state_product(w, k, l, orthonormal=True, tol=tol)
    _check_entangling(k, l)
    return product_tps, _repaired(product_tps.basis, k, l)
