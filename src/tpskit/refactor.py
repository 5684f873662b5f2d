"""Man-made grid structures: turn a chosen basis into product vectors, or
make one prescribed state separable (or entangled) by construction."""

from __future__ import annotations

import numpy as np

from .core import DEFAULT_TOL, Tolerance, as_matrix, as_vector, pow2_scaled
from .errors import DimensionMismatch, NonCompositeDim, ShapeTooSmall, ZeroState
from .tps import Tps, _unitary_tps, tps_new


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
    """The state scaled by `pow2_scaled`, so that its norm neither underflows
    nor overflows and only an exactly zero state is refused."""
    if not v.any():
        raise ZeroState("cannot refactor the zero vector")
    return pow2_scaled(v)


def tps_making_basis_product(basis, k: int, l: int,
                             tol: Tolerance = DEFAULT_TOL) -> Tps:
    """Grid structure in which every column of the given basis is a product
    vector: column p becomes the grid vector of cell (p // l, p % l)."""
    b = as_matrix(basis)
    n = b.shape[0]
    _check_shape(n, k, l)
    return tps_new(k, l, b, tol)


def _unitary_basis(w: np.ndarray) -> np.ndarray:
    """A unitary basis whose column 0 is c = w/||w||, w first rescaled by a
    power of two: the Householder reflector I - 2 u u^*/(u^* u) for
    u = c + phi e_0, phi the phase of c_0 (1 when c_0 = 0), maps e_0 to
    -conj(phi) c, so column 0 is then set to c itself.  |u_0| = 1 + |c_0|
    >= 1, so forming u cancels nothing (Golub and Van Loan, Matrix
    Computations, sec. 5.1).  O(n^2), with no SVD and no rank test."""
    c = _rescaled(w)
    c /= np.linalg.norm(c)
    u = c.copy()
    # by its angle, not c_0/|c_0|: that quotient overflows or loses |phi| = 1
    # for a subnormal c_0, and angle(0) = 0 gives phi = 1
    u[0] += np.exp(1j * np.angle(c[0]))
    h = np.outer(u * (-2 / np.vdot(u, u).real), u.conj())
    h.flat[::c.size + 1] += 1
    h[:, 0] = c
    return h


def tps_making_state_product(w, k: int, l: int) -> Tps:
    """Structure making the given state a product vector (grid cell (0, 0)).

    The basis is a unitary completion of w/||w||, so the grid is
    inner-product compatible, its conditioning (cond 1) does not depend
    on the scale of w, and its kept inverse is its adjoint.
    """
    v = as_vector(w)
    _check_shape(v.size, k, l)
    return _unitary_tps(k, l, _unitary_basis(v))


def _check_entangling(k: int, l: int):
    if k < 2 or l < 2:
        raise ShapeTooSmall("an entangling grid needs both factors >= 2")


def _repaired(basis: np.ndarray, k: int, l: int) -> Tps:
    """The state-product basis with three cells re-paired: cells (0, 1) and
    (1, 0) get (c0 +- c1)/sqrt 2 for c0 = w/||w|| in cell (0, 0) and c1 in
    cell (0, 1), and cell (0, 0) gets cell (1, 0).  A 2 x 2 unitary mix, so
    the basis stays unitary (its kept inverse is its adjoint), and w has
    coefficient ||w||/sqrt 2 on two cells."""
    b = np.array(basis)
    c0, c1 = b[:, 0], b[:, 1]
    b[:, [0, 1, l]] = np.column_stack([b[:, l], (c0 + c1) / np.sqrt(2.0),
                                       (c0 - c1) / np.sqrt(2.0)])
    return _unitary_tps(k, l, b)


def tps_making_state_entangled(w, k: int, l: int) -> Tps:
    """Structure under which the given state has Schmidt rank exactly 2,
    with two equal Schmidt coefficients: the unitary basis of
    `tps_making_state_product` with three of its cells re-paired."""
    v = as_vector(w)
    _check_shape(v.size, k, l)
    _check_entangling(k, l)
    return _repaired(_unitary_basis(v), k, l)


def dual_verdict(w, k: int, l: int):
    """Pair of structures giving opposite separability verdicts on one state:
    the product structure, and its basis re-paired.  Both are unitary and
    built from one completion of w, without an SVD."""
    product_tps = tps_making_state_product(w, k, l)
    _check_entangling(k, l)
    return product_tps, _repaired(product_tps.basis, k, l)
