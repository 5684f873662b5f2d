"""Tensor product structures on C^n and Schmidt analysis relative to them.

A Tps factors an n-dimensional space as a k-by-l grid: its basis matrix holds
the grid vector for cell (j, i) in column ``j*l + i`` (j indexes the first
factor, i the second).  The identity basis is the "god-given" structure in
which coordinates themselves carry the factorization.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .core import DEFAULT_TOL, Frozen, Tolerance, as_matrix, as_vector, singular_rank
from .errors import (ConvergenceFailure, DimensionMismatch, NumericOverflow,
                     SingularBasis, ZeroState)


@dataclass(frozen=True, eq=False)
class Tps(Frozen):
    """A k-by-l grid structure on C^n, n = k*l, k, l >= 1.  basis is a
    private read-only n x n copy, so the singular values, the inverse and
    the unitarity defect kept with it cannot go stale."""

    k: int
    l: int
    basis: np.ndarray  # n x n, column j*l+i = grid vector (j, i)
    dim = property(lambda self: self.k * self.l)

    def __post_init__(self):
        super().__post_init__()
        if min(self.k, self.l) < 1 or self.basis.shape != (self.dim, self.dim):
            raise DimensionMismatch(
                f"no {self.k}x{self.l} grid has a basis of shape {self.basis.shape}")

    @cached_property
    def singular_values(self) -> np.ndarray:
        """Singular values of the basis, descending and read-only; computed
        by an SVD once, on first use (`tps_new` uses them for its rank test;
        the grids that the refactor makers build are unitary by construction
        and skip that test)."""
        s = np.linalg.svd(self.basis, compute_uv=False)
        s.flags.writeable = False
        return s

    @cached_property
    def inverse(self) -> np.ndarray:
        """B^-1 for the basis B, read-only, shared by every coefficient solve
        on this grid (see `_solve`).  A grid that is unitary by construction
        (the refactor makers, a self-adjoint observable pair, `god_given`)
        keeps its adjoint B^*, set when it is built; any other grid, and a
        copy, computes it once by an LU inverse, on first use.  A basis the LU
        finds singular, which only a Tps built directly and not through
        `tps_new` can hold, raises SingularBasis."""
        try:
            x = np.linalg.inv(self.basis)
        except np.linalg.LinAlgError as e:
            raise SingularBasis("basis matrix is singular") from e
        x.flags.writeable = False
        return x

    @cached_property
    def unitarity_defect(self) -> float:
        """||B^* B - 1||_F for the basis B, from one Gram product (no SVD)
        on first use, read by every `is_inner_product_compatible` test of
        this grid."""
        return float(np.linalg.norm(self.basis.conj().T @ self.basis - np.eye(self.dim)))

    @property
    def shape(self) -> tuple[int, int]:
        return (self.k, self.l)

    def is_trivial(self) -> bool:
        """A shape with a one-dimensional factor: every vector is a product."""
        return self.k == 1 or self.l == 1


@dataclass(frozen=True, eq=False)
class SchmidtReport(Frozen):
    """Coefficients from a values-only SVD of the coefficient matrix, which
    is kept as a private read-only copy; the rank is their number, and the
    singular vectors come from one SVD of the matrix with vectors, on first
    access to either."""

    coefficients: np.ndarray        # descending, strictly positive
    _c: np.ndarray = field(repr=False)  # k x l
    rank = property(lambda self: self.coefficients.size)

    @property
    def left_vectors(self) -> np.ndarray:
        """k x rank, read-only."""
        return self._vectors[0]

    @property
    def right_vectors(self) -> np.ndarray:
        """l x rank, read-only."""
        return self._vectors[1]

    @cached_property
    def _vectors(self) -> tuple:
        try:
            u, _, vh = np.linalg.svd(self._c, full_matrices=False)
        except np.linalg.LinAlgError as e:  # pragma: no cover
            raise ConvergenceFailure(str(e)) from e
        u.flags.writeable = vh.flags.writeable = False
        return u[:, :self.rank], vh[:self.rank].T


@dataclass(frozen=True)
class EquivalenceVerdict:
    equivalent: bool
    swapped: bool


def tps_new(k: int, l: int, basis, tol: Tolerance = DEFAULT_TOL) -> Tps:
    """Validate and build a Tps with the given grid shape and basis."""
    t = Tps(k=k, l=l, basis=as_matrix(basis))
    if singular_rank(t.singular_values, tol) < t.dim:
        raise SingularBasis("basis matrix is numerically singular")
    return t


def _unitary_tps(k: int, l: int, basis) -> Tps:
    """A Tps on a basis that is unitary by construction, held without a
    copy, whose kept inverse is its read-only adjoint B^*: no rank test and
    no LU factorization.  For grids built from orthonormal columns only (a
    Householder completion, eigh vectors, the identity); a grid of unknown
    unitarity goes through `tps_new`."""
    return Tps._owning(k=k, l=l, basis=basis, inverse=basis.conj().T)


def god_given(k: int, l: int) -> Tps:
    """The identity-basis Tps of shape (k, l)."""
    return _unitary_tps(k, l, np.eye(k * l, dtype=np.complex128))


def _solve(t: Tps, rhs: np.ndarray) -> np.ndarray:
    """B^-1 rhs from the kept inverse X (an LU inverse, or B^* for a
    unitary grid): x = X rhs, refined once to x + X (rhs - B x), so each
    solve is three O(n^2) products per column.  The refinement step brings
    the error of the plain product X rhs back to that of an LU solve, and
    corrects the rounding by which B^* misses B^-1 as well.  Raises
    NumericOverflow (a ValueError) when the result is not finite."""
    x_inv = t.inverse
    with np.errstate(over="ignore", invalid="ignore"):
        x = x_inv @ rhs
        x += x_inv @ (rhs - t.basis @ x)
    if not np.isfinite(x).all():
        raise NumericOverflow("coefficients overflow: the solve is not finite")
    return x


def coefficient_matrix(w, t: Tps) -> np.ndarray:
    """k-by-l matrix C with ``t.basis @ vec(C) = w`` (vec in j*l+i order),
    one refined product with the grid's kept inverse (`Tps.inverse`).
    Raises ValueError when w is not finite or the solve overflows.  A
    non-finite w makes the solve non-finite, so the solve's own test is the
    one finiteness pass: w is checked only when the solve fails."""
    w = np.asarray(w, dtype=np.complex128).reshape(-1)
    try:
        return _solve(t, w).reshape(t.k, t.l)
    except ValueError:  # refuse a w of the wrong length, or not finite, as such
        as_vector(w, n=t.dim)
        raise


def schmidt(w, t: Tps, tol: Tolerance = DEFAULT_TOL) -> SchmidtReport:
    """Schmidt data of a state relative to a Tps.

    The rank is the numeric rank of the coefficient matrix; coefficients are
    its nonzero singular values, and ``sum_m sigma_m * outer(u_m, v_m)``
    reconstructs the coefficient matrix.  Raises ValueError when w is not
    finite or its coefficients or their singular values overflow.
    """
    return coefficient_schmidt(coefficient_matrix(w, t), tol)


def coefficient_schmidt(c: np.ndarray, tol: Tolerance = DEFAULT_TOL) -> SchmidtReport:
    """Schmidt data of a finite coefficient matrix, such as the one
    `coefficient_matrix` returns, from one values-only SVD; the report
    keeps a copy of c, read-only, for its singular vectors."""
    c = np.array(c)
    try:
        s = np.linalg.svd(c, compute_uv=False)
    except np.linalg.LinAlgError as e:  # pragma: no cover
        raise ConvergenceFailure(str(e)) from e
    r = singular_rank(s, tol)
    if r == 0:
        raise ZeroState("cannot classify the zero vector")
    return SchmidtReport._owning(coefficients=s[:r], _c=c)


def is_product(w, t: Tps, tol: Tolerance = DEFAULT_TOL) -> bool:
    """True iff the state is decomposable (Schmidt rank 1) relative to t."""
    return schmidt(w, t, tol).rank == 1


def is_inner_product_compatible(t: Tps, tol: Tolerance = DEFAULT_TOL) -> bool:
    """True iff the grid basis B is unitary, i.e. the factorwise inner products
    multiply out to the ambient one: the grid's kept ||B^* B - 1||_F
    (`Tps.unitarity_defect`, one Gram product per grid) is within
    10 * residual * n."""
    return t.unitarity_defect <= 10 * tol.residual * t.dim


def swap_factors(t: Tps) -> Tps:
    """Exchange the two factors: shape (l, k), cell (i, j) <- cell (j, i)."""
    perm = np.arange(t.dim).reshape(t.k, t.l).T.reshape(-1)
    return Tps._owning(k=t.l, l=t.k, basis=t.basis[:, perm])


def tps_equivalent(t1: Tps, t2: Tps, tol: Tolerance = DEFAULT_TOL) -> EquivalenceVerdict:
    """Decide whether two structures have the same product vectors, that is
    whether M = B1^-1 B is a Kronecker product P (x) Q for B = B2
    (swapped=False) or the basis of ``swap_factors(t2)`` (swapped=True).
    Rearranged (Van Loan-Pitsianis) with P[j, j'] Q[i, i'] at row (j, j'),
    column (i, i'), M has rank one exactly then: its second singular value
    is zero up to max(rank_rel, n * eps * cond(B1)) times the first.  The
    swapped grid is built only when B2 fails and t2 is l x k.
    """
    if t1.dim != t2.dim:
        raise DimensionMismatch("structures live on different spaces")
    (k, l), eps = t1.shape, np.finfo(float).eps
    s1 = t1.singular_values
    floor = max(tol.rank_rel, t1.dim * eps * s1[0] / s1[-1])
    for swapped, shape in ((False, (k, l)), (True, (l, k))):
        if t2.shape == shape:
            b = swap_factors(t2).basis if swapped else t2.basis
            m = _solve(t1, b).reshape(k, l, k, l)
            s = np.linalg.svd(m.transpose(0, 2, 1, 3).reshape(k * k, l * l),
                              compute_uv=False)
            if s.size == 1 or s[1] <= floor * s[0]:
                return EquivalenceVerdict(equivalent=True, swapped=swapped)
    return EquivalenceVerdict(equivalent=False, swapped=False)
