"""Tensor product structures on C^n and Schmidt analysis relative to them.

A Tps factors an n-dimensional space as a k-by-l grid: its basis matrix holds
the grid vector for cell (j, i) in column ``j*l + i`` (j indexes the first
factor, i the second).  The identity basis is the "god-given" structure in
which coordinates themselves carry the factorization.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import (
    DEFAULT_TOL,
    Tolerance,
    as_matrix,
    as_vector,
    numeric_rank,
    singular_rank,
    svd,
)
from .errors import DimensionMismatch, SingularBasis, ZeroState


@dataclass(frozen=True, eq=False)
class Tps:
    dim: int
    k: int
    l: int
    basis: np.ndarray  # n x n, column j*l+i = grid vector (j, i)

    @property
    def shape(self) -> tuple[int, int]:
        return (self.k, self.l)

    def is_trivial(self) -> bool:
        """A shape with a one-dimensional factor: every vector is a product."""
        return self.k == 1 or self.l == 1


@dataclass(frozen=True, eq=False)
class SchmidtReport:
    rank: int
    coefficients: np.ndarray        # descending, strictly positive
    left_vectors: np.ndarray        # k x rank
    right_vectors: np.ndarray       # l x rank


@dataclass(frozen=True)
class EquivalenceVerdict:
    equivalent: bool
    swapped: bool


def tps_new(k: int, l: int, basis, tol: Tolerance = DEFAULT_TOL) -> Tps:
    """Validate and build a Tps with the given grid shape and basis."""
    if k < 1 or l < 1:
        raise DimensionMismatch("factor dimensions must be >= 1")
    n = k * l
    b = as_matrix(basis, rows=n, cols=n)
    if numeric_rank(b, tol) < n:
        raise SingularBasis("basis matrix is numerically singular")
    return Tps(dim=n, k=k, l=l, basis=b.copy())


def god_given(k: int, l: int) -> Tps:
    """The identity-basis Tps of shape (k, l)."""
    n = k * l
    return Tps(dim=n, k=k, l=l, basis=np.eye(n, dtype=np.complex128))


def coefficient_matrix(w, t: Tps) -> np.ndarray:
    """k-by-l matrix C with ``t.basis @ vec(C) = w`` (vec in j*l+i order)."""
    v = as_vector(w, n=t.dim)
    c = np.linalg.solve(t.basis, v)
    return c.reshape(t.k, t.l)


def schmidt(w, t: Tps, tol: Tolerance = DEFAULT_TOL) -> SchmidtReport:
    """Schmidt data of a state relative to a Tps.

    The rank is the numeric rank of the coefficient matrix; coefficients are
    its nonzero singular values, and ``sum_m sigma_m * outer(u_m, v_m)``
    reconstructs the coefficient matrix.
    """
    u, s, vr = svd(coefficient_matrix(w, t))
    r = singular_rank(s, tol)
    if r == 0:
        raise ZeroState("cannot classify the zero vector")
    return SchmidtReport(
        rank=r,
        coefficients=s[:r].copy(),
        left_vectors=u[:, :r].copy(),
        right_vectors=vr[:, :r].conj().copy(),
    )


def is_product(w, t: Tps, tol: Tolerance = DEFAULT_TOL) -> bool:
    """True iff the state is decomposable (Schmidt rank 1) relative to t."""
    return schmidt(w, t, tol).rank == 1


def is_inner_product_compatible(t: Tps, tol: Tolerance = DEFAULT_TOL) -> bool:
    """True iff the grid basis is unitary, i.e. the factorwise inner products
    multiply out to the ambient one."""
    g = t.basis.conj().T @ t.basis
    return bool(np.linalg.norm(g - np.eye(t.dim)) <= 10 * tol.residual * t.dim)


def swap_factors(t: Tps) -> Tps:
    """Exchange the two factors: shape (l, k), cell (i, j) <- cell (j, i)."""
    perm = np.arange(t.dim).reshape(t.k, t.l).T.reshape(-1)
    return Tps(dim=t.dim, k=t.l, l=t.k, basis=t.basis[:, perm].copy())


def tps_equivalent(t1: Tps, t2: Tps, tol: Tolerance = DEFAULT_TOL) -> EquivalenceVerdict:
    """Decide whether two structures have the same product vectors, that is
    whether M = B1^-1 B is a Kronecker product P (x) Q for B = B2
    (swapped=False) or the basis of ``swap_factors(t2)`` (swapped=True).
    Rearranged (Van Loan-Pitsianis) with P[j, j'] Q[i, i'] at row (j, j'),
    column (i, i'), M has rank one exactly then: its second singular value
    is zero up to max(rank_rel, n * eps * cond(B1)) times the first.
    """
    if t1.dim != t2.dim:
        raise DimensionMismatch("structures live on different spaces")
    (k, l), eps = t1.shape, np.finfo(float).eps
    floor = max(tol.rank_rel, t1.dim * eps * np.linalg.cond(t1.basis))
    for swapped, t in ((False, t2), (True, swap_factors(t2))):
        if t.shape == t1.shape:
            m = np.linalg.solve(t1.basis, t.basis).reshape(k, l, k, l)
            s = np.linalg.svd(m.transpose(0, 2, 1, 3).reshape(k * k, l * l),
                              compute_uv=False)
            if s.size == 1 or s[1] <= floor * s[0]:
                return EquivalenceVerdict(equivalent=True, swapped=swapped)
    return EquivalenceVerdict(equivalent=False, swapped=False)
