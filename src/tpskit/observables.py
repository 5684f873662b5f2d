"""Commuting operator pairs whose joint eigenspaces form a one-dimensional
k-by-l grid, the TPS they induce, and complementary pairs that pin a factor
pair down uniquely.

Complementarity is decided in the first pair's grid cells: on each shared
subspace its operator is diagonal with distinct eigenvalues, so the joint
commutant on the first subspace and the intertwiners onto it are diagonal,
one small null-space problem per subspace.  A scalar joint commutant means
irreducibility only for a self-adjoint pair: the pairs of
`complementary_pair` generate the reducible upper-triangular algebra on a
fiber.  A partner built by `complementary_pair` carries its characteristic
sets, written down from the first pair's, so the kernel runs once per
complementary round trip.  Complementarity itself is decided afresh by each
call, and `tpp_from_complementary` builds from that one decision.
"""

from __future__ import annotations

from contextlib import suppress
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .algebra import tps_to_tpp
from .core import (
    COND_LIMIT,
    DEFAULT_TOL,
    Frozen,
    Tolerance,
    as_matrix,
    cluster_values,
    grid_from_fibers,
    phase_fix,
    pow2_scaled,
    singular_rank,
    subspace_residual,
)
from .errors import (
    DimensionMismatch,
    JointDegeneracy,
    MultiplicityViolation,
    NotCommuting,
    NotComplementary,
    NotDiagonalizable,
)
from .tps import Tps, _unitary_tps, is_inner_product_compatible, tps_new


@dataclass(frozen=True, eq=False)
class ObservablePair(Frozen):
    """A commuting operator pair.  r and t are private read-only copies, so
    the characteristic sets kept in _memo (by Tolerance) stay valid;
    hermitian (both self-adjoint) is `observable_pair`'s test of r and t,
    at the Tolerance of the call that built the pair, else DEFAULT_TOL.
    Nothing about a partner is kept."""

    r: np.ndarray
    t: np.ndarray
    _memo = cached_property(lambda self: {})

    @cached_property
    def hermitian(self) -> bool:
        return _self_adjoint(pow2_scaled(self.r), pow2_scaled(self.t), DEFAULT_TOL)


@dataclass(frozen=True, eq=False)
class CharacteristicSets(Frozen):
    r_eigenvalues: np.ndarray      # k cluster centers, ascending
    t_eigenvalues: np.ndarray      # l cluster centers, ascending
    M: np.ndarray                  # l stacked subspaces, each n x k orthonormal
    N: np.ndarray                  # k stacked subspaces, each n x l orthonormal
    grid: np.ndarray               # joint eigenvectors, column j*l+i
    k = property(lambda self: self.r_eigenvalues.size)
    l = property(lambda self: self.t_eigenvalues.size)


def _self_adjoint(rs: np.ndarray, ts: np.ndarray, tol: Tolerance) -> bool:
    """Whether both power-of-two scaled operators are self-adjoint to tol."""
    return all(np.max(np.abs(m - m.conj().T)) <= tol.residual * np.abs(m).max()
               for m in (rs, ts))


def observable_pair(r, t, tol: Tolerance = DEFAULT_TOL) -> ObservablePair:
    """Validate a non-empty commuting pair and tag whether both are
    self-adjoint.  Both tests are relative to the norms of r and t, each
    scaled exactly by a power of two, so a rescaled pair gets the same
    verdict at any scale; a zero operator commutes and is self-adjoint."""
    rm = as_matrix(r)
    n = rm.shape[0]
    if rm.shape[1] != n or n == 0:
        raise DimensionMismatch("r must be square and non-empty")
    tm = as_matrix(t, rows=n, cols=n)
    rs, ts = pow2_scaled(rm), pow2_scaled(tm)
    scale = float(np.linalg.norm(rs)) * float(np.linalg.norm(ts))
    if np.linalg.norm(rs @ ts - ts @ rs) > 10 * tol.residual * scale:
        raise NotCommuting("r and t do not commute within tolerance")
    return ObservablePair._owning(r=np.array(rm), t=np.array(tm),
                                  hermitian=_self_adjoint(rs, ts, tol))


def _eigen_tiles(a: np.ndarray, hermitian: bool, tol: Tolerance):
    """Eigenvalue cluster centers (ascending; real when no imaginary part
    exceeds 1e-12 times the largest center magnitude), clusters and
    eigenvectors of a square matrix, or of an (m, d, d) stack whose
    eigenvalues are pooled.  The clusters must be equal in size, and of
    size m for a stack."""
    if hermitian:
        vals, vecs = np.linalg.eigh(a)
    else:
        vals, vecs = np.linalg.eig(a)
        if np.max(np.linalg.cond(vecs)) >= COND_LIMIT:
            raise NotDiagonalizable(
                "eigenvector matrix too ill-conditioned to trust")
    vals = vals.reshape(-1)
    clusters = cluster_values(vals, tol)
    size = a.shape[0] if a.ndim == 3 else vals.size // len(clusters)
    sizes = [c.size for c in clusters]
    if sizes != [size] * len(clusters):
        raise MultiplicityViolation(
            f"eigenvalue multiplicities {sizes} are not all {size}")
    centers = vals[np.concatenate(clusters)].reshape(len(clusters), -1).mean(axis=1)
    if np.max(np.abs(centers.imag)) <= 1e-12 * np.max(np.abs(centers)):
        centers = centers.real
    return centers, clusters, vecs


def _characteristic_sets(p: ObservablePair,
                         tol: Tolerance) -> CharacteristicSets:
    """The eigenspaces of t are the fibers; r restricted to each fiber has
    one eigenvalue in each of r's k clusters, and its eigenvectors are the
    grid cells of that fiber."""
    n = p.r.shape[0]
    t_centers, clusters, vecs = _eigen_tiles(p.t, p.hermitian, tol)
    l, k = len(clusters), n // len(clusters)
    fibers = vecs[:, np.concatenate(clusters)].reshape(n, l, k).transpose(1, 0, 2)
    if not p.hermitian:  # orthonormalize each eigenspace basis
        fibers = np.linalg.qr(fibers)[0]
    blocks = _restriction(p.r, fibers, tol)                  # (l, k, k)
    if blocks is None:
        raise JointDegeneracy(
            "eigenspace of t is not invariant under r within tolerance")
    # r's spectrum is the union of the fiber spectra; eigh reads only each
    # self-adjoint block's lower triangle
    r_centers, clusters, fvecs = _eigen_tiles(blocks, p.hermitian, tol)
    labels = np.empty(n, dtype=np.intp)
    labels[np.concatenate(clusters)] = np.repeat(np.arange(k), l)
    labels = labels.reshape(l, k)
    if np.any(np.sort(labels, axis=1) != np.arange(k)):
        raise JointDegeneracy(
            "joint eigenspace structure is not a one-dimensional grid")

    cells = (fibers @ fvecs).transpose(1, 0, 2).reshape(n, n)
    grid = np.empty((n, n), dtype=np.complex128)
    grid[:, (labels * l + np.arange(l)[:, None]).reshape(-1)] = phase_fix(
        cells / np.linalg.norm(cells, axis=0))
    # a self-adjoint pair's grid is eigh vectors times unitary fiber
    # rotations, laid out by the permutation checked above
    return _sets_on_grid(r_centers, t_centers, fibers, grid, p.hermitian, tol)


def _sets_on_grid(r_centers, t_centers, fibers, grid, unitary: bool,
                  tol: Tolerance) -> CharacteristicSets:
    """Read-only sets around a grid, N spanned by its cells at fixed j; a
    grid not unitary by construction passes a conditioning and rank guard."""
    n, k, l = grid.shape[0], r_centers.size, t_centers.size
    if not unitary:
        s = np.linalg.svd(grid, compute_uv=False)
        if s[0] >= COND_LIMIT * s[-1]:
            raise NotDiagonalizable(
                "joint eigenvector grid too ill-conditioned to trust")
        if singular_rank(s, tol) < n:
            raise JointDegeneracy(
                "joint eigenvectors are not linearly independent")

    n_spaces = grid.reshape(n, k, l).transpose(1, 0, 2)     # (k, n, l)
    if not unitary:
        n_spaces = np.linalg.qr(n_spaces)[0]
    return CharacteristicSets._owning(r_eigenvalues=r_centers, t_eigenvalues=t_centers,
                                      M=fibers, N=n_spaces, grid=grid)


def verify_standard_complete(p: ObservablePair,
                             tol: Tolerance = DEFAULT_TOL) -> CharacteristicSets:
    """Check the multiplicity grid of a commuting pair and return its
    characteristic data.

    Each eigenvalue of r must have multiplicity l, each eigenvalue of t
    multiplicity k, and every joint eigenspace must be one-dimensional; the
    joint eigenvectors, ordered j*l+i, form the grid.  The result is kept on
    the pair, once per tolerance, and its arrays are read-only; a pair that
    fails is checked again on every call.  A partner built by
    `complementary_pair` already carries its sets for that call's tolerance.
    """
    cs = p._memo.get(tol)
    if cs is None:
        cs = p._memo[tol] = _characteristic_sets(p, tol)
    return cs


def tps_from_observables(p: ObservablePair,
                         tol: Tolerance = DEFAULT_TOL) -> Tps:
    """Tps whose grid basis is the joint eigenvector grid of the pair.

    r acts on the result as (diag of its eigenvalues) on the first factor and
    t likewise on the second.  For a self-adjoint pair the basis is unitary
    by construction (eigh vectors), so its kept inverse is its adjoint;
    for a general pair the characteristic sets have already tested the
    grid's rank and conditioning, and the inverse is one LU, on first use.
    """
    cs = verify_standard_complete(p, tol)
    if p.hermitian:
        return _unitary_tps(cs.k, cs.l, cs.grid)
    return Tps._owning(k=cs.k, l=cs.l, basis=cs.grid)


def _chain_matrix(lams: np.ndarray) -> np.ndarray:
    """Upper-triangular operator fixing e_0 at the lowest eigenvalue and the
    chained sums e_j + e_{j+1} at the following ones."""
    k = lams.size
    e = np.eye(k, dtype=np.complex128)
    km = np.zeros((k, k), dtype=np.complex128)
    km[:, 0] = lams[0] * e[:, 0]
    for j in range(k - 1):
        km[:, j + 1] = lams[j + 1] * (e[:, j] + e[:, j + 1]) - km[:, j]
    return km


def complementary_pair(p: ObservablePair, cs: CharacteristicSets,
                       tol: Tolerance = DEFAULT_TOL) -> ObservablePair:
    """Second standard complete pair sharing the characteristic subspaces.

    Keeps t and replaces r by the chained operator that is no longer normal;
    its joint commutant with r on each shared eigenspace of t is the scalars.
    The grid's inverse is that of `tps_from_observables`: the adjoint for a
    self-adjoint pair, one LU otherwise.  The partner carries its sets for
    tol, read off cs: t, M and r's spectrum are unchanged, and cell (j, i)
    is B (x_j ox e_i) for the chained operator's eigenvectors x_0 = e_0,
    x_j = e_{j-1} + e_j, unless that grid fails the kernel's guard (the
    kernel then computes, and refuses, them).
    """
    km = _chain_matrix(np.asarray(cs.r_eigenvalues, dtype=np.complex128))
    block = np.kron(km, np.eye(cs.l, dtype=np.complex128))
    r_tilde = cs.grid @ block @ tps_from_observables(p, tol).inverse
    p2 = observable_pair(r_tilde, p.t, tol)
    cells = cs.grid.copy()
    cells[:, cs.l:] += cs.grid[:, :-cs.l]
    grid = phase_fix(cells / np.linalg.norm(cells, axis=0))
    with suppress(NotDiagonalizable, JointDegeneracy):
        p2._memo[tol] = _sets_on_grid(cs.r_eigenvalues, cs.t_eigenvalues,
                                      cs.M, grid, False, tol)
    return p2


def _match_sets(spaces1, spaces2, thresh: float) -> bool:
    """Whether the two subspace families coincide as unordered sets."""
    if spaces1 is spaces2:  # a partner's inherited M
        return True
    if len(spaces1) != len(spaces2):
        return False
    unused = list(range(len(spaces2)))
    for p in spaces1:
        hit = None
        for idx in unused:
            q = spaces2[idx]
            if q.shape == p.shape and subspace_residual(p, q) <= thresh:
                hit = idx
                break
        if hit is None:
            return False
        unused.remove(hit)
    return True


def _restriction(op: np.ndarray, spaces: np.ndarray, tol: Tolerance):
    """Restrict an operator to invariant subspaces, given as an (m, n, d)
    stack of orthonormal bases; returns the (m, d, d) stack of restrictions,
    or None when some subspace is in fact not invariant (its residual is
    bounded relative to the operator's norm)."""
    image = op @ spaces
    sub = spaces.conj().transpose(0, 2, 1) @ image
    bound = 1e-7 * float(np.linalg.norm(op))
    if np.max(np.linalg.norm(image - spaces @ sub, axis=(1, 2))) > bound:
        return None
    return sub


def _fiber_scales(op2: np.ndarray, spaces: np.ndarray, cells: np.ndarray,
                  tol: Tolerance):
    """One arm of the complementarity test, solved in the first pair's cells.

    spaces is the shared (m, n, c) family and cells the first pair's grid
    cells on it, which diagonalize its operator with c distinct eigenvalues;
    so the joint commutant and the intertwiners onto fiber 0 are diagonal,
    scales d with beta_f[p, q] d_q = beta_0[p, q] d_p, where beta_f is op2
    (scaled to unit norm) restricted to fiber f in its cells.  One batched
    SVD solves all m fibers.  Returns the (m, c) scales, or None unless
    fiber 0 has one singular value at most 1e-5 max(top, 1) (the joint
    commutant is the scalars) and every other fiber a null vector, at most
    1e-6 max(top, 1), with no zero entry (an invertible intertwiner).
    """
    beta = _restriction(op2 / (np.linalg.norm(op2) or 1.0), spaces, tol)
    if beta is None:
        return None
    coords = spaces.conj().transpose(0, 2, 1) @ cells
    beta = np.linalg.solve(coords, beta @ coords)
    m, c = beta.shape[:2]
    eye = np.eye(c)
    system = beta[..., None] * eye - beta[0][..., None] * eye[:, None, :]
    _, s, vh = np.linalg.svd(system.reshape(m, c * c, c))
    floor = np.maximum(s[:, 0], 1.0)
    if (np.count_nonzero(s[0] <= 1e-5 * floor[0]) != 1
            or np.any(s[1:, -1] > 1e-6 * floor[1:])):
        return None
    scales = vh[:, -1].conj()
    sizes = np.sort(np.abs(scales), axis=1)[:, ::-1]
    if any(singular_rank(d, tol) < c for d in sizes):
        return None
    return scales


def _find_complementary_data(p1: ObservablePair, p2: ObservablePair,
                             tol: Tolerance):
    """The first shared family that passes `_fiber_scales`, M before N, as
    (first pair's sets, its scaled cells per fiber, `grid_from_fibers` axis):
    an M family holds cells (j, i) at fixed i, an N family at fixed j."""
    cs1 = verify_standard_complete(p1, tol)
    cs2 = verify_standard_complete(p2, tol)
    cells = cs1.grid.reshape(-1, cs1.k, cs1.l)
    for spaces, others, op2, fibers, axis in (
            (cs1.M, cs2.M, p2.r, cells.transpose(2, 0, 1), 2),
            (cs1.N, cs2.N, p2.t, cells.transpose(1, 0, 2), 1)):
        if _match_sets(spaces, others, 1e-7):
            scales = _fiber_scales(op2, spaces, fibers, tol)
            if scales is not None:
                return cs1, fibers * scales[:, None, :], axis
    return None


def verify_complementary(p1: ObservablePair, p2: ObservablePair,
                         tol: Tolerance = DEFAULT_TOL) -> bool:
    """True iff the pairs share one characteristic family, on which they are
    fiberwise isomorphic with only the scalars as joint commutant.  This is
    the one decision `tpp_from_complementary` also reads; nothing is kept
    between calls, so each call decides afresh."""
    return _find_complementary_data(p1, p2, tol) is not None


def tpp_from_complementary(p1: ObservablePair, p2: ObservablePair,
                           tol: Tolerance = DEFAULT_TOL):
    """The unique factor pair containing both complementary pairs, plus the
    grid structure it induces; raises NotComplementary exactly when
    `verify_complementary` is False.

    The grid is the first pair's cells, each fiber scaled by its
    intertwiner onto the first; `grid_from_fibers` fixes the free scalar
    per fiber and lays the fibers out.  Both pairs lie in its factor pair by
    construction, to the kernel's precision, so membership is not tested
    again: the cells are p1's joint eigenvectors, one operator of each pair
    is a scalar on each shared fiber, and the scales make p2's other one the
    same matrix on every fiber.  The grid keeps its adjoint as its inverse when it is
    unitary for a self-adjoint first pair, else goes to `tps_new`.
    """
    data = _find_complementary_data(p1, p2, tol)
    if data is None:
        raise NotComplementary("pairs are not complementary")
    cs, fibers, axis = data
    basis = grid_from_fibers(fibers, axis)

    structure = _unitary_tps(cs.k, cs.l, basis) if p1.hermitian else None
    if structure is None or not is_inner_product_compatible(structure, tol):
        structure = tps_new(cs.k, cs.l, basis, tol)
    return (*tps_to_tpp(structure), structure)
