"""Operator-algebra engine: span closure, commutants, factor-pair
certification, and the two bridges between grid structures and algebra pairs.

An algebra is stored as a Frobenius-orthonormal spanning set closed under
matrix multiplication.  Span comparisons reduce to projection residuals,
which keeps every structural test at a uniform tolerance.

Factor pairs are certified witness first: a pair is a tensor product
partition exactly when some grid basis B induces it.  The pair that
`tps_to_tpp` built from a grid t, in its order, is induced by t by
construction, so t is its witness once t is unitary.  Any other pair, or
one whose grid is not unitary, builds B from two generic elements of the
second algebra, which alone fixes it, and accepts B when B is unitary and
the spans of its own generators are the pair.  A generic Hermitian
element of a star-closed algebra is the Hermitian part of a complex
Gaussian combination of its span basis.  Adjoint closure follows from a
unitary witness.
The six structural checks (commutation, adjoint closure, square dimensions,
mutual commutants, trivial centers, full join) run only when no witness is
found, as diagnostics of the failure.  No verdict is kept between calls:
each `is_tpp` or `tpp_to_tps` certifies afresh, reading a grid's unitarity
from the defect the grid keeps (`Tps.unitarity_defect`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .core import (
    DEFAULT_TOL,
    Frozen,
    Tolerance,
    as_matrix,
    grid_from_fibers,
    intertwiners,
    numeric_rank,
    pow2_scaled,
)
from .errors import (
    DimensionMismatch,
    GenericElementFailure,
    NonUnital,
    NotATpp,
)
from .tps import Tps, is_inner_product_compatible


@dataclass(frozen=True, eq=False)
class OperatorAlgebra(Frozen):
    """A multiplication-closed span of n x n matrices.  span_basis is
    private and read-only (a copy of the one given, or a span this module
    built and hands over with `_owning`).  _grid is the Tps that
    `tps_to_tpp` read the (unital) algebra from, and _side which factor
    of it the algebra is (0 or 1); _grid is the witness of its pair, in
    that order, when it is unitary.  Any other algebra, and a copy, has
    neither."""

    span_basis: np.ndarray         # (dim, n, n), Frobenius-orthonormal
    dim = property(lambda self: self.span_basis.shape[0])
    dim_space = property(lambda self: self.span_basis.shape[1])  # n
    _grid = _side = None

    def __post_init__(self):
        super().__post_init__()
        shape = self.span_basis.shape
        if len(shape) != 3 or shape[1] != shape[2]:
            raise DimensionMismatch(
                f"a span basis is a (dim, n, n) stack, not of shape {shape}")

    @cached_property
    def unital(self) -> bool:
        """Whether the span holds the identity, to a residual of 1e-8."""
        eye = np.eye(self.dim_space, dtype=np.complex128)
        return _projection_residual(eye[None], self.flat) <= 1e-8

    @property
    def flat(self) -> np.ndarray:
        """Span basis as orthonormal rows of shape (dim, n*n)."""
        return self.span_basis.reshape(self.dim, self.dim_space ** 2)


# the named checks of a TppVerdict, in report order
_CHECKS = ("commute", "star_closed", "dims_square", "mutual_commutant",
           "trivial_center", "join_full")


@dataclass(frozen=True)
class TppVerdict:
    """The named checks of one certification, and its witness grid (None
    on a rejection).  Each call returns a verdict of its own."""

    k: int
    l: int
    checks: dict
    tps: Tps | None = field(default=None, compare=False, repr=False)  # witness

    @property
    def is_tpp(self) -> bool:
        return all(self.checks.values())


def _unit_scaled(mats: np.ndarray) -> np.ndarray:
    """The nonzero matrices of a stack, each scaled to unit Frobenius norm
    after `pow2_scaled`, so that neither tiny nor huge entries underflow or
    overflow on the way."""
    units = [pow2_scaled(m) for m in mats if np.any(m)]
    return np.array([m / np.linalg.norm(m) for m in units]).reshape(-1, *mats.shape[1:])


def _orthonormal_span(mats: np.ndarray, rank_rel: float) -> np.ndarray:
    """Orthonormal (Frobenius) basis of the span of the given matrices.
    When the SVD fails to converge it is retried on the triangular factor R
    of flat = QR, which has the same singular values and right vectors."""
    m, n, _ = mats.shape
    flat = mats.reshape(m, n * n)
    try:
        _, s, vh = np.linalg.svd(flat, full_matrices=False)
    except np.linalg.LinAlgError:
        _, s, vh = np.linalg.svd(np.linalg.qr(flat, mode="r"),
                                 full_matrices=False)
    if s.size == 0 or s[0] == 0.0:
        return np.zeros((0, n, n), dtype=np.complex128)
    keep = s > rank_rel * s[0]
    return vh[keep].reshape(-1, n, n)


def _projection_residual(mats: np.ndarray, flat_basis: np.ndarray) -> float:
    """Norm of the components of the matrices orthogonal to an orthonormal span."""
    flat = mats.reshape(mats.shape[0], -1)
    if flat_basis.shape[0]:
        flat = flat - (flat @ flat_basis.conj().T) @ flat_basis
    return float(np.linalg.norm(flat))


def _span_bound(dim: int) -> float:
    """Residual bound of the span comparisons for a span of dimension dim."""
    return 1e-8 * np.sqrt(max(dim, 1))


def algebra_generate(generators, tol: Tolerance = DEFAULT_TOL) -> OperatorAlgebra:
    """Smallest multiplication-closed span containing the generators and
    the identity.

    One closure rule: each nonzero generator is scaled to unit Frobenius norm
    (`_unit_scaled`), and the span, starting from the identity, is replaced
    each round by the orthonormal span of itself and its left products with
    every unit, until its dimension stops growing or reaches n^2.  The span
    holds the identity and is closed under left multiplication by each
    generator, so it holds every word in them.  Its rows are orthonormal, so
    the largest singular value of a round's stack is at least 1: the rank
    cutoff (tol.rank_rel relative to it) does not depend on the generators'
    scales, and the dimension never shrinks.
    """
    gens = [as_matrix(g) for g in generators]
    if not gens:
        raise DimensionMismatch("at least one generator is required to fix n")
    n = gens[0].shape[0]
    for g in gens:
        if g.shape != (n, n):
            raise DimensionMismatch("generators must share a square shape")
    units = _unit_scaled(np.array(gens))
    basis, dim = np.eye(n, dtype=np.complex128)[None] / np.sqrt(n), 0
    while dim < basis.shape[0] < n * n:
        dim = basis.shape[0]
        basis = _orthonormal_span(np.concatenate(
            [basis, (units[:, None] @ basis).reshape(-1, n, n)]), tol.rank_rel)
    return OperatorAlgebra._owning(span_basis=basis)


def _from_closed_span(mats: np.ndarray, tol: Tolerance) -> OperatorAlgebra:
    """Wrap matrices known to span a multiplicatively closed set, each
    scaled to unit norm first (`_unit_scaled`)."""
    return OperatorAlgebra._owning(
        span_basis=_orthonormal_span(_unit_scaled(mats), tol.rank_rel))


def commutant(a: OperatorAlgebra, tol: Tolerance = DEFAULT_TOL) -> OperatorAlgebra:
    """All matrices commuting with every span element, as a unital algebra.

    The null space of X -> gX - Xg over the span basis comes from
    `intertwiners` as Frobenius-orthonormal matrices; those whose actual
    commutator residual (a running maximum over the span elements) exceeds
    1e-7 are dropped, as the Gram cut keeps some for ill-conditioned spans.
    """
    xs = intertwiners(a.span_basis, a.span_basis, 1e-12)
    worst = np.zeros(xs.shape[0])
    for g in a.span_basis:
        worst = np.maximum(worst, np.linalg.norm(g @ xs - xs @ g, axis=(1, 2)))
    return OperatorAlgebra._owning(span_basis=xs[worst <= 1e-7])


def join(a1: OperatorAlgebra, a2: OperatorAlgebra,
         tol: Tolerance = DEFAULT_TOL) -> OperatorAlgebra:
    """Algebra generated by the two span bases together."""
    if a1.dim_space != a2.dim_space:
        raise DimensionMismatch("algebras act on different spaces")
    gens = np.concatenate([a1.span_basis, a2.span_basis])
    return algebra_generate(list(gens), tol=tol)


def span_equal(a: OperatorAlgebra, b: OperatorAlgebra,
               tol: Tolerance = DEFAULT_TOL) -> bool:
    """Mutual projection residual test for equality of the two spans."""
    if a.dim_space != b.dim_space or a.dim != b.dim:
        return False
    thresh = _span_bound(a.dim)
    return bool(
        _projection_residual(a.span_basis, b.flat) <= thresh
        and _projection_residual(b.span_basis, a.flat) <= thresh
    )


def contains(a: OperatorAlgebra, m, tol: Tolerance = DEFAULT_TOL) -> bool:
    """Whether a matrix lies in the algebra's span: its projection residual
    is small relative to its own norm, so m and any multiple of it get the
    same answer."""
    mat = as_matrix(m, rows=a.dim_space, cols=a.dim_space)
    return bool(_projection_residual(mat[None], a.flat)
                <= 1e-8 * float(np.linalg.norm(mat)))


def _intersection_dim(a: OperatorAlgebra, b: OperatorAlgebra,
                      tol: Tolerance) -> int:
    return a.dim + b.dim - numeric_rank(np.concatenate([a.flat, b.flat]), tol)


def _star_closed(a: OperatorAlgebra) -> bool:
    adj = np.transpose(a.span_basis.conj(), (0, 2, 1))
    return bool(_projection_residual(adj, a.flat) <= _span_bound(a.dim))


def _grid_spans(b: np.ndarray, binv: np.ndarray, k: int, l: int):
    """Stacks of the generators B (E_ab ox 1_l) binv and B (1_k ox E_cd) binv
    of a k x l grid basis B; with binv = B^-1 they span the pair B induces."""
    n = k * l
    b = b.reshape(n, k, l)
    binv = binv.reshape(k, l, n)
    # B (E_ab ox 1) binv = B[:, a, :] @ binv[b], B (1 ox E_cd) binv likewise
    return ((b.transpose(1, 0, 2)[:, None] @ binv).reshape(-1, n, n),
            (b.transpose(2, 0, 1)[:, None] @ binv.transpose(1, 0, 2)).reshape(-1, n, n))


def tps_to_tpp(t: Tps):
    """Algebra pair acting factorwise in the grid basis of a Tps.

    A1 is spanned by B (E_ab ox 1_l) B^-1 over matrix units of the first
    factor, A2 by B (1_k ox E_cd) B^-1, with B the grid basis
    (`_grid_spans`).  Each span has dimension k^2 (or l^2) and holds
    B B^-1 = 1, so its generators are orthonormalized by one Householder QR,
    whose columns are orthonormal to machine precision at any conditioning
    of B, and the algebra is marked unital untested.  Both algebras keep t
    as their `_grid`, with their `_side`, so that `is_tpp` of the pair in
    this order has t as its witness when t is unitary.
    """
    pair = []
    for side, span in enumerate(_grid_spans(t.basis, t.inverse, t.k, t.l)):
        m, n, _ = span.shape
        q = np.linalg.qr(span.reshape(m, n * n).T)[0]
        pair.append(OperatorAlgebra._owning(
            span_basis=q.T.reshape(m, n, n), unital=True, _grid=t, _side=side))
    return tuple(pair)


def _draw_generic_hermitian(a: OperatorAlgebra, rng: np.random.Generator) -> np.ndarray:
    """Hermitian part of a complex Gaussian combination of the span basis:
    a generic Hermitian element when the algebra is star-closed."""
    z = rng.standard_normal(a.dim) + 1j * rng.standard_normal(a.dim)
    g = np.dot(z, a.flat).reshape(a.dim_space, a.dim_space)
    return (g + g.conj().T) / 2


def _factor_dims(a1: OperatorAlgebra, a2: OperatorAlgebra):
    """(k, l) when the spans have dimensions k^2, l^2 with k*l = n, else None."""
    k, l = math.isqrt(a1.dim), math.isqrt(a2.dim)
    if k * k == a1.dim and l * l == a2.dim and k * l == a1.dim_space:
        return k, l
    return None


def _diagnose(a1: OperatorAlgebra, a2: OperatorAlgebra,
              tol: Tolerance) -> TppVerdict:
    """The six named checks of a validated pair, each evaluated directly.
    `commute` is tested per element x of a1's span basis, so no stack of
    all products is formed for a pair that does not commute.  Both algebras
    hold the identity (`_witness` refuses them otherwise), so a commuting
    pair's join is the span of the products x y (x in a1, y in a2), and
    `join_full` is the rank of their stack."""
    n = a1.dim_space
    dims = _factor_dims(a1, a2)
    ys = a2.span_basis
    checks: dict = {}
    checks["commute"] = all(
        np.max(np.linalg.norm(x @ ys - ys @ x, axis=(1, 2))) <= 1e-8
        for x in a1.span_basis)
    checks["star_closed"] = _star_closed(a1) and _star_closed(a2)
    checks["dims_square"] = dims is not None

    c1 = commutant(a1, tol)
    c2 = commutant(a2, tol)
    checks["mutual_commutant"] = span_equal(c1, a2, tol) and span_equal(c2, a1, tol)
    checks["trivial_center"] = (
        _intersection_dim(a1, c1, tol) == 1 and _intersection_dim(a2, c2, tol) == 1
    )
    checks["join_full"] = checks["commute"] and numeric_rank(
        (a1.span_basis[:, None] @ ys).reshape(-1, n * n), tol) == n * n

    k, l = dims if dims is not None else (0, 0)
    return TppVerdict(k=k, l=l, checks=checks)


def _induces(t: Tps, a1: OperatorAlgebra, a2: OperatorAlgebra,
             tol: Tolerance) -> bool:
    """Whether the basis U of a drawn grid t is unitary and induces exactly
    (a1, a2): the orthonormal spans U (E_ab ox 1) U^* / sqrt(l), U (1 ox
    E_cd) U^* / sqrt(k) of the pair U induces (`_grid_spans`) have
    projection residuals onto a1.flat, a2.flat within `span_equal`'s
    bound.  For t of the shape
    `_factor_dims` gives, they have the dimensions of (a1, a2), so this
    residual ||(1 - P_A) P_W|| equals ||(1 - P_W) P_A||, as in `span_equal`;
    a pair's own grid in the other order leaves a residual on one side."""
    if not is_inner_product_compatible(t, tol):
        return False
    u = t.basis
    spans = _grid_spans(u, u.conj().T, t.k, t.l)
    return all(_projection_residual(w / np.sqrt(m), a.flat) <= _span_bound(a.dim)
               for w, m, a in zip(spans, (t.l, t.k), (a1, a2)))


def _witness(a1: OperatorAlgebra, a2: OperatorAlgebra, seed: int,
             tol: Tolerance) -> Tps | None:
    """A grid basis inducing exactly the pair (a1, a2), or None.

    When a1 and a2 are the first and second algebra that `tps_to_tpp`
    built from one grid t, t induces them by construction, so it is the
    witness, with no draw and no span read, when it is unitary
    (`is_inner_product_compatible`).  Otherwise both are read off a2: the
    eigenvectors of a generic Hermitian t in a2, in eigh's ascending order,
    are the l fibers as consecutive blocks of k columns, the first fiber's
    columns are its k cells as they come, and one more generic b in a2
    carries that fiber into the others in one batched product, which
    `grid_from_fibers` scales and lays out.  For a2 = U (1 ox M_l) U^* the
    grid is U (W_0 ox Psi), W_0 unitary and Psi a unit-modulus diagonal,
    which induces the pair whatever W_0 is.  The drawn grid's one gate is
    `_induces` (unitary, inducing exactly a1 and a2): a pair that is not a
    factor pair fails it, as does a transport that misses a fiber, and it
    implies all six checks of `_diagnose`, adjoint closure included.
    """
    if a1.dim_space != a2.dim_space:
        raise DimensionMismatch("algebras act on different spaces")
    if not (a1.unital and a2.unital):
        raise NonUnital("both algebras must contain the identity")
    dims = _factor_dims(a1, a2)
    if dims is None:
        return None
    grid = a1._grid
    if ((a1._side, a2._side) == (0, 1) and grid is a2._grid
            and is_inner_product_compatible(grid, tol)):
        return grid
    k, l = dims
    n = a1.dim_space
    rng = np.random.default_rng(seed)
    vecs = np.linalg.eigh(_draw_generic_hermitian(a2, rng))[1]
    fibers = vecs.reshape(n, l, k).transpose(1, 0, 2)
    fiber0, rest = fibers[0], fibers[1:]
    b = _draw_generic_hermitian(a2, rng)
    transported = rest @ (rest.conj().transpose(0, 2, 1) @ (b @ fiber0))
    if not np.all(np.any(transported[:, :, 0], axis=1)):
        return None  # nothing to scale: no grid_from_fibers division by zero
    out = Tps._owning(k=k, l=l, basis=grid_from_fibers(
        np.concatenate([fiber0[None], transported]), axis=2))
    return out if _induces(out, a1, a2, tol) else None


def _certify(a1: OperatorAlgebra, a2: OperatorAlgebra, seed: int,
             tol: Tolerance) -> TppVerdict:
    """The verdict of the pair: the witness (drawn from `seed` when the pair
    has no unitary grid of its own) when there is one, else the six checks
    of `_diagnose`."""
    t = _witness(a1, a2, seed, tol)
    if t is not None:
        return TppVerdict(k=t.k, l=t.l, checks=dict.fromkeys(_CHECKS, True), tps=t)
    return _diagnose(a1, a2, tol)


def is_tpp(a1: OperatorAlgebra, a2: OperatorAlgebra,
           tol: Tolerance = DEFAULT_TOL) -> TppVerdict:
    """Certify that an ordered algebra pair factors the full matrix algebra.

    Witness first: a pair with square span dimensions is certified by a
    unitary grid basis U that induces it, which implies every named check.
    U is the grid that `tps_to_tpp` built the pair from, in this order,
    when it is unitary; else it is built from two generic elements of a2
    alone and checked against the spans of its own generators for both
    algebras (`_induces`).  Without a witness the six checks are evaluated
    directly, as diagnostics of the failure: elementwise commutation, closure under
    adjoints, square span dimensions k^2, l^2 with k*l = n, mutual
    commutants, trivial centers and a join of full dimension.  Only
    star-closed pairs are certified; star-closure is implied by the
    witness, not checked before it.

    The verdict carries its witness in `tps` (None on a rejection).  A pair
    with no unitary grid of its own is drawn from seed 0.
    """
    return _certify(a1, a2, 0, tol)


def tpp_to_tps(a1: OperatorAlgebra, a2: OperatorAlgebra, seed: int = 0,
               tol: Tolerance = DEFAULT_TOL) -> Tps:
    """Construct a grid basis realizing a star-closed factor pair.

    Returns the certification witness of the pair (see `is_tpp`), which is
    always an inner-product-compatible (unitary) grid with a read-only
    basis: for the pair of a unitary grid t, `tps_to_tpp(t)`, that is t
    itself.  Any other pair's witness comes from the two draws from a2
    that `seed` picks (see `_witness`); any two witnesses are equivalent.
    Without a witness: NotATpp names the checks that fail, and
    GenericElementFailure means they all pass but the draws from `seed`
    found no basis, so a call with another seed may.
    """
    verdict = _certify(a1, a2, seed, tol)
    if verdict.tps is not None:
        return verdict.tps
    if not verdict.is_tpp:
        failed = [name for name, ok in verdict.checks.items() if not ok]
        raise NotATpp(f"pair fails certification: {', '.join(failed)}")
    raise GenericElementFailure(
        f"no grid basis reproducing the pair was found from seed {seed}")
