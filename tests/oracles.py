"""Independent slow-but-exact reference computations used to pin expected
test values. Nothing here touches the package's numerics, except three
references kept as the forms that tpskit replaced: the characteristic-set
kernel as a per-fiber loop (reusing the package's clustering, phase and
rank helpers), the complementarity condition as general intertwiner solves
(reusing `core.intertwiners` and the package's characteristic sets,
restriction and subspace matching), and the TPP witness gate as a
conjugation into the grid's frame."""

from fractions import Fraction
import math

import numpy as np

from tpskit.core import (
    cluster_values,
    grid_from_fibers,
    intertwiners,
    numeric_rank,
    phase_fix,
)
from tpskit.errors import (
    GridOverflow,
    JointDegeneracy,
    MultiplicityViolation,
    NotDiagonalizable,
)
from tpskit.observables import (
    CharacteristicSets,
    _match_sets,
    _restriction,
    verify_standard_complete,
)
from tpskit.tps import tps_new


def q(re, im=0):
    """A Gaussian rational as a (Fraction, Fraction) pair."""
    return (Fraction(re), Fraction(im))


def q_add(a, b):
    return (a[0] + b[0], a[1] + b[1])


def q_sub(a, b):
    return (a[0] - b[0], a[1] - b[1])


def q_mul(a, b):
    return (a[0] * b[0] - a[1] * b[1], a[0] * b[1] + a[1] * b[0])


def q_div(a, b):
    den = b[0] * b[0] + b[1] * b[1]
    if den == 0:
        raise ZeroDivisionError("division by zero Gaussian rational")
    return ((a[0] * b[0] + a[1] * b[1]) / den,
            (a[1] * b[0] - a[0] * b[1]) / den)


def q_is_zero(a):
    return a[0] == 0 and a[1] == 0


def exact_rank(rows):
    """Rank of a matrix of Gaussian rationals by fraction-exact Gaussian
    elimination with partial (first nonzero) pivoting."""
    m = [list(row) for row in rows]
    if not m:
        return 0
    nrows, ncols = len(m), len(m[0])
    rank = 0
    col = 0
    while rank < nrows and col < ncols:
        pivot = None
        for r in range(rank, nrows):
            if not q_is_zero(m[r][col]):
                pivot = r
                break
        if pivot is None:
            col += 1
            continue
        m[rank], m[pivot] = m[pivot], m[rank]
        pv = m[rank][col]
        for r in range(rank + 1, nrows):
            if q_is_zero(m[r][col]):
                continue
            factor = q_div(m[r][col], pv)
            for c in range(col, ncols):
                m[r][c] = q_sub(m[r][c], q_mul(factor, m[rank][c]))
        rank += 1
        col += 1
    return rank


def singular_values_2x2(m):
    """Singular values of a real 2x2 matrix by the quadratic formula applied
    to the characteristic polynomial of m^T m."""
    a, b = m[0]
    c, d = m[1]
    trace = a * a + b * b + c * c + d * d
    det = (a * d - b * c) ** 2
    disc = math.sqrt(max(trace * trace - 4 * det, 0.0))
    hi = (trace + disc) / 2
    lo = (trace - disc) / 2
    return (math.sqrt(hi), math.sqrt(max(lo, 0.0)))


def substitute_exact(coeffs, subs, target_vars, target_degree):
    """Linear change of variables of a two-variable polynomial in Fraction
    arithmetic, rounded to complex128 at the very end.

    ``coeffs[j, i]`` is the coefficient of old1**j * old2**i; ``subs`` holds
    one pair of rationals (a, b) per old variable, old = a*new1 + b*new2.
    Raises GridOverflow on the first cell, in order of first appearance,
    that lies outside the target grid and is nonzero after the exact sum.
    """
    d = int(target_degree)
    (a1, b1), (a2, b2) = subs
    rat = {}
    for j in range(coeffs.shape[0]):
        for i in range(coeffs.shape[1]):
            c = coeffs[j, i]
            if c == 0:
                continue
            cre, cim = Fraction(c.real), Fraction(c.imag)
            for pj in range(j + 1):
                for qi in range(i + 1):
                    coef = (
                        math.comb(j, pj) * a1 ** pj * b1 ** (j - pj)
                        * math.comb(i, qi) * a2 ** qi * b2 ** (i - qi)
                    )
                    if coef == 0:
                        continue
                    cell = (pj + qi, (j - pj) + (i - qi))
                    re, im = rat.get(cell, (Fraction(0), Fraction(0)))
                    rat[cell] = (re + coef * cre, im + coef * cim)
    out = np.zeros((d, d), dtype=np.complex128)
    for (a, b), (re, im) in rat.items():
        if re == 0 and im == 0:
            continue
        if a >= d or b >= d:
            raise GridOverflow(
                f"monomial {target_vars[0]}^{a} {target_vars[1]}^{b} "
                f"exceeds the {d} x {d} target grid")
        out[a, b] = complex(float(re), float(im))
    return out


def single_linkage_clusters(values, eig_cluster):
    """Reference single linkage by pairwise union-find: values closer than
    eig_cluster * (spread + 1) share a cluster, spread being the diameter
    of the set; clusters (lists of indices) come in order of their first
    member along the (re, im) sort order, as `core.cluster_values` returns
    them."""
    values = np.asarray(values)
    n = values.size
    dist = np.abs(values[:, None] - values[None, :])
    threshold = eig_cluster * (float(np.max(dist, initial=0.0)) + 1.0)
    parent = list(range(n))

    def find(i):
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    for a, b in zip(*np.nonzero(np.triu(dist <= threshold, 1))):
        parent[find(int(a))] = find(int(b))
    groups = {}
    for i in np.lexsort((values.imag, values.real)):
        groups.setdefault(find(int(i)), []).append(int(i))
    return list(groups.values())


# -- reference characteristic sets: one eigendecomposition of each operator
# and a per-fiber matching loop

_COND_LIMIT = 1e6


def gram_compatible(t, tol):
    """The Gram test of inner-product compatibility: ||B^* B - 1||_F within
    10 * residual * n."""
    g = t.basis.conj().T @ t.basis
    return bool(np.linalg.norm(g - np.eye(t.dim)) <= 10 * tol.residual * t.dim)


def singular_compatible(t, tol):
    """The singular-value test of inner-product compatibility: ||s^2 - 1||
    over the singular values s of B within 10 * residual * n."""
    s = np.linalg.svd(t.basis, compute_uv=False)
    return bool(np.linalg.norm(s ** 2 - 1) <= 10 * tol.residual * t.dim)


def reference_induces(t, a1, a2, tol):
    """The TPP witness gate in the frame-conjugation form that
    `tpskit.algebra._induces` replaced: for the grid basis U of t, U^* g U
    minus its partial-trace projection onto M_k (x) 1 (g in a1) or
    1 (x) M_l (g in a2), against the bound 1e-8 sqrt(dim) of `span_equal`.
    Returns the verdict and the residuals measured, in order: none when U
    fails `singular_compatible`, and the first one over its bound ends them."""
    residuals = []
    if not singular_compatible(t, tol):
        return False, residuals
    k, l, u = t.k, t.l, t.basis
    for a, swap in ((a1, False), (a2, True)):
        x = (u.conj().T @ a.span_basis @ u).reshape(-1, k, l, k, l)
        if swap:
            x = x.transpose(0, 2, 1, 4, 3)
        m = x.shape[2]
        part = np.einsum("zaibi->zab", x) / m
        resid = x - np.einsum("zab,ij->zaibj", part, np.eye(m))
        residuals.append(float(np.linalg.norm(resid)))
        if residuals[-1] > 1e-8 * np.sqrt(max(a.dim, 1)):
            return False, residuals
    return True, residuals


def _reference_eigen_data(m, hermitian, tol):
    """Eigenvalues, cluster index lists, and orthonormal eigenspace bases."""
    if hermitian:
        vals, vecs = np.linalg.eigh(m)
    else:
        vals, vecs = np.linalg.eig(m)
        if np.linalg.cond(vecs) >= _COND_LIMIT:
            raise NotDiagonalizable(
                "eigenvector matrix too ill-conditioned to trust")
    clusters = cluster_values(vals, tol)
    spaces = []
    for c in clusters:
        cols = vecs[:, c]
        q, _ = np.linalg.qr(cols)
        spaces.append(q)
    centers = np.array([vals[c].mean() for c in clusters])
    if not np.iscomplexobj(centers) or np.max(np.abs(centers.imag), initial=0) < 1e-12:
        centers = centers.real
    return centers, spaces


def _reference_restriction(op, p, tol):
    """Restrict an operator to an invariant subspace with orthonormal basis p.
    Returns None when the subspace is in fact not invariant."""
    sub = p.conj().T @ op @ p
    scale = float(np.linalg.norm(op)) + 1.0
    if np.linalg.norm(op @ p - p @ sub) > 1e-7 * scale:
        return None
    return sub


def reference_standard_complete(p, tol):
    """Characteristic sets of an observable pair: r and t each diagonalized
    on the whole space, then r diagonalized on every eigenspace of t and its
    fiber eigenvalues matched to r's cluster centers."""
    n = p.r.shape[0]
    r_centers, n_spaces = _reference_eigen_data(p.r, p.hermitian, tol)
    t_centers, m_spaces = _reference_eigen_data(p.t, p.hermitian, tol)
    k = len(r_centers)
    l = len(t_centers)
    if k * l != n:
        raise MultiplicityViolation(
            f"{k} x {l} eigenvalue grid does not tile dimension {n}")
    for j, sp in enumerate(n_spaces):
        if sp.shape[1] != l:
            raise MultiplicityViolation(
                f"eigenvalue {r_centers[j]} of r has multiplicity "
                f"{sp.shape[1]}, expected {l}")
    for i, sp in enumerate(m_spaces):
        if sp.shape[1] != k:
            raise MultiplicityViolation(
                f"eigenvalue {t_centers[i]} of t has multiplicity "
                f"{sp.shape[1]}, expected {k}")

    spread = float(np.max(np.abs(r_centers[:, None] - r_centers[None, :]))) \
        if k > 1 else 0.0
    match_tol = max(tol.eig_cluster * (spread + 1.0), 1e-8)

    grid = np.zeros((n, n), dtype=np.complex128)
    for i, pi in enumerate(m_spaces):
        # r leaves each eigenspace of t invariant since [r, t] = 0
        ri = _reference_restriction(p.r, pi, tol)
        if ri is None:
            raise JointDegeneracy(
                "eigenspace of t is not invariant under r within tolerance")
        if p.hermitian:
            fvals, fvecs = np.linalg.eigh((ri + ri.conj().T) / 2)
        else:
            fvals, fvecs = np.linalg.eig(ri)
            if np.linalg.cond(fvecs) >= _COND_LIMIT:
                raise NotDiagonalizable(
                    "restricted eigenvector matrix too ill-conditioned")
        seen = set()
        for m_idx in range(k):
            dists = np.abs(fvals[m_idx] - r_centers)
            j = int(np.argmin(dists))
            if dists[j] > match_tol or j in seen:
                raise JointDegeneracy(
                    "joint eigenspace structure is not a one-dimensional grid")
            seen.add(j)
            vec = pi @ fvecs[:, m_idx]
            vec = phase_fix(vec / np.linalg.norm(vec))
            grid[:, j * l + i] = vec

    if numeric_rank(grid, tol) < n:
        raise JointDegeneracy("joint eigenvectors are not linearly independent")
    return CharacteristicSets(
        r_eigenvalues=r_centers, t_eigenvalues=t_centers,
        M=m_spaces, N=n_spaces, grid=grid,
    )


# -- reference complementarity: a general intertwiner solve per fiber


def _reference_condition(op1, op2, spaces, tol):
    """Restriction of op1 to the first subspace and the intertwiners of the
    restricted pairs onto it, or None.  The joint commutant on the first
    subspace must be the scalars (one Gram null vector at cut 1e-10), and
    every other subspace needs an invertible intertwiner (a null vector at
    cut 1e-12 of full numeric rank); both operators are scaled to unit norm,
    as `intertwiners` assumes."""
    op1, op2 = (op / (np.linalg.norm(op) or 1.0) for op in (op1, op2))
    a = _restriction(op1, spaces, tol)
    b = _restriction(op2, spaces, tol)
    if a is None or b is None:
        return None
    if len(intertwiners([a[0], b[0]], [a[0], b[0]], 1e-10)) != 1:
        return None
    d = a.shape[1]
    fiber_maps = [np.eye(d, dtype=np.complex128)]
    for pair in zip(a[1:], b[1:]):
        x = next((x for x in intertwiners(pair, (a[0], b[0]), 1e-12)
                  if numeric_rank(x, tol) == d), None)
        if x is None:
            return None
        fiber_maps.append(x)
    return a[0], fiber_maps


def reference_complementary(p1, p2, tol):
    """The Tps of the factor pair pinned down by two complementary pairs, or
    None when they are not complementary.

    Tries the M family (r restricted to the eigenspaces of t), then the N
    family; on the first that both pairs share and that passes the
    condition, the eigenvectors of op1 on the first subspace, phase-fixed
    and sorted by (re, im) eigenvalue, are carried to every other subspace
    by the intertwiners and laid out by `grid_from_fibers`."""
    cs1 = verify_standard_complete(p1, tol)
    cs2 = verify_standard_complete(p2, tol)
    for spaces, others, op1, op2, axis in ((cs1.M, cs2.M, p1.r, p2.r, 2),
                                           (cs1.N, cs2.N, p1.t, p2.t, 1)):
        if not _match_sets(spaces, others, 1e-7):
            continue
        data = _reference_condition(op1, op2, spaces, tol)
        if data is None:
            continue
        a0, fiber_maps = data
        fvals, fvecs = np.linalg.eig(a0)
        vecs0 = spaces[0] @ fvecs[:, np.lexsort((fvals.imag, fvals.real))]
        coords0 = spaces[0].conj().T @ phase_fix(
            vecs0 / np.linalg.norm(vecs0, axis=0))
        fibers = [p @ (x @ coords0) for p, x in zip(spaces, fiber_maps)]
        return tps_new(cs1.k, cs1.l, grid_from_fibers(fibers, axis), tol)
    return None
