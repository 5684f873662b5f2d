import dataclasses

import numpy as np
import pytest

from tpskit import (
    is_tpp,
    observable_pair,
    poly_state,
    schmidt,
    tps_new,
    tps_to_tpp,
    verify_standard_complete,
)
from tpskit.core import (
    DEFAULT_TOL,
    Tolerance,
    as_matrix,
    as_vector,
    cluster_values,
    grid_from_fibers,
    intertwiners,
    numeric_rank,
    phase_fix,
    singular_rank,
)
from tpskit.errors import DimensionMismatch, NumericOverflow, TpskitError

from oracles import single_linkage_clusters
from util import (
    count_calls,
    random_invertible,
    random_standard_pair,
    random_state,
    random_unitary,
)


def test_tolerance_validation():
    with pytest.raises(ValueError):
        Tolerance(eig_cluster=-1.0)
    with pytest.raises(ValueError):
        Tolerance(rank_rel=0.0)
    for name in ("eig_cluster", "rank_rel", "residual"):
        with pytest.raises(ValueError):
            Tolerance(**{name: np.inf})


def test_as_matrix_shape_and_finiteness():
    with pytest.raises(DimensionMismatch):
        as_matrix(np.zeros((2, 3)), rows=3, cols=2)
    with pytest.raises(ValueError):
        as_matrix(np.array([[np.inf, 0], [0, 0]]))
    m = as_matrix([[1, 2], [3, 4]])
    assert m.dtype == np.complex128


@pytest.mark.parametrize("bad, shape", [
    (np.zeros((2, 2, 2)), {}),
    (np.zeros((2, 3)), {"cols": 2}),
], ids=["three_axes", "wrong_cols"])
def test_as_matrix_refuses_a_wrong_shape(bad, shape):
    with pytest.raises(DimensionMismatch):
        as_matrix(bad, **shape)


def test_empty_input_has_no_clusters_and_no_rank(monkeypatch):
    assert cluster_values(np.array([]), DEFAULT_TOL) == []
    assert singular_rank(np.array([])) == 0
    # an empty matrix is answered before any SVD
    svds = count_calls(monkeypatch, np.linalg, "svd")
    for shape in ((0, 0), (0, 3), (3, 0)):
        assert numeric_rank(np.zeros(shape)) == 0
    assert svds == []


def test_as_vector():
    v = as_vector([1, 2j, 3])
    assert v.shape == (3,) and v.dtype == np.complex128
    with pytest.raises(DimensionMismatch):
        as_vector([1, 2], n=3)


def test_numeric_rank_unitary_invariant():
    rng = np.random.default_rng(3)
    for trial in range(10):
        n = 6
        r = rng.integers(1, n + 1)
        a = rng.normal(size=(n, r)) + 1j * rng.normal(size=(n, r))
        b = rng.normal(size=(r, n)) + 1j * rng.normal(size=(r, n))
        m = a @ b
        assert numeric_rank(m) == r
        u1 = random_unitary(rng, n)
        u2 = random_unitary(rng, n)
        assert numeric_rank(u1 @ m @ u2) == r


def test_overflowing_singular_values_have_no_rank():
    # a non-finite top singular value is refused, not counted as rank 0
    for s in ([np.inf, 1.0], [np.nan, 1.0], [np.inf, np.inf]):
        with pytest.raises(NumericOverflow, match="overflow"):
            singular_rank(np.array(s))
    assert issubclass(NumericOverflow, ValueError)
    assert issubclass(NumericOverflow, TpskitError)
    assert singular_rank(np.array([0.0, 0.0])) == 0
    assert singular_rank(np.array([1e308, 1e300, 1e297])) == 2
    with pytest.raises(NumericOverflow):
        numeric_rank(1e308 * np.ones((3, 3)))
    assert numeric_rank(1e307 * np.ones((3, 3))) == 1


def test_cluster_values_grouping():
    vals = np.array([1.0, 1.0 + 1e-12, 5.0, 5.0 - 1e-12, 9.0])
    groups = cluster_values(vals, DEFAULT_TOL)
    assert [len(g) for g in groups] == [2, 2, 1]
    spread = cluster_values(np.array([0.0, 1.0, 2.0]), DEFAULT_TOL)
    assert len(spread) == 3


def test_cluster_values_complex():
    vals = np.array([1 + 1j, 1 + 1j + 1e-13, -1.0 + 0j])
    groups = cluster_values(vals, DEFAULT_TOL)
    assert sorted(len(g) for g in groups) == [1, 2]


def test_cluster_values_links_chains():
    # neighbours 1.8e-8 apart under a 2e-8 threshold: only the closure of
    # the proximity relation joins the ends of the chain
    vals = np.array([5.4e-8, 1.0, 0.0, 7.2e-8, 1.8e-8, 3.6e-8])
    groups = cluster_values(vals, DEFAULT_TOL)
    assert [g.tolist() for g in groups] == [[2, 4, 5, 0, 3], [1]]


def test_cluster_values_matches_union_find():
    rng = np.random.default_rng(9)
    for trial in range(600):
        n = int(rng.integers(1, 80))
        if trial % 3 == 0:
            vals = np.round(rng.normal(size=n), 1) + 1e-12 * rng.normal(size=n)
        elif trial % 3 == 1:
            vals = np.round(rng.normal(size=n) + 1j * rng.normal(size=n), 1)
        else:  # chains whose steps straddle the gap threshold
            vals = rng.permutation(np.cumsum(rng.choice([5e-9, 2e-8, 1.0], size=n)))
        eig_cluster = float(rng.choice([1e-10, 1e-8, 1e-4, 1e-2, 1e-1]))
        got = [g.tolist() for g in cluster_values(vals, Tolerance(eig_cluster=eig_cluster))]
        assert got == single_linkage_clusters(vals, eig_cluster), (trial, eig_cluster)


def _assert_frobenius_orthonormal(xs):
    flat = xs.reshape(xs.shape[0], -1)
    assert np.linalg.norm(flat.conj() @ flat.T - np.eye(len(xs))) <= 1e-12


def test_intertwiners_commutant_of_diagonal():
    d = np.diag([1.0, 2.0, 3.0]).astype(complex)
    xs = intertwiners([d], [d], 1e-12)
    assert xs.shape == (3, 3, 3)
    _assert_frobenius_orthonormal(xs)
    for x in xs:
        assert np.linalg.norm(x - np.diag(np.diagonal(x))) <= 1e-12


def test_intertwiners_of_conjugate_irreducible_pairs():
    rng = np.random.default_rng(7)
    for n in (2, 3, 4):
        # two generic matrices act irreducibly on C^n
        rights = [rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
                  for _ in range(2)]
        s = random_invertible(rng, n)
        lefts = [s @ r @ np.linalg.inv(s) for r in rights]
        xs = intertwiners(lefts, rights, 1e-12)
        assert xs.shape == (1, n, n)
        x = xs[0]
        overlap = abs(np.vdot(s, x)) / np.linalg.norm(s)
        assert abs(overlap - 1.0) <= 1e-10


def test_intertwiners_of_different_spectra():
    rng = np.random.default_rng(8)
    a = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
    b = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
    assert intertwiners([a, b], [a + 10 * np.eye(3), b], 1e-12).shape == (0, 3, 3)


def test_intertwiners_between_different_dimensions():
    # X (2 x 3) maps the eigenvectors of the right operator to those of the
    # left one with the same eigenvalue: entries (0, 0) and (1, 1)
    xs = intertwiners([np.diag([1.0, 2.0])], [np.diag([1.0, 2.0, 5.0])], 1e-12)
    assert xs.shape == (2, 2, 3)
    _assert_frobenius_orthonormal(xs)
    mask = np.zeros((2, 3), dtype=bool)
    mask[0, 0] = mask[1, 1] = True
    assert np.max(np.abs(xs[:, ~mask])) <= 1e-12


def test_phase_fix():
    rng = np.random.default_rng(5)
    v = rng.normal(size=5) + 1j * rng.normal(size=5)
    w = phase_fix(v)
    idx = np.argmax(np.abs(w))
    assert abs(w[idx].imag) <= 1e-14 and w[idx].real > 0
    # already fixed vectors are left alone up to roundoff
    assert np.linalg.norm(phase_fix(w) - w) <= 1e-12 * np.linalg.norm(w)


def test_phase_fix_scale_consistency():
    rng = np.random.default_rng(6)
    v = rng.normal(size=4) + 1j * rng.normal(size=4)
    z = np.exp(1j * 0.7)
    assert np.linalg.norm(phase_fix(v * z) - phase_fix(v)) <= 1e-12


def test_grid_from_fibers_layout_and_first_columns():
    rng = np.random.default_rng(7)
    k, l = 2, 3
    n = k * l
    for axis, count, width in ((2, l, k), (1, k, l)):
        fibers = rng.normal(size=(count, n, width)) \
            + 1j * rng.normal(size=(count, n, width))
        grid = grid_from_fibers(list(fibers), axis)
        assert grid.shape == (n, n)
        # a list of fibers and their stacked array give the same grid
        assert np.array_equal(grid_from_fibers(fibers, axis), grid)
        for f, fiber in enumerate(fibers):
            # column j*l + i holds cell (j, i): fiber i's column j on
            # axis=2, fiber j's column i on axis=1
            cols = [j * l + f if axis == 2 else f * l + j for j in range(width)]
            cells = grid[:, cols]
            y0 = cells[:, 0]
            assert abs(np.linalg.norm(y0) - 1) <= 1e-14
            p = np.argmax(np.abs(y0))
            assert abs(y0[p].imag) <= 1e-15 and y0[p].real > 0
            # one scalar per fiber
            scale = fiber[p, 0] / y0[p]
            assert np.allclose(cells * scale, fiber, rtol=0, atol=1e-13)


def test_grid_from_fibers_keeps_the_lowest_pivot_on_ties():
    # exact magnitude ties: the lowest index becomes real positive
    for y0, p in (([1j, -1, 1, 0], 0), ([0, -1j, 1, 1j], 1)):
        fiber = np.array([y0, [1, 2, 3, 4]], dtype=complex).T
        grid = grid_from_fibers([fiber, fiber], axis=2)
        for c in (0, 1):
            col = grid[:, c]
            assert abs(col[p].imag) <= 1e-15 and col[p].real > 0
            assert np.allclose(col * np.sqrt(3) * fiber[p, 0], fiber[:, 0],
                               rtol=0, atol=1e-15)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_real_or_imaginary_part_is_refused(bad):
    for part in (complex(bad, 0.0), complex(0.0, bad)):
        entries = np.array([1.0, part, 2j, 3.0])
        with pytest.raises(ValueError, match="^matrix entries must be finite$"):
            as_matrix(entries.reshape(2, 2))
        with pytest.raises(ValueError, match="^vector entries must be finite$"):
            as_vector(entries)


def test_derived_values_are_read_only_properties():
    # values the data fixes are read off it: a constructor refuses them, and
    # they cannot be set
    rng = np.random.default_rng(78)
    t = tps_new(2, 3, random_unitary(rng, 6))
    a1, a2 = tps_to_tpp(t)
    p = observable_pair(*random_standard_pair(rng, 2, 3))
    derived = [
        (t, "dim", 6),
        (a1, "dim_space", 6),
        (a1, "unital", True),
        (is_tpp(a1, a2), "is_tpp", True),
        (schmidt(random_state(rng, 6), t), "rank", 2),
        (verify_standard_complete(p), "k", 2),
        (verify_standard_complete(p), "l", 3),
        (poly_state(("x1", "x2"), 3, np.eye(3)), "max_degree", 3),
    ]
    for obj, name, value in derived:
        assert getattr(obj, name) == value, name
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(obj, name, not value)
        args = {f.name: getattr(obj, f.name) for f in dataclasses.fields(obj)}
        assert getattr(type(obj)(**args), name) == value, name
        with pytest.raises(TypeError, match=name):
            type(obj)(**args, **{name: value})
