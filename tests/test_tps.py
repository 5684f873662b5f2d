import copy
import dataclasses
import pickle

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import tpskit.tps
from tpskit import (
    coefficient_matrix,
    coefficient_schmidt,
    god_given,
    is_inner_product_compatible,
    is_product,
    schmidt,
    swap_factors,
    tps_equivalent,
    tps_new,
)
from tpskit.algebra import is_tpp, span_equal, tpp_to_tps, tps_to_tpp
from tpskit.core import DEFAULT_TOL, singular_rank
from tpskit.observables import (
    complementary_pair,
    observable_pair,
    tps_from_observables,
    verify_complementary,
    verify_standard_complete,
)
from tpskit.poly import poly_state, poly_tps
from tpskit.refactor import (
    dual_verdict,
    tps_making_state_entangled,
    tps_making_state_product,
)
from tpskit.errors import DimensionMismatch, NumericOverflow, SingularBasis, ZeroState
from tpskit.tps import Tps

import oracles
from util import (
    count_calls,
    forbid_algebra,
    near_unitary,
    random_invertible,
    random_standard_pair,
    random_state,
    random_unitary,
)


def test_tps_new_rejects_singular_basis():
    b = np.ones((4, 4), dtype=complex)
    with pytest.raises(SingularBasis):
        tps_new(2, 2, b)


def test_a_singular_grid_built_directly_is_refused_on_first_solve():
    # Tps itself runs no rank test; its LU inverse refuses the basis
    t = Tps(k=2, l=2, basis=np.ones((4, 4)))
    with pytest.raises(SingularBasis):
        schmidt(np.ones(4), t)


def test_tps_new_rejects_bad_shape():
    with pytest.raises(DimensionMismatch):
        tps_new(2, 3, np.eye(4))
    # n = k*l is read off the shape, so a grid cannot be built on a basis
    # of another size, nor with an empty factor
    for k, l, basis in ((2, 3, np.eye(4)), (2, 3, np.eye(6)[:, :5]),
                        (2, 3, np.ones(6)), (0, 3, np.zeros((0, 0)))):
        with pytest.raises(DimensionMismatch):
            Tps(k=k, l=l, basis=basis)


def test_god_given_identity_basis():
    t = god_given(2, 3)
    assert t.dim == 6 and t.shape == (2, 3)
    assert np.array_equal(t.basis, np.eye(6))
    assert is_inner_product_compatible(t)


def test_zero_state_rejected():
    with pytest.raises(ZeroState):
        schmidt(np.zeros(4), god_given(2, 2))


def test_rank_bounds_random():
    rng = np.random.default_rng(10)
    for k, l in ((2, 2), (2, 3), (3, 4)):
        t = tps_new(k, l, random_invertible(rng, k * l))
        for _ in range(10):
            rep = schmidt(random_state(rng, k * l), t)
            assert 1 <= rep.rank <= min(k, l)


def test_rank_scaling_invariant():
    rng = np.random.default_rng(11)
    t = tps_new(3, 3, random_invertible(rng, 9))
    w = random_state(rng, 9)
    base = schmidt(w, t).rank
    for scale in (1e-6, 3.7, 1e6, 1j):
        assert schmidt(scale * w, t).rank == base


def test_product_vectors_from_outer():
    rng = np.random.default_rng(12)
    for k, l in ((2, 2), (3, 4)):
        t = tps_new(k, l, random_invertible(rng, k * l))
        for _ in range(5):
            u = random_state(rng, k)
            v = random_state(rng, l)
            w = t.basis @ np.outer(u, v).reshape(-1)
            assert is_product(w, t)


def test_basis_columns_are_products():
    rng = np.random.default_rng(13)
    t = tps_new(2, 3, random_invertible(rng, 6))
    for p in range(6):
        assert is_product(t.basis[:, p], t)


def test_parseval_for_compatible_tps():
    rng = np.random.default_rng(14)
    t = tps_new(3, 3, random_unitary(rng, 9))
    assert is_inner_product_compatible(t)
    for _ in range(5):
        w = random_state(rng, 9)
        rep = schmidt(w, t)
        total = float(np.sum(rep.coefficients ** 2))
        assert abs(total - np.linalg.norm(w) ** 2) <= 1e-8 * np.linalg.norm(w) ** 2


def test_schmidt_reconstructs_coefficient_matrix():
    rng = np.random.default_rng(15)
    t = tps_new(2, 3, random_invertible(rng, 6))
    w = random_state(rng, 6)
    rep = schmidt(w, t)
    assert np.all(np.diff(rep.coefficients) <= 0)
    c = coefficient_matrix(w, t)
    # schmidt is coefficient_matrix followed by coefficient_schmidt
    split = coefficient_schmidt(c)
    assert split.rank == rep.rank
    assert np.array_equal(split.coefficients, rep.coefficients)
    rebuilt = sum(rep.coefficients[i]
                  * np.outer(rep.left_vectors[:, i], rep.right_vectors[:, i])
                  for i in range(rep.rank))
    assert np.linalg.norm(rebuilt - c) <= 1e-10 * np.linalg.norm(c)


def test_known_2x2_coefficients_against_oracle():
    c = np.array([[1.0, 1.0], [1.0, 0.5]], dtype=complex)
    w = c.reshape(-1)
    rep = schmidt(w, god_given(2, 2))
    hi, lo = oracles.singular_values_2x2([[1.0, 1.0], [1.0, 0.5]])
    assert rep.rank == 2
    assert abs(rep.coefficients[0] - hi) <= 1e-12
    assert abs(rep.coefficients[1] - lo) <= 1e-12


def test_swap_factors_involution():
    rng = np.random.default_rng(16)
    t = tps_new(2, 3, random_invertible(rng, 6))
    back = swap_factors(swap_factors(t))
    assert back.shape == t.shape
    assert np.array_equal(back.basis, t.basis)
    w = random_state(rng, 6)
    assert schmidt(w, t).rank == schmidt(w, swap_factors(t)).rank


def test_swap_factors_moves_cells():
    rng = np.random.default_rng(21)
    for k, l in ((2, 3), (3, 2), (1, 4), (3, 3)):
        t = tps_new(k, l, random_invertible(rng, k * l))
        s = swap_factors(t)
        assert s.shape == (l, k)
        for j in range(k):
            for i in range(l):
                assert np.array_equal(s.basis[:, i * k + j], t.basis[:, j * l + i])


def test_equivalence_reflexive_symmetric():
    rng = np.random.default_rng(17)
    t1 = tps_new(2, 2, random_invertible(rng, 4))
    t2 = tps_new(2, 2, random_invertible(rng, 4))
    assert tps_equivalent(t1, t1).equivalent
    v12 = tps_equivalent(t1, t2)
    v21 = tps_equivalent(t2, t1)
    assert v12.equivalent == v21.equivalent
    assert not v12.equivalent


def test_swap_is_equivalent_with_flag():
    rng = np.random.default_rng(18)
    t = tps_new(2, 3, random_invertible(rng, 6))
    v = tps_equivalent(t, swap_factors(t))
    assert v.equivalent and v.swapped


def test_god_given_vs_bell_not_equivalent():
    s = 1 / np.sqrt(2)
    bell = np.array([
        [0, s, 0, s],
        [s, 0, s, 0],
        [s, 0, -s, 0],
        [0, s, 0, -s],
    ], dtype=complex)
    v = tps_equivalent(god_given(2, 2), tps_new(2, 2, bell))
    assert not v.equivalent
    # a Bell state separates the two product sets
    psi_plus = np.array([0, s, s, 0], dtype=complex)
    assert not is_product(psi_plus, god_given(2, 2))
    assert is_product(psi_plus, tps_new(2, 2, bell))


def test_equivalent_tps_share_product_sets():
    rng = np.random.default_rng(19)
    t1 = tps_new(2, 2, random_invertible(rng, 4))
    # factor-local mixing in grid coordinates preserves the product set
    a = random_invertible(rng, 2)
    b = random_invertible(rng, 2)
    t2 = tps_new(2, 2, t1.basis @ np.kron(a, b))
    assert tps_equivalent(t1, t2).equivalent
    agree = 0
    for _ in range(100):
        w = random_state(rng, 4)
        if is_product(w, t1) == is_product(w, t2):
            agree += 1
    assert agree == 100


def test_product_probe_stays_product():
    rng = np.random.default_rng(20)
    t = tps_new(2, 3, random_invertible(rng, 6))
    a1, a2 = tps_to_tpp(t)
    w = t.basis[:, 0]
    for _ in range(5):
        a = np.tensordot(rng.normal(size=a1.dim), a1.span_basis, axes=1)
        b = np.tensordot(rng.normal(size=a2.dim), a2.span_basis, axes=1)
        probe = a @ b @ w
        if np.linalg.norm(probe) > 1e-8:
            assert is_product(probe, t)


def test_trivial_shapes():
    rng = np.random.default_rng(21)
    t1 = tps_new(1, 4, random_invertible(rng, 4))
    t4 = tps_new(4, 1, random_invertible(rng, 4))
    assert t1.is_trivial() and t4.is_trivial()
    w = random_state(rng, 4)
    assert is_product(w, t1) and is_product(w, t4)
    assert tps_equivalent(t1, t4).equivalent


def test_schmidt_rank_ignores_scale():
    # no absolute floor: only the exactly zero coefficient matrix is refused
    rng = np.random.default_rng(22)
    for k, l in ((2, 2), (2, 3), (3, 3)):
        t = tps_new(k, l, random_invertible(rng, k * l))
        product = t.basis @ np.outer(random_state(rng, k), random_state(rng, l)).reshape(-1)
        entangled = random_state(rng, k * l)
        for w, rank in ((product, 1), (entangled, min(k, l))):
            assert schmidt(w, t).rank == rank
            for alpha in (1e-12, 1e-11, 1e12):
                assert schmidt(alpha * w, t).rank == rank, (k, l, alpha)


def _conditioned(rng, n, cond):
    """Random n x n basis with singular values log-evenly from 1 to 1/cond
    (a random unitary when cond = 1)."""
    s = np.logspace(0, -np.log10(cond), n)
    return (random_unitary(rng, n) * s) @ random_unitary(rng, n)


def _algebra_verdict(t1, t2):
    """(equivalent, swapped) from the induced factor algebras: the paper's
    TPS <-> TPP correspondence, compared in order, then crosswise."""
    a1, a2 = tps_to_tpp(t1)
    b1, b2 = tps_to_tpp(t2)
    if span_equal(a1, b1) and span_equal(a2, b2):
        return (True, False)
    if span_equal(a1, b2) and span_equal(a2, b1):
        return (True, True)
    return (False, False)


_SHAPES = [(1, 4), (4, 1), (2, 2), (2, 3), (3, 2), (3, 3), (2, 4), (3, 4), (4, 4)]


@settings(max_examples=60, deadline=None, derandomize=True)
@given(st.sampled_from(_SHAPES), st.integers(0, 2**32 - 1),
       st.sampled_from([1.0, 30.0, 1e4]), st.sampled_from([1.0, 30.0, 1e3]))
def test_equivalence_is_kronecker_structure(shape, seed, cond_b, cond_local):
    k, l = shape
    rng = np.random.default_rng(seed)
    t = tps_new(k, l, _conditioned(rng, k * l, cond_b))
    local = np.kron(_conditioned(rng, k, cond_local), _conditioned(rng, l, cond_local))
    pairs = [
        (tps_new(k, l, t.basis @ local), (True, False)),
        (swap_factors(t), (True, True)),
        # every vector is a product in a trivial shape
        (tps_new(k, l, random_invertible(rng, k * l)), (t.is_trivial(), False)),
    ]
    if cond_b == 1.0:
        pairs.append((tpp_to_tps(*tps_to_tpp(t)), (True, False)))
    for other, want in pairs:
        v = tps_equivalent(t, other)
        assert (v.equivalent, v.swapped) == want
        back = tps_equivalent(other, t)
        assert (back.equivalent, back.swapped) == want
        if max(np.linalg.cond(t.basis), np.linalg.cond(other.basis)) <= 30:
            assert _algebra_verdict(t, other) == want


def test_equivalence_survives_ill_conditioned_factors():
    # B2 = B1 (P (x) Q) with cond(B1) = 1e4 and cond(P) = cond(Q) = 1e3, and
    # with cond(B1) = 1e8, which only a cutoff with the cond(B1) * eps floor
    # accepts
    rng = np.random.default_rng(23)
    for k, l in ((2, 3), (3, 3)):
        for cond_b, cond_local in ((1e4, 1e3), (1e8, 3.0)):
            for _ in range(10):
                t = tps_new(k, l, _conditioned(rng, k * l, cond_b))
                local = np.kron(_conditioned(rng, k, cond_local),
                                _conditioned(rng, l, cond_local))
                v = tps_equivalent(t, tps_new(k, l, t.basis @ local))
                assert v.equivalent and not v.swapped, (k, l, cond_b)


def test_equivalence_builds_no_algebras(monkeypatch):
    forbid_algebra(monkeypatch, "tps_to_tpp", "span_equal")
    rng = np.random.default_rng(24)
    t = tps_new(2, 3, random_invertible(rng, 6))
    local = np.kron(random_invertible(rng, 2), random_invertible(rng, 3))
    v = tps_equivalent(t, tps_new(2, 3, t.basis @ local))
    assert v.equivalent and not v.swapped
    v = tps_equivalent(t, swap_factors(t))
    assert v.equivalent and v.swapped
    assert not tps_equivalent(t, tps_new(2, 3, random_invertible(rng, 6))).equivalent


def test_kept_singular_values_are_a_read_only_svd_of_the_basis():
    rng = np.random.default_rng(25)
    b = random_invertible(rng, 6)
    t = tps_new(2, 3, b)
    u = tps_new(2, 3, random_unitary(rng, 6))
    witness = tpp_to_tps(*tps_to_tpp(u))
    for grid in (t, u, swap_factors(t), god_given(2, 3), witness):
        s, x, d = grid.singular_values, grid.inverse, grid.unitarity_defect
        assert np.array_equal(s, np.linalg.svd(grid.basis, compute_uv=False))
        assert np.array_equal(x, np.linalg.inv(grid.basis))
        assert d == np.linalg.norm(grid.basis.conj().T @ grid.basis - np.eye(6))
        assert grid.singular_values is s and grid.inverse is x
        assert vars(grid)["unitarity_defect"] is d
        with pytest.raises(AttributeError):
            grid.unitarity_defect = 0.0
        for a in (grid.basis, s, x):
            with pytest.raises(ValueError):
                a[0] = 0
    # the basis is a private copy, so the kept values cannot go stale
    b[0, 0] = 5
    assert t.basis[0, 0] != 5
    assert np.array_equal(t.singular_values,
                          np.linalg.svd(t.basis, compute_uv=False))
    assert np.array_equal(t.inverse, np.linalg.inv(t.basis))
    # nor can they be passed in or carried over to another basis
    with pytest.raises(TypeError, match="singular_values"):
        Tps(k=2, l=3, basis=b, singular_values=t.singular_values)
    with pytest.raises(TypeError, match="inverse"):
        Tps(k=2, l=3, basis=b, inverse=t.inverse)
    with pytest.raises(TypeError, match="unitarity_defect"):
        Tps(k=2, l=3, basis=b, unitarity_defect=0.0)
    other = dataclasses.replace(t, basis=b)
    assert np.array_equal(other.singular_values, np.linalg.svd(b, compute_uv=False))
    assert np.array_equal(other.inverse, np.linalg.inv(b))
    assert other.unitarity_defect == np.linalg.norm(b.conj().T @ b - np.eye(6))
    # a copy or a pickle recomputes them from its own basis
    kept = ("singular_values", "inverse", "unitarity_defect")
    for twin in (copy.copy(t), copy.deepcopy(t), pickle.loads(pickle.dumps(t))):
        assert not any(name in vars(twin) for name in kept)
        assert np.array_equal(twin.inverse, t.inverse) and twin.inverse is not t.inverse
        assert twin.unitarity_defect == t.unitarity_defect


def test_one_inverse_per_grid(monkeypatch):
    # the certificate, six Schmidt solves and the equivalence test all
    # share the grid's one kept inverse; no LU solve is left
    rng = np.random.default_rng(29)
    t = tps_new(2, 3, random_unitary(rng, 6))
    inverses = count_calls(monkeypatch, np.linalg, "inv")
    solves = count_calls(monkeypatch, np.linalg, "solve")
    witness = tpp_to_tps(*tps_to_tpp(t))
    for _ in range(6):
        schmidt(random_state(rng, 6), t)
    assert tps_equivalent(t, witness).equivalent
    assert len(inverses) == 1 and len(solves) == 0


def test_a_grid_is_measured_once_on_the_certify_round_trip(monkeypatch):
    # is_tpp and tpp_to_tps of a grid's own pair both gate on its
    # unitarity, which reads the defect the grid keeps: one Gram product
    t = tps_new(2, 3, random_unitary(np.random.default_rng(31), 6))
    pair = tps_to_tpp(t)
    norms = count_calls(monkeypatch, np.linalg, "norm")
    assert is_tpp(*pair).tps is t and tpp_to_tps(*pair) is t
    assert len(norms) == 1


def test_the_swapped_grid_is_built_only_when_it_can_decide(monkeypatch):
    rng = np.random.default_rng(37)
    swaps = count_calls(monkeypatch, tpskit.tps, "swap_factors")
    t = tps_new(3, 3, random_invertible(rng, 9))
    a = tps_new(2, 3, random_invertible(rng, 6))
    # an equivalent pair is decided unswapped, and a k x l grid with k != l
    # against another k x l grid never needs the l x k one
    for t1, t2, equivalent in ((t, t, True), (a, a, True),
                               (a, tps_new(2, 3, random_invertible(rng, 6)), False)):
        assert tps_equivalent(t1, t2).equivalent is equivalent
    assert not swaps
    # a swapped pair, square or not, builds it once, and is decided by it
    for t1 in (t, a):
        swaps.clear()
        verdict = tps_equivalent(t1, swap_factors(t1))
        assert verdict.equivalent and verdict.swapped and len(swaps) == 1


_UNITARY_SHAPES = [(2, 2), (2, 3), (3, 4), (5, 5), (6, 7), (8, 8)]


def _unitary_makers(rng, k, l):
    """Grid makers whose bases are unitary by construction, by name."""
    w = random_state(rng, k * l)
    r, t = random_standard_pair(rng, k, l)
    makers = {
        "product": lambda: tps_making_state_product(w, k, l),
        "entangled": lambda: tps_making_state_entangled(w, k, l),
        "dual_product": lambda: dual_verdict(w, k, l)[0],
        "dual_entangled": lambda: dual_verdict(w, k, l)[1],
        "observables": lambda: tps_from_observables(observable_pair(r, t)),
        "god_given": lambda: god_given(k, l),
    }
    if k == l:
        makers["poly"] = lambda: poly_tps(("X", "x"), k)
    return makers


@pytest.mark.parametrize("k, l", _UNITARY_SHAPES)
def test_unitary_grids_keep_their_adjoint(monkeypatch, k, l):
    rng = np.random.default_rng(31)
    for name, make in _unitary_makers(rng, k, l).items():
        states = [random_state(rng, k * l) for _ in range(6)]
        inverses = count_calls(monkeypatch, np.linalg, "inv")
        t = make()
        for w in states:
            schmidt(w, t)
        assert inverses == [], name
        monkeypatch.undo()
        assert np.array_equal(t.inverse, t.basis.conj().T), name
        with pytest.raises(ValueError):
            t.inverse[0, 0] = 0
        assert t.inverse is t.inverse
        # a pickled copy is built through __init__ and takes an LU inverse
        twin = pickle.loads(pickle.dumps(t))
        assert "inverse" not in vars(twin)
        assert np.linalg.norm(twin.inverse - t.inverse) <= 1e-12, name


@pytest.mark.parametrize("k, l", _UNITARY_SHAPES)
def test_unitary_grids_solve_like_lu(k, l):
    # ranks and coefficients from the adjoint agree with an LU solve at any
    # scale of the state
    rng = np.random.default_rng(32)
    for name, make in _unitary_makers(rng, k, l).items():
        t = make()
        for rank in range(1, min(k, l) + 1):
            c = sum(np.outer(random_state(rng, k), random_state(rng, l))
                    for _ in range(rank))
            w = t.basis @ c.reshape(-1)
            for alpha in (1e-300, 1.0, 1e300):
                v = alpha * w
                want = np.linalg.solve(t.basis, v).reshape(k, l)
                got = coefficient_matrix(v, t)
                err = np.max(np.abs(got - want))
                assert err <= 1e-12 * np.max(np.abs(want)), (name, alpha)
                s = np.linalg.svd(want, compute_uv=False)
                report = schmidt(v, t)
                assert report.rank == singular_rank(s) == rank, (name, alpha)
                assert np.allclose(report.coefficients, s[:report.rank],
                                   rtol=1e-12, atol=0), (name, alpha)


def test_true_ranks_at_cond_1e6():
    # B = U diag(1 .. 1e-6) V: the plain product B^-1 w misjudges 1-2%
    # of these states, as its error is not backward stable; one refinement
    # step brings it to the accuracy of an LU solve, which misjudges none
    rng = np.random.default_rng(31)
    for k, l in ((2, 2), (2, 3), (3, 3), (4, 4), (5, 5), (6, 6)):
        n = k * l
        for _ in range(100):
            b = (random_unitary(rng, n) * np.logspace(0, -6, n)) @ random_unitary(rng, n)
            t = tps_new(k, l, b)
            for rank in (1, 2):
                c = sum(np.outer(random_state(rng, k), random_state(rng, l))
                        for _ in range(rank))
                assert schmidt(b @ c.reshape(-1), t).rank == rank, (k, l, rank)


def test_compatibility_agrees_with_the_gram_test():
    rng = np.random.default_rng(26)
    fracs = (0.01, 0.25, 0.5, 0.95, 1.05, 2.0)
    for k, l in ((2, 2), (2, 3), (3, 3), (4, 4), (6, 6)):
        n = k * l
        u = random_unitary(rng, n)
        grids = [u, 2 * u, random_invertible(rng, n)]
        grids += [near_unitary(rng, n, frac) for frac in fracs]
        expected = [True, False, False] + [frac < 1 for frac in fracs]
        for b, want in zip(grids, expected):
            t = tps_new(k, l, b)
            assert is_inner_product_compatible(t) == want, (k, l)
            assert oracles.gram_compatible(t, DEFAULT_TOL) == want, (k, l)
            assert oracles.singular_compatible(t, DEFAULT_TOL) == want, (k, l)


def test_overflowing_solve_is_refused():
    # 1e10 / 1e-300 overflows: an SVD of the inf coefficients fails, or
    # returns nan singular values, which count as rank 0
    t = tps_new(2, 2, 1e-300 * np.eye(4))
    w = 1e10 * np.ones(4)
    for call in (coefficient_matrix, schmidt, is_product):
        with pytest.raises(ValueError, match="overflow"):
            call(w, t)


def _svd_keywords(monkeypatch):
    """The keyword arguments of every np.linalg.svd call from now on."""
    calls, svd = [], np.linalg.svd

    def spy(*args, **kwargs):
        calls.append(kwargs)
        return svd(*args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", spy)
    return calls


def test_schmidt_takes_one_values_only_svd(monkeypatch):
    rng = np.random.default_rng(33)
    for k, l in ((2, 2), (3, 4)):
        t = tps_new(k, l, random_invertible(rng, k * l))
        w = random_state(rng, k * l)
        calls = _svd_keywords(monkeypatch)
        report = schmidt(w, t)
        assert is_product(w, t) is (report.rank == 1)
        assert calls == [{"compute_uv": False}] * 2
        # the vectors take one more SVD, however often either is read
        for _ in range(3):
            left, right = report.left_vectors, report.right_vectors
        assert calls[2:] == [{"full_matrices": False}]
        monkeypatch.undo()
        u, _, vh = np.linalg.svd(coefficient_matrix(w, t), full_matrices=False)
        assert np.array_equal(left, u[:, :report.rank])
        assert np.array_equal(right, vh[:report.rank].T)
        for v in (left, right):
            with pytest.raises(ValueError):
                v[0, 0] = 0


def test_schmidt_reports_copy_without_their_vectors(monkeypatch):
    rng = np.random.default_rng(35)
    t = tps_new(3, 4, random_invertible(rng, 12))
    report = schmidt(random_state(rng, 12), t)
    left, right = report.left_vectors, report.right_vectors
    for twin in (pickle.loads(pickle.dumps(report)), copy.copy(report),
                 copy.deepcopy(report)):
        assert "_vectors" not in vars(twin)
        assert twin.rank == report.rank
        assert np.array_equal(twin.coefficients, report.coefficients)
        # rebuilt by one SVD on first access, read-only and equal
        calls = _svd_keywords(monkeypatch)
        assert np.array_equal(twin.left_vectors, left)
        assert np.array_equal(twin.right_vectors, right)
        assert calls == [{"full_matrices": False}]
        monkeypatch.undo()
        for v in (twin.left_vectors, twin.right_vectors):
            with pytest.raises(ValueError):
                v[0, 0] = 0


def test_schmidt_report_arrays_are_read_only():
    rng = np.random.default_rng(36)
    t = tps_new(3, 4, random_invertible(rng, 12))
    report = schmidt(random_state(rng, 12), t)
    twins = (pickle.loads(pickle.dumps(report)), copy.copy(report),
             copy.deepcopy(report))
    for r in (report,) + twins:
        assert np.array_equal(r.coefficients, report.coefficients)
        for arr in (r.coefficients, r._c):
            with pytest.raises(ValueError):
                arr[0] = 5.0
    # writes that fail leave the report as it was
    assert np.array_equal(report.coefficients,
                          np.linalg.svd(report._c, compute_uv=False)[:report.rank])
    # every value type, with its cached values computed, and each copy of
    # one: every array it holds is read-only, and a copy holds its fields
    # alone, so no cached value survives it
    p = observable_pair(*random_standard_pair(rng, 2, 3, unitary=False))
    cs = verify_standard_complete(p)
    a1, a2 = tps_to_tpp(t)
    p2 = complementary_pair(p, cs)
    values = (t, report, a1, a2, p, cs,
              poly_state(("x1", "x2"), 3, rng.normal(size=(3, 3))))
    t.singular_values, t.inverse, report.left_vectors, a2.unital
    is_tpp(a1, a2)
    assert verify_complementary(p, p2) and p._memo
    for v in values:
        fields = {f.name for f in dataclasses.fields(v)}
        for twin in (v, pickle.loads(pickle.dumps(v)), copy.copy(v),
                     copy.deepcopy(v), dataclasses.replace(v)):
            assert twin is v or set(vars(twin)) == fields, type(v)
            for value in vars(twin).values():
                for arr in value if isinstance(value, tuple) else (value,):
                    if isinstance(arr, np.ndarray):
                        with pytest.raises(ValueError):
                            arr[(0,) * arr.ndim] = 5


def test_coefficient_schmidt_keeps_its_own_copy():
    rng = np.random.default_rng(34)
    c = sum(np.outer(random_state(rng, 3), random_state(rng, 4)) for _ in range(2))
    s = np.linalg.svd(c, compute_uv=False)
    u, _, vh = np.linalg.svd(c, full_matrices=False)
    report = coefficient_schmidt(c)
    c[:] = 0
    assert report.rank == 2 and np.array_equal(report.coefficients, s[:2])
    assert np.array_equal(report.left_vectors, u[:, :2])
    assert np.array_equal(report.right_vectors, vh[:2].T)


def test_values_only_ranks_match_the_full_svd():
    # rank and coefficients from the values-only SVD against those of the
    # SVD with vectors, for states of every rank at scales 1e-300 .. 1e300
    # in grids of condition number 1 .. 1e6
    rng = np.random.default_rng(35)
    for k, l in ((2, 2), (2, 3), (3, 3), (3, 5), (4, 4), (5, 6), (6, 6),
                 (7, 8), (8, 8)):
        for cond in (1.0, 1e3, 1e6):
            t = tps_new(k, l, _conditioned(rng, k * l, cond))
            for rank in range(1, min(k, l) + 1):
                c = sum(np.outer(random_state(rng, k), random_state(rng, l))
                        for _ in range(rank))
                w = t.basis @ c.reshape(-1)
                for alpha in (1e-300, 1e-150, 1.0, 1e150, 1e300):
                    report = schmidt(alpha * w, t)
                    u, s, vh = np.linalg.svd(coefficient_matrix(alpha * w, t),
                                             full_matrices=False)
                    r = singular_rank(s)
                    assert report.rank == r == rank, (k, l, cond, rank, alpha)
                    assert np.allclose(report.coefficients, s[:r], rtol=1e-12, atol=0)
                    assert np.array_equal(report.left_vectors, u[:, :r])
                    assert np.array_equal(report.right_vectors, vh[:r].T)


@pytest.mark.parametrize("k, l", [(2, 2), (3, 3)])
def test_overflowing_singular_values_are_refused(k, l):
    # the coefficients 1e308 are finite, but their singular value
    # sqrt(k l) 1e308 is not: an overflow, not the zero state
    t = god_given(k, l)
    w = 1e308 * np.ones(k * l)
    c = coefficient_matrix(w, t)
    assert np.isfinite(c).all()
    for call in (lambda: schmidt(w, t), lambda: is_product(w, t),
                 lambda: coefficient_schmidt(c)):
        with pytest.raises(NumericOverflow, match="overflow"):
            call()
    assert schmidt(w / 10, t).rank == 1


def test_tps_new_refuses_a_basis_whose_singular_values_overflow():
    # 1e308 times a 4 x 4 Hadamard matrix is invertible, but its singular
    # values 2e308 are not finite, so its rank is not measured
    h = np.array([[1.0, 1.0], [1.0, -1.0]])
    with pytest.raises(NumericOverflow, match="overflow"):
        tps_new(2, 2, 1e308 * np.kron(h, h))
    assert tps_new(2, 2, 1e307 * np.kron(h, h)).shape == (2, 2)


def test_a_solve_tests_finiteness_once(monkeypatch):
    rng = np.random.default_rng(36)
    t = tps_new(2, 3, random_invertible(rng, 6))
    w = random_state(rng, 6)
    t.inverse  # its LU is taken before counting
    calls = count_calls(monkeypatch, np, "isfinite")
    schmidt(w, t)
    assert len(calls) == 1
    monkeypatch.undo()
    # a non-finite state is still named as such, not as an overflow
    for bad in (np.nan, np.inf, complex(0, -np.inf)):
        v = w.copy()
        v[1] = bad
        for grid in (t, god_given(2, 3)):
            with pytest.raises(ValueError, match="^vector entries must be finite$"):
                coefficient_matrix(v, grid)
    with pytest.raises(DimensionMismatch):
        coefficient_matrix(np.full(5, np.nan), t)
