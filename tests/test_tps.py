import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from tpskit import (
    coefficient_matrix,
    god_given,
    is_inner_product_compatible,
    is_product,
    schmidt,
    swap_factors,
    tps_equivalent,
    tps_new,
)
from tpskit.algebra import span_equal, tpp_to_tps, tps_to_tpp
from tpskit.errors import DimensionMismatch, SingularBasis, ZeroState

import oracles
from util import forbid_algebra, random_invertible, random_state, random_unitary


def test_tps_new_rejects_singular_basis():
    b = np.ones((4, 4), dtype=complex)
    with pytest.raises(SingularBasis):
        tps_new(2, 2, b)


def test_tps_new_rejects_bad_shape():
    with pytest.raises(DimensionMismatch):
        tps_new(2, 3, np.eye(4))


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
    c = coefficient_matrix(w, t)
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
