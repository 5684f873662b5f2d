import copy
import pickle

import numpy as np
import pytest

import tpskit.algebra
import tpskit.core
import tpskit.observables

from tpskit import (
    complementary_pair,
    is_inner_product_compatible,
    observable_pair,
    schmidt,
    tpp_from_complementary,
    tps_equivalent,
    tps_from_observables,
    verify_complementary,
    verify_standard_complete,
)
from tpskit.algebra import contains
from tpskit.core import DEFAULT_TOL, Tolerance, subspace_residual
from tpskit.errors import (
    DimensionMismatch,
    JointDegeneracy,
    MultiplicityViolation,
    NotCommuting,
    NotComplementary,
    NotDiagonalizable,
    TpskitError,
)
from tpskit.observables import ObservablePair, _chain_matrix

from oracles import reference_complementary, reference_standard_complete
from util import (
    complementary_corpus,
    count_calls,
    random_invertible,
    random_standard_pair,
    random_unitary,
)

SX = np.array([[0, 1], [1, 0]], dtype=complex)
SZ = np.diag([1.0, -1.0]).astype(complex)
I2 = np.eye(2, dtype=complex)


def test_pair_requires_commuting():
    sx = np.array([[0, 1], [1, 0]], dtype=complex)
    sz = np.diag([1.0, -1.0]).astype(complex)
    with pytest.raises(NotCommuting):
        observable_pair(np.kron(sx, np.eye(2)), np.kron(sz, np.eye(2)))


def test_hermitian_detection():
    r = np.kron(np.diag([0.0, 1.0]), np.eye(2)).astype(complex)
    t = np.kron(np.eye(2), np.diag([0.0, 1.0])).astype(complex)
    assert observable_pair(r, t).hermitian
    assert not observable_pair(1j * r, t).hermitian


def test_standard_complete_grid_shape():
    rng = np.random.default_rng(40)
    for k, l in ((2, 2), (2, 3), (3, 3)):
        r, t = random_standard_pair(rng, k, l)
        cs = verify_standard_complete(observable_pair(r, t))
        assert (cs.k, cs.l) == (k, l)
        assert len(cs.M) == l and len(cs.N) == k
        assert cs.grid.shape == (k * l, k * l)
        # grid columns are unit joint eigenvectors
        for j in range(k):
            for i in range(l):
                v = cs.grid[:, j * l + i]
                assert abs(np.linalg.norm(v) - 1) <= 1e-10
                assert np.linalg.norm(r @ v - cs.r_eigenvalues[j] * v) <= 1e-7
                assert np.linalg.norm(t @ v - cs.t_eigenvalues[i] * v) <= 1e-7


def test_multiplicity_violation():
    r = np.diag([0.0, 0, 0, 1]).astype(complex)
    t = np.diag([0.0, 1, 2, 3]).astype(complex)
    with pytest.raises(MultiplicityViolation):
        verify_standard_complete(observable_pair(r, t))


def test_defective_operator_rejected():
    r = np.kron(np.array([[1, 1], [0, 1]]), np.eye(2)).astype(complex)
    t = np.kron(np.eye(2), np.diag([1.0, 2.0])).astype(complex)
    with pytest.raises(NotDiagonalizable):
        verify_standard_complete(observable_pair(r, t))


def test_non_hermitian_diagonalizable_pair():
    rng = np.random.default_rng(41)
    r, t = random_standard_pair(rng, 2, 3, unitary=False)
    pair = observable_pair(r, t)
    assert not pair.hermitian
    cs = verify_standard_complete(pair)
    assert (cs.k, cs.l) == (2, 3)
    tps = tps_from_observables(pair)
    assert tps.shape == (2, 3)


def test_hermitian_pair_gives_unitary_basis():
    rng = np.random.default_rng(42)
    r, t = random_standard_pair(rng, 3, 3)
    tps = tps_from_observables(observable_pair(r, t))
    assert is_inner_product_compatible(tps)


def test_constructed_basis_block_diagonalizes_r():
    rng = np.random.default_rng(43)
    k, l = 2, 3
    r, t = random_standard_pair(rng, k, l)
    tps = tps_from_observables(observable_pair(r, t))
    conj = np.linalg.solve(tps.basis, r @ tps.basis)
    # r acts on the first factor only: conj = a (x) identity
    blocks = conj.reshape(k, l, k, l)
    a = blocks[:, 0, :, 0]
    assert np.linalg.norm(conj - np.kron(a, np.eye(l))) <= 1e-8


def test_factor_states_are_products():
    rng = np.random.default_rng(44)
    r, t = random_standard_pair(rng, 2, 2)
    pair = observable_pair(r, t)
    cs = verify_standard_complete(pair)
    tps = tps_from_observables(pair)
    for col in range(4):
        assert schmidt(cs.grid[:, col], tps).rank == 1


def test_chain_matrix_two_point_spectrum():
    k = _chain_matrix(np.array([1.0, -1.0]))
    assert np.allclose(k, np.array([[1.0, -2.0], [0.0, -1.0]]))


def test_complementary_construction_verifies():
    rng = np.random.default_rng(45)
    for k, l in ((2, 2), (2, 3)):
        r, t = random_standard_pair(rng, k, l)
        p1 = observable_pair(r, t)
        cs = verify_standard_complete(p1)
        p2 = complementary_pair(p1, cs)
        assert verify_complementary(p1, p2)


# below about 1e-8, cluster_values' absolute gap floor merges r's clusters first
@pytest.mark.parametrize("alpha", [1e-7, 1e-6, 1e-5, 1e-3, 1.0, 1e3, 1e6])
def test_complementarity_does_not_depend_on_the_scale_of_r(alpha):
    rng = np.random.default_rng(56)
    for i in range(20):
        k, l = ((2, 2), (2, 3), (3, 3))[i % 3]
        r, t = random_standard_pair(rng, k, l, unitary=i % 2 == 0)
        p1 = observable_pair(alpha * r, t)
        p2 = complementary_pair(p1, verify_standard_complete(p1))
        assert verify_complementary(p1, p2), (i, k, l)
        _, _, tps = tpp_from_complementary(p1, p2)
        assert tps_equivalent(tps_from_observables(p1), tps).equivalent, (i, k, l)


def test_self_pair_not_complementary():
    sz = np.diag([1.0, -1.0]).astype(complex)
    p = observable_pair(np.kron(sz, np.eye(2)), np.kron(np.eye(2), sz))
    assert not verify_complementary(p, p)


def test_tpp_from_complementary_membership():
    rng = np.random.default_rng(46)
    r, t = random_standard_pair(rng, 2, 3)
    p1 = observable_pair(r, t)
    p2 = complementary_pair(p1, verify_standard_complete(p1))
    a1, a2, tps = tpp_from_complementary(p1, p2)
    assert a1.dim == 4 and a2.dim == 9
    assert tps.shape == (2, 3)
    assert contains(a1, p1.r) and contains(a1, p2.r)
    assert contains(a2, p1.t) and contains(a2, p2.t)


def test_same_pair_different_completions_equivalent():
    rng = np.random.default_rng(47)
    r, t = random_standard_pair(rng, 2, 2)
    p1 = observable_pair(r, t)
    cs = verify_standard_complete(p1)
    direct = tps_from_observables(p1)
    p2 = complementary_pair(p1, cs)
    _, _, via_complement = tpp_from_complementary(p1, p2)
    assert tps_equivalent(direct, via_complement).equivalent


def test_tpp_from_complementary_shared_r_eigenspaces():
    # p2 keeps r and chains t, so the pairs share the eigenspaces of r
    rng = np.random.default_rng(48)
    r, t = random_standard_pair(rng, 2, 3)
    p1 = observable_pair(r, t)
    swapped = observable_pair(t, r)
    p2 = observable_pair(
        r, complementary_pair(swapped, verify_standard_complete(swapped)).r)
    a1, a2, tps = tpp_from_complementary(p1, p2)
    assert tps.shape == (2, 3)
    assert contains(a1, p1.r) and contains(a1, p2.r)
    assert contains(a2, p1.t) and contains(a2, p2.t)
    assert tps_equivalent(tps_from_observables(p1), tps).equivalent


def test_families_of_equal_count_and_size_are_matched_space_by_space(monkeypatch):
    # p2 = (B (K ox 1) B^-1, F D F^-1) on the chained grid F = B (X ox 1),
    # x_j = e_{j-1} + e_j, with t2 = mu_{(i+j) mod l} on cell (j, i), a
    # Latin square: both pairs have l t-eigenspaces of dimension k and k
    # r-eigenspaces of dimension l, yet neither family is shared
    rng = np.random.default_rng(74)
    for k, l in ((2, 2), (2, 3), (3, 3)):
        n = k * l
        b = random_unitary(rng, n)
        lam = np.arange(k, dtype=float) + rng.uniform(0.1, 0.4, size=k)
        mu = np.arange(l, dtype=float) + rng.uniform(0.1, 0.4, size=l)
        p1 = observable_pair(b @ np.kron(np.diag(lam), np.eye(l)) @ b.conj().T,
                             b @ np.kron(np.eye(k), np.diag(mu)) @ b.conj().T)
        assert p1.hermitian
        x = np.eye(k) + np.eye(k, k=1)
        f = b @ np.kron(x, np.eye(l))
        d = np.diag([mu[(i + j) % l] for j in range(k) for i in range(l)])
        p2 = observable_pair(b @ np.kron(_chain_matrix(lam.astype(complex)), np.eye(l))
                             @ b.conj().T, f @ d @ np.linalg.inv(f))
        cs2 = verify_standard_complete(p2)
        assert (cs2.k, cs2.l) == (k, l)
        calls = count_calls(monkeypatch, tpskit.observables, "_match_sets")
        assert not verify_complementary(p1, p2)
        assert len(calls) == 2  # the M family, then the N family
        assert all(len(s1) == len(s2) and s1.shape == s2.shape for s1, s2, _ in calls)
        monkeypatch.undo()


def test_non_isomorphic_fibers_fail_at_the_intertwiner(monkeypatch):
    # p2 keeps t; r2 is the chained operator on the first t-eigenspace and
    # its transpose or diag(lambda) on the others, so r and r2 act
    # irreducibly on the first t-eigenspace but differently there and on the
    # rest; with diag(lambda) the others are reducible, which the intertwiner
    # onto the first one detects too
    rng = np.random.default_rng(49)
    for k, l in ((2, 2), (3, 2), (2, 3)):
        r, t = random_standard_pair(rng, k, l)
        p1 = observable_pair(r, t)
        cs = verify_standard_complete(p1)
        lams = cs.r_eigenvalues.astype(complex)
        km = _chain_matrix(lams)
        for rest in (km.T, np.diag(lams)):
            block = np.zeros((k * l, k * l), dtype=complex)
            for i in range(l):  # cells (j, i) of one t-eigenspace sit at j*l + i
                block[i::l, i::l] = km if i == 0 else rest
            p2 = observable_pair(cs.grid @ block @ np.linalg.inv(cs.grid), t)
            assert verify_standard_complete(p2).k == k

            found = []
            fiber_scales = tpskit.observables._fiber_scales

            def spy(*args):
                found.append(fiber_scales(*args))
                return found[-1]

            monkeypatch.setattr(tpskit.observables, "_fiber_scales", spy)
            assert not verify_complementary(p1, p2)
            assert found and found[0] is None
            with pytest.raises(NotComplementary):
                tpp_from_complementary(p1, p2)
            monkeypatch.undo()


def _outcome(fn):
    try:
        return fn()
    except TpskitError as e:
        return type(e)


@pytest.mark.parametrize("seed", [0, 1])
def test_complementarity_matches_the_intertwiner_reference(seed):
    for kind, p1, p2 in complementary_corpus(np.random.default_rng(1000 + seed)):
        case = (kind, p1.r.shape, p1.hermitian)
        want = _outcome(lambda: reference_complementary(p1, p2, DEFAULT_TOL))
        got = _outcome(lambda: verify_complementary(p1, p2))
        built = _outcome(lambda: tpp_from_complementary(p1, p2))
        if want is None:
            assert got is False and built is NotComplementary, case
        elif isinstance(want, type):
            assert got is built is want, case
        else:
            assert got is True, case
            eq = tps_equivalent(want, built[2])
            assert eq.equivalent and not eq.swapped, case


@pytest.mark.parametrize("unitary", [True, False])
def test_complementarity_solves_no_intertwiner_and_no_eig(monkeypatch, unitary):
    assert not hasattr(tpskit.observables, "intertwiners")
    r, t = random_standard_pair(np.random.default_rng(61), 2, 3, unitary)
    p1 = observable_pair(r, t)
    swapped = observable_pair(t, r)
    partners = (  # sharing the eigenspaces of t, then those of r
        complementary_pair(p1, verify_standard_complete(p1)),
        observable_pair(
            r, complementary_pair(swapped, verify_standard_complete(swapped)).r))
    for p2 in partners:
        # kept on the pairs; the sets of a non-Hermitian p2 take an eig
        verify_standard_complete(p2)
    solves = [count_calls(monkeypatch, module, "intertwiners")
              for module in (tpskit.core, tpskit.algebra)]
    eigs = count_calls(monkeypatch, np.linalg, "eig")
    for p2 in partners:
        assert verify_complementary(p1, p2)
        tpp_from_complementary(p1, p2)
    assert solves == [[], []] and eigs == []


@pytest.mark.parametrize("alpha", [1e-5, 1e-12, 1e-200, 1e200])
def test_scaled_non_commuting_pair_rejected(alpha):
    r = alpha * np.kron(SX, I2)
    t = alpha * (np.kron(SZ, I2) + 0.5 * np.kron(I2, SZ))
    with pytest.raises(NotCommuting):
        observable_pair(r, t)


@pytest.mark.parametrize("unitary", [True, False])
def test_rescaled_commuting_pair_keeps_its_tag(unitary):
    rng = np.random.default_rng(52)
    r, t = random_standard_pair(rng, 2, 3, unitary)
    for alpha in (1.0, 1e-12, 1e12, 1e-200, 1e200):
        assert observable_pair(alpha * r, alpha * t).hermitian is unitary


def test_cluster_centers_are_real_at_any_scale():
    # a real spectrum gives real centers, measured against the largest one,
    # so they scale with the pair and do not turn complex at large scales
    rng = np.random.default_rng(76)
    for k, l in ((2, 2), (2, 3), (3, 4)):
        r, t = random_standard_pair(rng, k, l, unitary=False)
        base = verify_standard_complete(observable_pair(r, t))
        for alpha in (1e-6, 1.0, 1e6):
            cs = verify_standard_complete(observable_pair(alpha * r, alpha * t))
            for got, want in ((cs.r_eigenvalues, base.r_eigenvalues),
                              (cs.t_eigenvalues, base.t_eigenvalues)):
                assert not np.iscomplexobj(got), (k, l, alpha)
                assert np.max(np.abs(got - alpha * want)) <= \
                    1e-10 * alpha * np.max(np.abs(want)), (k, l, alpha)


def test_empty_operator_refused():
    z = np.zeros((0, 0))
    with pytest.raises(DimensionMismatch):
        observable_pair(z, z)


def test_zero_operator_commutes_and_is_self_adjoint():
    z = np.zeros((4, 4), dtype=complex)
    assert observable_pair(z, np.kron(SZ, I2)).hermitian
    assert observable_pair(z, z).hermitian
    assert not observable_pair(z, np.kron(np.array([[1, 1], [0, 1]]), I2)).hermitian


PARITY_SHAPES = [(1, 4), (4, 1), (2, 2), (2, 3), (3, 3), (3, 4), (4, 4), (4, 6)]


@pytest.mark.parametrize("unitary", [True, False])
def test_kernel_matches_reference_loop(unitary):
    rng = np.random.default_rng(53 if unitary else 54)
    for k, l in PARITY_SHAPES:
        r, t = random_standard_pair(rng, k, l, unitary)
        p = observable_pair(r, t)
        want = reference_standard_complete(p, DEFAULT_TOL)
        got = verify_standard_complete(p)
        shape = (k, l, unitary)
        assert (got.k, got.l) == (want.k, want.l) == (k, l), shape
        for a, b in ((got.r_eigenvalues, want.r_eigenvalues),
                     (got.t_eigenvalues, want.t_eigenvalues)):
            assert a.shape == b.shape and np.max(np.abs(a - b)) <= 1e-12, shape
        assert np.max(np.abs(got.grid - want.grid)) <= 1e-10, shape
        for fam_got, fam_want in ((got.M, want.M), (got.N, want.N)):
            assert len(fam_got) == len(fam_want), shape
            for a, b in zip(fam_got, fam_want):
                assert a.shape == b.shape, shape
                assert subspace_residual(a, b) <= 1e-10, shape


FAILING_PAIRS = {
    "multiplicity": (np.diag([0.0, 0, 0, 1]), np.diag([0.0, 1, 2, 3]), True,
                     MultiplicityViolation),
    "defective": (np.kron(np.array([[1, 1], [0, 1]]), I2),
                  np.kron(I2, np.diag([1.0, 2.0])), False, NotDiagonalizable),
    # anticommuting, so the eigenspaces of t are not invariant under r
    "non_invariant": (np.kron(SX, I2), np.kron(SZ, SZ), True, JointDegeneracy),
    "t_multiplicity": (np.diag([0.0, 1, 0, 0]), np.diag([0.0, 0, 1, 2]), True,
                       MultiplicityViolation),
    "t_defective": (np.kron(I2, np.diag([1.0, 2.0])),
                    np.kron(np.array([[1, 1], [0, 1]]), I2), False,
                    NotDiagonalizable),
    # r = t: each joint eigenspace is two-dimensional
    "joint_degenerate": (np.diag([1.0, 1, 2, 2]), np.diag([1.0, 1, 2, 2]), True,
                         JointDegeneracy),
}


@pytest.mark.parametrize("name", sorted(FAILING_PAIRS))
def test_failures_match_reference_loop(name):
    r, t, herm, expected = FAILING_PAIRS[name]
    p = ObservablePair(r=r, t=t)
    assert p.hermitian is herm
    with pytest.raises(TpskitError) as want:
        reference_standard_complete(p, DEFAULT_TOL)
    with pytest.raises(TpskitError) as got:
        verify_standard_complete(p)
    assert type(got.value) is type(want.value) is expected


def test_a_pair_built_directly_reads_its_tag_off_its_operators():
    # a commuting pair that is not self-adjoint cannot be tagged so: its
    # tag is derived, so its spectrum is read by eig, not by eigh
    g = np.array([[1.0, 1.0], [0.0, 1.0]])
    r = np.kron(g @ np.diag([1.0, 2.0]) @ np.linalg.inv(g), I2).astype(complex)
    t = np.kron(I2, np.diag([1.0, 3.0])).astype(complex)
    with pytest.raises(TypeError):
        ObservablePair(r=r, t=t, hermitian=True)
    p = ObservablePair(r=r, t=t)
    assert not p.hermitian and p.hermitian == observable_pair(r, t).hermitian
    cs = verify_standard_complete(p)
    np.testing.assert_allclose(cs.r_eigenvalues, [1.0, 2.0], atol=1e-12)
    np.testing.assert_allclose(cs.t_eigenvalues, [1.0, 3.0], atol=1e-12)
    assert ObservablePair(r=r + r.conj().T, t=t).hermitian


def test_a_built_pair_keeps_the_tag_of_its_tolerance():
    # the tag is observable_pair's verdict at the tolerance it was given;
    # a copy, rebuilt from r and t alone, reads it at DEFAULT_TOL
    r = np.diag([1.0, 1.0, 2.0, 2.0]).astype(complex)
    r[0, 1] = 1e-9
    t = np.diag([1.0, 3.0, 1.0, 3.0]).astype(complex)
    loose = observable_pair(r, t, Tolerance(residual=1e-6))
    assert loose.hermitian and not observable_pair(r, t).hermitian
    assert not copy.copy(loose).hermitian


def _count_kernel_calls(monkeypatch):
    calls = []
    kernel = tpskit.observables._characteristic_sets

    def counted(p, tol):
        calls.append(p)
        return kernel(p, tol)

    monkeypatch.setattr(tpskit.observables, "_characteristic_sets", counted)
    return calls


def test_kernel_runs_once_per_pair(monkeypatch):
    calls = _count_kernel_calls(monkeypatch)
    r, t = random_standard_pair(np.random.default_rng(55), 2, 3)
    p1 = observable_pair(r, t)
    p2 = complementary_pair(p1, verify_standard_complete(p1))
    assert verify_complementary(p1, p2)
    tpp_from_complementary(p1, p2)
    # the partner carries its sets from p1's
    assert len(calls) == 1 and calls[0] is p1


def _pair_on_basis(rng, k, l, cond):
    """A general commuting pair whose joint eigenvector grid has singular
    values log-evenly from 1 to 1/cond."""
    n = k * l
    g = (random_unitary(rng, n) * np.logspace(0, -np.log10(cond), n)) \
        @ random_unitary(rng, n)
    lam = np.arange(k) + rng.uniform(0.1, 0.4, size=k)
    mu = np.arange(l) + rng.uniform(0.1, 0.4, size=l)
    gi = np.linalg.inv(g)
    return observable_pair(g @ np.kron(np.diag(lam), np.eye(l)) @ gi,
                           g @ np.kron(np.eye(k), np.diag(mu)) @ gi)


def _inheriting_pairs():
    """(p1, p2) with p2 built by `complementary_pair`: the corpus's own and
    general first pairs with cond(B) from 1 to 1e2."""
    for kind, p1, p2 in complementary_corpus(np.random.default_rng(1003)):
        if kind in ("chain_M", "scaled_r"):
            yield p1, p2
    rng = np.random.default_rng(1004)
    for cond in (1.0, 10.0, 1e2):
        for k, l in ((2, 2), (2, 3), (3, 2), (3, 4), (4, 4)):
            p1 = _pair_on_basis(rng, k, l, cond)
            yield p1, complementary_pair(p1, verify_standard_complete(p1))


def test_partner_carries_the_kernels_sets():
    for p1, p2 in _inheriting_pairs():
        case = (p1.r.shape, p1.hermitian)
        cs1, got = verify_standard_complete(p1), p2._memo[DEFAULT_TOL]
        want = tpskit.observables._characteristic_sets(p2, DEFAULT_TOL)
        assert got.M is cs1.M, case
        assert (got.k, got.l) == (want.k, want.l), case
        # relative to the spectrum: the scaled_r pairs reach 1e5
        for a, b in ((got.r_eigenvalues, want.r_eigenvalues),
                     (got.t_eigenvalues, want.t_eigenvalues)):
            bound = 1e-12 * max(1.0, np.max(np.abs(b)))
            assert a.shape == b.shape and np.max(np.abs(a - b)) <= bound, case
        assert np.max(np.abs(got.grid - want.grid)) <= 1e-10, case
        for fam_got, fam_want in ((got.M, want.M), (got.N, want.N)):
            assert len(fam_got) == len(fam_want), case
            for a, b in zip(fam_got, fam_want):
                assert subspace_residual(a, b) <= 1e-10, case
        for arr in (got.grid, got.N):
            with pytest.raises(ValueError):
                arr[0] = 0


def test_partner_failing_the_grid_guard_keeps_no_sets(monkeypatch):
    # a self-adjoint p1 takes no conditioning guard; the partner's chained
    # 2x3 grid has cond > 2, so it is refused as the kernel refuses it
    monkeypatch.setattr(tpskit.observables, "COND_LIMIT", 2.0)
    calls = _count_kernel_calls(monkeypatch)
    p1 = observable_pair(*random_standard_pair(np.random.default_rng(55), 2, 3))
    p2 = complementary_pair(p1, verify_standard_complete(p1))
    assert not p2._memo
    for _ in range(2):
        with pytest.raises(NotDiagonalizable):
            verify_standard_complete(p2)
    assert calls == [p1, p2, p2] and not p2._memo


def test_other_tolerance_recomputes(monkeypatch):
    calls = _count_kernel_calls(monkeypatch)
    r, t = random_standard_pair(np.random.default_rng(56), 2, 2)
    p = observable_pair(r, t)
    cs = verify_standard_complete(p)
    loose = Tolerance(eig_cluster=1e-7)
    other = verify_standard_complete(p, loose)
    assert len(calls) == 2 and other is not cs
    assert verify_standard_complete(p) is cs
    assert verify_standard_complete(p, Tolerance(eig_cluster=1e-7)) is other
    assert len(calls) == 2


@pytest.mark.parametrize("unitary", [True, False])
def test_observable_grid_takes_one_svd(monkeypatch, unitary):
    r, t = random_standard_pair(np.random.default_rng(58), 3, 4, unitary)
    calls = count_calls(monkeypatch, np.linalg, "svd")
    p = observable_pair(r, t)
    tps = tps_from_observables(p)
    assert tps.shape == (3, 4)
    np.testing.assert_array_equal(tps.basis, verify_standard_complete(p).grid)
    # a general grid's rank test in the characteristic sets, none in building
    # the Tps; a self-adjoint pair's grid is unitary by construction
    assert [args[0].shape for args in calls] == ([] if unitary else [(12, 12)])


@pytest.mark.parametrize("unitary", [True, False])
def test_complementary_pair_factors_the_grid_once(monkeypatch, unitary):
    r, t = random_standard_pair(np.random.default_rng(61), 2, 3, unitary)
    p1 = observable_pair(r, t)
    cs = verify_standard_complete(p1)
    chained = np.kron(_chain_matrix(cs.r_eigenvalues.astype(complex)), np.eye(3))
    reference = cs.grid @ chained @ np.linalg.inv(cs.grid)
    inverses = count_calls(monkeypatch, np.linalg, "inv")
    p2 = complementary_pair(p1, cs)
    # the grid's inverse is that of its Tps: the adjoint of a self-adjoint
    # pair's unitary grid, one LU otherwise
    assert len(inverses) == (0 if unitary else 1)
    assert np.linalg.norm(p2.r - reference) <= 1e-12 * np.linalg.norm(reference)
    assert verify_complementary(p1, p2)


@pytest.mark.parametrize("unitary", [True, False])
def test_complementary_grid_of_a_self_adjoint_pair_keeps_its_adjoint(
        monkeypatch, unitary):
    r, t = random_standard_pair(np.random.default_rng(62), 2, 3, unitary)
    p1 = observable_pair(r, t)
    p2 = complementary_pair(p1, verify_standard_complete(p1))
    assert verify_complementary(p1, p2)
    inverses = count_calls(monkeypatch, np.linalg, "inv")
    svds = count_calls(monkeypatch, np.linalg, "svd")
    _, _, structure = tpp_from_complementary(p1, p2)
    # the kernel's batched SVD of the fiber systems; then a unitary grid
    # takes no rank test and no LU, a general one the rank test of tps_new
    # and its LU, and tps_to_tpp no SVD
    assert (len(inverses), len(svds)) == ((0, 1) if unitary else (1, 2))
    assert svds[0][0].ndim == 3
    if unitary:
        np.testing.assert_array_equal(structure.inverse,
                                      structure.basis.conj().T)


@pytest.mark.parametrize("unitary", [True, False])
def test_characteristic_sets_take_two_eigendecompositions(monkeypatch, unitary):
    r, t = random_standard_pair(np.random.default_rng(60), 2, 3, unitary)
    p = observable_pair(r, t)
    used, unused = ("eigh", "eig") if unitary else ("eig", "eigh")
    eigs = count_calls(monkeypatch, np.linalg, used)
    others = count_calls(monkeypatch, np.linalg, unused)
    clusters = count_calls(monkeypatch, tpskit.observables, "cluster_values")
    verify_standard_complete(p)
    # t, then the stacked restrictions of r to its three eigenspaces
    assert [args[0].shape for args in eigs] == [(6, 6), (3, 2, 2)]
    assert others == [] and [args[0].size for args in clusters] == [6, 6]


def test_pair_and_sets_are_read_only():
    r, t = random_standard_pair(np.random.default_rng(57), 2, 2)
    p = observable_pair(r, t)
    cs = verify_standard_complete(p)
    for arr in (p.r, p.t, cs.grid, cs.M, cs.N, cs.r_eigenvalues):
        with pytest.raises(ValueError):
            arr[0] = 0
    # the caller's arrays are copied, not frozen
    r[0, 0] += 1
    assert p.r[0, 0] != r[0, 0]


def test_copies_of_a_pair_keep_nothing(monkeypatch):
    # a copy is rebuilt through __init__: read-only operators of its own and
    # an empty memo, so it computes its characteristic sets again
    p = observable_pair(*random_standard_pair(np.random.default_rng(75), 2, 3))
    grid = verify_standard_complete(p).grid
    assert p._memo
    calls = _count_kernel_calls(monkeypatch)
    for twin in (pickle.loads(pickle.dumps(p)), copy.copy(p), copy.deepcopy(p)):
        assert not twin._memo and twin.hermitian == p.hermitian
        for arr, orig in ((twin.r, p.r), (twin.t, p.t)):
            assert arr is not orig and np.array_equal(arr, orig)
            with pytest.raises(ValueError):
                arr[0, 0] = 0
        calls.clear()
        assert np.array_equal(verify_standard_complete(twin).grid, grid)
        assert len(calls) == 1


def test_failing_pair_not_memoised(monkeypatch):
    calls = _count_kernel_calls(monkeypatch)
    r, t, herm, expected = FAILING_PAIRS["multiplicity"]
    p = ObservablePair(r=r, t=t)
    assert p.hermitian is herm
    for _ in range(2):
        with pytest.raises(expected):
            verify_standard_complete(p)
    assert len(calls) == 2


def test_check_then_build_solves_the_condition_once(monkeypatch):
    calls = count_calls(monkeypatch, tpskit.observables, "_fiber_scales")
    r, t = random_standard_pair(np.random.default_rng(58), 2, 3)
    p1 = observable_pair(r, t)
    p2 = complementary_pair(p1, verify_standard_complete(p1))
    assert verify_complementary(p1, p2)
    a1, a2, _ = tpp_from_complementary(p1, p2)
    # nothing is kept between the calls: each solves it once
    assert len(calls) == 2
    assert contains(a1, p2.r) and contains(a2, p2.t)


def test_other_partner_or_tolerance_retests_complementarity(monkeypatch):
    calls = count_calls(monkeypatch, tpskit.observables, "_fiber_scales")
    r, t = random_standard_pair(np.random.default_rng(59), 2, 2)
    p1 = observable_pair(r, t)
    p2 = complementary_pair(p1, verify_standard_complete(p1))
    twin = observable_pair(p2.r, p2.t)
    assert verify_complementary(p1, p2) and len(calls) == 1
    assert verify_complementary(p1, twin) and len(calls) == 2
    assert verify_complementary(p1, p2, Tolerance(eig_cluster=1e-7))
    assert len(calls) == 3
    # the same question asked again is decided again, a refusal included;
    # only p1's own sets are kept, by Tolerance
    assert verify_complementary(p1, p2) and len(calls) == 4
    for _ in range(2):
        assert not verify_complementary(p1, p1)
    assert len(calls) == 8
    assert DEFAULT_TOL in p1._memo


def test_a_pair_that_verifies_is_built_at_cond_1e5():
    # a general 2x3 first pair whose grid has cond 1e5; r1's relative
    # residual in the built first algebra is about 1.2e-8, past a fixed
    # 1e-8 membership bound, yet the grid is the first pair's own
    rng = np.random.default_rng(5009)
    q1, q2 = (np.linalg.qr(rng.normal(size=(6, 6)) + 1j * rng.normal(size=(6, 6)))[0]
              for _ in range(2))
    g = (q1 * np.logspace(0, 5, 6)) @ q2
    lam = np.arange(2) + rng.uniform(0.1, 0.4, size=2)
    mu = np.arange(3) + rng.uniform(0.1, 0.4, size=3)
    gi = np.linalg.inv(g)
    p1 = observable_pair(g @ np.kron(np.diag(lam), np.eye(3)) @ gi,
                         g @ np.kron(np.eye(2), np.diag(mu)) @ gi)
    p2 = complementary_pair(p1, verify_standard_complete(p1))
    assert verify_complementary(p1, p2)
    _, _, structure = tpp_from_complementary(p1, p2)
    assert structure.shape == (2, 3)
    assert tps_equivalent(structure, tps_from_observables(p1)).equivalent


def test_the_rank_guard_refuses_what_the_conditioning_guard_lets_through():
    # a general 2x3 pair whose grid has cond(B) 1e4-3e4, below COND_LIMIT:
    # a rank_rel above 1 / COND_LIMIT makes the grid rank deficient
    rng = np.random.default_rng(5011)
    for _ in range(4):
        p = _pair_on_basis(rng, 2, 3, 2e4)
        s = np.linalg.svd(verify_standard_complete(p).grid, compute_uv=False)
        assert 1e4 < s[0] / s[-1] < 3e4
        with pytest.raises(JointDegeneracy, match="not linearly independent"):
            verify_standard_complete(p, Tolerance(rank_rel=1e-3))


def test_verify_and_build_decide_general_pairs_alike():
    # general first pairs at cond 1e2-1e5, each with its chained partner
    # (complementary) and against itself (not): the build refuses exactly
    # what the check refuses, for the same reason, and builds p1's grid
    rng = np.random.default_rng(5010)
    built = 0
    for cond in np.logspace(2, 5, 8):
        for k, l in ((2, 2), (2, 3), (3, 2), (3, 3), (2, 4), (3, 4)):
            for _ in range(3):
                p1 = _pair_on_basis(rng, k, l, cond)
                partner = _outcome(
                    lambda: complementary_pair(p1, verify_standard_complete(p1)))
                if not isinstance(partner, ObservablePair):
                    continue
                for p2 in (partner, p1):
                    case = (cond, k, l, p2 is p1)
                    verdict = _outcome(lambda: verify_complementary(p1, p2))
                    got = _outcome(lambda: tpp_from_complementary(p1, p2))
                    if verdict is True:
                        assert isinstance(got, tuple), case
                        assert tps_equivalent(
                            got[2], tps_from_observables(p1)).equivalent, case
                        built += 1
                    else:
                        assert got is (NotComplementary if verdict is False
                                       else verdict), case
    assert built >= 120


def test_fiber_scales_refuse_a_family_op2_does_not_keep():
    # the eigenspaces of t1 against a generic op2, which maps them out of
    # themselves: no restriction, so no scales; the partner's r keeps them
    rng = np.random.default_rng(63)
    p1 = observable_pair(*random_standard_pair(rng, 2, 3))
    cs = verify_standard_complete(p1)
    cells = cs.grid.reshape(-1, 2, 3).transpose(2, 0, 1)
    generic = rng.normal(size=(6, 6)) + 1j * rng.normal(size=(6, 6))
    fiber_scales = tpskit.observables._fiber_scales
    assert fiber_scales(generic, cs.M, cells, DEFAULT_TOL) is None
    partner = complementary_pair(p1, cs)
    assert fiber_scales(partner.r, cs.M, cells, DEFAULT_TOL) is not None


def test_restriction_bound_is_relative_to_the_operator():
    rng = np.random.default_rng(60)
    u = random_unitary(rng, 4)
    op = u @ np.diag([1.0, 2.0, 3.0, 4.0]) @ u.conj().T
    invariant = u[:, :2].reshape(1, 4, 2)
    other = np.eye(4, dtype=complex)[:, :2].reshape(1, 4, 2)
    for alpha in (1.0, 1e-9):
        assert tpskit.observables._restriction(alpha * op, invariant, DEFAULT_TOL) is not None
        assert tpskit.observables._restriction(alpha * op, other, DEFAULT_TOL) is None
