import numpy as np
import pytest

import tpskit.algebra
from tpskit import (
    algebra_generate,
    commutant,
    god_given,
    is_inner_product_compatible,
    is_tpp,
    join,
    span_equal,
    tpp_to_tps,
    tps_equivalent,
    tps_new,
    tps_to_tpp,
)
from tpskit.algebra import OperatorAlgebra, _diagnose, _hermitian_span, contains
from tpskit.core import DEFAULT_TOL
from tpskit.errors import GenericElementFailure, NonUnital, NotATpp

from util import SHAPES, forbid_algebra, random_invertible, random_unitary

XX = np.kron(np.array([[0, 1], [1, 0]]), np.array([[0, 1], [1, 0]])).astype(complex)
ZZ = np.kron(np.diag([1, -1]), np.diag([1, -1])).astype(complex)


def test_generate_pauli_pair_closes_at_dim_four():
    a = algebra_generate([XX, ZZ])
    assert a.dim == 4
    yy = XX @ ZZ
    assert contains(a, yy)
    assert contains(a, np.eye(4))


def test_generate_nilpotent():
    e01 = np.array([[0, 1], [0, 0]], dtype=complex)
    a = algebra_generate([e01])
    assert a.dim == 2


def test_generate_idempotent():
    rng = np.random.default_rng(30)
    g = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
    a = algebra_generate([g])
    again = algebra_generate(list(a.span_basis), include_identity=False)
    assert again.dim == a.dim
    assert span_equal(a, again)


def test_full_matrix_algebra_from_generic_pair():
    rng = np.random.default_rng(31)
    g1 = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
    g2 = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
    a = algebra_generate([g1, g2])
    assert a.dim == 9
    assert commutant(a).dim == 1


def test_bicommutant_for_star_closed():
    rng = np.random.default_rng(32)
    for n, k, l in ((4, 2, 2), (6, 2, 3)):
        t = tps_new(k, l, random_unitary(rng, n))
        a1, _ = tps_to_tpp(t)
        assert span_equal(commutant(commutant(a1)), a1)


def test_tps_to_tpp_mutual_commutants():
    rng = np.random.default_rng(33)
    for k, l in ((2, 2), (2, 3), (3, 3)):
        n = k * l
        t = tps_new(k, l, random_invertible(rng, n))
        a1, a2 = tps_to_tpp(t)
        assert a1.dim == k * k and a2.dim == l * l
        assert span_equal(commutant(a1), a2)
        assert span_equal(commutant(a2), a1)
        assert a1.dim * a2.dim == n * n


def test_join_reaches_full_algebra():
    rng = np.random.default_rng(34)
    t = tps_new(2, 3, random_invertible(rng, 6))
    a1, a2 = tps_to_tpp(t)
    j = join(a1, a2)
    assert j.dim == 36
    assert contains(j, a1.span_basis[0]) and contains(j, a2.span_basis[0])


def test_is_tpp_certifies_induced_pair():
    rng = np.random.default_rng(35)
    t = tps_new(2, 3, random_unitary(rng, 6))
    a1, a2 = tps_to_tpp(t)
    verdict = is_tpp(a1, a2)
    assert verdict.is_tpp and (verdict.k, verdict.l) == (2, 3)
    assert all(verdict.checks.values())


def test_is_tpp_rejects_full_vs_full():
    rng = np.random.default_rng(36)
    g1 = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    full = algebra_generate([g1, g1.conj().T])
    assert full.dim == 16
    verdict = is_tpp(full, full)
    assert not verdict.is_tpp
    assert not verdict.checks["commute"]


def test_is_tpp_rejects_abelian_center():
    diag = algebra_generate([np.diag([1.0, 2, 3, 4]).astype(complex)])
    verdict = is_tpp(diag, diag)
    assert not verdict.is_tpp
    assert not verdict.checks["trivial_center"]


def test_is_tpp_requires_unital_inputs():
    e01 = np.array([[0, 1], [0, 0]], dtype=complex)
    flat = e01.reshape(1, 2, 2) / np.linalg.norm(e01)
    nonunital = OperatorAlgebra(dim_space=2, span_basis=flat, unital=False)
    other = algebra_generate([np.eye(2, dtype=complex)])
    with pytest.raises(NonUnital):
        is_tpp(nonunital, other)


def test_tpp_to_tps_round_trip():
    rng = np.random.default_rng(37)
    for k, l in ((2, 2), (2, 3), (3, 3)):
        t = tps_new(k, l, random_unitary(rng, k * l))
        a1, a2 = tps_to_tpp(t)
        back = tpp_to_tps(a1, a2, seed=5)
        assert back.shape == (k, l)
        assert is_inner_product_compatible(back)
        assert tps_equivalent(t, back).equivalent


def test_tpp_to_tps_seed_independence():
    rng = np.random.default_rng(38)
    t = tps_new(2, 3, random_unitary(rng, 6))
    a1, a2 = tps_to_tpp(t)
    t_a = tpp_to_tps(a1, a2, seed=1)
    t_b = tpp_to_tps(a1, a2, seed=2)
    assert tps_equivalent(t_a, t_b).equivalent


def test_tpp_to_tps_rejects_non_tpp():
    diag = algebra_generate([np.diag([1.0, 2, 3, 4]).astype(complex)])
    with pytest.raises(NotATpp):
        tpp_to_tps(diag, diag)


def _parity_corpus():
    """Seeded algebra pairs, each with the checks it must fail (none for a
    factor pair of a unitary grid)."""
    rng = np.random.default_rng(40)
    corpus = []
    for k, l in SHAPES:
        pair = tps_to_tpp(tps_new(k, l, random_unitary(rng, k * l)))
        corpus.append((f"unitary {k}x{l}", pair, set()))
    for k, l in ((2, 2), (2, 3), (3, 3)):
        pair = tps_to_tpp(tps_new(k, l, random_invertible(rng, k * l)))
        corpus.append((f"invertible {k}x{l}", pair, {"star_closed"}))
    diag = algebra_generate([np.diag([1.0, 2, 3, 4]).astype(complex)])
    corpus.append(("abelian", (diag, diag), {"trivial_center"}))
    g = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    full = algebra_generate([g, g.conj().T])
    corpus.append(("full vs full", (full, full), {"commute"}))
    # A1 of a grid against the algebra of one generic second-factor observable
    u = random_unitary(rng, 6)
    a1, _ = tps_to_tpp(tps_new(2, 3, u))
    mu = np.arange(3) + rng.uniform(0.1, 0.4, size=3)
    obs = u @ np.kron(np.eye(2), np.diag(mu)) @ u.conj().T
    corpus.append(("incomplete", (a1, algebra_generate([obs])), {"dims_square"}))
    b1, _ = tps_to_tpp(tps_new(2, 2, random_unitary(rng, 4)))
    _, b2 = tps_to_tpp(tps_new(2, 2, random_unitary(rng, 4)))
    corpus.append(("unrelated grids", (b1, b2), {"commute"}))
    return corpus


def test_is_tpp_matches_six_check_diagnostic():
    for name, (a1, a2), must_fail in _parity_corpus():
        got, full = is_tpp(a1, a2), _diagnose(a1, a2, DEFAULT_TOL)
        assert (got.is_tpp, got.k, got.l, got.checks) == \
            (full.is_tpp, full.k, full.l, full.checks), name
        assert list(got.checks) == list(full.checks), name
        failed = {check for check, ok in got.checks.items() if not ok}
        assert must_fail <= failed and got.is_tpp == (not must_fail), name


def test_certified_pair_needs_no_commutant_or_join(monkeypatch):
    rng = np.random.default_rng(41)
    t = tps_new(3, 4, random_unitary(rng, 12))
    a1, a2 = tps_to_tpp(t)
    forbid_algebra(monkeypatch, "commutant", "join")
    verdict = is_tpp(a1, a2)
    assert verdict.is_tpp and (verdict.k, verdict.l) == (3, 4)
    assert tps_equivalent(t, tpp_to_tps(a1, a2, seed=3)).equivalent


def test_tpp_to_tps_does_not_call_is_tpp(monkeypatch):
    rng = np.random.default_rng(42)
    t = tps_new(2, 3, random_unitary(rng, 6))
    a1, a2 = tps_to_tpp(t)
    forbid_algebra(monkeypatch, "is_tpp")
    assert tps_equivalent(t, tpp_to_tps(a1, a2)).equivalent


def test_tpp_to_tps_names_failing_checks():
    diag = algebra_generate([np.diag([1.0, 2, 3, 4]).astype(complex)])
    checks = is_tpp(diag, diag).checks
    with pytest.raises(NotATpp) as err:
        tpp_to_tps(diag, diag)
    for name, ok in checks.items():
        assert (name in str(err.value)) == (not ok), name


def test_diagnostics_decide_when_no_witness_is_found(monkeypatch):
    rng = np.random.default_rng(43)
    a1, a2 = tps_to_tpp(tps_new(2, 2, random_unitary(rng, 4)))
    monkeypatch.setattr(tpskit.algebra, "_witness", lambda *args: None)
    verdict = is_tpp(a1, a2)
    assert verdict.is_tpp and all(verdict.checks.values())
    with pytest.raises(GenericElementFailure):
        tpp_to_tps(a1, a2)


def test_svd_fallback_gives_the_same_span(monkeypatch):
    # the first SVD fails to converge, so that span is found by gesvd
    rng = np.random.default_rng(44)
    t = tps_new(2, 3, random_invertible(rng, 6))
    expected = tps_to_tpp(t)
    svd, calls = np.linalg.svd, []

    def fails_once(*args, **kwargs):
        calls.append(args[0].shape)
        if len(calls) == 1:
            raise np.linalg.LinAlgError("SVD did not converge")
        return svd(*args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", fails_once)
    got = tps_to_tpp(t)
    assert len(calls) == 2
    for a, b in zip(got, expected):
        assert a.dim == b.dim and a.unital
        assert span_equal(a, b)


def test_hermitian_span_interleaves_parts():
    # each orthonormal direction h contributes (h + h†)/2, then (h - h†)/2i
    rng = np.random.default_rng(31)
    a1, _ = tps_to_tpp(tps_new(2, 3, random_invertible(rng, 6)))
    g = a1.span_basis
    gh = np.transpose(g.conj(), (0, 2, 1))
    herm = tpskit.algebra._orthonormal_span(
        np.concatenate([(g + gh) / 2, (g - gh) / 2j]), DEFAULT_TOL.rank_rel)
    parts = []
    for h in herm:
        parts += [(h + h.conj().T) / 2, (h - h.conj().T) / 2j]
    parts = np.array(parts)
    keep = np.linalg.norm(parts.reshape(len(parts), -1), axis=1) > 1e-10
    assert np.array_equal(_hermitian_span(a1, DEFAULT_TOL), parts[keep])
