import copy
import dataclasses
import pickle
import sys
import tracemalloc

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
    swap_factors,
    tpp_to_tps,
    tps_equivalent,
    tps_new,
    tps_to_tpp,
)
from tpskit.algebra import OperatorAlgebra, _diagnose, contains
from tpskit.core import DEFAULT_TOL, Tolerance
from tpskit.observables import (
    CharacteristicSets,
    ObservablePair,
    observable_pair,
    verify_standard_complete,
)
from tpskit.poly import PolyState, poly_state
from tpskit.tps import SchmidtReport, Tps
from tpskit.errors import DimensionMismatch, GenericElementFailure, NonUnital, NotATpp

from util import (
    SHAPES,
    count_calls,
    forbid_algebra,
    near_unitary,
    random_invertible,
    random_standard_pair,
    random_unitary,
)
from oracles import reference_induces

XX = np.kron(np.array([[0, 1], [1, 0]]), np.array([[0, 1], [1, 0]])).astype(complex)
ZZ = np.kron(np.diag([1, -1]), np.diag([1, -1])).astype(complex)


def _on_four_and_six():
    """A unital algebra on C^4 and one on C^6."""
    return algebra_generate([XX, ZZ]), tps_to_tpp(god_given(2, 3))[0]


@pytest.mark.parametrize("call, refused", [
    (lambda: algebra_generate([]), DimensionMismatch),
    (lambda: algebra_generate([np.eye(2), np.eye(3)]), DimensionMismatch),
    (lambda: join(*_on_four_and_six()), DimensionMismatch),
    (lambda: is_tpp(*_on_four_and_six()), DimensionMismatch),
    (lambda: tps_equivalent(god_given(2, 2), god_given(2, 3)), DimensionMismatch),
    (lambda: span_equal(*_on_four_and_six()), None),
], ids=["generate_nothing", "generate_mixed_shapes", "join_across_spaces",
        "is_tpp_across_spaces", "equivalent_across_dims", "span_equal_across_spaces"])
def test_inputs_on_different_spaces_are_refused(call, refused):
    # span_equal answers False rather than raise: spans on different spaces
    # are not equal
    if refused is None:
        assert call() is False
    else:
        with pytest.raises(refused):
            call()


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
    again = algebra_generate(list(a.span_basis))
    assert again.dim == a.dim
    assert span_equal(a, again)


def _known_dimension_corpus(rng, n):
    """(name, generators, dimension of the algebra they generate) at size n."""
    def gauss():
        return rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))

    yield "generic", [gauss()], n
    h = gauss()
    yield "hermitian", [h + h.conj().T], n
    m = (n + 1) // 2  # each of 1..m once or twice on the diagonal
    yield "diagonal", [np.diag(rng.permutation(np.arange(n) % m + 1.0))], m
    yield "jordan", [2 * np.eye(n) + np.eye(n, k=1)], n
    yield "upper", [np.triu(gauss()), np.triu(gauss())], n * (n + 1) // 2
    u = random_unitary(rng, n)
    for k in range(2, n):
        if n % k == 0:  # U (M_k ox 1) U^*, from its k^2 matrix units
            units = np.eye(k * k).reshape(k * k, k, k)
            yield f"factor {k}", [u @ np.kron(e, np.eye(n // k)) @ u.conj().T
                                  for e in units], k * k
    a = n // 2 + 1
    b = n - a

    def two_blocks():
        x = np.zeros((n, n), dtype=complex)
        x[:a, :a] = rng.normal(size=(a, a))
        x[a:, a:] = rng.normal(size=(b, b))
        return u @ x @ u.conj().T

    yield f"blocks {a}+{b}", [two_blocks(), two_blocks()], a * a + b * b


@pytest.mark.parametrize("scale", [1.0, 1e-20, 1e20])
def test_generate_known_dimensions(scale):
    rng = np.random.default_rng(29)
    for n in range(2, 13):
        for name, gens, dim in _known_dimension_corpus(rng, n):
            a = algebra_generate([scale * g for g in gens])
            assert a.dim == dim and a.unital, (n, name, a.dim)
            assert all(contains(a, g) for g in gens), (n, name)


@pytest.mark.parametrize("scale", [1e-12, 1e12])
def test_generate_scaled_nilpotent_is_unital(scale):
    a = algebra_generate([scale * np.array([[0, 1], [0, 0]], dtype=complex)])
    assert a.dim == 2 and a.unital


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


def test_commutant_recheck_drops_a_near_null_direction():
    # the first algebra of a 2x4 grid at cond 1e8: the Gram eigenvalue cut
    # of `intertwiners` keeps a 17th direction whose commutator residual is
    # about 6e-7; the recheck drops it, leaving the 16 of 1 ox M_4
    rng = np.random.default_rng(0)
    b = (random_unitary(rng, 8) * np.logspace(0, -8, 8)) @ random_unitary(rng, 8)
    a1, _ = tps_to_tpp(tps_new(2, 4, b))
    assert a1.dim == 4 and commutant(a1).dim == 16


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
    # unital is read off the span, so the span of E_01 cannot claim it
    e01 = np.array([[0, 1], [0, 0]], dtype=complex)
    flat = e01.reshape(1, 2, 2) / np.linalg.norm(e01)
    nonunital = OperatorAlgebra(span_basis=flat)
    other = algebra_generate([np.eye(2, dtype=complex)])
    assert not nonunital.unital and other.unital
    for pair in ((nonunital, other), (other, nonunital)):
        with pytest.raises(NonUnital):
            is_tpp(*pair)


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
    """Seeded algebra pairs, each with exactly the checks it fails (none for a
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
    corpus.append(("abelian", (diag, diag), {"trivial_center", "join_full"}))
    g = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    full = algebra_generate([g, g.conj().T])
    corpus.append(("full vs full", (full, full),
                   {"commute", "dims_square", "mutual_commutant", "join_full"}))
    # A1 of a grid against the algebra of one generic second-factor observable
    u = random_unitary(rng, 6)
    a1, _ = tps_to_tpp(tps_new(2, 3, u))
    mu = np.arange(3) + rng.uniform(0.1, 0.4, size=3)
    obs = u @ np.kron(np.eye(2), np.diag(mu)) @ u.conj().T
    corpus.append(("incomplete", (a1, algebra_generate([obs])),
                   {"dims_square", "mutual_commutant", "trivial_center", "join_full"}))
    b1, _ = tps_to_tpp(tps_new(2, 2, random_unitary(rng, 4)))
    _, b2 = tps_to_tpp(tps_new(2, 2, random_unitary(rng, 4)))
    corpus.append(("unrelated grids", (b1, b2),
                   {"commute", "mutual_commutant", "join_full"}))
    return corpus


def test_is_tpp_matches_six_check_diagnostic():
    # each pair as built, and as grid-less copies certified by draws alone
    for name, pair, must_fail in _parity_corpus():
        verdicts = []
        for a1, a2 in (pair, tuple(map(copy.copy, pair))):
            got, full = is_tpp(a1, a2), _diagnose(a1, a2, DEFAULT_TOL)
            assert (got.is_tpp, got.k, got.l, got.checks) == \
                (full.is_tpp, full.k, full.l, full.checks), name
            assert list(got.checks) == list(full.checks), name
            failed = {check for check, ok in got.checks.items() if not ok}
            assert failed == must_fail and got.is_tpp == (not must_fail), name
            verdicts.append((got.is_tpp, got.k, got.l, dict(got.checks)))
        assert verdicts[0] == verdicts[1], name


def test_checks_are_python_bools():
    # the CLI emits them as JSON, which refuses numpy's bool_
    for name, pair, _ in _parity_corpus():
        for a1, a2 in (pair, tuple(map(copy.copy, pair))):
            for verdict in (is_tpp(a1, a2), _diagnose(a1, a2, DEFAULT_TOL)):
                assert all(type(v) is bool for v in verdict.checks.values()), name


def test_non_commuting_rejection_forms_no_product_stack():
    # two copies of M_9: all 81 x 81 products x y would take 8.5 MB, and the
    # commutators as much again
    n = 9
    full = OperatorAlgebra(span_basis=np.eye(n * n).reshape(-1, n, n))
    tracemalloc.start()
    try:
        verdict = _diagnose(full, full, DEFAULT_TOL)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4e6, peak
    assert verdict.checks == {"commute": False, "star_closed": True,
                              "dims_square": False, "mutual_commutant": False,
                              "trivial_center": True, "join_full": False}


def test_commuting_rejection_closes_no_algebra(monkeypatch):
    corpus = {name: pair for name, pair, _ in _parity_corpus()}
    forbid_algebra(monkeypatch, "join", "algebra_generate")
    for name in ("abelian", "incomplete"):
        verdict = is_tpp(*corpus[name])
        assert verdict.checks["commute"] and not verdict.checks["join_full"], name


def test_join_full_agrees_with_the_join(monkeypatch):
    rng = np.random.default_rng(64)
    pairs = [pair for _, pair, _ in _parity_corpus()]
    for k, l in SHAPES:
        u = random_unitary(rng, k * l)
        a1, _ = tps_to_tpp(tps_new(k, l, u))
        obs = u @ np.kron(np.eye(k), np.diag(np.geomspace(1, 1e3, l))) @ u.conj().T
        pairs.append((a1, algebra_generate([obs])))
    for k, l in ((2, 2), (2, 3), (3, 3)):  # the corpus has larger unitary grids
        for b in (random_unitary(rng, k * l), random_invertible(rng, k * l)):
            pairs.append(tps_to_tpp(tps_new(k, l, b)))
    monkeypatch.setattr(tpskit.algebra, "_witness", lambda *args: None)
    commuting = 0
    for a1, a2 in pairs:
        checks = is_tpp(a1, a2).checks
        if checks["commute"]:
            commuting += 1
            n = a1.dim_space
            assert checks["join_full"] == (join(a1, a2).dim == n * n), (a1.dim, a2.dim)
    assert commuting == len(pairs) - 2  # all but full vs full and unrelated grids


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
    # the first SVD of a closed span (as algebra_from_json reads one) fails
    # to converge, so that span is found from the SVD of the stack's
    # triangular factor R, without scipy
    monkeypatch.setitem(sys.modules, "scipy", None)
    rng = np.random.default_rng(44)
    t = tps_new(2, 3, random_invertible(rng, 6))
    spans = _factor_spans(t)
    expected = [tpskit.algebra._from_closed_span(g, DEFAULT_TOL) for g in spans]
    svd, calls = np.linalg.svd, []

    def fails_once(*args, **kwargs):
        calls.append(args[0].shape)
        if len(calls) == 1:
            raise np.linalg.LinAlgError("SVD did not converge")
        return svd(*args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", fails_once)
    got = [tpskit.algebra._from_closed_span(g, DEFAULT_TOL) for g in spans]
    # failed, retried on the triangular factor R, then the second span
    assert calls == [(4, 36), (4, 36), (9, 36)]
    for a, b in zip(got, expected):
        assert a.dim == b.dim and a.unital
        assert span_equal(a, b)


def test_generic_hermitian_lies_in_the_algebra():
    rng = np.random.default_rng(45)
    algebras = []
    for k, l in ((2, 2), (2, 3), (3, 3), (3, 4), (4, 4)):
        algebras += tps_to_tpp(tps_new(k, l, random_unitary(rng, k * l)))
    e01 = np.zeros((3, 3), dtype=complex)
    e01[0, 1] = 1.0
    m2_plus_c = algebra_generate([e01, e01.T])
    assert m2_plus_c.dim == 5
    scalars = algebra_generate([np.eye(3, dtype=complex)])
    assert scalars.dim == 1
    for a in algebras + [m2_plus_c, scalars]:
        h = tpskit.algebra._draw_generic_hermitian(a, rng)
        assert np.array_equal(h, h.conj().T)
        assert np.linalg.norm(h) > 0 and contains(a, h)


def test_a_transport_that_misses_a_fiber_falls_back_to_the_six_checks(monkeypatch):
    rng = np.random.default_rng(46)
    t = tps_new(2, 3, random_unitary(rng, 6))
    a1, a2 = map(copy.copy, tps_to_tpp(t))  # no grid: the witness is drawn
    draw, drawn = tpskit.algebra._draw_generic_hermitian, []

    def identity_as_transport(a, gen):
        # t is drawn first, then the transport b; the identity moves no fiber
        drawn.append(a)
        return np.eye(6, dtype=complex) if len(drawn) == 2 else draw(a, gen)

    monkeypatch.setattr(tpskit.algebra, "_draw_generic_hermitian",
                        identity_as_transport)
    assert tpskit.algebra._witness(a1, a2, 0, DEFAULT_TOL) is None
    drawn.clear()
    verdict = is_tpp(a1, a2)
    assert verdict.is_tpp and verdict.tps is None
    assert dict(verdict.checks) == dict.fromkeys(tpskit.algebra._CHECKS, True)
    drawn.clear()
    with pytest.raises(GenericElementFailure):
        tpp_to_tps(a1, a2, seed=0)
    monkeypatch.undo()
    assert tps_equivalent(t, tpp_to_tps(a1, a2, seed=0)).equivalent


def test_a_unitary_grids_pair_is_certified_by_its_grid_alone(monkeypatch):
    # tps_to_tpp(t) induces its pair by construction: the one test is that
    # t is unitary, with no span read and no draw
    rng = np.random.default_rng(73)
    grids = [tps_new(k, l, random_unitary(rng, k * l))
             for k, l in ((2, 2), (2, 3), (3, 3), (4, 4), (5, 5), (6, 6))]
    pairs = [tps_to_tpp(t) for t in grids]
    forbid_algebra(monkeypatch, "_grid_spans", "_projection_residual",
                   "_draw_generic_hermitian")
    for t, pair in zip(grids, pairs):
        verdict = is_tpp(*pair)
        assert verdict.is_tpp and verdict.tps is t and (verdict.k, verdict.l) == t.shape
        assert tpp_to_tps(*pair, seed=5) is t


def test_a_grids_pair_out_of_order_is_not_certified_by_that_grid():
    # t induces (a1, a2) only: the swapped pair is certified by a drawn
    # witness of shape l x k, and one algebra twice is no factor pair
    rng = np.random.default_rng(75)
    for k, l in ((2, 2), (2, 3), (3, 3)):
        t = tps_new(k, l, random_unitary(rng, k * l))
        a1, a2 = tps_to_tpp(t)
        swapped = is_tpp(a2, a1)
        assert swapped.is_tpp and (swapped.k, swapped.l) == (l, k)
        assert swapped.tps is not t
        assert tps_equivalent(swap_factors(t), swapped.tps).equivalent
        for a in (a1, a2):
            verdict = is_tpp(a, a)
            assert not verdict.is_tpp and verdict.tps is None, (k, l)


def test_a_zero_transport_is_refused_before_any_division(monkeypatch):
    a1, a2 = map(copy.copy,
                 tps_to_tpp(tps_new(2, 3, random_unitary(np.random.default_rng(69), 6))))
    draw, drawn = tpskit.algebra._draw_generic_hermitian, []

    def zero_as_transport(a, gen):
        drawn.append(a)
        return np.zeros((6, 6), dtype=complex) if len(drawn) == 2 else draw(a, gen)

    monkeypatch.setattr(tpskit.algebra, "_draw_generic_hermitian",
                        zero_as_transport)
    with np.errstate(all="raise"):
        assert tpskit.algebra._witness(a1, a2, 0, DEFAULT_TOL) is None


def test_unitary_factor_pairs_are_certified_without_rebuilding_them(monkeypatch):
    rng = np.random.default_rng(47)
    pairs = []
    for k, l in ((2, 2), (2, 3), (3, 3), (3, 4), (4, 4)):
        t = tps_new(k, l, random_unitary(rng, k * l))
        pairs.append((t, tps_to_tpp(t)))
    forbid_algebra(monkeypatch, "tps_to_tpp", "span_equal", "commutant", "join")
    for t, (a1, a2) in pairs:
        verdict = is_tpp(a1, a2)
        assert verdict.is_tpp and (verdict.k, verdict.l) == t.shape
        back = tpp_to_tps(a1, a2, seed=4)
        assert is_inner_product_compatible(back)
        assert tps_equivalent(t, back).equivalent


def _near_identity_rotation(rng, n, eps):
    h = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    q, r = np.linalg.qr(np.eye(n) + 1j * eps * (h + h.conj().T) / 2)
    return q * (np.diagonal(r) / np.abs(np.diagonal(r)))


def test_induces_accepts_only_the_grids_own_pair():
    induces = tpskit.algebra._induces
    rng = np.random.default_rng(48)
    for k, l in ((2, 2), (2, 3), (3, 3)):
        u = random_unitary(rng, k * l)
        a1, a2 = tps_to_tpp(tps_new(k, l, u))
        assert induces(tps_new(k, l, u), a1, a2, DEFAULT_TOL)
        # (2U)^* g (2U) lies in the right subalgebra, but 2U is not unitary
        assert not induces(tps_new(k, l, 2 * u), a1, a2, DEFAULT_TOL)
        for eps, expected in ((1e-6, False), (1e-13, True)):
            w = _near_identity_rotation(rng, k * l, eps)
            assert induces(tps_new(k, l, w @ u), a1, a2, DEFAULT_TOL) == expected
        # an equivalent but non-unitary basis induces the same pair, and is
        # refused only as a frame; the pair itself is still a factor pair
        pq = np.kron(random_invertible(rng, k), random_invertible(rng, l))
        assert not induces(tps_new(k, l, u @ pq), a1, a2, DEFAULT_TOL)
        assert is_tpp(a1, a2).is_tpp
    u = random_unitary(rng, 6)
    a1, a2 = tps_to_tpp(tps_new(2, 3, u))
    assert not induces(tps_new(2, 3, u), a2, a1, DEFAULT_TOL)
    _, b2 = tps_to_tpp(tps_new(2, 3, random_unitary(rng, 6)))
    assert not induces(tps_new(2, 3, u), a1, b2, DEFAULT_TOL)


def _gate_corpus(rng):
    """(case, t, a1, a2) inputs of the witness gate whose spans have the
    dimensions k^2, l^2 for the shape k x l of t, as `_witness` calls it."""
    out = []
    for k, l in [(1, 4), (4, 1)] + SHAPES + [(5, 5), (6, 6)]:
        n = k * l
        u = random_unitary(rng, n)
        t = tps_new(k, l, u)
        a1, a2 = tps_to_tpp(t)
        cases = [("own", t, a1, a2), ("2U", tps_new(k, l, 2 * u), a1, a2)]
        cases += [(f"witness {seed}", tpskit.algebra._witness(
            a1, a2, seed, DEFAULT_TOL), a1, a2) for seed in (0, 1, 2)]
        cases += [(f"rotated {eps}", tps_new(
            k, l, _near_identity_rotation(rng, n, eps) @ u), a1, a2)
            for eps in (1e-13, 1e-9, 1e-6)]
        pq = np.kron(random_invertible(rng, k), random_invertible(rng, l))
        cases.append(("frame", tps_new(k, l, u @ pq), a1, a2))
        cases.append(("swapped grid", swap_factors(t), a2, a1))
        if k == l:
            cases.append(("swapped pair", t, a2, a1))
        _, b2 = tps_to_tpp(tps_new(k, l, random_unitary(rng, n)))
        cases.append(("unrelated partner", t, a1, b2))
        for frac in (0.01, 0.5, 0.95):
            near = tps_new(k, l, near_unitary(rng, n, frac))
            cases.append((f"near unitary {frac}", near, *tps_to_tpp(near)))
        out += [((k, l) + (case,), *rest) for case, *rest in cases]
    return out


def test_gate_matches_the_frame_conjugation_reference(monkeypatch):
    corpus = _gate_corpus(np.random.default_rng(66))
    residual, measured = tpskit.algebra._projection_residual, []

    def recorded(*args):
        measured.append(residual(*args))
        return measured[-1]

    monkeypatch.setattr(tpskit.algebra, "_projection_residual", recorded)
    verdicts = []
    for case, t, a1, a2 in corpus:
        want, want_residuals = reference_induces(t, a1, a2, DEFAULT_TOL)
        measured.clear()
        verdicts.append(tpskit.algebra._induces(t, a1, a2, DEFAULT_TOL))
        assert verdicts[-1] == want, case
        assert len(measured) == len(want_residuals), case
        assert np.allclose(measured, want_residuals, rtol=0, atol=1e-12), case
    assert 0 < sum(verdicts) < len(verdicts)


def test_every_witness_is_inner_product_compatible():
    rng = np.random.default_rng(49)
    for k, l in SHAPES + [(1, 4), (4, 1)]:
        a1, a2 = tps_to_tpp(tps_new(k, l, random_unitary(rng, k * l)))
        for seed in (0, 1, 2):
            assert is_inner_product_compatible(tpp_to_tps(a1, a2, seed=seed))


def test_every_seed_draws_an_equivalent_unitary_witness():
    # tpp_to_tps returns the kept witness, so the seeds are exercised here
    rng = np.random.default_rng(50)
    for k, l in SHAPES + [(1, 4), (4, 1)]:
        t = tps_new(k, l, random_unitary(rng, k * l))
        a1, a2 = tps_to_tpp(t)
        witnesses = [tpskit.algebra._witness(a1, a2, seed, DEFAULT_TOL)
                     for seed in (0, 1, 2)]
        for w in witnesses:
            assert w is not None and w.shape == (k, l)
            assert is_inner_product_compatible(w)
            assert tps_equivalent(t, w).equivalent
        for w in witnesses[1:]:
            assert tps_equivalent(witnesses[0], w).equivalent


def test_certification_does_not_read_eig_cluster():
    # the fibers are blocks of eigh's ascending order, not eigenvalue clusters
    rng = np.random.default_rng(51)
    t = tps_new(2, 3, random_unitary(rng, 6))
    for eig_cluster in (0.5, 10.0):
        tol = Tolerance(eig_cluster=eig_cluster)
        a1, a2 = tps_to_tpp(t)
        verdict = is_tpp(a1, a2, tol)
        assert verdict.is_tpp and verdict.tps is not None, eig_cluster
        assert tps_equivalent(t, tpp_to_tps(a1, a2, tol=tol)).equivalent


def test_abelian_pair_fails_the_witness_after_one_eigh(monkeypatch):
    corpus = {name: pair for name, pair, _ in _parity_corpus()}
    a1, a2 = corpus["abelian"]
    calls = count_calls(monkeypatch, np.linalg, "eigh")
    assert tpskit.algebra._witness(a1, a2, 0, DEFAULT_TOL) is None
    assert len(calls) == 1  # the fibers
    failed = {check for check, ok in is_tpp(a1, a2).checks.items() if not ok}
    assert failed == {"trivial_center", "join_full"}


def test_contains_is_scale_invariant():
    a1, a2 = tps_to_tpp(god_given(2, 2))
    sx = np.array([[0, 1], [1, 0]], dtype=complex)
    inside = np.kron(np.diag([1.0, -1.0]), np.eye(2))   # in a1 only
    outside = np.kron(np.eye(2), sx)                     # in a2 only
    for alpha in (1.0, 1e-9, 1e-12):
        assert contains(a1, alpha * inside) and contains(a2, alpha * outside)
        assert not contains(a1, alpha * outside)
        assert not contains(a2, alpha * inside)
    assert contains(a1, np.zeros((4, 4)))


def test_build_after_certify_draws_from_its_own_seed(monkeypatch):
    # a grid-less pair keeps no verdict: each call draws its witness from
    # its own seed, and any two witnesses are equivalent
    calls = count_calls(monkeypatch, tpskit.algebra, "_witness")
    t = tps_new(2, 3, random_unitary(np.random.default_rng(51), 6))
    a1, a2 = map(copy.copy, tps_to_tpp(t))
    assert is_tpp(a1, a2).is_tpp
    back = tpp_to_tps(a1, a2, seed=7)
    again = tpp_to_tps(a1, a2)
    assert [args[2] for args in calls] == [0, 7, 0]
    assert tps_equivalent(t, back).equivalent and tps_equivalent(t, again).equivalent


def test_rejected_pair_is_diagnosed_once_per_call(monkeypatch):
    calls = count_calls(monkeypatch, tpskit.algebra, "_diagnose")
    diag = algebra_generate([np.diag([1.0, 2, 3, 4]).astype(complex)])
    verdict = is_tpp(diag, diag)
    assert not verdict.checks["trivial_center"] and verdict.tps is None
    assert len(calls) == 1
    with pytest.raises(NotATpp) as err:
        tpp_to_tps(diag, diag)
    assert len(calls) == 2
    for name, ok in verdict.checks.items():
        assert (name in str(err.value)) == (not ok), name


def test_other_partner_or_tolerance_recertifies(monkeypatch):
    calls = count_calls(monkeypatch, tpskit.algebra, "_witness")
    a1, a2 = tps_to_tpp(tps_new(2, 2, random_unitary(np.random.default_rng(52), 4)))
    twin = OperatorAlgebra(span_basis=a2.span_basis)
    loose = Tolerance(eig_cluster=1e-7)
    first = is_tpp(a1, a2)
    assert is_tpp(a1, twin) is not first and len(calls) == 2
    assert is_tpp(a1, a2, loose) is not first and len(calls) == 3
    assert len(calls) == 3


def test_pair_without_witness_is_drawn_again(monkeypatch):
    calls = count_calls(monkeypatch, tpskit.algebra, "_witness", lambda *args: None)
    a1, a2 = tps_to_tpp(tps_new(2, 2, random_unitary(np.random.default_rng(53), 4)))
    for seed in (0, 1, 2):
        with pytest.raises(GenericElementFailure):
            tpp_to_tps(a1, a2, seed=seed)
    assert [args[2] for args in calls] == [0, 1, 2]


def test_span_basis_is_a_read_only_copy():
    # as is every array field of every value type, whether its constructor
    # copies the caller's array or a builder hands over a fresh one
    rng = np.random.default_rng(69)
    p = observable_pair(*random_standard_pair(rng, 2, 3))
    cs = verify_standard_complete(p)
    given = [
        (OperatorAlgebra,
         {"span_basis": np.eye(2, dtype=complex).reshape(1, 2, 2) / np.sqrt(2)}),
        (Tps, {"k": 2, "l": 3, "basis": random_invertible(rng, 6)}),
        (SchmidtReport, {"coefficients": np.array([2.0, 1.0]), "_c": np.diag([2.0, 1.0])}),
        (ObservablePair, {"r": np.array(p.r), "t": np.array(p.t)}),
        (CharacteristicSets,
         {f.name: np.array(getattr(cs, f.name)) for f in dataclasses.fields(cs)}),
        (PolyState, {"variables": ("x1", "x2"), "coeffs": np.ones((3, 3), dtype=complex)}),
    ]
    for cls, args in given:
        made = cls(**args)
        for name, arr in args.items():
            if isinstance(arr, np.ndarray):
                kept, first = getattr(made, name), (0,) * arr.ndim
                assert np.array_equal(kept, arr), (cls, name)
                with pytest.raises(ValueError):
                    kept[first] = 5
                arr[first] = 5  # the caller's array is copied, not frozen
                assert kept[first] != 5, (cls, name)
    coeffs = np.ones((3, 3), dtype=complex)
    for made in (poly_state(("x1", "x2"), 3, coeffs), cs, *tps_to_tpp(god_given(2, 2))):
        for arr in vars(made).values():
            if isinstance(arr, np.ndarray):
                with pytest.raises(ValueError):
                    arr[(0,) * arr.ndim] = 5


def test_build_after_certify_returns_the_verdicts_witness():
    a1, a2 = tps_to_tpp(tps_new(3, 2, random_unitary(np.random.default_rng(54), 6)))
    verdict = is_tpp(a1, a2)
    assert tpp_to_tps(a1, a2) is verdict.tps
    with pytest.raises(ValueError):
        verdict.tps.basis[0, 0] = 0


def _factor_spans(t):
    """The generators B (E_ab ox 1) B^-1 and B (1 ox E_cd) B^-1 of a grid's
    factor algebras, as k^2 and l^2 stacks."""
    n, k, l = t.dim, t.k, t.l
    b, binv = t.basis.reshape(n, k, l), np.linalg.inv(t.basis).reshape(k, l, n)
    return (np.einsum("xai,biy->abxy", b, binv).reshape(k * k, n, n),
            np.einsum("xjc,jdy->cdxy", b, binv).reshape(l * l, n, n))


def test_compatible_grid_spans_are_orthonormal_unital_svd_spans():
    rng = np.random.default_rng(60)
    for k, l in SHAPES + [(1, 4), (4, 1), (5, 5)]:
        n = k * l
        for b in (random_unitary(rng, n), near_unitary(rng, n, 0.01),
                  near_unitary(rng, n, 0.5), near_unitary(rng, n, 0.95)):
            t = tps_new(k, l, b)
            assert is_inner_product_compatible(t)
            for a, gens in zip(tps_to_tpp(t), _factor_spans(t)):
                gram = a.flat @ a.flat.conj().T
                assert np.linalg.norm(gram - np.eye(a.dim)) <= 1e-12, (k, l)
                ref = tpskit.algebra._from_closed_span(gens, DEFAULT_TOL)
                assert a.dim == ref.dim == gens.shape[0], (k, l)
                assert span_equal(a, ref), (k, l)
                assert a.unital and contains(a, np.eye(n)), (k, l)


def test_near_unitary_grids_are_still_certified():
    rng = np.random.default_rng(61)
    for k, l in ((2, 2), (2, 3), (3, 3), (3, 4)):
        for frac in (0.01, 0.5, 0.95):
            t = tps_new(k, l, near_unitary(rng, k * l, frac))
            verdict = is_tpp(*tps_to_tpp(t))
            assert verdict.is_tpp and (verdict.k, verdict.l) == (k, l), frac


def test_round_trip_takes_one_svd_per_grid(monkeypatch):
    calls = count_calls(monkeypatch, np.linalg, "svd")
    t = tps_new(3, 4, random_unitary(np.random.default_rng(62), 12))
    back = tpp_to_tps(*tps_to_tpp(t))
    assert tps_equivalent(t, back).equivalent
    # the grid's rank test and the rearrangement of B1^-1 B2 in
    # tps_equivalent; none for the spans, none for the witness's
    # compatibility test
    assert [args[0].shape for args in calls] == [(12, 12), (9, 16)]


def test_verdict_checks_are_each_calls_own():
    # checks is a plain dict: a write to one verdict's checks reaches no
    # later verdict of the same pair
    a1, a2 = tps_to_tpp(tps_new(2, 2, random_unitary(np.random.default_rng(63), 4)))
    diag = algebra_generate([np.diag([1.0, 2, 3, 4]).astype(complex)])
    diag_checks = dict(dict.fromkeys(tpskit.algebra._CHECKS, True),
                       trivial_center=False, join_full=False)
    for pair, expected in (((a1, a2), dict.fromkeys(tpskit.algebra._CHECKS, True)),
                           ((diag, diag), diag_checks)):
        verdict = is_tpp(*pair)
        assert verdict.checks == expected and verdict.is_tpp == all(expected.values())
        verdict.checks["commute"] = False
        again = is_tpp(*pair)
        assert again is not verdict and again.checks == expected


def test_ill_conditioned_grid_spans_do_not_depend_on_the_tolerance():
    # with residual = 1 this grid counts as inner-product compatible (defect
    # about 1, bound 40), yet its generators are far from orthogonal: the
    # spans must still be orthonormal, and the SVD ones at either tolerance
    rng = np.random.default_rng(64)
    b = random_unitary(rng, 4) @ np.diag([1, 1, 1, 1e-6]) @ random_unitary(rng, 4)
    for tol in (DEFAULT_TOL, Tolerance(residual=1)):
        t = tps_new(2, 2, b, tol)
        assert is_inner_product_compatible(t, tol) == (tol.residual == 1)
        for a, gens in zip(tps_to_tpp(t), _factor_spans(t)):
            assert np.all(np.isfinite(a.flat))
            gram = a.flat @ a.flat.conj().T
            assert np.linalg.norm(gram - np.eye(a.dim)) <= 1e-12
            ref = tpskit.algebra._from_closed_span(gens, tol)
            assert a.dim == ref.dim == 4 and a.unital == ref.unital
            assert span_equal(a, ref)


def _with_cond(rng, n, cond):
    """A random basis whose singular values run geometrically from 1 to 1/cond."""
    s = np.logspace(0, -np.log10(cond), n)
    return random_unitary(rng, n) @ np.diag(s) @ random_unitary(rng, n)


def test_grid_spans_are_one_qr_at_any_conditioning(monkeypatch):
    # unitary, Gaussian and ill-conditioned grids alike: k^2 and l^2
    # orthonormal rows from one QR each, no SVD or eigh, the SVD reference span
    rng = np.random.default_rng(70)
    grids = []
    for k, l in SHAPES:
        n = k * l
        bases = [random_unitary(rng, n),
                 rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n)),
                 *(_with_cond(rng, n, cond) for cond in (1e2, 1e4, 1e6))]
        grids += [tps_new(k, l, b) for b in bases]
    for t in grids:
        t.inverse  # the grid's LU, taken before the spy
    svds = count_calls(monkeypatch, np.linalg, "svd")
    eighs = count_calls(monkeypatch, np.linalg, "eigh")
    qrs = count_calls(monkeypatch, np.linalg, "qr")
    pairs = [tps_to_tpp(t) for t in grids]
    assert svds == eighs == [] and len(qrs) == 2 * len(grids)
    monkeypatch.undo()
    for t, pair in zip(grids, pairs):
        for a, gens, dim in zip(pair, _factor_spans(t), (t.k ** 2, t.l ** 2)):
            assert a.dim == dim and a.unital, t.shape
            gram = a.flat @ a.flat.conj().T
            assert np.linalg.norm(gram - np.eye(dim)) <= 1e-12, t.shape
            assert span_equal(a, tpskit.algebra._from_closed_span(gens, DEFAULT_TOL)), t.shape


def test_a_grid_at_cond_1e9_gives_a_rejected_pair():
    # its spans stay k^2 and l^2 dimensional and unital, so the pair is
    # judged, and fails as a pair that is not star-closed, instead of being
    # refused as holding no identity
    t = tps_new(2, 2, _with_cond(np.random.default_rng(71), 4, 1e9))
    verdict = is_tpp(*tps_to_tpp(t))
    assert not verdict.is_tpp and not verdict.checks["star_closed"]
    assert (verdict.k, verdict.l) == (2, 2) and verdict.checks["dims_square"]


def test_verdicts_pickle_and_copy_with_read_only_checks():
    a1, a2 = tps_to_tpp(tps_new(2, 3, random_unitary(np.random.default_rng(65), 6)))
    verdict = is_tpp(a1, a2)
    for twin in (pickle.loads(pickle.dumps(verdict)), copy.deepcopy(verdict)):
        assert twin == verdict and twin.checks == verdict.checks
        assert np.array_equal(twin.tps.basis, verdict.tps.basis)
        assert np.array_equal(twin.tps.singular_values, verdict.tps.singular_values)
        with pytest.raises(ValueError):
            twin.tps.basis[0, 0] = 0
    fields = dataclasses.asdict(verdict)
    assert fields["checks"] == dict.fromkeys(tpskit.algebra._CHECKS, True)


def test_span_basis_copies_a_read_only_view():
    for writeable in (True, False):
        basis = np.eye(2, dtype=complex).reshape(1, 2, 2) / np.sqrt(2)
        view = basis[:]
        view.flags.writeable = writeable
        a = OperatorAlgebra(span_basis=view)
        basis[0, 0, 0] = 5
        assert a.span_basis[0, 0, 0] != 5


def test_builders_hand_their_spans_over_read_only(monkeypatch):
    # the spans that tps_to_tpp, _from_closed_span and algebra_generate
    # build are theirs alone: the algebra keeps each one, read-only, as it
    # is; tps_to_tpp's span is a view of the Q of its QR, with no copy
    rng = np.random.default_rng(66)
    u, t = tps_new(2, 3, random_unitary(rng, 6)), tps_new(2, 3, random_invertible(rng, 6))
    made = []
    for module, name in ((np.linalg, "qr"), (tpskit.algebra, "_orthonormal_span")):
        def spy(*args, build=getattr(module, name)):
            made.append(build(*args))
            return made[-1]
        monkeypatch.setattr(module, name, spy)
    algebras = [*tps_to_tpp(u), *tps_to_tpp(t)]
    qs = [q for q, _ in made]
    made.clear()
    algebras.append(tpskit.algebra._from_closed_span(_factor_spans(t)[0], DEFAULT_TOL))
    algebras.append(algebra_generate([np.diag([1.0, 2.0, 3.0])]))
    assert len(qs) == 4 and len(made) == 4  # one span, three closure rounds
    for a, q in zip(algebras, qs):
        assert np.array_equal(a.flat, q.T) and np.shares_memory(a.span_basis, q)
    for a, span in zip(algebras[4:], (made[0], made[-1])):
        assert a.span_basis is span
    for a in algebras:
        with pytest.raises(ValueError):
            a.span_basis[0, 0, 0] = 0


def test_witness_is_read_off_the_second_algebra(monkeypatch):
    a1, a2 = map(copy.copy,
                 tps_to_tpp(tps_new(2, 3, random_unitary(np.random.default_rng(67), 6))))
    eighs = count_calls(monkeypatch, np.linalg, "eigh")
    draws = count_calls(monkeypatch, tpskit.algebra, "_draw_generic_hermitian")
    fixes = count_calls(monkeypatch, tpskit.core, "phase_fix")
    verdict = is_tpp(a1, a2)
    assert verdict.is_tpp and verdict.tps is not None
    assert len(eighs) == 1  # the fibers; none for cells of the first one
    assert [args[0] for args in draws] == [a2, a2]
    assert fixes == [] and "phase_fix" not in vars(tpskit.algebra)


def test_copies_of_a_certified_algebra_keep_no_verdicts(monkeypatch):
    # a copy is rebuilt through __init__: a read-only span of its own and no
    # grid, so it certifies by a drawn witness rather than answer for another span
    a1, a2 = tps_to_tpp(tps_new(2, 2, random_unitary(np.random.default_rng(68), 4)))
    assert is_tpp(a1, a2).is_tpp
    calls = count_calls(monkeypatch, tpskit.algebra, "_witness")
    for c1, c2 in (pickle.loads(pickle.dumps((a1, a2))), copy.deepcopy((a1, a2)),
                   (copy.copy(a1), a2)):
        assert c1.span_basis is not a1.span_basis
        assert np.array_equal(c1.span_basis, a1.span_basis)
        assert (c1.dim_space, c1.unital) == (a1.dim_space, a1.unital)
        with pytest.raises(ValueError):
            c1.span_basis[0] = 0
        calls.clear()
        assert is_tpp(c1, c2).is_tpp
        assert len(calls) == 1


def test_only_the_pair_of_a_grid_carries_that_grid():
    t = tps_new(2, 2, random_unitary(np.random.default_rng(72), 4))
    a1, a2 = tps_to_tpp(t)
    assert a1._grid is t and a2._grid is t
    others = [algebra_generate([XX, ZZ]), commutant(a1), join(a1, a2),
              OperatorAlgebra(span_basis=a1.span_basis)]
    others += [c for pair in (pickle.loads(pickle.dumps((a1, a2))),
                              copy.deepcopy((a1, a2)), map(copy.copy, (a1, a2)))
               for c in pair]
    assert all(a._grid is None for a in others)


def test_a_pair_is_certified_by_the_grid_that_built_it(monkeypatch):
    rng = np.random.default_rng(70)
    grids = [tps_new(k, l, random_unitary(rng, k * l)) for k, l in SHAPES]
    grids.append(god_given(2, 3))
    pairs = [tps_to_tpp(t) for t in grids]
    eighs = count_calls(monkeypatch, np.linalg, "eigh")
    draws = count_calls(monkeypatch, tpskit.algebra, "_draw_generic_hermitian")
    for t, (a1, a2) in zip(grids, pairs):
        verdict = is_tpp(a1, a2)
        assert verdict.is_tpp and verdict.tps is t
        assert dict(verdict.checks) == dict.fromkeys(tpskit.algebra._CHECKS, True)
        assert tpp_to_tps(a1, a2, seed=5) is t
    assert eighs == [] and draws == []


def test_a_grid_that_fails_the_gate_falls_through_to_the_draws(monkeypatch):
    # U (P ox Q) with P, Q not unitary induces the factor pair of U but is
    # no unitary witness; two grids' algebras share no grid to try
    rng = np.random.default_rng(71)
    u = random_unitary(rng, 6)
    t = tps_new(2, 3, u @ np.kron(random_invertible(rng, 2), random_invertible(rng, 3)))
    a1, a2 = tps_to_tpp(t)
    b1, b2 = tps_to_tpp(tps_new(2, 3, u))
    gates = count_calls(monkeypatch, tpskit.algebra, "is_inner_product_compatible")
    draws = count_calls(monkeypatch, tpskit.algebra, "_draw_generic_hermitian")
    for p1, p2 in ((a1, a2), (a1, b2), (b1, a2)):
        verdict = is_tpp(p1, p2)
        assert verdict.is_tpp and verdict.tps not in (t, b1._grid)
        assert tps_equivalent(t, verdict.tps).equivalent
    assert [args[0] is t for args in gates] == [True, False, False, False]
    assert len(draws) == 6


def test_round_trips_of_grid_less_pairs_are_equivalences():
    # criterion 7(c) on copies, which carry no grid: every witness is drawn
    for trial in range(100):
        k, l = SHAPES[trial % len(SHAPES)]
        t = tps_new(k, l, random_unitary(np.random.default_rng(3000 + trial), k * l))
        a1, a2 = map(copy.copy, tps_to_tpp(t))
        back = tpp_to_tps(a1, a2, seed=trial)
        assert back is not t and tps_equivalent(t, back).equivalent, trial


def test_a_span_that_is_not_a_stack_of_square_matrices_is_refused():
    for span in (np.eye(2), np.zeros((2, 2, 3)), np.zeros(4)):
        with pytest.raises(DimensionMismatch):
            OperatorAlgebra(span_basis=span)
