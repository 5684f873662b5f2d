import os
import subprocess
import sys

import numpy as np
import pytest

import tpskit
from tpskit import (
    dual_verdict,
    god_given,
    is_inner_product_compatible,
    is_product,
    schmidt,
    tps_equivalent,
    tps_making_basis_product,
    tps_making_state_entangled,
    tps_making_state_product,
    tps_new,
)
from tpskit.errors import (
    DimensionMismatch,
    NonCompositeDim,
    ShapeTooSmall,
    ZeroState,
)
from tpskit.core import Tolerance, as_vector

from util import count_calls, random_invertible, random_state


def test_basis_product_preserves_columns_exactly():
    rng = np.random.default_rng(50)
    b = random_invertible(rng, 6)
    t = tps_making_basis_product(b, 2, 3)
    assert np.array_equal(t.basis, b.astype(np.complex128))
    for p in range(6):
        assert is_product(b[:, p], t)


def test_state_product_maker():
    rng = np.random.default_rng(51)
    for k, l in ((2, 2), (2, 3), (3, 3)):
        for _ in range(5):
            w = random_state(rng, k * l)
            t = tps_making_state_product(w, k, l)
            assert is_product(w, t)


def test_state_product_maker_orthonormal():
    rng = np.random.default_rng(52)
    w = random_state(rng, 6)
    w /= np.linalg.norm(w)
    t = tps_making_state_product(w, 2, 3)
    assert is_inner_product_compatible(t)
    assert is_product(w, t)


def test_state_entangle_maker():
    rng = np.random.default_rng(53)
    for k, l in ((2, 2), (2, 3), (3, 3)):
        for _ in range(5):
            w = random_state(rng, k * l)
            t = tps_making_state_entangled(w, k, l)
            assert schmidt(w, t).rank == 2


def test_state_entangle_maker_orthonormal():
    rng = np.random.default_rng(54)
    w = random_state(rng, 4)
    w /= np.linalg.norm(w)
    t = tps_making_state_entangled(w, 2, 2)
    assert is_inner_product_compatible(t)
    assert schmidt(w, t).rank == 2


def test_single_coordinate_state_edge_cases():
    e0 = np.zeros(4, dtype=complex)
    e0[0] = 1.0
    assert is_product(e0, tps_making_state_product(e0, 2, 2))
    t = tps_making_state_entangled(e0, 2, 2)
    assert schmidt(e0, t).rank == 2 and is_inner_product_compatible(t)


def test_dual_verdict_contradicts():
    rng = np.random.default_rng(55)
    w = random_state(rng, 16)
    tp, te = dual_verdict(w, 4, 4)
    assert is_product(w, tp)
    assert not is_product(w, te)
    assert not tps_equivalent(tp, te).equivalent


def test_prime_dimension_rejected():
    w = np.ones(5, dtype=complex)
    with pytest.raises(NonCompositeDim):
        tps_making_state_product(w, 2, 2)


def test_mismatched_shape_rejected():
    w = np.ones(6, dtype=complex)
    with pytest.raises(DimensionMismatch):
        tps_making_state_product(w, 2, 2)


def test_entangle_needs_both_factors():
    w = np.ones(4, dtype=complex)
    with pytest.raises(ShapeTooSmall):
        tps_making_state_entangled(w, 4, 1)


def test_zero_state_rejected():
    with pytest.raises(ZeroState):
        tps_making_state_product(np.zeros(4), 2, 2)


def test_refactor_verdicts_ignore_tiny_and_huge_scales():
    # only the exactly zero state is refused; the constructions see the
    # direction of w alone
    rng = np.random.default_rng(58)
    for k, l in ((2, 2), (2, 3), (3, 3)):
        product = np.kron(random_state(rng, k), random_state(rng, l))
        for w in (product, random_state(rng, k * l)):
            for alpha in (1e-12, 1e-11, 1e12):
                tp, te = dual_verdict(alpha * w, k, l)
                assert is_product(alpha * w, tp), (k, l, alpha)
                assert schmidt(alpha * w, te).rank == 2, (k, l, alpha)


def test_states_whose_norm_underflows_or_overflows_are_refactored():
    # ||w|| of these states is 0 or inf in floating point; the makers scale
    # w by a power of two first, so only the exactly zero state is refused
    w = np.array([1, 2, 3, 4j])
    for alpha in (1e-200, 1e-310, 5e-324, 1e200):
        v = alpha * w
        assert schmidt(v, god_given(2, 2)).rank == 2, alpha
        tp, te = dual_verdict(v, 2, 2)
        assert is_product(v, tp) and schmidt(v, te).rank == 2, alpha
        assert is_product(v, tps_making_state_product(v, 2, 2)), alpha
        assert schmidt(v, tps_making_state_entangled(v, 2, 2)).rank == 2, alpha


def test_zero_state_reports_a_bad_shape_first():
    with pytest.raises(DimensionMismatch):
        tps_making_state_product(np.zeros(6), 2, 2)
    with pytest.raises(NonCompositeDim):
        tps_making_state_entangled(np.zeros(5), 2, 2)
    with pytest.raises(ShapeTooSmall):
        tps_making_state_entangled(np.zeros(4), 1, 4)
    with pytest.raises(ZeroState):
        dual_verdict(np.zeros(4), 2, 2)


def test_non_orthonormal_verdicts_survive_rescaling():
    # the basis is a unitary completion of w/||w||, which depends on its
    # direction only, so rescaled and coordinate-aligned states get the
    # verdicts of w
    rng = np.random.default_rng(56)
    for k, l in ((2, 2), (2, 3), (3, 3)):
        n = k * l
        w = random_state(rng, n)
        aligned = (np.eye(n)[0] + np.eye(n)[1]) / np.sqrt(2)
        for v in (w, 1e-12 * w, 1e-11 * w, 1e-3 * w, 1e3 * w, 1e12 * w,
                  aligned):
            assert schmidt(v, tps_making_state_product(v, k, l)).rank == 1
            assert schmidt(v, tps_making_state_entangled(v, k, l)).rank == 2


def test_entangled_structure_re_pairs_the_product_structure():
    rng = np.random.default_rng(59)
    for k, l in ((2, 2), (2, 3), (3, 3), (3, 4), (4, 4), (5, 6), (8, 8)):
        n = k * l
        # every cell but (0, 0), (0, 1) and (1, 0) is left as it was
        kept = [p for p in range(n) if p not in (0, 1, l)]
        e0 = np.eye(n)[0]
        tie = np.zeros(n, dtype=complex)
        tie[:3] = [0.5, 2, -2j]
        for w in (e0, tie, random_state(rng, n)):
            for alpha in (1e-300, 1.0, 1e300):
                v = alpha * w
                tp = tps_making_state_product(v, k, l)
                te = tps_making_state_entangled(v, k, l)
                case = (k, l, alpha)
                assert np.array_equal(te.basis[:, kept], tp.basis[:, kept]), case
                c0, c1 = tp.basis[:, 0], tp.basis[:, 1]
                assert np.array_equal(te.basis[:, 0], tp.basis[:, l]), case
                assert np.array_equal(te.basis[:, 1], (c0 + c1) / np.sqrt(2.0)), case
                assert np.array_equal(te.basis[:, l], (c0 - c1) / np.sqrt(2.0)), case


@pytest.mark.parametrize("w, k, l, product, entangled, dual", [
    (np.zeros(4), 2, 2, ZeroState, ZeroState, ZeroState),
    (np.zeros(4), 1, 4, ZeroState, ShapeTooSmall, ZeroState),
    (np.ones(4), 1, 4, None, ShapeTooSmall, ShapeTooSmall),
    (np.zeros(4), 4, 1, ZeroState, ShapeTooSmall, ZeroState),
    (np.zeros(6), 2, 2, DimensionMismatch, DimensionMismatch, DimensionMismatch),
    (np.zeros(5), 2, 2, NonCompositeDim, NonCompositeDim, NonCompositeDim),
    (np.zeros(5), 1, 4, DimensionMismatch, DimensionMismatch, DimensionMismatch),
    (np.zeros(4), 0, 4, DimensionMismatch, DimensionMismatch, DimensionMismatch),
    (np.array([0, 1, np.nan, 0]), 1, 4, ValueError, ValueError, ValueError),
])
def test_makers_refuse_bad_input_in_order(w, k, l, product, entangled, dual):
    calls = [(product, lambda: tps_making_state_product(w, k, l)),
             (entangled, lambda: tps_making_state_entangled(w, k, l)),
             (dual, lambda: dual_verdict(w, k, l))]
    for error, call in calls:
        if error is None:
            call()
        else:
            with pytest.raises(error):
                call()


def test_dual_verdict_completes_the_state_once(monkeypatch):
    calls = count_calls(monkeypatch, tpskit.refactor, "_unitary_basis")
    w = random_state(np.random.default_rng(60), 12)
    tp, te = dual_verdict(w, 3, 4)
    assert len(calls) == 1
    assert is_product(w, tp) and schmidt(w, te).rank == 2


def test_import_loads_no_scipy():
    # a fresh interpreter importing the same tpskit this suite imports
    src = os.path.dirname(os.path.dirname(tpskit.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    code = "import sys, tpskit; print('scipy' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], env=env,
                         capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "False"


@pytest.mark.parametrize("maker", [
    tps_making_state_product, tps_making_state_entangled, dual_verdict])
def test_makers_run_no_rank_test_svd(monkeypatch, maker):
    w = random_state(np.random.default_rng(61), 12)
    calls = count_calls(monkeypatch, np.linalg, "svd")
    grids = maker(w, 3, 4)
    assert len(calls) == 0
    for t in grids if maker is dual_verdict else (grids,):
        assert np.array_equal(t.singular_values,
                              np.linalg.svd(t.basis, compute_uv=False))


def test_maker_rank_verdicts_match_tps_new():
    # every maker basis is a unitary completion of the rescaled w/||w||, so
    # `tps_new` accepts it at any rank_rel
    rng = np.random.default_rng(62)
    for k, l in ((2, 2), (2, 3), (3, 3), (3, 4), (4, 4), (5, 6), (8, 8)):
        n = k * l
        tie = np.zeros(n, dtype=complex)
        tie[:3] = [0.5, 2, -2j]
        # w_0 = 0 (e1) takes the phase 1; a subnormal w_0 keeps |phi| = 1
        subnormal = np.ones(n, dtype=complex)
        subnormal[0] = 1e-310
        subnormal_complex = np.ones(n, dtype=complex)
        subnormal_complex[0] = 1e-320 * (1 + 1j)
        states = (np.eye(n)[0], np.eye(n)[1], tie, random_state(rng, n),
                  subnormal, subnormal_complex)
        for w in states:
            for alpha in (1e-300, 1.0, 1e300):
                v = alpha * w
                case = (k, l, alpha, w[0])
                c = tpskit.refactor._rescaled(as_vector(v))
                tp, te = dual_verdict(v, k, l)
                assert np.array_equal(tps_making_state_product(v, k, l).basis,
                                      tp.basis), case
                assert np.array_equal(tps_making_state_entangled(v, k, l).basis,
                                      te.basis), case
                assert np.array_equal(tp.basis[:, 0], c / np.linalg.norm(c)), case
                assert is_inner_product_compatible(tp), case
                assert is_inner_product_compatible(te), case
                assert schmidt(v, tp).rank == 1, case
                rep = schmidt(v, te)
                assert rep.rank == 2, case
                # the ratio, since ||v|| overflows at the largest scale
                coef = rep.coefficients
                assert abs(coef[1] / coef[0] - 1) <= 1e-12, case
                for rank_rel in (1e-10, 0.05, 0.2, 0.45):
                    tol = Tolerance(rank_rel=rank_rel)
                    for t in (tp, te):
                        tps_new(k, l, t.basis, tol)
