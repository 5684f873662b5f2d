import os
import subprocess
import sys

import numpy as np
import pytest

import tpskit
from tpskit import (
    dual_verdict,
    is_inner_product_compatible,
    is_product,
    schmidt,
    tps_equivalent,
    tps_making_basis_product,
    tps_making_state_entangled,
    tps_making_state_product,
)
from tpskit.errors import (
    DimensionMismatch,
    NonCompositeDim,
    ShapeTooSmall,
    ZeroState,
)

from util import random_invertible, random_state


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
    t = tps_making_state_product(w, 2, 3, orthonormal=True)
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
    t = tps_making_state_entangled(w, 2, 2, orthonormal=True)
    assert is_inner_product_compatible(t)
    assert schmidt(w, t).rank == 2


def test_single_coordinate_state_edge_cases():
    e0 = np.zeros(4, dtype=complex)
    e0[0] = 1.0
    assert is_product(e0, tps_making_state_product(e0, 2, 2))
    assert schmidt(e0, tps_making_state_entangled(e0, 2, 2)).rank == 2
    t = tps_making_state_entangled(e0, 2, 2, orthonormal=True)
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
    # only the exactly zero state is refused; the orthonormal constructions
    # see the direction of w alone
    rng = np.random.default_rng(58)
    for k, l in ((2, 2), (2, 3), (3, 3)):
        product = np.kron(random_state(rng, k), random_state(rng, l))
        for w in (product, random_state(rng, k * l)):
            for alpha in (1e-12, 1e-11, 1e12):
                tp, te = dual_verdict(alpha * w, k, l)
                assert is_product(alpha * w, tp), (k, l, alpha)
                assert schmidt(alpha * w, te).rank == 2, (k, l, alpha)


def test_non_orthonormal_verdicts_survive_rescaling():
    # the completing coordinate vectors depend on the state's direction
    # only, so rescaled and coordinate-aligned states still get a basis
    rng = np.random.default_rng(56)
    for k, l in ((2, 2), (2, 3), (3, 3)):
        n = k * l
        w = random_state(rng, n)
        aligned = (np.eye(n)[0] + np.eye(n)[1]) / np.sqrt(2)
        for v in (w, 1e-3 * w, 1e3 * w, aligned):
            assert schmidt(v, tps_making_state_product(v, k, l)).rank == 1
            assert schmidt(v, tps_making_state_entangled(v, k, l)).rank == 2


def test_import_loads_no_scipy():
    # a fresh interpreter importing the same tpskit this suite imports
    src = os.path.dirname(os.path.dirname(tpskit.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    code = "import sys, tpskit; print('scipy' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], env=env,
                         capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "False"
