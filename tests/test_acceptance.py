"""Acceptance gate: one test per criterion, each printing a pass/fail line."""

import time
from contextlib import contextmanager
from fractions import Fraction

import numpy as np

from tpskit import (
    commutant,
    complementary_pair,
    dual_verdict,
    god_given,
    is_inner_product_compatible,
    is_product,
    observable_pair,
    schmidt,
    tpp_from_complementary,
    tpp_to_tps,
    tps_equivalent,
    tps_from_observables,
    tps_making_state_entangled,
    tps_making_state_product,
    tps_new,
    tps_to_tpp,
    verify_complementary,
    verify_standard_complete,
)
from tpskit import observables
from tpskit.algebra import contains, span_equal, _intersection_dim, _projection_residual
from tpskit.core import DEFAULT_TOL
from tpskit.examples import bell_states, rotation_x_pi, total_sz_squared
from tpskit.poly import (
    change_of_variables,
    deformed_poly_tps,
    monomial,
    poly_state,
    poly_tps,
)

import oracles
from util import SHAPES, random_state, random_unitary


@contextmanager
def criterion(num, label):
    try:
        yield
    except Exception:
        print(f"criterion {num} ({label}): FAIL")
        raise
    print(f"criterion {num} ({label}): PASS")


def test_criterion_1_bell_schmidt():
    with criterion(1, "Bell states maximally entangled in the coordinate grid"):
        gg = god_given(2, 2)
        target = 1 / np.sqrt(2)
        for name, w in bell_states().items():
            rep = schmidt(w, gg)
            assert rep.rank == 2, name
            assert np.max(np.abs(rep.coefficients - target)) <= 1e-10, name


def test_criterion_2_eigenrelations():
    with criterion(2, "rotation and spin eigenrelations"):
        states = bell_states()
        r = rotation_x_pi()
        t = total_sz_squared()
        assert np.linalg.norm(r @ states["psi_plus"] + states["psi_plus"]) <= 1e-12
        assert np.linalg.norm(r @ states["psi_minus"] - states["psi_minus"]) <= 1e-12
        assert np.linalg.norm(t @ states["psi_plus"]) <= 1e-12
        assert np.linalg.norm(t @ states["psi_minus"]) <= 1e-12
        assert np.linalg.norm(t @ states["phi_plus"] - states["phi_plus"]) <= 1e-12
        assert np.linalg.norm(t @ states["phi_minus"] - states["phi_minus"]) <= 1e-12


def test_criterion_3_observable_induced_separability():
    with criterion(3, "observable-built grid separates the Bell states"):
        pair = observable_pair(rotation_x_pi(), total_sz_squared())
        start = time.perf_counter()
        tps = tps_from_observables(pair)
        elapsed = time.perf_counter() - start
        assert elapsed < 1.0
        assert is_inner_product_compatible(tps)
        b = tps.basis
        assert np.linalg.norm(b.conj().T @ b - np.eye(4)) <= 1e-10
        for name, w in bell_states().items():
            assert schmidt(w, tps).rank == 1, name


def test_criterion_4_equivalent_complete_sets():
    with criterion(4, "two observable pairs share characteristic subspaces"):
        sx = np.array([[0, 1], [1, 0]], dtype=complex)
        sz = np.diag([1.0, -1.0]).astype(complex)
        pair1 = observable_pair(rotation_x_pi(), total_sz_squared())
        pair2 = observable_pair(np.kron(sx, sx), np.kron(sz, sz))
        cs1 = verify_standard_complete(pair1)
        cs2 = verify_standard_complete(pair2)
        assert observables._match_sets(cs1.M, cs2.M, 1e-10)
        assert observables._match_sets(cs1.N, cs2.N, 1e-10)
        t1 = tps_from_observables(pair1)
        t2 = tps_from_observables(pair2)
        assert tps_equivalent(t1, t2).equivalent


def test_criterion_5_center_of_mass():
    with criterion(5, "x1*x2 separability depends on the variable system"):
        d = 4
        p = monomial(("x1", "x2"), d, 1, 1)
        assert schmidt(p.vector(), poly_tps(("x1", "x2"), d)).rank == 1
        q = change_of_variables(p, d)
        assert schmidt(q.vector(), poly_tps(("X", "x"), d)).rank == 2
        nz = {(j, i): q.coeffs[j, i] for j in range(d) for i in range(d)
              if abs(q.coeffs[j, i]) > 1e-12}
        assert set(nz) == {(2, 0), (0, 2)}
        assert abs(nz[(2, 0)] - 1.0) <= 1e-12
        assert abs(nz[(0, 2)] + 0.25) <= 1e-12


def test_criterion_6_deformed_monomial_grid():
    with criterion(6, "cellwise rescaling flips the separability verdict"):
        d = 3
        coeffs = np.zeros((d, d), dtype=complex)
        for j, i in ((1, 1), (1, 2), (2, 1), (2, 2)):
            coeffs[j, i] = 1.0
        w = poly_state(("x1", "x2"), d, coeffs).vector()
        assert schmidt(w, poly_tps(("x1", "x2"), d)).rank == 1
        alpha = np.ones((d, d), dtype=complex)
        alpha[2, 2] = 2.0
        deformed = deformed_poly_tps(alpha, d)
        rep = schmidt(w, deformed)
        assert rep.rank == 2
        from tpskit import coefficient_matrix
        c = coefficient_matrix(w, deformed)
        expected = np.zeros((d, d), dtype=complex)
        expected[1:3, 1:3] = np.array([[1.0, 1.0], [1.0, 0.5]])
        assert np.max(np.abs(c - expected)) <= 1e-12
        # frozen reference singular values for the active 2x2 block
        hi, lo = oracles.singular_values_2x2([[1.0, 1.0], [1.0, 0.5]])
        assert abs(rep.coefficients[0] - hi) <= 1e-10
        assert abs(rep.coefficients[1] - lo) <= 1e-10


def test_criterion_7_property_suite():
    with criterion(7, "seeded property suite over five grid shapes"):
        failures = []

        # (a) refactoring gives rank 1 and rank exactly 2
        for trial in range(100):
            k, l = SHAPES[trial % len(SHAPES)]
            rng = np.random.default_rng(1000 + trial)
            w = random_state(rng, k * l)
            if not is_product(w, tps_making_state_product(w, k, l)):
                failures.append(("a-product", trial))
            if schmidt(w, tps_making_state_entangled(w, k, l)).rank != 2:
                failures.append(("a-entangled", trial))

        # (b) induced algebra pairs are mutual commutants with trivial centers
        for trial in range(100):
            k, l = SHAPES[trial % len(SHAPES)]
            n = k * l
            rng = np.random.default_rng(2000 + trial)
            t = tps_new(k, l, random_unitary(rng, n))
            a1, a2 = tps_to_tpp(t)
            c1 = commutant(a1)
            c2 = commutant(a2)
            if not span_equal(c1, a2):
                failures.append(("b-commutant-a1", trial))
            if not span_equal(c2, a1):
                failures.append(("b-commutant-a2", trial))
            if a1.dim * a2.dim != n * n:
                failures.append(("b-dims", trial))
            if _intersection_dim(a1, c1, DEFAULT_TOL) != 1:
                failures.append(("b-center-a1", trial))
            if _intersection_dim(a2, c2, DEFAULT_TOL) != 1:
                failures.append(("b-center-a2", trial))

        # (c) TPS -> algebra pair -> TPS round trip is an equivalence
        for trial in range(100):
            k, l = SHAPES[trial % len(SHAPES)]
            rng = np.random.default_rng(3000 + trial)
            t = tps_new(k, l, random_unitary(rng, k * l))
            a1, a2 = tps_to_tpp(t)
            back = tpp_to_tps(a1, a2, seed=trial)
            if not tps_equivalent(t, back).equivalent:
                failures.append(("c-round-trip", trial))

        # (d) the dual refactoring gives contradictory verdicts
        for trial in range(100):
            k, l = SHAPES[trial % len(SHAPES)]
            rng = np.random.default_rng(4000 + trial)
            w = random_state(rng, k * l)
            tp, te = dual_verdict(w, k, l)
            if not is_product(w, tp) or is_product(w, te):
                failures.append(("d-dual", trial))

        assert not failures, failures


def test_criterion_8_complementary_machinery():
    with criterion(8, "complementary completions rebuild the algebra pair"):
        shapes = [(2, 2), (2, 3), (3, 3)]
        for trial in range(25):
            k, l = shapes[trial % len(shapes)]
            n = k * l
            rng = np.random.default_rng(5000 + trial)
            g = random_unitary(rng, n)
            lam = np.arange(k, dtype=float) + rng.uniform(0.1, 0.4, size=k)
            mu = np.arange(l, dtype=float) + rng.uniform(0.1, 0.4, size=l)
            r = g @ np.kron(np.diag(lam), np.eye(l)) @ g.conj().T
            t = g @ np.kron(np.eye(k), np.diag(mu)) @ g.conj().T
            p1 = observable_pair(r, t)
            p2 = complementary_pair(p1, verify_standard_complete(p1))
            assert verify_complementary(p1, p2), trial
            a1, a2, _ = tpp_from_complementary(p1, p2)
            for op, alg in ((p1.r, a1), (p2.r, a1), (p1.t, a2), (p2.t, a2)):
                resid = _projection_residual(
                    op[None] / max(np.linalg.norm(op), 1.0), alg.flat)
                assert resid <= 1e-8, trial


def test_criterion_9_rank_oracle_agreement():
    with criterion(9, "numeric Schmidt rank matches the exact-rational oracle"):
        rng = np.random.default_rng(6000)
        for k, l in ((2, 2), (2, 3)):
            for _ in range(200):
                rows = []
                c = np.zeros((k, l), dtype=complex)
                for j in range(k):
                    row = []
                    for i in range(l):
                        re = Fraction(int(rng.integers(-9, 10)),
                                      int(rng.integers(1, 10)))
                        im = Fraction(int(rng.integers(-9, 10)),
                                      int(rng.integers(1, 10)))
                        row.append((re, im))
                        c[j, i] = float(re) + 1j * float(im)
                    rows.append(row)
                if all(oracles.q_is_zero(e) for row in rows for e in row):
                    rows[0][0] = oracles.q(1)
                    c[0, 0] = 1.0
                exact = oracles.exact_rank(rows)
                numeric = schmidt(c.reshape(-1), god_given(k, l)).rank
                assert numeric == exact, (rows, numeric, exact)
