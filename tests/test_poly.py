from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from oracles import substitute_exact
from tpskit import (
    change_of_variables,
    deformed_poly_tps,
    poly_state,
    poly_tps,
    schmidt,
)
from tpskit.errors import GridOverflow, ZeroAlpha
from tpskit.poly import inverse_change_of_variables, monomial


def test_monomial_vector_layout():
    p = monomial(("x1", "x2"), 3, 1, 2)
    v = p.vector()
    assert v[1 * 3 + 2] == 1.0
    assert np.count_nonzero(v) == 1


def test_change_of_variables_x1_x2_product():
    p = monomial(("x1", "x2"), 4, 1, 1)
    q = change_of_variables(p, 4)
    expected = np.zeros((4, 4), dtype=complex)
    expected[2, 0] = 1.0
    expected[0, 2] = -0.25
    assert np.max(np.abs(q.coeffs - expected)) <= 1e-14
    assert q.variables == ("X", "x")


def test_change_of_variables_linear():
    rng = np.random.default_rng(60)
    d = 4
    a = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    b = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    # keep total degree within the grid so no overflow occurs
    mask = np.add.outer(np.arange(d), np.arange(d)) < d
    a *= mask
    b *= mask
    pa = poly_state(("x1", "x2"), d, a)
    pb = poly_state(("x1", "x2"), d, b)
    psum = poly_state(("x1", "x2"), d, a + b)
    lhs = change_of_variables(psum, d).coeffs
    rhs = change_of_variables(pa, d).coeffs + change_of_variables(pb, d).coeffs
    assert np.max(np.abs(lhs - rhs)) <= 1e-12


def test_round_trip_is_identity():
    rng = np.random.default_rng(61)
    d = 4
    c = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    c *= np.add.outer(np.arange(d), np.arange(d)) < d
    p = poly_state(("x1", "x2"), d, c)
    back = inverse_change_of_variables(change_of_variables(p, d), d)
    assert back.variables == ("x1", "x2")
    assert np.max(np.abs(back.coeffs - p.coeffs)) <= 1e-10


def test_grid_overflow_names_the_monomial():
    p = monomial(("x1", "x2"), 3, 2, 2)  # x1^2 x2^2 contains X^4
    with pytest.raises(GridOverflow):
        change_of_variables(p, 3)


def test_poly_tps_is_monomial_grid():
    t = poly_tps(("x1", "x2"), 3)
    assert t.shape == (3, 3)
    assert np.array_equal(t.basis, np.eye(9))


def test_deformed_poly_tps():
    alpha = np.ones((2, 2), dtype=complex)
    alpha[1, 1] = 2.0
    t = deformed_poly_tps(alpha, 2)
    assert np.array_equal(t.basis, np.diag([1.0, 1, 1, 2]).astype(complex))
    with pytest.raises(ZeroAlpha):
        deformed_poly_tps(np.array([[1.0, 0], [1, 1]]), 2)


def test_deformation_changes_rank():
    d = 3
    coeffs = np.zeros((d, d), dtype=complex)
    for j, i in ((1, 1), (1, 2), (2, 1), (2, 2)):
        coeffs[j, i] = 1.0
    w = poly_state(("x1", "x2"), d, coeffs).vector()
    assert schmidt(w, poly_tps(("x1", "x2"), d)).rank == 1
    alpha = np.ones((d, d), dtype=complex)
    alpha[2, 2] = 2.0
    assert schmidt(w, deformed_poly_tps(alpha, d)).rank == 2


# (function, source variables, target variables, old = a*new1 + b*new2 per
# old variable), for comparison against the Fraction-arithmetic oracle
SUBSTITUTIONS = [
    (change_of_variables, ("x1", "x2"), ("X", "x"),
     ((Fraction(1), Fraction(1, 2)), (Fraction(1), Fraction(-1, 2)))),
    (inverse_change_of_variables, ("X", "x"), ("x1", "x2"),
     ((Fraction(1, 2), Fraction(1, 2)), (Fraction(1), Fraction(-1)))),
]


def _corpus_coefficients(rng, d):
    """(name, d x d coefficient matrix, target degrees) for complex normal,
    integer Gaussian, 1e300, 1e-300, subnormal and sparse coefficients.
    Each kind comes once with full support, which overflows a d x d target
    for d > 1 and fits a 2d x 2d one, and once on total degree < d, which
    fits a d x d target."""
    z = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    kinds = {
        "normal": z,
        "integer": np.round(4 * z),
        "1e300": 1e300 * z,
        "1e-300": 1e-300 * z,
        "subnormal": np.round(3 * z) * 5e-324 + 1e-310 * z[::-1],
        "sparse": z * (rng.uniform(size=(d, d)) < 0.25),
    }
    low = np.add.outer(np.arange(d), np.arange(d)) < d
    for name, c in kinds.items():
        yield name, c, (d, 2 * d)
        yield name + "/low", c * low, sorted({d - 1, d} - {0})


@pytest.mark.parametrize("d", range(1, 9))
def test_substitution_matches_fraction_oracle_bitwise(d):
    rng = np.random.default_rng(700 + d)
    for name, c, targets in _corpus_coefficients(rng, d):
        for fn, src, dst, subs in SUBSTITUTIONS:
            p = poly_state(src, d, c)
            for t in targets:
                try:
                    expected = substitute_exact(p.coeffs, subs, dst, t)
                except GridOverflow as e:
                    with pytest.raises(GridOverflow) as got:
                        fn(p, t)
                    assert str(got.value) == str(e), (name, fn.__name__, t)
                    continue
                q = fn(p, t)
                assert q.variables == dst
                np.testing.assert_array_equal(
                    q.coeffs.view(np.uint64), expected.view(np.uint64),
                    err_msg=f"{name} {fn.__name__} target {t}")


def test_overflow_cells_that_cancel_exactly_do_not_raise():
    # (x1^2 - x2^2)/2 = X x: its X^2 and x^2 terms cancel exactly
    c = np.zeros((3, 3), dtype=complex)
    c[2, 0], c[0, 2] = 0.5, -0.5
    q = change_of_variables(poly_state(("x1", "x2"), 3, c), 2)
    expected = np.zeros((2, 2), dtype=complex)
    expected[1, 1] = 1.0
    assert np.array_equal(q.coeffs, expected)


def test_poly_state_rejects_equal_variable_names():
    with pytest.raises(ValueError):
        poly_state(("x", "x"), 2, np.eye(2))


@st.composite
def _low_degree_integer_polys(draw):
    d = draw(st.integers(1, 8))
    cells = [(j, i) for j in range(d) for i in range(d) if j + i < d]
    part = st.integers(-1000, 1000)
    values = draw(st.lists(st.tuples(part, part),
                           min_size=len(cells), max_size=len(cells)))
    c = np.zeros((d, d), dtype=complex)
    for (j, i), (re, im) in zip(cells, values):
        c[j, i] = complex(re, im)
    return poly_state(("x1", "x2"), d, c)


@settings(max_examples=100, deadline=None, derandomize=True)
@given(_low_degree_integer_polys())
def test_round_trip_is_bitwise_on_integer_coefficients(p):
    # every intermediate coefficient is a dyadic rational with a small
    # numerator, so both directions are exact
    d = p.max_degree
    back = inverse_change_of_variables(change_of_variables(p, d), d)
    assert back.variables == p.variables
    np.testing.assert_array_equal(back.coeffs.view(np.uint64),
                                  p.coeffs.view(np.uint64))
