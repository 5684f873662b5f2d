"""Two-variable polynomial states on a truncated exponent grid, the monomial
grid structures on them, and the exact center-of-mass change of variables."""

from __future__ import annotations

from dataclasses import dataclass
from math import comb

import numpy as np

from .core import DEFAULT_TOL, Tolerance, as_matrix
from .errors import GridOverflow, ZeroAlpha
from .tps import Tps, god_given, tps_new


@dataclass(frozen=True, eq=False)
class PolyState:
    """Polynomial in two variables, truncated to exponents 0..max_degree-1.

    ``coeffs[j, i]`` is the coefficient of ``variables[0]**j *
    variables[1]**i``.
    """

    variables: tuple[str, str]
    max_degree: int
    coeffs: np.ndarray  # d x d complex

    def vector(self) -> np.ndarray:
        """State vector in the j*d+i coordinate ordering."""
        return self.coeffs.reshape(-1).copy()


def poly_state(variables, max_degree: int, coeffs) -> PolyState:
    d = int(max_degree)
    if d < 1:
        raise ValueError("max_degree must be >= 1")
    names = (str(variables[0]), str(variables[1]))
    if names[0] == names[1]:
        raise ValueError("the two variables must have different names")
    c = as_matrix(coeffs, rows=d, cols=d)
    return PolyState(variables=names, max_degree=d, coeffs=c.copy())


def monomial(variables, max_degree: int, j: int, i: int,
             coefficient: complex = 1.0) -> PolyState:
    if not (0 <= j < max_degree and 0 <= i < max_degree):
        raise ValueError(f"exponents ({j}, {i}) outside 0..{max_degree - 1}")
    c = np.zeros((max_degree, max_degree), dtype=np.complex128)
    c[j, i] = coefficient
    return poly_state(variables, max_degree, c)


def _substitute(p: PolyState, subs, den: int, target_vars,
                target_degree: int) -> PolyState:
    """Exact linear change of variables.

    ``subs`` holds one pair of nonzero integers (a, b) per old variable, in
    the order of ``p.variables``, meaning old = (a*new1 + b*new2) / den.
    Every float part of the input is a dyadic rational, so all parts are
    scaled to integers over one power-of-two denominator ``big``.  A term of
    total degree s lands on a cell (a, s - a), so every contribution to that
    cell is an integer over ``big * den**s``: the cells are summed exactly in
    Python ints and each nonzero cell is rounded to float64 once, by
    correctly rounded int/int division.  A cell outside the target grid that
    is nonzero after the exact sum raises GridOverflow.
    """
    n, d = p.max_degree, int(target_degree)
    js, iis = np.nonzero(p.coeffs)
    terms = [(j, i, c.real.as_integer_ratio(), c.imag.as_integer_ratio())
             for j, i, c in zip(js.tolist(), iis.tolist(),
                                p.coeffs[js, iis].tolist())]
    big = max((q for *_, (_, qr), (_, qi) in terms for q in (qr, qi)),
              default=1)
    # rows[v][j][t]: numerator of the new1^t new2^(j-t) term of old_v^j
    rows = [[[comb(j, t) * a ** t * b ** (j - t) for t in range(j + 1)]
             for j in range(n)] for a, b in subs]
    # diagonal s -> (real, imaginary) numerators of cells (0, s) .. (s, 0),
    # kept in order of first appearance: with a, b nonzero each input cell
    # reaches its whole diagonal, so GridOverflow names the first offending
    # monomial of the term-by-term expansion
    diagonals: dict[int, tuple[list[int], list[int]]] = {}
    for j, i, (mr, qr), (mi, qi) in terms:
        re_acc, im_acc = diagonals.setdefault(j + i, ([0] * (j + i + 1),
                                                      [0] * (j + i + 1)))
        nre, nim = mr * (big // qr), mi * (big // qi)
        conv = [0] * (j + i + 1)
        for t, x in enumerate(rows[0][j]):
            for u, y in enumerate(rows[1][i]):
                conv[t + u] += x * y
        for a, c in enumerate(conv):
            re_acc[a] += nre * c
            im_acc[a] += nim * c
    out = np.zeros((d, d), dtype=np.complex128)
    for s, (re_acc, im_acc) in diagonals.items():
        scale = big * den ** s
        for a, (re, im) in enumerate(zip(re_acc, im_acc)):
            if re == 0 and im == 0:
                continue
            if a >= d or s - a >= d:
                raise GridOverflow(
                    f"monomial {target_vars[0]}^{a} {target_vars[1]}^{s - a} "
                    f"exceeds the {d} x {d} target grid")
            out[a, s - a] = complex(re / scale, im / scale)
    return poly_state(target_vars, d, out)


def change_of_variables(p: PolyState, target_degree: int) -> PolyState:
    """Rewrite a polynomial in (x1, x2) in terms of the center-of-mass pair
    X = (x1 + x2)/2, x = x1 - x2, i.e. substitute x1 = X + x/2,
    x2 = X - x/2."""
    return _substitute(p, ((2, 1), (2, -1)), 2, ("X", "x"), target_degree)


def inverse_change_of_variables(p: PolyState, target_degree: int) -> PolyState:
    """Rewrite a polynomial in (X, x) back in terms of x1, x2: substitute
    X = (x1 + x2)/2, x = x1 - x2."""
    return _substitute(p, ((1, 1), (2, -2)), 2, ("x1", "x2"), target_degree)


def poly_tps(variables, d: int) -> Tps:
    """Monomial-grid structure: grid cell (j, i) is the monomial
    variables[0]^j * variables[1]^i on the d*d coordinate space."""
    if d < 2:
        raise ValueError("monomial grid needs degree >= 2")
    return god_given(d, d)


def deformed_poly_tps(alpha, d: int, tol: Tolerance = DEFAULT_TOL) -> Tps:
    """Monomial grid rescaled cellwise: grid vector (j, i) is
    alpha[j, i] times the monomial coordinate vector."""
    a = as_matrix(alpha, rows=d, cols=d)
    if np.any(np.abs(a) == 0.0):
        raise ZeroAlpha("all deformation coefficients must be nonzero")
    basis = np.diag(a.reshape(-1)).astype(np.complex128)
    return tps_new(d, d, basis, tol)
