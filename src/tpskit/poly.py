"""Two-variable polynomial states on a truncated exponent grid, the monomial
grid structures on them, and the exact center-of-mass change of variables."""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
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
    c = as_matrix(coeffs, rows=d, cols=d)
    return PolyState(variables=(str(variables[0]), str(variables[1])),
                     max_degree=d, coeffs=c.copy())


def monomial(variables, max_degree: int, j: int, i: int,
             coefficient: complex = 1.0) -> PolyState:
    c = np.zeros((max_degree, max_degree), dtype=np.complex128)
    c[j, i] = coefficient
    return poly_state(variables, max_degree, c)


def _substitute(p: PolyState, subs: dict, target_vars, target_degree: int) -> PolyState:
    """Exact linear change of variables.

    ``subs`` maps each old variable to rational coefficients (a, b) meaning
    old = a*new1 + b*new2.  Expansion is done in rational arithmetic; the
    result is rounded to float64 at the very end.
    """
    d = int(target_degree)
    a1, b1 = subs[p.variables[0]]
    a2, b2 = subs[p.variables[1]]
    rat: dict[tuple[int, int], tuple[Fraction, Fraction]] = {}
    for j in range(p.max_degree):
        for i in range(p.max_degree):
            c = p.coeffs[j, i]
            if c == 0:
                continue
            cre, cim = Fraction(c.real), Fraction(c.imag)
            for pj in range(j + 1):
                for qi in range(i + 1):
                    coef = (
                        Fraction(comb(j, pj)) * a1 ** pj * b1 ** (j - pj)
                        * Fraction(comb(i, qi)) * a2 ** qi * b2 ** (i - qi)
                    )
                    if coef == 0:
                        continue
                    cell = (pj + qi, (j - pj) + (i - qi))
                    re, im = rat.get(cell, (Fraction(0), Fraction(0)))
                    rat[cell] = (re + coef * cre, im + coef * cim)
    out = np.zeros((d, d), dtype=np.complex128)
    for (a, b), (re, im) in rat.items():
        if re == 0 and im == 0:
            continue
        if a >= d or b >= d:
            raise GridOverflow(
                f"monomial {target_vars[0]}^{a} {target_vars[1]}^{b} "
                f"exceeds the {d} x {d} target grid")
        out[a, b] = complex(float(re), float(im))
    return poly_state(target_vars, d, out)


def change_of_variables(p: PolyState, target_degree: int) -> PolyState:
    """Rewrite a polynomial in (x1, x2) in terms of the center-of-mass pair
    X = (x1 + x2)/2, x = x1 - x2, i.e. substitute x1 = X + x/2,
    x2 = X - x/2."""
    v1, v2 = p.variables
    subs = {
        v1: (Fraction(1), Fraction(1, 2)),
        v2: (Fraction(1), Fraction(-1, 2)),
    }
    return _substitute(p, subs, ("X", "x"), target_degree)


def inverse_change_of_variables(p: PolyState, target_degree: int) -> PolyState:
    """Rewrite a polynomial in (X, x) back in terms of x1, x2: substitute
    X = (x1 + x2)/2, x = x1 - x2."""
    v1, v2 = p.variables
    subs = {
        v1: (Fraction(1, 2), Fraction(1, 2)),
        v2: (Fraction(1), Fraction(-1)),
    }
    return _substitute(p, subs, ("x1", "x2"), target_degree)


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
