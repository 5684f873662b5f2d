"""Independent slow-but-exact reference computations used to pin expected
test values. Nothing here touches the package's numerics."""

from fractions import Fraction
import math

import numpy as np

from tpskit.errors import GridOverflow


def q(re, im=0):
    """A Gaussian rational as a (Fraction, Fraction) pair."""
    return (Fraction(re), Fraction(im))


def q_add(a, b):
    return (a[0] + b[0], a[1] + b[1])


def q_sub(a, b):
    return (a[0] - b[0], a[1] - b[1])


def q_mul(a, b):
    return (a[0] * b[0] - a[1] * b[1], a[0] * b[1] + a[1] * b[0])


def q_div(a, b):
    den = b[0] * b[0] + b[1] * b[1]
    if den == 0:
        raise ZeroDivisionError("division by zero Gaussian rational")
    return ((a[0] * b[0] + a[1] * b[1]) / den,
            (a[1] * b[0] - a[0] * b[1]) / den)


def q_is_zero(a):
    return a[0] == 0 and a[1] == 0


def exact_rank(rows):
    """Rank of a matrix of Gaussian rationals by fraction-exact Gaussian
    elimination with partial (first nonzero) pivoting."""
    m = [list(row) for row in rows]
    if not m:
        return 0
    nrows, ncols = len(m), len(m[0])
    rank = 0
    col = 0
    while rank < nrows and col < ncols:
        pivot = None
        for r in range(rank, nrows):
            if not q_is_zero(m[r][col]):
                pivot = r
                break
        if pivot is None:
            col += 1
            continue
        m[rank], m[pivot] = m[pivot], m[rank]
        pv = m[rank][col]
        for r in range(rank + 1, nrows):
            if q_is_zero(m[r][col]):
                continue
            factor = q_div(m[r][col], pv)
            for c in range(col, ncols):
                m[r][c] = q_sub(m[r][c], q_mul(factor, m[rank][c]))
        rank += 1
        col += 1
    return rank


def singular_values_2x2(m):
    """Singular values of a real 2x2 matrix by the quadratic formula applied
    to the characteristic polynomial of m^T m."""
    a, b = m[0]
    c, d = m[1]
    trace = a * a + b * b + c * c + d * d
    det = (a * d - b * c) ** 2
    disc = math.sqrt(max(trace * trace - 4 * det, 0.0))
    hi = (trace + disc) / 2
    lo = (trace - disc) / 2
    return (math.sqrt(hi), math.sqrt(max(lo, 0.0)))


def substitute_exact(coeffs, subs, target_vars, target_degree):
    """Linear change of variables of a two-variable polynomial in Fraction
    arithmetic, rounded to complex128 at the very end.

    ``coeffs[j, i]`` is the coefficient of old1**j * old2**i; ``subs`` holds
    one pair of rationals (a, b) per old variable, old = a*new1 + b*new2.
    Raises GridOverflow on the first cell, in order of first appearance,
    that lies outside the target grid and is nonzero after the exact sum.
    """
    d = int(target_degree)
    (a1, b1), (a2, b2) = subs
    rat = {}
    for j in range(coeffs.shape[0]):
        for i in range(coeffs.shape[1]):
            c = coeffs[j, i]
            if c == 0:
                continue
            cre, cim = Fraction(c.real), Fraction(c.imag)
            for pj in range(j + 1):
                for qi in range(i + 1):
                    coef = (
                        math.comb(j, pj) * a1 ** pj * b1 ** (j - pj)
                        * math.comb(i, qi) * a2 ** qi * b2 ** (i - qi)
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
    return out
