"""Seeded inputs for the tpskit benchmark, built with numpy alone.

Every input carries its ground truth by construction: a grid basis with
states of known Schmidt rank relative to it, an algebra pair that must be
certified or refused with known checks, or a CLI file set with the expected
answers.  The library itself is never called here, so the same seed gives
the same inputs whatever the library does.
"""

from __future__ import annotations

import json
from fractions import Fraction
from math import comb

import numpy as np

# grid shapes per workload; n = k*l stays at or below 64, and the algebra
# workload stops at 4x4 (n = 16), where one certification costs ~0.6 s on
# a 2 GHz Xeon vCPU
GRID_SHAPES = [(2, 2), (2, 3), (3, 3), (3, 4), (4, 4), (4, 6), (5, 5),
               (6, 6), (7, 7), (8, 8)]
POLY_DEGREES = [2, 3, 4, 5, 6, 7, 8]
COMPLEMENTARY_SHAPES = [(2, 2), (2, 3), (3, 3), (2, 4), (3, 4), (4, 4)]
ALGEBRA_SHAPES = [(2, 2), (2, 3), (3, 3), (3, 4), (4, 4)]
BASIS_COND = 10.0  # condition-number ceiling of every generated grid basis

# checks `verify-tpp` must report on a commuting but incomplete pair
INCOMPLETE_CHECKS = {"commute": True, "star_closed": True, "dims_square": False,
                     "mutual_commutant": False, "trivial_center": False,
                     "join_full": False}


def complex_normal(rng, *shape):
    return rng.normal(size=shape) + 1j * rng.normal(size=shape)


def canonical_columns(b):
    """Unit columns whose largest-magnitude entry is real positive: the form
    in which tpskit returns joint eigenvectors, so a grid built from such a
    basis comes back unchanged."""
    b = b / np.linalg.norm(b, axis=0)
    pivots = b[np.argmax(np.abs(b), axis=0), np.arange(b.shape[1])]
    return b * (np.abs(pivots) / pivots)


def random_unitary(rng, n):
    q, r = np.linalg.qr(complex_normal(rng, n, n))
    return canonical_columns(q * (np.diagonal(r) / np.abs(np.diagonal(r))))


def conditioned_basis(rng, n):
    """Invertible basis with unit columns and condition number at most
    about BASIS_COND."""
    s = np.exp(rng.uniform(0.0, np.log(BASIS_COND), size=n))
    b = (random_unitary(rng, n) * s) @ random_unitary(rng, n).conj().T
    return canonical_columns(b)


def rank_coefficients(rng, k, l, rank):
    """k x l coefficient matrix of exact rank `rank` (generic factors)."""
    return complex_normal(rng, k, rank) @ complex_normal(rng, rank, l)


def known_rank_batch(rng, k, l):
    """Coefficient matrices with their Schmidt ranks: two product, two rank
    2 and two generic (full rank)."""
    ranks = [1, 1, 2, 2, min(k, l), min(k, l)]
    return [(rank_coefficients(rng, k, l, r), r) for r in ranks]


def states_in(basis, batch):
    """States with the given coefficient matrices relative to a grid basis."""
    return [(basis @ c.reshape(-1), r) for c, r in batch]


def standard_pair(rng, basis, k, l, unitary):
    """Commuting (r, t) whose joint eigenvector grid is `basis`: r acts as
    diag(lam) on the first factor and t as diag(mu) on the second."""
    lam = np.arange(k) + rng.uniform(0.1, 0.4, size=k)
    mu = np.arange(l) + rng.uniform(0.1, 0.4, size=l)
    inv = basis.conj().T if unitary else np.linalg.inv(basis)
    r = basis @ np.kron(np.diag(lam), np.eye(l)) @ inv
    t = basis @ np.kron(np.eye(k), np.diag(mu)) @ inv
    return r, t


def second_factor_observable(rng, u, k, l):
    """Generic Hermitian element of the second factor of the unitary grid u;
    it generates a commutative algebra of dimension l."""
    mu = np.arange(l) + rng.uniform(0.1, 0.4, size=l)
    return u @ np.kron(np.eye(k), np.diag(mu)) @ u.conj().T


# -- polynomial grids ---------------------------------------------------------

def _nonzero_ints(rng, size):
    vals = rng.integers(1, 10, size=size) * rng.choice([-1, 1], size=size)
    return vals + 1j * rng.integers(-9, 10, size=size)


def com_coefficients(rng, d, rank):
    """(X, x) coefficient matrix of exact rank `rank` with integer entries,
    supported on total degree <= d-1 so it fits the d x d grid both ways.

    Term m is a_m b_m^T with a_m on degrees 0..d-1-m and b_m on 0..m, all
    entries nonzero, so the a_m and the b_m are triangular and independent.
    """
    c = np.zeros((d, d), dtype=np.complex128)
    if rank == 1:
        p = (d - 1) // 2  # fixed support, so the op's cost does not vary by seed
        c[: p + 1, : d - p] = np.outer(_nonzero_ints(rng, p + 1),
                                       _nonzero_ints(rng, d - p))
        return c
    for m in range(rank):
        a = np.zeros(d, dtype=np.complex128)
        b = np.zeros(d, dtype=np.complex128)
        a[: d - m] = _nonzero_ints(rng, d - m)
        b[: m + 1] = _nonzero_ints(rng, m + 1)
        c += np.outer(a, b)
    return c


def com_to_x1x2(c):
    """Exact (x1, x2) coefficients of sum c[a, b] X^a x^b, where
    X = (x1 + x2)/2 and x = x1 - x2."""
    d = c.shape[0]
    out = [[Fraction(0), Fraction(0)] for _ in range(d * d)]
    for a in range(d):
        for b in range(d):
            if c[a, b] == 0:
                continue
            re, im = Fraction(c[a, b].real), Fraction(c[a, b].imag)
            for p in range(a + 1):
                for q in range(b + 1):
                    coef = Fraction(comb(a, p), 2 ** a) * comb(b, q) * (-1) ** (b - q)
                    cell = out[(p + q) * d + (a - p) + (b - q)]
                    cell[0] += coef * re
                    cell[1] += coef * im
    return np.array([complex(float(re), float(im)) for re, im in out]).reshape(d, d)


# -- workload plans -----------------------------------------------------------

def verdict_stream_plan(rng):
    """One pass of grid sources x shapes; each op builds a grid and
    classifies a batch of states of known rank."""
    sources = [
        ("tps_new", GRID_SHAPES),
        ("observables_unitary", GRID_SHAPES),
        ("observables_general", GRID_SHAPES),
        ("state_product", GRID_SHAPES),
        ("state_entangled", GRID_SHAPES),
        ("dual_verdict", GRID_SHAPES),
        ("poly_deformed", [(d, d) for d in POLY_DEGREES]),
        ("poly_com", [(d, d) for d in POLY_DEGREES]),
        ("complementary", COMPLEMENTARY_SHAPES),
    ]
    plan = []
    for idx in range(max(len(shapes) for _, shapes in sources)):
        for kind, shapes in sources:
            if idx < len(shapes):
                plan.append(_verdict_op(rng, kind, *shapes[idx]))
    return plan


def _verdict_op(rng, kind, k, l):
    n = k * l
    op = {"kind": kind, "k": k, "l": l}
    if kind == "tps_new":
        op["basis"] = conditioned_basis(rng, n)
        op["states"] = states_in(op["basis"], known_rank_batch(rng, k, l))
    elif kind in ("observables_unitary", "observables_general", "complementary"):
        unitary = kind != "observables_general"
        basis = random_unitary(rng, n) if unitary else conditioned_basis(rng, n)
        op["basis"] = basis
        op["r"], op["t"] = standard_pair(rng, basis, k, l, unitary)
        op["states"] = states_in(basis, known_rank_batch(rng, k, l))
    elif kind in ("state_product", "state_entangled", "dual_verdict"):
        op["w"] = complex_normal(rng, n)
        op["batch"] = known_rank_batch(rng, k, l)
    elif kind == "poly_deformed":
        alpha = (0.5 + rng.uniform(size=(k, k))) * np.exp(2j * np.pi * rng.uniform(size=(k, k)))
        op["alpha"] = alpha
        op["states"] = states_in(np.diag(alpha.reshape(-1)), known_rank_batch(rng, k, k))
    elif kind == "poly_com":
        polys = []
        for r in (1, 2, k):
            c = com_coefficients(rng, k, r)
            polys.append((com_to_x1x2(c), c, r))
        op["polys"] = polys
    else:
        raise ValueError(f"unknown grid source {kind}")
    return op


def tpp_certify_plan(rng):
    return [{"kind": "certify", "k": k, "l": l,
             "basis": random_unitary(rng, k * l),
             "seed": int(rng.integers(0, 2 ** 31))}
            for k, l in ALGEBRA_SHAPES]


# -- CLI files ----------------------------------------------------------------

def matrix_json(m):
    m = np.asarray(m, dtype=np.complex128).reshape(m.shape[0], -1)
    return {"rows": m.shape[0], "cols": m.shape[1],
            "data": [[float(z.real), float(z.imag)] for z in m.reshape(-1)]}


def factor_spans(u, k, l):
    """Spans of the two factor algebras of the unitary grid u."""
    uh = u.conj().T
    units = [np.outer(np.eye(k)[a], np.eye(k)[b]) for a in range(k) for b in range(k)]
    span1 = [u @ np.kron(e, np.eye(l)) @ uh for e in units]
    units = [np.outer(np.eye(l)[a], np.eye(l)[b]) for a in range(l) for b in range(l)]
    span2 = [u @ np.kron(np.eye(k), e) @ uh for e in units]
    return span1, span2


def algebra_json(span):
    return {"n": span[0].shape[0], "span": [matrix_json(m) for m in span]}


def cli_plan(rng, out_dir):
    """Write the CLI input files under out_dir and return one pass of calls,
    each with its argv and expected answer."""
    out_dir.mkdir(parents=True, exist_ok=True)

    def dump(name, obj):
        path = out_dir / name
        path.write_text(json.dumps(obj))
        return str(path)

    plan = []
    # analyze: a state of known rank (chosen by the seed) in a 6x6 grid
    basis = conditioned_basis(rng, 36)
    rank = int(rng.choice([1, 2, 6]))
    w = basis @ rank_coefficients(rng, 6, 6, rank).reshape(-1)
    tps_file = dump("analyze_tps.json", {"dim": 36, "k": 6, "l": 6,
                                         "basis": matrix_json(basis)})
    state_file = dump("analyze_state.json", matrix_json(w.reshape(-1, 1)))
    plan.append({"sub": "analyze", "rank": rank,
                 "argv": ["analyze", "--state", state_file, "--tps", tps_file]})
    # build-tps: 4x4 unitary observable pair; the grid must come back as u
    u = random_unitary(rng, 16)
    r, t = standard_pair(rng, u, 4, 4, unitary=True)
    pair_file = dump("build_pair.json", {"r": matrix_json(r), "t": matrix_json(t),
                                         "hermitian": True})
    plan.append({"sub": "build-tps", "basis": u,
                 "argv": ["build-tps", "--observables", pair_file]})
    # refactor --mode dual: 3x4 grid pair with opposite verdicts on w
    w = complex_normal(rng, 12)
    state_file = dump("refactor_state.json", matrix_json(w.reshape(-1, 1)))
    plan.append({"sub": "refactor", "w": w,
                 "argv": ["refactor", "--state", state_file, "--shape", "3x4",
                          "--mode", "dual"]})
    # verify-tpp: a 3x3 factor pair (exit 0) and an incomplete one (exit 1)
    u = random_unitary(rng, 9)
    span1, span2 = factor_spans(u, 3, 3)
    h = second_factor_observable(rng, u, 3, 3)
    a1 = dump("tpp_a1.json", algebra_json(span1))
    a2 = dump("tpp_a2.json", algebra_json(span2))
    a2_bad = dump("tpp_a2_incomplete.json", algebra_json([np.eye(9), h, h @ h]))
    plan.append({"sub": "verify-tpp", "accept": True,
                 "argv": ["verify-tpp", "--a1", a1, "--a2", a2]})
    plan.append({"sub": "verify-tpp", "accept": False,
                 "argv": ["verify-tpp", "--a1", a1, "--a2", a2_bad]})
    plan.append({"sub": "example", "argv": ["example", "bell"]})
    plan.append({"sub": "example", "argv": ["example", "com", "--degree", "4"]})
    return plan
