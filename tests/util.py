"""Shared seeded generators for the test suite."""

import numpy as np

import tpskit.algebra
from tpskit.core import DEFAULT_TOL
from tpskit.observables import (
    _chain_matrix,
    complementary_pair,
    observable_pair,
    verify_standard_complete,
)

SHAPES = [(2, 2), (2, 3), (3, 3), (3, 4), (4, 4)]


def random_state(rng, n):
    return rng.normal(size=n) + 1j * rng.normal(size=n)


def random_unitary(rng, n):
    z = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    q, r = np.linalg.qr(z)
    return q * (np.diagonal(r) / np.abs(np.diagonal(r)))


def random_invertible(rng, n):
    while True:
        m = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
        s = np.linalg.svd(m, compute_uv=False)
        if s[-1] > 1e-3 * s[0]:
            return m


def near_unitary(rng, n, frac):
    """A basis B whose Gram defect ||B^* B - 1||_F is `frac` times the bound
    of `is_inner_product_compatible` at the default tolerance."""
    d = rng.normal(size=n)
    d *= frac * 10 * DEFAULT_TOL.residual * n / np.linalg.norm(d)
    return (random_unitary(rng, n) * np.sqrt(1 + d)) @ random_unitary(rng, n)


def random_standard_pair(rng, k, l, unitary=True):
    """A commuting operator pair with the k x l joint-eigenspace grid,
    conjugated by a random basis change."""
    n = k * l
    g = random_unitary(rng, n) if unitary else random_invertible(rng, n)
    gi = g.conj().T if unitary else np.linalg.inv(g)
    lam = np.arange(k, dtype=float) + rng.uniform(0.1, 0.4, size=k)
    mu = np.arange(l, dtype=float) + rng.uniform(0.1, 0.4, size=l)
    r = g @ np.kron(np.diag(lam), np.eye(l)) @ gi
    t = g @ np.kron(np.eye(k), np.diag(mu)) @ gi
    return r, t


def forbid_algebra(monkeypatch, *names):
    """Make the named functions of tpskit.algebra raise when called."""
    def called(*args, **kwargs):
        raise AssertionError("algebra function called on a path that needs none")
    for name in names:
        monkeypatch.setattr(tpskit.algebra, name, called)


def count_calls(monkeypatch, module, name, replacement=None):
    """Record the positional arguments of every call of module.<name>,
    which runs `replacement` instead when one is given."""
    calls = []
    original = getattr(module, name)

    def counted(*args, **kwargs):
        calls.append(args)
        return (replacement or original)(*args, **kwargs)

    monkeypatch.setattr(module, name, counted)
    return calls


COMPLEMENTARY_SHAPES = [(1, 3), (3, 1), (2, 2), (2, 3), (3, 2), (3, 3),
                        (2, 4), (4, 3), (4, 4), (5, 5)]


def complementary_corpus(rng):
    """Seeded (kind, p1, p2) pairs for the complementarity condition: per
    shape of COMPLEMENTARY_SHAPES, with a unitary and a non-unitary p1,
    ten partner kinds.  p1 = (r, t); a partner's operators are written in
    p1's grid, where cell (j, i) is column j*l + i, so kron(K, I) acts on
    the eigenspaces of t (the M family) and kron(I, K) on those of r (N)."""
    def spectrum(size):
        return np.arange(size) + rng.uniform(0.1, 0.4, size=size)

    def random_k(size):
        return rng.normal(size=(size, size)) + 1j * rng.normal(size=(size, size))

    out = []
    for unitary in (True, False):
        for k, l in COMPLEMENTARY_SHAPES:
            r, t = random_standard_pair(rng, k, l, unitary)
            p1 = observable_pair(r, t)
            cs = verify_standard_complete(p1)
            g, gi = cs.grid, np.linalg.inv(cs.grid)
            lams = cs.r_eigenvalues.astype(complex)
            km = _chain_matrix(lams)

            def on_grid(block):
                return g @ block @ gi

            def per_fiber(blocks):
                block = np.zeros((k * l, k * l), dtype=complex)
                for i, b in enumerate(blocks):
                    block[i::l, i::l] = b
                return on_grid(block)

            swapped = observable_pair(t, r)
            chained_t = complementary_pair(
                swapped, verify_standard_complete(swapped)).r
            scaled = observable_pair(10.0 ** rng.uniform(-6, 5) * r, t)
            mus = cs.t_eigenvalues[rng.permutation(l)]
            kappa = spectrum(k)
            kinds = {
                "chain_M": complementary_pair(p1, cs),
                "chain_N": observable_pair(r, chained_t),
                "random_K": observable_pair(
                    on_grid(np.kron(random_k(k), np.eye(l))), t),
                "random_K_per_fiber": observable_pair(per_fiber(
                    [(s := random_k(k)) @ np.diag(kappa) @ np.linalg.inv(s)
                     for _ in range(l)]), t),
                # a spectrum per fiber: p2 is not standard complete
                "spectrum_per_fiber": observable_pair(per_fiber(
                    [np.diag(spectrum(k)) for _ in range(l)]), t),
                "diagonal_K": observable_pair(
                    on_grid(np.kron(np.diag(spectrum(k)), np.eye(l))), t),
                "non_isomorphic": observable_pair(
                    per_fiber([km] + [km.T] * (l - 1)), t),
                "self": p1,
                "permuted_t": observable_pair(
                    complementary_pair(p1, cs).r,
                    on_grid(np.kron(np.eye(k), np.diag(mus)))),
            }
            out += [(kind, p1, p2) for kind, p2 in kinds.items()]
            out.append(("scaled_r", scaled,
                        complementary_pair(scaled,
                                           verify_standard_complete(scaled))))
    return out
