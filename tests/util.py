"""Shared seeded generators for the test suite."""

import numpy as np

import tpskit.algebra

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
