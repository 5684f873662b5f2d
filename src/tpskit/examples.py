"""End-to-end worked scenarios: Bell states, the deformed monomial grid, and
the center-of-mass change of variables.

Each function recomputes every claimed relation, collects the residuals into
a JSON-ready report, and aborts with diagnostics if any internal check fails.
"""

from __future__ import annotations

import numpy as np

from . import observables as obs
from .algebra import contains, is_tpp, tps_to_tpp
from .core import DEFAULT_TOL, Tolerance, subspace_residual
from .poly import (
    change_of_variables,
    deformed_poly_tps,
    monomial,
    poly_state,
    poly_tps,
)
from .serialize import matrix_to_json, schmidt_to_json
from .tps import (
    coefficient_matrix,
    god_given,
    is_inner_product_compatible,
    is_product,
    schmidt,
    tps_equivalent,
)

SIGMA_X = np.array([[0, 1], [1, 0]], dtype=np.complex128)
SIGMA_Y = np.array([[0, -1j], [1j, 0]], dtype=np.complex128)
SIGMA_Z = np.array([[1, 0], [0, -1]], dtype=np.complex128)


def bell_states() -> dict[str, np.ndarray]:
    """The four Bell states in the two-qubit coordinate basis."""
    s = 1 / np.sqrt(2)
    return {
        "psi_plus": np.array([0, s, s, 0], dtype=np.complex128),
        "psi_minus": np.array([0, s, -s, 0], dtype=np.complex128),
        "phi_plus": np.array([s, 0, 0, s], dtype=np.complex128),
        "phi_minus": np.array([s, 0, 0, -s], dtype=np.complex128),
    }


def rotation_x_pi() -> np.ndarray:
    """Two-particle rotation through pi about the x axis."""
    block = 1j * SIGMA_X
    return np.kron(block, block)


def total_sz_squared() -> np.ndarray:
    sz = (np.kron(SIGMA_Z, np.eye(2)) + np.kron(np.eye(2), SIGMA_Z)) / 2
    return sz @ sz


def _require(ok: bool, message: str):
    if not ok:
        raise RuntimeError(f"example self-check failed: {message}")


def example_bell(tol: Tolerance = DEFAULT_TOL) -> dict:
    """Bell states: entangled in the coordinate grid, product vectors in the
    grid built from the rotation/spin observable pair."""
    states = bell_states()
    r = rotation_x_pi()
    t = total_sz_squared()
    gg = god_given(2, 2)

    # R |psi+/-> = -/+ |psi+/->, S_z^2 kills psi and fixes phi
    eigen_residuals = {
        "r_psi_plus": float(np.linalg.norm(r @ states["psi_plus"] + states["psi_plus"])),
        "r_psi_minus": float(np.linalg.norm(r @ states["psi_minus"] - states["psi_minus"])),
        "r_phi_plus": float(np.linalg.norm(r @ states["phi_plus"] + states["phi_plus"])),
        "r_phi_minus": float(np.linalg.norm(r @ states["phi_minus"] - states["phi_minus"])),
        "t_psi_plus": float(np.linalg.norm(t @ states["psi_plus"])),
        "t_psi_minus": float(np.linalg.norm(t @ states["psi_minus"])),
        "t_phi_plus": float(np.linalg.norm(t @ states["phi_plus"] - states["phi_plus"])),
        "t_phi_minus": float(np.linalg.norm(t @ states["phi_minus"] - states["phi_minus"])),
    }
    for name, resid in eigen_residuals.items():
        _require(resid <= 1e-12, f"eigenrelation {name} residual {resid}")

    god_given_ranks = {name: schmidt(w, gg, tol).rank for name, w in states.items()}
    _require(all(rk == 2 for rk in god_given_ranks.values()),
             "Bell states must be maximally entangled in the coordinate grid")

    pair = obs.observable_pair(r, t, tol)
    cs = obs.verify_standard_complete(pair, tol)
    _require(pair.hermitian and cs.k == 2 and cs.l == 2,
             "rotation/spin pair must induce a 2 x 2 grid")

    m1 = np.column_stack([states["psi_plus"], states["psi_minus"]])
    m2 = np.column_stack([states["phi_plus"], states["phi_minus"]])
    n1 = np.column_stack([states["psi_plus"], states["phi_plus"]])
    n2 = np.column_stack([states["psi_minus"], states["phi_minus"]])
    membership_residuals = {
        "M1": subspace_residual(m1, cs.M[0]),
        "M2": subspace_residual(m2, cs.M[1]),
        "N1": subspace_residual(n1, cs.N[0]),
        "N2": subspace_residual(n2, cs.N[1]),
    }
    for name, resid in membership_residuals.items():
        _require(resid <= 1e-10, f"characteristic subspace {name} off by {resid}")

    bell_tps = obs.tps_from_observables(pair, tol)
    _require(is_inner_product_compatible(bell_tps, tol),
             "observable-built grid must be inner-product compatible")
    bell_ranks = {name: schmidt(w, bell_tps, tol).rank for name, w in states.items()}
    _require(all(rk == 1 for rk in bell_ranks.values()),
             "Bell states must be product vectors in the constructed grid")

    a1, a2 = tps_to_tpp(bell_tps)
    verdict = is_tpp(a1, a2, tol)
    _require(verdict.is_tpp, "induced algebra pair must certify")
    _require(contains(a1, r, tol) and contains(a2, t, tol),
             "r and t must lie in their factor algebras")

    pair2 = obs.observable_pair(np.kron(SIGMA_X, SIGMA_X),
                                np.kron(SIGMA_Z, SIGMA_Z), tol)
    cs2 = obs.verify_standard_complete(pair2, tol)
    alt_tps = obs.tps_from_observables(pair2, tol)
    equiv = tps_equivalent(bell_tps, alt_tps, tol)
    _require(equiv.equivalent, "the two observable pairs must induce "
             "equivalent grid structures")

    return {
        "eigen_residuals": eigen_residuals,
        "god_given_ranks": god_given_ranks,
        "constructed_ranks": bell_ranks,
        "characteristic_residuals": membership_residuals,
        "constructed_tps_compatible": True,
        "tpp_checks": verdict.checks,
        "alternative_pair_shape": [cs2.k, cs2.l],
        "alternative_pair_equivalent": equiv.equivalent,
        "constructed_basis": matrix_to_json(bell_tps.basis),
    }


def bargmann_alpha(d: int) -> np.ndarray:
    """Deformation with all coefficients 1 except doubling the (2, 2) cell."""
    alpha = np.ones((d, d), dtype=np.complex128)
    alpha[2, 2] = 2.0
    return alpha


def example_bargmann(d: int = 3, tol: Tolerance = DEFAULT_TOL) -> dict:
    """The four-term state that is a product for the plain monomial grid but
    entangled for the cellwise-rescaled one."""
    if d < 3:
        raise ValueError("d must be at least 3: the deformation lives on "
                         "exponents up to 2")
    coeffs = np.zeros((d, d), dtype=np.complex128)
    for j, i in ((1, 1), (1, 2), (2, 1), (2, 2)):
        coeffs[j, i] = 1.0
    state = poly_state(("x1", "x2"), d, coeffs)
    w = state.vector()

    plain = poly_tps(("x1", "x2"), d)
    deformed = deformed_poly_tps(bargmann_alpha(d), d, tol)

    plain_report = schmidt(w, plain, tol)
    deformed_report = schmidt(w, deformed, tol)
    _require(plain_report.rank == 1, "state must factor over the plain grid")
    _require(deformed_report.rank == 2, "state must entangle over the deformed grid")

    deformed_c = coefficient_matrix(w, deformed)
    equiv = tps_equivalent(plain, deformed, tol)

    return {
        "degree": d,
        "plain_schmidt": schmidt_to_json(plain_report),
        "deformed_schmidt": schmidt_to_json(deformed_report),
        "deformed_coefficients": matrix_to_json(deformed_c),
        "grids_equivalent": equiv.equivalent,
    }


def example_center_of_mass(d: int = 4, tol: Tolerance = DEFAULT_TOL) -> dict:
    """x1*x2 factors over the (x1, x2) monomial grid but not over the
    center-of-mass grid, where it becomes X^2 - x^2/4."""
    if d < 3:
        raise ValueError("d must be at least 3: need exponents up to 2 on "
                         "the target grid")
    state = monomial(("x1", "x2"), d, 1, 1)
    plain = poly_tps(("x1", "x2"), d)
    plain_report = schmidt(state.vector(), plain, tol)
    _require(plain_report.rank == 1, "x1*x2 must factor over the (x1, x2) grid")

    com_state = change_of_variables(state, d)
    com = poly_tps(("X", "x"), d)
    com_report = schmidt(com_state.vector(), com, tol)
    _require(com_report.rank == 2, "x1*x2 must entangle over the (X, x) grid")
    expected = np.zeros((d, d), dtype=np.complex128)
    expected[2, 0] = 1.0
    expected[0, 2] = -0.25
    _require(float(np.max(np.abs(com_state.coeffs - expected))) <= 1e-12,
             "center-of-mass coefficients must be X^2 - x^2/4")

    # number operators on the truncated grid: X d/dX and x d/dx
    counts = np.diag(np.arange(d)).astype(np.complex128)
    r = np.kron(counts, np.eye(d))
    t = np.kron(np.eye(d), counts)
    pair = obs.observable_pair(r, t, tol)
    cs = obs.verify_standard_complete(pair, tol)
    _require(cs.k == d and cs.l == d, "number pair must induce a d x d grid")
    monomial_residuals = []
    for i in range(d):
        coords = np.eye(d * d, dtype=np.complex128)[:, [j * d + i for j in range(d)]]
        monomial_residuals.append(subspace_residual(coords, cs.M[i]))
    _require(max(monomial_residuals) <= 1e-10,
             "characteristic subspaces must be the monomial fibers")

    return {
        "degree": d,
        "plain_schmidt": schmidt_to_json(plain_report),
        "com_schmidt": schmidt_to_json(com_report),
        "com_coefficients": matrix_to_json(com_state.coeffs),
        "characteristic_residual": max(monomial_residuals),
        "grid_shape": [cs.k, cs.l],
    }
