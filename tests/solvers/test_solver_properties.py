"""Property-based solver contracts (hypothesis over random Sternheimer systems).

Every Krylov solver in the stack must satisfy the same two invariants on
randomized complex-symmetric systems ``(S + i omega I) x = b``:

1. **No silent wrong answers** — when a solver reports ``converged=True``,
   the *true* relative residual of the returned iterate meets the requested
   tolerance (up to a small slack for the recurrence-vs-true residual gap).
2. **Truthful failure** — when it reports ``converged=False`` the returned
   state is still usable: finite iterate, finite reported residual,
   non-empty history.

Converged solutions must also agree with ``numpy.linalg.solve`` on the same
system, which pins the solvers against an independent dense implementation.
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.resilience import EscalationPolicy, default_stages
from repro.solvers import (
    block_cocg_bf_solve,
    block_cocg_solve,
    gmres_solve,
)
from repro.solvers.gmres import gmres_block_solve

pytestmark = pytest.mark.resilience

# The recurrence residual can drift from the true residual by a modest
# factor; converged claims are held to tol * SLACK against the true residual.
SLACK = 50.0
TOL = 1e-8

BLOCK_SOLVERS = {
    "block_cocg": block_cocg_solve,
    "block_cocg_bf": block_cocg_bf_solve,
    "gmres_block": gmres_block_solve,
    "escalation_policy": EscalationPolicy(default_stages()),
}
SINGLE_SOLVERS = {"cocg": block_cocg_solve, "gmres": gmres_solve}


def _system(n: int, seed: int, omega: float, definite: bool):
    """Random complex-symmetric Sternheimer-shaped system ``A, B``."""
    rng = np.random.default_rng(seed)
    q, _ = np.linalg.qr(rng.standard_normal((n, n)))
    if definite:
        lam = rng.uniform(0.1, 10.0, size=n)
    else:
        lam = rng.uniform(-5.0, 5.0, size=n)
    a = (q * lam) @ q.T + 1j * omega * np.eye(n)
    return a


system_params = st.tuples(
    st.integers(8, 48),            # n
    st.integers(0, 2**31 - 1),     # seed
    st.floats(0.05, 5.0),          # omega
    st.booleans(),                 # definite real part
)


def _check_contract(a, b, res, label: str) -> None:
    b_norm = np.linalg.norm(b)
    true_residual = np.linalg.norm(b - a @ res.solution) / b_norm
    assert np.all(np.isfinite(res.solution)), f"{label}: non-finite iterate"
    assert np.isfinite(res.residual_norm), f"{label}: non-finite reported residual"
    assert len(res.residual_history) > 0, f"{label}: empty residual history"
    if res.converged:
        assert true_residual <= TOL * SLACK, (
            f"{label}: claimed converged but true residual {true_residual:.3e}"
        )
        # Agreement with the independent dense solve.
        x_ref = np.linalg.solve(a, b if b.ndim == 1 else b)
        denom = np.linalg.norm(x_ref)
        assert np.linalg.norm(res.solution - x_ref) / denom < 1e-5, (
            f"{label}: converged iterate disagrees with numpy.linalg.solve"
        )


@pytest.mark.parametrize("name", sorted(SINGLE_SOLVERS))
@given(params=system_params)
@settings(max_examples=25, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
def test_single_rhs_never_silently_wrong(name, params):
    n, seed, omega, definite = params
    a = _system(n, seed, omega, definite)
    b = np.random.default_rng(seed + 1).standard_normal(n) + 0j
    res = SINGLE_SOLVERS[name](a, b, tol=TOL, max_iterations=4 * n)
    _check_contract(a, b, res, name)


@pytest.mark.parametrize("name", sorted(BLOCK_SOLVERS))
@given(params=system_params, s=st.integers(1, 4))
@settings(max_examples=25, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
def test_block_rhs_never_silently_wrong(name, params, s):
    n, seed, omega, definite = params
    a = _system(n, seed, omega, definite)
    B = np.random.default_rng(seed + 1).standard_normal((n, s)) + 0j
    res = BLOCK_SOLVERS[name](a, B, tol=TOL, max_iterations=4 * n)
    b_norm = np.linalg.norm(B)
    true_residual = np.linalg.norm(B - a @ res.solution) / b_norm
    assert np.all(np.isfinite(res.solution)), f"{name}: non-finite iterate"
    assert np.isfinite(res.residual_norm)
    assert len(res.residual_history) > 0
    if res.converged:
        assert true_residual <= TOL * SLACK, (
            f"{name}: claimed converged but true residual {true_residual:.3e}"
        )
        x_ref = np.linalg.solve(a, B)
        assert np.linalg.norm(res.solution - x_ref) / np.linalg.norm(x_ref) < 1e-5


@given(params=system_params)
@settings(max_examples=15, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
def test_definite_systems_always_converge_through_escalation(params):
    """On definite systems the full chain must actually deliver the answer."""
    n, seed, omega, _ = params
    a = _system(n, seed, omega, definite=True)
    B = np.random.default_rng(seed + 1).standard_normal((n, 2)) + 0j
    res = EscalationPolicy(default_stages())(a, B, tol=TOL, max_iterations=6 * n)
    assert res.converged, f"escalation chain failed on a definite system ({res.stage})"
    true_residual = np.linalg.norm(B - a @ res.solution) / np.linalg.norm(B)
    assert true_residual <= TOL * SLACK


@given(params=system_params)
@settings(max_examples=10, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
def test_iteration_starved_solvers_report_failure(params):
    """With a 1-iteration cap a solver must report failure, never fake success."""
    n, seed, omega, definite = params
    a = _system(n, seed, omega, definite)
    b = np.random.default_rng(seed + 1).standard_normal(n) + 0j
    for name, solver in SINGLE_SOLVERS.items():
        res = solver(a, b, tol=1e-14, max_iterations=1)
        if res.converged:  # a 1-step fluke must still be a true solve
            true_residual = np.linalg.norm(b - a @ res.solution) / np.linalg.norm(b)
            assert true_residual <= 1e-12, name
        assert np.all(np.isfinite(res.solution)), name
