"""Failure-injection tests: the solver stack under hostile inputs.

The paper's production tolerances hide most numerical pathology; these
tests force singular shifts, stagnation, NaN injection and iteration
exhaustion to pin down the failure *reporting* contract: no silent wrong
answers, no crashes on recoverable paths.
"""

import warnings

import numpy as np
import pytest

from repro.core import Chi0Operator, filtered_subspace_iteration
from repro.solvers import (
    block_cocg_bf_solve,
    block_cocg_solve,
    gmres_solve,
    solve_with_dynamic_block_size,
)
from repro.solvers.gmres import gmres_block_solve
from tests.solvers.conftest import make_indefinite_sternheimer


class TestSingularShifts:
    def test_exactly_singular_system_reports_failure(self, rng):
        # omega = 0 with lambda_j an exact eigenvalue: A is singular.
        n = 30
        q, _ = np.linalg.qr(rng.standard_normal((n, n)))
        lam = np.linspace(-1.0, 5.0, n)
        H = (q * lam) @ q.T
        A = H - lam[3] * np.eye(n)  # singular, purely real
        b = rng.standard_normal(n) + 0j
        res = block_cocg_solve(A, b, tol=1e-10, max_iterations=500)
        # The failure contract: no silent wrong answer, and the reported
        # state must be usable by a recovery layer (finite best iterate,
        # truthful residual, non-empty history).
        assert not res.converged
        assert np.all(np.isfinite(res.solution))
        assert np.isfinite(res.residual_norm) and res.residual_norm > 1e-10
        assert len(res.residual_history) > 0
        true_res = np.linalg.norm(A @ res.solution - b) / np.linalg.norm(b)
        assert true_res > 1e-10  # genuinely unsolved, matching the report

    @pytest.mark.parametrize("solver, b", [
        (gmres_solve, np.array([1.0, 0.0, 0.0], dtype=complex)),
        (gmres_block_solve, np.array([[1.0], [0.0], [0.0]], dtype=complex)),
    ])
    def test_gmres_first_direction_in_null_space_reports_breakdown(self, solver, b):
        # The first Arnoldi vector is an exact null vector of A: H[0, 0] and
        # H[1, 0] are both zero, so GMRES's least-squares system is singular.
        # The escalation chain's last stage must report that, not raise.
        A = np.diag([0.0, 1.0, 2.0]).astype(complex)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            res = solver(A, b, tol=1e-8, max_iterations=20)
        assert not res.converged and res.breakdown
        assert np.all(np.isfinite(res.solution))
        true_res = np.linalg.norm(A @ res.solution - b) / np.linalg.norm(b)
        assert res.residual_norm == pytest.approx(true_res) and true_res > 0.5

    def test_near_singular_still_converges_slowly(self, rng):
        n = 40
        q, _ = np.linalg.qr(rng.standard_normal((n, n)))
        lam = np.linspace(-1.0, 5.0, n)
        H = (q * lam) @ q.T
        A = H - lam[3] * np.eye(n) + 1e-4j * np.eye(n)
        b = rng.standard_normal(n) + 0j
        easy = block_cocg_solve(H + 10j * np.eye(n), b, tol=1e-8, max_iterations=10_000)
        hard = block_cocg_solve(A, b, tol=1e-8, max_iterations=10_000)
        assert hard.iterations > easy.iterations

    def test_chi0_rejects_omega_zero(self, toy_dft, toy_coulomb):
        op = Chi0Operator(toy_dft.hamiltonian, toy_dft.occupied_orbitals,
                          toy_dft.occupied_energies, toy_coulomb)
        with pytest.raises(ValueError):
            op.apply_chi0(np.ones(toy_dft.grid.n_points), omega=0.0)
        with pytest.raises(ValueError):
            op.apply_chi0(np.ones(toy_dft.grid.n_points), omega=-0.5)


class TestNaNInjection:
    def test_block_cocg_flags_nan_operator(self, rng):
        n = 20
        calls = {"k": 0}

        def poisoned(x):
            calls["k"] += 1
            # Poison the very first operator application.
            return 2.0 * x * (np.nan if calls["k"] == 1 else 1.0)

        B = rng.standard_normal((n, 2)) + 0j
        res = block_cocg_solve(poisoned, B, tol=1e-12, max_iterations=50, n=n)
        assert res.breakdown
        assert not res.converged

    def test_breakdown_free_flags_nan_operator(self, rng):
        n = 20
        calls = {"k": 0}

        def poisoned(x):
            calls["k"] += 1
            return x * (np.nan if calls["k"] == 1 else 1.0)

        B = rng.standard_normal((n, 2)) + 0j
        res = block_cocg_bf_solve(poisoned, B, tol=1e-12, max_iterations=50, n=n)
        assert res.breakdown

    def test_subspace_iteration_surfaces_poisoned_operator(self, rng):
        n = 30
        A = -np.diag(np.geomspace(3.0, 1e-4, n))

        def poisoned(V):
            return A @ V * np.nan

        v0 = rng.standard_normal((n, 4))
        with pytest.raises((RuntimeError, np.linalg.LinAlgError, ValueError)):
            filtered_subspace_iteration(poisoned, v0, tol=1e-6, max_iterations=3)


class TestIterationExhaustion:
    def test_gmres_returns_best_effort(self, rng):
        n = 50
        A = make_indefinite_sternheimer(n, seed=1, omega=0.01)
        b = rng.standard_normal(n) + 0j
        res = gmres_solve(A, b, tol=1e-14, max_iterations=5, restart=5)
        assert not res.converged
        assert res.iterations == 5
        assert np.all(np.isfinite(res.solution))

    def test_dynamic_block_size_reports_unconverged_chunks(self, rng):
        n = 60
        A = make_indefinite_sternheimer(n, seed=2, omega=0.01)
        B = rng.standard_normal((n, 8)) + 0j
        res = solve_with_dynamic_block_size(A, B, tol=1e-13, max_iterations=3)
        assert not res.converged
        assert res.solution.shape == B.shape

    def test_chi0_operator_counts_unconverged_solves(self, toy_dft, toy_coulomb):
        op = Chi0Operator(toy_dft.hamiltonian, toy_dft.occupied_orbitals,
                          toy_dft.occupied_energies, toy_coulomb,
                          tol=1e-13, max_iterations=2, dynamic_block_size=False)
        v = np.random.default_rng(0).standard_normal(toy_dft.grid.n_points)
        op.apply_chi0(v, 0.05)
        assert op.stats.n_unconverged > 0
