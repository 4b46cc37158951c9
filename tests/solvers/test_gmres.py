"""Tests for the restarted GMRES baseline."""

import numpy as np
import pytest

from repro.solvers import block_cocg_solve, gmres_solve
from tests.solvers.conftest import make_complex_symmetric, make_indefinite_sternheimer


class TestGMRES:
    def test_solves_nonsymmetric_system(self, rng):
        n = 40
        A = rng.standard_normal((n, n)) + n * np.eye(n)
        b = rng.standard_normal(n)
        res = gmres_solve(A, b, tol=1e-10)
        assert res.converged
        assert np.linalg.norm(A @ res.solution - b) <= 1e-8 * np.linalg.norm(b)

    def test_solves_complex_symmetric(self, rng):
        n = 40
        A = make_complex_symmetric(n, seed=3)
        b = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        res = gmres_solve(A, b, tol=1e-10, max_iterations=500)
        assert res.converged
        assert np.linalg.norm(A @ res.solution - b) <= 1e-8 * np.linalg.norm(b)

    def test_full_gmres_converges_in_at_most_n_iterations(self, rng):
        n = 25
        A = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        A += 2 * n * np.eye(n)
        b = rng.standard_normal(n) + 0j
        res = gmres_solve(A, b, tol=1e-12, restart=n, max_iterations=n)
        assert res.converged
        assert res.iterations <= n

    def test_restarting_still_converges(self, rng):
        n = 60
        A = make_indefinite_sternheimer(n, seed=5, omega=0.3)
        b = rng.standard_normal(n) + 0j
        res = gmres_solve(A, b, tol=1e-8, restart=15, max_iterations=3000)
        assert res.converged
        assert np.linalg.norm(A @ res.solution - b) <= 1e-6 * np.linalg.norm(b)

    def test_zero_rhs(self):
        res = gmres_solve(np.eye(4, dtype=complex), np.zeros(4))
        assert res.converged and res.iterations == 0

    def test_initial_guess(self, rng):
        n = 30
        A = rng.standard_normal((n, n)) + n * np.eye(n)
        x = rng.standard_normal(n)
        res = gmres_solve(A, A @ x, x0=x, tol=1e-10)
        assert res.converged and res.iterations == 0

    def test_invalid_args(self):
        with pytest.raises(ValueError):
            gmres_solve(np.eye(3), np.ones(3), tol=-1.0)
        with pytest.raises(ValueError):
            gmres_solve(np.eye(3), np.ones(3), restart=0)
        with pytest.raises(ValueError):
            gmres_solve(np.eye(3), np.ones((3, 2)))

    def test_monotone_residuals_within_cycle(self, rng):
        # GMRES residuals are non-increasing (its optimality property) —
        # unlike COCG. This is the paper's Section III-B contrast.
        n = 50
        A = make_indefinite_sternheimer(n, seed=7, omega=0.2)
        b = rng.standard_normal(n) + 0j
        res = gmres_solve(A, b, tol=1e-10, restart=n, max_iterations=n)
        h = np.array(res.residual_history)
        assert np.all(np.diff(h) <= 1e-12)

    def test_cocg_cheaper_per_converged_solve_in_memory(self, rng):
        # Not a perf assertion: just that both arrive at the same solution,
        # GMRES via long recurrence, COCG via short recurrence.
        n = 40
        A = make_complex_symmetric(n, seed=9, omega=2.0)
        b = rng.standard_normal(n) + 0j
        r1 = gmres_solve(A, b, tol=1e-10, restart=n)
        r2 = block_cocg_solve(A, b, tol=1e-10, max_iterations=2000)
        assert r1.converged and r2.converged
        assert np.allclose(r1.solution, r2.solution, atol=1e-7)
