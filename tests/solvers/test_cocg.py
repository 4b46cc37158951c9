"""Tests for single-vector COCG: ``block_cocg_solve`` at block size 1.

On real SPD input the unconjugated recurrence is classical CG, so the
``TestCG`` cases run it there and check it against SciPy's CG."""

import numpy as np
import pytest
import scipy.sparse.linalg as spla
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.solvers import block_cocg_solve
from tests.solvers.conftest import (
    make_complex_symmetric,
    make_definite_sternheimer,
    make_indefinite_sternheimer,
)


class TestCG:
    def test_solves_spd_system(self, rng):
        n = 40
        a = rng.standard_normal((n, n))
        A = a @ a.T + n * np.eye(n)
        b = rng.standard_normal(n)
        res = block_cocg_solve(A, b, tol=1e-10)
        assert res.converged
        assert np.linalg.norm(A @ res.solution - b) <= 1e-9 * np.linalg.norm(b)

    def test_zero_rhs(self):
        res = block_cocg_solve(np.eye(4), np.zeros(4))
        assert res.converged and res.iterations == 0
        assert np.all(res.solution == 0)

    def test_respects_initial_guess(self, rng):
        n = 30
        a = rng.standard_normal((n, n))
        A = a @ a.T + n * np.eye(n)
        x_true = rng.standard_normal(n)
        b = A @ x_true
        res = block_cocg_solve(A, b, x0=x_true, tol=1e-12)
        assert res.converged and res.iterations == 0

    def test_nonconvergence_reported(self, rng):
        n = 50
        a = rng.standard_normal((n, n))
        A = a @ a.T + 0.01 * np.eye(n)  # ill-conditioned
        b = rng.standard_normal(n)
        res = block_cocg_solve(A, b, tol=1e-14, max_iterations=3)
        assert not res.converged
        assert res.iterations == 3


class TestCOCG:
    @pytest.mark.parametrize("maker", [make_complex_symmetric, make_definite_sternheimer])
    def test_solves_complex_symmetric(self, maker, rng):
        n = 40
        A = maker(n, seed=7)
        b = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        res = block_cocg_solve(A, b, tol=1e-10, max_iterations=500)
        assert res.converged
        assert np.linalg.norm(A @ res.solution - b) <= 1e-8 * np.linalg.norm(b)

    def test_hard_indefinite_system(self, rng):
        n = 60
        A = make_indefinite_sternheimer(n, seed=3, omega=0.05)
        b = rng.standard_normal(n) + 0j
        res = block_cocg_solve(A, b, tol=1e-8, max_iterations=2000)
        assert res.converged
        assert np.linalg.norm(A @ res.solution - b) <= 1e-6 * np.linalg.norm(b)

    def test_reduces_to_cg_on_real_spd(self, rng):
        # On real SPD input COCG's unconjugated recurrence coincides with CG.
        n = 30
        a = rng.standard_normal((n, n))
        A = a @ a.T + n * np.eye(n)
        b = rng.standard_normal(n)
        cg_iterations = []
        x_cg, info = spla.cg(A, b, rtol=1e-10, atol=0.0,
                             callback=lambda xk: cg_iterations.append(1))
        res = block_cocg_solve(A, b, tol=1e-10)
        assert info == 0 and res.converged
        assert res.iterations == len(cg_iterations)
        assert np.allclose(res.solution, x_cg, atol=1e-8)

    def test_residual_history_starts_at_one(self, rng):
        A = make_complex_symmetric(20, seed=5)
        b = rng.standard_normal(20) + 0j
        res = block_cocg_solve(A, b, tol=1e-8)
        assert res.residual_history[0] == pytest.approx(1.0)
        assert res.residual_history[-1] <= 1e-8

    def test_harder_systems_take_more_iterations(self, rng):
        n = 60
        b = rng.standard_normal(n) + 0j
        easy = block_cocg_solve(make_definite_sternheimer(n, seed=1, omega=5.0), b,
                                tol=1e-8, max_iterations=3000)
        hard = block_cocg_solve(make_indefinite_sternheimer(n, seed=1, omega=0.02), b,
                                tol=1e-8, max_iterations=3000)
        assert easy.converged and hard.converged
        assert hard.iterations > easy.iterations

    def test_zero_rhs(self):
        res = block_cocg_solve(make_complex_symmetric(5), np.zeros(5))
        assert res.converged and res.iterations == 0

    def test_invalid_tol(self):
        with pytest.raises(ValueError):
            block_cocg_solve(np.eye(3, dtype=complex), np.ones(3), tol=0.0)


@settings(deadline=None, max_examples=20)
@given(
    n=st.integers(min_value=5, max_value=30),
    seed=st.integers(min_value=0, max_value=10_000),
    omega=st.floats(min_value=0.05, max_value=10.0),
)
def test_property_cocg_solves_random_sternheimer(n, seed, omega):
    """COCG converges on random real-symmetric + i*omega*I systems."""
    A = make_complex_symmetric(n, seed=seed, omega=omega)
    rng = np.random.default_rng(seed + 1)
    b = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    res = block_cocg_solve(A, b, tol=1e-9, max_iterations=50 * n)
    assert res.converged
    assert np.linalg.norm(A @ res.solution - b) <= 1e-6 * np.linalg.norm(b)
