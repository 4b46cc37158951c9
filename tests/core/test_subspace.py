"""Tests for filtered subspace iteration (Algorithms 2/5)."""

import numpy as np
import pytest

from repro.core import SerialScheduler, filtered_subspace_iteration


def _decaying_operator(n=200, n_big=12, seed=0):
    """Synthetic nu^{1/2} chi0 nu^{1/2}-like matrix: negative semi-definite
    with a rapidly decaying spectrum (Figure 1's shape)."""
    rng = np.random.default_rng(seed)
    q, _ = np.linalg.qr(rng.standard_normal((n, n)))
    mu = np.zeros(n)
    mu[:n_big] = -np.geomspace(5.0, 0.2, n_big)
    mu[n_big:] = -np.geomspace(0.05, 1e-6, n - n_big)
    mu = np.sort(mu)
    A = (q * mu) @ q.T
    return A, mu


class TestFilteredSubspace:
    def test_finds_lowest_eigenvalues(self):
        A, mu = _decaying_operator()
        rng = np.random.default_rng(1)
        v0 = rng.standard_normal((A.shape[0], 8))
        res = filtered_subspace_iteration(lambda V: A @ V, v0, tol=1e-6,
                                          degree=4, max_iterations=60)
        assert res.converged
        assert np.allclose(res.eigenvalues, mu[:8], atol=1e-4)

    def test_warm_start_skips_filtering(self):
        A, mu = _decaying_operator()
        rng = np.random.default_rng(2)
        v0 = rng.standard_normal((A.shape[0], 8))
        first = filtered_subspace_iteration(lambda V: A @ V, v0, tol=1e-6,
                                            degree=4, max_iterations=60)
        # Restart from the converged eigenvectors: Algorithm 5 checks Eq. 7
        # before any filtering, so zero filtered iterations are needed.
        second = filtered_subspace_iteration(lambda V: A @ V, first.vectors,
                                             tol=1e-6, degree=4, max_iterations=60)
        assert second.converged
        assert second.iterations == 0 and second.subspace_mode == "warm"

    def test_warm_start_on_perturbed_operator(self):
        # The cross-omega scenario: eigenvectors of A serve as initial guess
        # for a nearby operator A'.
        A, _ = _decaying_operator(seed=3)
        rng = np.random.default_rng(4)
        E = rng.standard_normal(A.shape) * 1e-3
        A2 = A + 0.5 * (E + E.T)
        v0 = rng.standard_normal((A.shape[0], 8))
        cold = filtered_subspace_iteration(lambda V: A2 @ V, v0, tol=1e-6,
                                           degree=4, max_iterations=60)
        warm_guess = filtered_subspace_iteration(lambda V: A @ V, v0, tol=1e-6,
                                                 degree=4, max_iterations=60).vectors
        warm = filtered_subspace_iteration(lambda V: A2 @ V, warm_guess, tol=1e-6,
                                           degree=4, max_iterations=60)
        assert warm.converged
        assert warm.iterations < cold.iterations

    def test_nonconvergence_reported(self):
        A, _ = _decaying_operator()
        rng = np.random.default_rng(5)
        v0 = rng.standard_normal((A.shape[0], 8))
        res = filtered_subspace_iteration(lambda V: A @ V, v0, tol=1e-12,
                                          degree=1, max_iterations=2)
        assert not res.converged
        assert res.iterations == 2

    def test_zero_budget_on_an_unconverged_block(self):
        # Pass 0 alone: one Rayleigh-Ritz and Eq. 7 check, no filtering. The
        # mode is "warm" only when that check met the tolerance.
        A, _ = _decaying_operator()
        rng = np.random.default_rng(5)
        v0 = rng.standard_normal((A.shape[0], 8))
        res = filtered_subspace_iteration(lambda V: A @ V, v0, tol=1e-6,
                                          max_iterations=0)
        assert res.iterations == 0 and res.converged is False
        assert res.subspace_mode == "filtered"
        assert len(res.error_history) == 1 and res.filter_bounds is None

    def test_error_history_decreases(self):
        A, _ = _decaying_operator()
        rng = np.random.default_rng(6)
        v0 = rng.standard_normal((A.shape[0], 6))
        res = filtered_subspace_iteration(lambda V: A @ V, v0, tol=1e-8,
                                          degree=3, max_iterations=60)
        h = res.error_history
        assert h[-1] < h[0] / 100

    def test_timers_populated(self):
        A, _ = _decaying_operator()
        rng = np.random.default_rng(7)
        v0 = rng.standard_normal((A.shape[0], 6))
        sched = SerialScheduler()
        filtered_subspace_iteration(lambda V: A @ V, v0, tol=1e-6, degree=2,
                                    max_iterations=30, scheduler=sched)
        timers = sched.timers
        for bucket in ("matmult", "eigensolve", "eval_error"):
            assert timers.get(bucket) >= 0.0
            assert timers.counts[bucket] > 0

    def test_on_iteration_hook(self):
        A, _ = _decaying_operator()
        rng = np.random.default_rng(8)
        v0 = rng.standard_normal((A.shape[0], 6))
        seen = []
        filtered_subspace_iteration(lambda V: A @ V, v0, tol=1e-6, degree=3,
                                    max_iterations=30,
                                    on_iteration=lambda it, err, vals: seen.append((it, err)))
        assert seen[0][0] == 0
        assert len(seen) >= 2

    def test_validation(self):
        A, _ = _decaying_operator()
        v0 = np.zeros((A.shape[0], 4))
        with pytest.raises(ValueError):
            filtered_subspace_iteration(lambda V: A @ V, v0, tol=0.0)
        with pytest.raises(ValueError):
            filtered_subspace_iteration(lambda V: A @ V, v0, tol=1e-6, degree=0)
        with pytest.raises(ValueError):
            filtered_subspace_iteration(lambda V: A @ V, np.zeros(5), tol=1e-6)
        with pytest.raises(ValueError):
            filtered_subspace_iteration(lambda V: A @ V, v0, tol=1e-6,
                                        max_iterations=-1)

    def test_degenerate_eigenvalues(self):
        # Clustered/degenerate levels must not break the generalized RR.
        n = 120
        rng = np.random.default_rng(9)
        q, _ = np.linalg.qr(rng.standard_normal((n, n)))
        mu = np.concatenate([[-3.0, -3.0, -3.0], -np.geomspace(1.0, 1e-6, n - 3)])
        mu = np.sort(mu)
        A = (q * mu) @ q.T
        v0 = rng.standard_normal((n, 6))
        res = filtered_subspace_iteration(lambda V: A @ V, v0, tol=1e-6,
                                          degree=4, max_iterations=80)
        assert res.converged
        assert np.allclose(res.eigenvalues[:3], -3.0, atol=1e-4)
