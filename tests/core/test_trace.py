"""Tests for the trace estimators."""

import numpy as np
import pytest

from repro.core import (
    block_lanczos_trace,
    hutchinson_trace,
    rpa_integrand,
    trace_from_eigenvalues,
)


def _negdef_matrix(n=150, seed=0):
    rng = np.random.default_rng(seed)
    q, _ = np.linalg.qr(rng.standard_normal((n, n)))
    mu = -np.geomspace(4.0, 1e-5, n)
    return (q * mu) @ q.T, mu


class TestIntegrand:
    def test_values(self):
        mu = np.array([-1.0, -0.5, 0.0])
        f = rpa_integrand(mu)
        assert f[0] == pytest.approx(np.log(2.0) - 1.0)
        assert f[2] == 0.0

    def test_negative_for_negative_mu(self):
        mu = -np.geomspace(1e-4, 3.0, 30)
        assert np.all(rpa_integrand(mu) < 0)

    def test_quadratic_near_zero(self):
        mu = np.array([-1e-4])
        assert rpa_integrand(mu)[0] == pytest.approx(-0.5e-8, rel=1e-3)

    def test_rejects_mu_above_one(self):
        with pytest.raises(ValueError):
            rpa_integrand(np.array([1.5]))


class TestEigenvalueTrace:
    def test_matches_direct_sum(self):
        mu = -np.linspace(0.1, 2.0, 10)
        assert trace_from_eigenvalues(mu) == pytest.approx(np.sum(np.log(1 - mu) + mu))

    def test_truncation_error_decays(self):
        _, mu = _negdef_matrix()
        exact = trace_from_eigenvalues(mu)
        errs = [abs(trace_from_eigenvalues(mu[:k]) - exact) for k in (10, 40, 100)]
        assert errs[0] > errs[1] > errs[2]


class TestStochasticLanczos:
    """Plain SLQ: block Lanczos quadrature at block size 1, one probe per
    block."""

    def test_approximates_exact_trace(self):
        A, mu = _negdef_matrix(seed=1)
        exact = trace_from_eigenvalues(mu)
        est = block_lanczos_trace(lambda v: A @ v, n=A.shape[0], block_size=1,
                                  n_blocks=40, lanczos_steps=40, seed=2)
        assert est == pytest.approx(exact, rel=0.08)

    def test_deterministic_with_seed(self):
        A, _ = _negdef_matrix(seed=3)
        a = block_lanczos_trace(lambda v: A @ v, n=A.shape[0], block_size=1,
                                n_blocks=5, seed=4)
        b = block_lanczos_trace(lambda v: A @ v, n=A.shape[0], block_size=1,
                                n_blocks=5, seed=4)
        assert a == b

    def test_error_decreases_with_probes(self):
        A, mu = _negdef_matrix(seed=5)
        exact = trace_from_eigenvalues(mu)
        errs = []
        for probes in (4, 64):
            est = block_lanczos_trace(lambda v: A @ v, n=A.shape[0], block_size=1,
                                      n_blocks=probes, lanczos_steps=40, seed=6)
            errs.append(abs(est - exact))
        assert errs[1] < errs[0] + 1e-12

    def test_exact_for_linear_f_many_steps(self):
        # With f(x) = x, SLQ with full Krylov depth returns z^T A z exactly;
        # averaging Rademacher probes estimates Tr[A].
        A, mu = _negdef_matrix(n=60, seed=7)
        est = block_lanczos_trace(lambda v: A @ v, n=60, f=lambda x: x,
                                  block_size=1, n_blocks=200, lanczos_steps=60,
                                  seed=8)
        assert est == pytest.approx(mu.sum(), rel=0.05)

    def test_validation(self):
        with pytest.raises(ValueError):
            block_lanczos_trace(lambda v: v, n=5, block_size=1, n_blocks=0)


class TestHutchinson:
    def test_approximates_exact_trace(self):
        A, mu = _negdef_matrix(seed=9)
        exact = trace_from_eigenvalues(mu)
        est = hutchinson_trace(lambda v: A @ v, n=A.shape[0],
                               spectrum_bound=float(mu[0]) * 1.05,
                               n_probes=40, chebyshev_degree=60, seed=10)
        assert est == pytest.approx(exact, rel=0.08)

    def test_validation(self):
        with pytest.raises(ValueError):
            hutchinson_trace(lambda v: v, n=5, spectrum_bound=0.5)
        with pytest.raises(ValueError):
            hutchinson_trace(lambda v: v, n=5, spectrum_bound=-1.0, n_probes=0)
