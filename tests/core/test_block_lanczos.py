"""Tests for block stochastic Lanczos quadrature (paper Section V)."""

import numpy as np
import pytest

from repro.config import RPAConfig
from repro.core import block_lanczos_trace, compute_rpa_energy, trace_from_eigenvalues


def _negdef(n=150, seed=0):
    rng = np.random.default_rng(seed)
    q, _ = np.linalg.qr(rng.standard_normal((n, n)))
    mu = -np.geomspace(4.0, 1e-5, n)
    return (q * mu) @ q.T, mu


class TestBlockSLQ:
    def test_approximates_exact_trace(self):
        A, mu = _negdef(seed=1)
        exact = trace_from_eigenvalues(mu)
        est = block_lanczos_trace(lambda V: A @ V, n=A.shape[0],
                                  block_size=8, lanczos_steps=18,
                                  n_blocks=4, seed=2)
        assert est == pytest.approx(exact, rel=0.1)

    def test_deterministic_with_seed(self):
        A, _ = _negdef(seed=3)
        a = block_lanczos_trace(lambda V: A @ V, n=A.shape[0], seed=5)
        b = block_lanczos_trace(lambda V: A @ V, n=A.shape[0], seed=5)
        assert a == b

    def test_exact_for_linear_f_full_depth(self):
        # With f(x) = x and Krylov dimension = n, every quadratic form is
        # exact, so the estimator reduces to Hutchinson for Tr[A].
        n = 48
        A, mu = _negdef(n=n, seed=7)
        est = block_lanczos_trace(lambda V: A @ V, n=n, f=lambda x: x,
                                  block_size=8, lanczos_steps=6,
                                  n_blocks=20, seed=8)
        assert est == pytest.approx(mu.sum(), rel=0.08)

    def test_block_shares_applies_like_block_cocg(self):
        # The whole point of the block variant: b probes advance per
        # operator application. Count block applications.
        A, _ = _negdef(seed=9)
        calls = {"n": 0, "cols": 0}

        def counting_apply(V):
            calls["n"] += 1
            calls["cols"] += V.shape[1]
            return A @ V

        block_lanczos_trace(counting_apply, n=A.shape[0], block_size=8,
                            lanczos_steps=10, n_blocks=1, seed=10)
        assert calls["n"] <= 10
        assert calls["cols"] == calls["n"] * 8

    def test_validation(self):
        with pytest.raises(ValueError):
            block_lanczos_trace(lambda V: V, n=10, block_size=0)
        with pytest.raises(ValueError):
            block_lanczos_trace(lambda V: V, n=4, block_size=8)

    def test_early_termination_on_invariant_subspace(self):
        # A low-rank operator exhausts the Krylov space quickly; the
        # recurrence must terminate cleanly and stay accurate.
        n = 60
        rng = np.random.default_rng(11)
        u = np.linalg.qr(rng.standard_normal((n, 3)))[0]
        A = -(u * np.array([3.0, 2.0, 1.0])) @ u.T
        exact = trace_from_eigenvalues(np.array([-3.0, -2.0, -1.0]))
        est = block_lanczos_trace(lambda V: A @ V, n=n, block_size=4,
                                  lanczos_steps=12, n_blocks=30, seed=12)
        assert est == pytest.approx(exact, rel=0.25)


class TestDriverIntegration:
    def test_block_lanczos_trace_method(self, toy_dft, toy_coulomb,
                                        stochastic_sweep_energy):
        cfg = RPAConfig(n_eig=40, n_quadrature=3, seed=4)
        ref = compute_rpa_energy(toy_dft, cfg, coulomb=toy_coulomb)
        est = stochastic_sweep_energy(ref, block_lanczos_trace,
                                      block_size=max(4, cfg.n_eig // 16))
        assert est == pytest.approx(ref.energy, rel=0.25)
