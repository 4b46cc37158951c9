"""Edge-case tests for subspace-iteration internals and result containers."""

import numpy as np
import pytest

from repro.core.rpa_energy import FrequencyPointStats
from repro.core.scheduler import SerialScheduler
from repro.core.subspace import (
    _eq7_error,
    _filter_bounds,
    _rayleigh_ritz,
    filtered_subspace_iteration,
)


class TestFilterBounds:
    def test_ordering_invariant(self):
        # low < cut < high must hold for any negative decaying spectrum.
        for vals in (
            np.array([-5.0, -1.0, -0.1]),
            np.array([-1e-6, -1e-8, -1e-12]),  # everything almost zero
            np.array([-3.0, -3.0, -3.0]),  # degenerate
            np.array([-2.0, -1.0, 1e-15]),  # numerically zero top value
        ):
            low, cut, high = _filter_bounds(np.sort(vals))
            assert low < cut < high

    def test_cut_above_kept_ritz_values(self):
        vals = np.array([-4.0, -2.0, -1.0])
        low, cut, high = _filter_bounds(vals)
        assert cut > vals[-1]
        assert low < vals[0]
        assert high > 0

    def test_positive_contamination_handled(self):
        # A slightly positive Ritz value (rounding) must not break ordering.
        vals = np.array([-2.0, -0.5, 1e-9])
        low, cut, high = _filter_bounds(vals)
        assert low < cut < high


class TestEq7Error:
    def test_zero_for_exact_eigenpairs(self):
        rng = np.random.default_rng(0)
        n = 40
        q, _ = np.linalg.qr(rng.standard_normal((n, n)))
        mu = -np.geomspace(2.0, 0.1, 6)
        V = q[:, :6]
        W = V * mu
        err = _eq7_error(V, W, mu, SerialScheduler())
        assert err < 1e-14

    def test_matches_formula(self):
        rng = np.random.default_rng(1)
        V = rng.standard_normal((30, 4))
        W = rng.standard_normal((30, 4))
        vals = np.array([-2.0, -1.0, -0.5, -0.1])
        err = _eq7_error(V, W, vals, SerialScheduler())
        R = W - V * vals
        expected = np.linalg.norm(R, axis=0).sum() / (4 * np.sqrt(np.sum(vals**2)))
        assert err == pytest.approx(expected, rel=1e-12)

    def test_zero_spectrum_edge(self):
        V = np.zeros((10, 2))
        vals = np.zeros(2)
        assert _eq7_error(V, np.zeros((10, 2)), vals, SerialScheduler()) == 0.0
        assert _eq7_error(V, np.ones((10, 2)), vals, SerialScheduler()) == np.inf


class TestRayleighRitzComplex:
    """Regression: the Grams must be sesquilinear (V^H W), not bilinear.

    The old ``V.T @ V`` produced a complex-*symmetric* (non-Hermitian) Gram
    whose lower triangle ``eigh`` silently treated as Hermitian — wrong Ritz
    values for any complex basis, invisible on the historical real path.
    """

    def _hermitian_problem(self, n=40, k=5, seed=7):
        rng = np.random.default_rng(seed)
        m = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        a = 0.5 * (m + m.conj().T)
        v = rng.standard_normal((n, k)) + 1j * rng.standard_normal((n, k))
        return a, v

    def test_complex_ritz_values_match_dense_projection(self):
        import scipy.linalg

        a, v = self._hermitian_problem()
        vals, vq, wq, q = _rayleigh_ritz(v, a @ v, SerialScheduler())
        ref = scipy.linalg.eigh(v.conj().T @ (a @ v), v.conj().T @ v,
                                eigvals_only=True)
        assert np.allclose(vals, ref, rtol=1e-10, atol=1e-12)
        # M_s-orthonormality transfers to the rotated basis: (VQ)^H (VQ) = I.
        gram = vq.conj().T @ vq
        assert np.abs(gram - np.eye(gram.shape[0])).max() < 1e-8
        assert np.allclose(wq, (a @ v) @ q)

    def test_complex_invariant_subspace_is_exact(self):
        # Feed an exact invariant subspace of a complex Hermitian operator:
        # the Ritz values must reproduce its eigenvalues to rounding, which
        # the unconjugated bilinear Gram got wrong.
        import scipy.linalg

        a, _ = self._hermitian_problem(seed=11)
        w, vecs = scipy.linalg.eigh(a)
        v = vecs[:, :4] @ np.linalg.qr(
            np.random.default_rng(0).standard_normal((4, 4))
        )[0]  # mix, still spans the lowest-4 eigenspace
        vals, _, _, _ = _rayleigh_ritz(v.astype(complex), a @ v, SerialScheduler())
        assert np.allclose(vals, w[:4], rtol=1e-10, atol=1e-11)

    def test_real_path_unchanged(self):
        # conj() is the identity on floats: the historical real-path Grams
        # are bit-for-bit what V.T @ W gave.
        rng = np.random.default_rng(3)
        v = rng.standard_normal((30, 4))
        w = rng.standard_normal((30, 4))
        vals, vq, _, q = _rayleigh_ritz(v.copy(), w.copy(), SerialScheduler())
        assert not np.iscomplexobj(vals) or np.all(vals.imag == 0)
        assert vq.dtype == np.float64 or np.all(np.asarray(vq).imag == 0)

    def test_filtered_iteration_accepts_complex_block(self):
        import scipy.linalg

        rng = np.random.default_rng(5)
        n, k = 50, 4
        m = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        h = 0.5 * (m + m.conj().T)
        # Negative-semidefinite operator, as the nu-chi0 iteration assumes.
        a = -(h @ h.conj().T) / n - 0.1 * np.eye(n)
        v0 = rng.standard_normal((n, k)) + 1j * rng.standard_normal((n, k))
        res = filtered_subspace_iteration(lambda x: a @ x, v0, tol=1e-8,
                                          max_iterations=60)
        ref = scipy.linalg.eigh(a, eigvals_only=True)[:k]
        assert res.converged
        assert np.allclose(np.sort(res.eigenvalues), ref, rtol=1e-6, atol=1e-8)


class TestFrequencyPointStats:
    def test_energy_contribution(self):
        p = FrequencyPointStats(index=1, omega=0.69, weight=0.518,
                                energy_term=-2.0, eigenvalues=np.array([-1.0]),
                                filter_iterations=1, error=1e-4, converged=True,
                                elapsed_seconds=0.1)
        assert p.energy_contribution == pytest.approx(0.518 * -2.0 / (2 * np.pi))
