"""Tests for the dielectric spectrum (the eigenvalues ``mu`` of
``nu^{1/2} chi0 nu^{1/2}``, whose ``eps = 1 - mu`` Figure 1 plots) and the
alternative frequency grids."""

import numpy as np
import pytest

from repro.core import (
    Chi0Operator,
    build_chi0_dense,
    double_exponential,
    filtered_subspace_iteration,
    nu_chi0_eigenvalues_dense,
    symmetrized_chi0_dense,
    trace_from_eigenvalues,
    transformed_clenshaw_curtis,
    transformed_gauss_legendre,
    truncated_trapezoid,
)
from repro.verify import Verifier


class TestDielectricDense:
    def test_eigenvalues_at_least_one(self, toy_dft, toy_dense_eigen, toy_coulomb):
        # sym(chi0) <= 0, so every dielectric eigenvalue 1 - mu is >= 1.
        vals, vecs = toy_dense_eigen
        chi0 = build_chi0_dense(vals, vecs, toy_dft.n_occupied, 0.3)
        sym = symmetrized_chi0_dense(chi0, toy_coulomb)
        assert np.linalg.eigvalsh(sym).max() < 1e-10

    def test_screening_strengthens_toward_static_limit(self, toy_dft, toy_dense_eigen,
                                                       toy_coulomb):
        vals, vecs = toy_dense_eigen
        lowest = [nu_chi0_eigenvalues_dense(vals, vecs, toy_dft.n_occupied, omega,
                                            toy_coulomb).min()
                  for omega in (5.0, 0.5, 0.05)]
        assert lowest[0] > lowest[1] > lowest[2]


class TestDielectricIterative:
    @pytest.fixture(scope="class")
    def spectrum(self, toy_dft, toy_coulomb):
        op = Chi0Operator(toy_dft.hamiltonian, toy_dft.occupied_orbitals,
                          toy_dft.occupied_energies, toy_coulomb, tol=1e-4)
        v0 = np.random.default_rng(0).standard_normal((op.n_points, 16))
        return filtered_subspace_iteration(
            lambda V: op.apply_symmetrized(V, 0.3), v0, tol=1e-5,
            max_iterations=30)

    def test_matches_dense_extremes(self, spectrum, toy_dft, toy_dense_eigen, toy_coulomb):
        vals, vecs = toy_dense_eigen
        mu = nu_chi0_eigenvalues_dense(vals, vecs, toy_dft.n_occupied, 0.3, toy_coulomb)
        assert spectrum.converged
        assert np.allclose(spectrum.eigenvalues[:8], mu[:8], atol=2e-3)

    def test_energy_term_identity(self, spectrum):
        # Tr[ln(1 - mu) + mu] == Tr[ln eps + (I - eps)] with eps = 1 - mu.
        mu = spectrum.eigenvalues
        verifier = Verifier()
        assert verifier.check_trace_identity(mu, trace_from_eigenvalues(mu), rtol=1e-12)


class TestAlternativeGrids:
    def test_clenshaw_curtis_converges_to_lorentzian(self):
        exact = np.pi / 2.0
        errs = []
        for n in (8, 16, 32):
            q = transformed_clenshaw_curtis(n)
            errs.append(abs(q.integrate(1.0 / (1.0 + q.points**2)) - exact))
        assert errs[2] < errs[1] < errs[0]
        assert errs[2] < 1e-6

    def test_double_exponential_converges(self):
        exact = np.pi / 2.0
        q = double_exponential(24)
        assert q.integrate(1.0 / (1.0 + q.points**2)) == pytest.approx(exact, abs=1e-6)

    def test_gauss_beats_trapezoid_at_same_cost(self):
        # The ablation's point: at 8 points the paper's rule is already
        # accurate while the naive trapezoid misses the small-omega peak.
        exact = np.pi / 2.0
        gl = transformed_gauss_legendre(8)
        tr = truncated_trapezoid(8)
        err_gl = abs(gl.integrate(1.0 / (1.0 + gl.points**2)) - exact)
        err_tr = abs(tr.integrate(1.0 / (1.0 + tr.points**2)) - exact)
        assert err_gl < 1e-3 * err_tr

    def test_all_rules_positive_nodes_and_weights(self):
        for q in (transformed_clenshaw_curtis(12), double_exponential(12),
                  truncated_trapezoid(12)):
            assert np.all(q.points > 0)
            assert np.all(q.weights > 0)
            assert np.all(np.diff(q.points) < 0)

    def test_validation(self):
        with pytest.raises(ValueError):
            transformed_clenshaw_curtis(0)
        with pytest.raises(ValueError):
            double_exponential(2)
        with pytest.raises(ValueError):
            truncated_trapezoid(1)
        with pytest.raises(ValueError):
            truncated_trapezoid(4, omega_max=-1.0)
