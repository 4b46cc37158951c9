"""Tests for the dense Adler-Wiser chi0 and the Sternheimer route.

The central consistency theorem of the paper's Section II: the two-step
Sternheimer product (Eqs. 4-5) equals the Adler-Wiser matrix (Eq. 2)
applied to the same vector.
"""

import numpy as np
import pytest

from repro.core import (
    Chi0Operator,
    build_chi0_dense,
    nu_chi0_eigenvalues_dense,
    symmetrized_chi0_dense,
)


class TestDenseChi0:
    def test_symmetric_negative_semidefinite(self, toy_dft, toy_dense_eigen):
        vals, vecs = toy_dense_eigen
        chi0 = build_chi0_dense(vals, vecs, toy_dft.n_occupied, omega=0.5)
        assert np.allclose(chi0, chi0.T, atol=1e-12)
        mu = np.linalg.eigvalsh(chi0)
        assert mu.max() < 1e-10

    def test_annihilates_constants(self, toy_dft, toy_dense_eigen):
        # A uniform potential shift does not perturb the density.
        vals, vecs = toy_dense_eigen
        chi0 = build_chi0_dense(vals, vecs, toy_dft.n_occupied, omega=0.5)
        ones = np.ones(chi0.shape[0])
        assert np.abs(chi0 @ ones).max() < 1e-8

    def test_decays_with_omega(self, toy_dft, toy_dense_eigen):
        # Figure 1: the whole spectrum tends to zero for large omega.
        vals, vecs = toy_dense_eigen
        norms = []
        for omega in (0.1, 1.0, 10.0, 100.0):
            chi0 = build_chi0_dense(vals, vecs, toy_dft.n_occupied, omega)
            norms.append(np.linalg.norm(chi0))
        assert norms[0] > norms[1] > norms[2] > norms[3]

    def test_spectrum_converges_as_omega_to_zero(self, toy_dft, toy_dense_eigen, toy_coulomb):
        # Figure 1's second observation: the low end of the spectrum
        # converges to a fixed spectrum as omega -> 0.
        vals, vecs = toy_dense_eigen
        mu_a = nu_chi0_eigenvalues_dense(vals, vecs, toy_dft.n_occupied, 0.02, toy_coulomb, n_eig=5)
        mu_b = nu_chi0_eigenvalues_dense(vals, vecs, toy_dft.n_occupied, 0.01, toy_coulomb, n_eig=5)
        mu_c = nu_chi0_eigenvalues_dense(vals, vecs, toy_dft.n_occupied, 1.0, toy_coulomb, n_eig=5)
        assert np.abs(mu_a - mu_b).max() < 0.05 * np.abs(mu_a).max()
        assert np.abs(mu_a - mu_c).max() > np.abs(mu_a - mu_b).max()

    def test_validation(self, toy_dense_eigen):
        vals, vecs = toy_dense_eigen
        with pytest.raises(ValueError):
            build_chi0_dense(vals, vecs, 0, 0.5)
        with pytest.raises(ValueError):
            build_chi0_dense(vals, vecs, len(vals), 0.5)
        with pytest.raises(ValueError):
            build_chi0_dense(vals, vecs, 2, -0.5)
        with pytest.raises(ValueError):
            build_chi0_dense(vals, vecs[:, :5], 2, 0.5)


class TestSymmetrization:
    def test_same_nonzero_spectrum_as_nu_chi0(self, toy_dft, toy_dense_eigen, toy_coulomb):
        # Section III-A: nu^{1/2} chi0 nu^{1/2} is a similarity transform of
        # nu chi0 — identical spectra.
        vals, vecs = toy_dense_eigen
        chi0 = build_chi0_dense(vals, vecs, toy_dft.n_occupied, 0.3)
        sym = symmetrized_chi0_dense(chi0, toy_coulomb)
        nu_dense = np.column_stack(
            [toy_coulomb.apply_nu(e) for e in np.eye(chi0.shape[0])]
        )
        product = nu_dense @ chi0
        mu_sym = np.sort(np.linalg.eigvalsh(sym))
        mu_prod = np.sort(np.linalg.eigvals(product).real)
        # Compare the significant (most negative) end of the spectra.
        assert np.allclose(mu_sym[:10], mu_prod[:10], atol=1e-8)

    def test_symmetrized_matrix_is_symmetric(self, toy_dft, toy_dense_eigen, toy_coulomb):
        vals, vecs = toy_dense_eigen
        chi0 = build_chi0_dense(vals, vecs, toy_dft.n_occupied, 0.3)
        sym = symmetrized_chi0_dense(chi0, toy_coulomb)
        assert np.allclose(sym, sym.T, atol=1e-12)


class TestSternheimerRoute:
    @pytest.mark.parametrize("omega", [0.05, 0.5, 5.0, 50.0])
    def test_matches_adler_wiser(self, toy_dft, toy_dense_eigen, toy_coulomb, omega):
        vals, vecs = toy_dense_eigen
        chi0 = build_chi0_dense(vals, vecs, toy_dft.n_occupied, omega)
        op = Chi0Operator(
            toy_dft.hamiltonian,
            toy_dft.occupied_orbitals,
            toy_dft.occupied_energies,
            toy_coulomb,
            tol=1e-10,
            max_iterations=3000,
            dynamic_block_size=False,
        )
        rng = np.random.default_rng(3)
        v = rng.standard_normal(toy_dft.grid.n_points)
        ours = op.apply_chi0(v, omega)
        ref = chi0 @ v
        assert np.abs(ours - ref).max() < 1e-7 * max(np.abs(ref).max(), 1e-10)

    def test_block_apply_matches_columns(self, toy_dft, toy_coulomb):
        op = Chi0Operator(
            toy_dft.hamiltonian,
            toy_dft.occupied_orbitals,
            toy_dft.occupied_energies,
            toy_coulomb,
            tol=1e-9,
            dynamic_block_size=False,
        )
        rng = np.random.default_rng(4)
        V = rng.standard_normal((toy_dft.grid.n_points, 3))
        block = op.apply_chi0(V, 0.7)
        cols = np.column_stack([op.apply_chi0(V[:, j], 0.7) for j in range(3)])
        assert np.allclose(block, cols, atol=1e-7)

    def test_symmetrized_apply_matches_dense(self, toy_dft, toy_dense_eigen, toy_coulomb):
        vals, vecs = toy_dense_eigen
        chi0 = build_chi0_dense(vals, vecs, toy_dft.n_occupied, 0.4)
        sym = symmetrized_chi0_dense(chi0, toy_coulomb)
        op = Chi0Operator(
            toy_dft.hamiltonian,
            toy_dft.occupied_orbitals,
            toy_dft.occupied_energies,
            toy_coulomb,
            tol=1e-10,
            max_iterations=3000,
            dynamic_block_size=False,
        )
        rng = np.random.default_rng(5)
        v = rng.standard_normal(toy_dft.grid.n_points)
        ours = op.apply_symmetrized(v, 0.4)
        ref = sym @ v
        assert np.abs(ours - ref).max() < 1e-7 * max(np.abs(ref).max(), 1e-10)

    def test_galerkin_guess_does_not_change_answer(self, toy_dft, toy_coulomb):
        kwargs = dict(tol=1e-9, max_iterations=3000, dynamic_block_size=False)
        op_a = Chi0Operator(toy_dft.hamiltonian, toy_dft.occupied_orbitals,
                            toy_dft.occupied_energies, toy_coulomb,
                            use_galerkin_guess=True, **kwargs)
        op_b = Chi0Operator(toy_dft.hamiltonian, toy_dft.occupied_orbitals,
                            toy_dft.occupied_energies, toy_coulomb,
                            use_galerkin_guess=False, **kwargs)
        rng = np.random.default_rng(6)
        v = rng.standard_normal(toy_dft.grid.n_points)
        a = op_a.apply_chi0(v, 0.3)
        b = op_b.apply_chi0(v, 0.3)
        assert np.allclose(a, b, atol=1e-6 * max(np.abs(a).max(), 1e-12))

    def test_galerkin_guess_reduces_matvecs(self, toy_dft, toy_coulomb):
        kwargs = dict(tol=1e-8, max_iterations=3000, dynamic_block_size=False)
        rng = np.random.default_rng(7)
        v = rng.standard_normal(toy_dft.grid.n_points)
        counts = {}
        for flag in (True, False):
            op = Chi0Operator(toy_dft.hamiltonian, toy_dft.occupied_orbitals,
                              toy_dft.occupied_energies, toy_coulomb,
                              use_galerkin_guess=flag, **kwargs)
            op.apply_chi0(v, 0.05)  # small omega: hard systems
            counts[flag] = op.stats.n_matvec
        assert counts[True] < counts[False]

    def test_dynamic_block_size_stats_recorded(self, toy_dft, toy_coulomb):
        op = Chi0Operator(toy_dft.hamiltonian, toy_dft.occupied_orbitals,
                          toy_dft.occupied_energies, toy_coulomb,
                          tol=1e-4, dynamic_block_size=True)
        rng = np.random.default_rng(8)
        V = rng.standard_normal((toy_dft.grid.n_points, 8))
        op.apply_chi0(V, 0.5)
        assert op.stats.n_systems == 8 * toy_dft.n_occupied
        assert sum(k * v for k, v in op.stats.block_size_counts.items()) == op.stats.n_systems
        assert set(op.stats.iterations_per_orbital) == set(range(toy_dft.n_occupied))

    def test_validation(self, toy_dft, toy_coulomb):
        op = Chi0Operator(toy_dft.hamiltonian, toy_dft.occupied_orbitals,
                          toy_dft.occupied_energies, toy_coulomb)
        with pytest.raises(ValueError):
            op.apply_chi0(np.zeros(toy_dft.grid.n_points), omega=0.0)
        with pytest.raises(ValueError):
            op.apply_chi0(np.zeros(5), omega=0.5)
        with pytest.raises(ValueError):
            Chi0Operator(toy_dft.hamiltonian, toy_dft.occupied_orbitals,
                         toy_dft.occupied_energies[:1], toy_coulomb)
        with pytest.raises(ValueError):
            Chi0Operator(toy_dft.hamiltonian, toy_dft.occupied_orbitals,
                         toy_dft.occupied_energies, toy_coulomb, tol=0.0)

    def test_stats_merge(self):
        from repro.core import SternheimerStats

        a = SternheimerStats(n_block_solves=1, n_systems=2, total_iterations=3,
                             block_size_counts={1: 2}, iterations_per_orbital={0: 3})
        b = SternheimerStats(n_block_solves=2, n_systems=4, total_iterations=5,
                             block_size_counts={1: 1, 2: 2}, iterations_per_orbital={0: 2, 1: 3})
        a.merge(b)
        assert a.n_block_solves == 3
        assert a.block_size_counts == {1: 3, 2: 2}
        assert a.iterations_per_orbital == {0: 5, 1: 3}

