"""Integration tests: solve recycling and the degenerate-eigenvalue
Galerkin fallback on the end-to-end RPA pipeline."""

import dataclasses

import numpy as np
import pytest

from repro.config import RPAConfig
from repro.core import Chi0Operator, compute_rpa_energy
from repro.solvers.recycle import SolveRecycler


@pytest.fixture(scope="module")
def tight_config():
    # Tight Sternheimer tolerance so cold and recycled runs agree to the
    # acceptance threshold (the guess changes the iterate path; only the
    # converged solutions must match).
    return RPAConfig(n_eig=24, n_quadrature=4, seed=1, tol_sternheimer=1e-6)


@pytest.fixture(scope="module")
def cold_result(toy_dft, toy_coulomb, tight_config):
    return compute_rpa_energy(toy_dft, tight_config, coulomb=toy_coulomb)


@pytest.fixture(scope="module")
def recycled_result(toy_dft, toy_coulomb, tight_config):
    cfg = dataclasses.replace(tight_config, use_recycling=True)
    return compute_rpa_energy(toy_dft, cfg, coulomb=toy_coulomb)


class TestRecycledEnergy:
    def test_energy_matches_cold_run(self, cold_result, recycled_result):
        # The ISSUE acceptance criterion: <= 1e-6 Ha/atom agreement.
        assert abs(recycled_result.energy_per_atom
                   - cold_result.energy_per_atom) <= 1e-6

    def test_matvecs_reduced(self, cold_result, recycled_result):
        # >= 10% fewer Sternheimer matvecs end to end (measured: 18 902 of
        # 22 392, a ratio of 0.844).
        assert recycled_result.stats.n_matvec <= 0.9 * cold_result.stats.n_matvec

    def test_cache_activity_recorded(self, recycled_result):
        r = recycled_result.recycle
        assert r is not None
        assert r.hits > 0
        assert r.omega_seeds > 0  # cross-quadrature-point seeding happened
        assert r.stores > 0
        assert r.rotations > 0

    def test_cold_run_has_no_recycle_stats(self, cold_result):
        assert cold_result.recycle is None

    def test_summary_mentions_recycling(self, recycled_result, cold_result):
        assert "Solve recycling" in recycled_result.summary()
        assert "Solve recycling" not in cold_result.summary()


class TestDegenerateGalerkinFallback:
    def test_singular_guess_falls_back_instead_of_raising(self, toy_dft, toy_coulomb):
        # omega below the 1e-14 singularity threshold makes the projected
        # Eq. 13 operator singular for every orbital (eps_j - lambda_j = 0
        # is always among the shifts). The solve must survive with x0=None.
        op = Chi0Operator(
            toy_dft.hamiltonian, toy_dft.occupied_orbitals,
            toy_dft.occupied_energies, toy_coulomb,
            tol=1e-2, max_iterations=200, use_galerkin_guess=True,
        )
        rng = np.random.default_rng(5)
        V = rng.standard_normal((toy_dft.grid.n_points, 2))
        out = op.apply_chi0(V, omega=5e-15)  # positive but sub-threshold
        assert out.shape == V.shape
        assert np.all(np.isfinite(out))
        assert op.stats.n_guess_singular_skips == op.n_occupied

    def test_healthy_omega_keeps_galerkin_guess(self, toy_dft, toy_coulomb):
        op = Chi0Operator(
            toy_dft.hamiltonian, toy_dft.occupied_orbitals,
            toy_dft.occupied_energies, toy_coulomb,
            tol=1e-2, max_iterations=200, use_galerkin_guess=True,
        )
        rng = np.random.default_rng(6)
        V = rng.standard_normal((toy_dft.grid.n_points, 2))
        op.apply_chi0(V, omega=0.5)
        assert op.stats.n_guess_singular_skips == 0


class TestOperatorLevelRecycling:
    def test_second_apply_served_from_cache(self, toy_dft, toy_coulomb):
        op = Chi0Operator(
            toy_dft.hamiltonian, toy_dft.occupied_orbitals,
            toy_dft.occupied_energies, toy_coulomb,
            tol=1e-8, max_iterations=2000,
            recycler=SolveRecycler(width=3),
        )
        rng = np.random.default_rng(7)
        V = rng.standard_normal((toy_dft.grid.n_points, 3))
        ref = op.apply_chi0(V, omega=0.8)
        matvecs_first = op.stats.n_matvec
        out = op.apply_chi0(V, omega=0.8)  # identical operand: exact guesses
        matvecs_second = op.stats.n_matvec - matvecs_first
        assert np.allclose(out, ref, atol=1e-8)
        assert op.recycler.stats.hits == op.n_occupied
        # Converged guesses terminate in the residual check.
        assert matvecs_second < 0.25 * matvecs_first

    def test_rotated_cache_matches_rotated_operand(self, toy_dft, toy_coulomb):
        # chi0(V Q) must equal chi0(V) Q (linearity), and the rotated cache
        # should serve near-exact guesses for the rotated operand.
        op = Chi0Operator(
            toy_dft.hamiltonian, toy_dft.occupied_orbitals,
            toy_dft.occupied_energies, toy_coulomb,
            tol=1e-9, max_iterations=3000,
            recycler=SolveRecycler(width=3),
        )
        rng = np.random.default_rng(8)
        V = rng.standard_normal((toy_dft.grid.n_points, 3))
        ref = op.apply_chi0(V, omega=0.8)
        Q = np.linalg.qr(rng.standard_normal((3, 3)))[0]
        op.recycler.rotate(Q)
        before = op.stats.n_matvec
        out = op.apply_chi0(V @ Q, omega=0.8)
        delta = op.stats.n_matvec - before
        assert np.allclose(out, ref @ Q, atol=1e-6)
        assert delta < 0.25 * before

    def test_unconverged_solutions_not_cached(self, toy_dft, toy_coulomb):
        op = Chi0Operator(
            toy_dft.hamiltonian, toy_dft.occupied_orbitals,
            toy_dft.occupied_energies, toy_coulomb,
            tol=1e-12, max_iterations=1,  # guaranteed non-convergence
            use_galerkin_guess=False,
            recycler=SolveRecycler(width=2),
        )
        rng = np.random.default_rng(9)
        V = rng.standard_normal((toy_dft.grid.n_points, 2))
        op.apply_chi0(V, omega=0.8)
        assert op.recycler.stats.stores == 0
        assert op.recycler.stats.skipped_stores == op.n_occupied

