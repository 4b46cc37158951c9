"""End-to-end integration anchors.

The load-bearing claims of the reproduction, exercised through the full
public API: SCF -> Sternheimer chi0 -> filtered subspace iteration ->
E_RPA, validated against dense references on a tiny model system and
against the paper's structural facts on scaled silicon.
"""

import numpy as np
import pytest
import scipy.linalg

from repro.config import RPAConfig
from repro.core import (
    Chi0Operator,
    build_chi0_dense,
    compute_rpa_energy,
    compute_rpa_energy_direct,
)
from repro.dft import GaussianPseudopotential, run_scf, scaled_silicon_crystal
from repro.dft.atoms import Crystal
from repro.grid import CoulombOperator
from repro.parallel import compute_rpa_energy_parallel


@pytest.fixture(scope="module")
def toy():
    crystal = Crystal(
        ["X", "X"],
        np.array([[1.0, 1.0, 1.0], [3.0, 3.0, 3.0]]),
        (6.0, 6.0, 6.0),
        label="toy",
    )
    grid = crystal.make_grid(1.0)
    pseudos = {"X": GaussianPseudopotential("X", z_ion=2.0, r_core=0.9)}
    dft = run_scf(crystal, grid, radius=2, tol=1e-8, max_iterations=80,
                  gaussian_pseudos=pseudos)
    coulomb = CoulombOperator(grid, radius=2)
    return dft, coulomb


class TestEndToEnd:
    def test_sternheimer_chi0_matches_adler_wiser(self, toy):
        """The paper's Section II consistency: Eqs. 4-5 == Eq. 2."""
        dft, coulomb = toy
        vals, vecs = scipy.linalg.eigh(dft.hamiltonian.to_dense())
        op = Chi0Operator(dft.hamiltonian, dft.occupied_orbitals,
                          dft.occupied_energies, coulomb,
                          tol=1e-11, max_iterations=4000, dynamic_block_size=False)
        rng = np.random.default_rng(0)
        v = rng.standard_normal(dft.grid.n_points)
        for omega in (0.02, 0.69, 49.36):  # spanning Table II
            ref = build_chi0_dense(vals, vecs, dft.n_occupied, omega) @ v
            ours = op.apply_chi0(v, omega)
            # The near-singular omega = 0.02 shift limits the achievable
            # residual slightly above the requested 1e-11.
            assert np.abs(ours - ref).max() < 1e-7 * max(np.abs(ref).max(), 1e-12)

    def test_iterative_energy_matches_direct(self, toy):
        """Algorithm 6 == quartic baseline at matched truncation."""
        dft, coulomb = toy
        cfg = RPAConfig(n_eig=60, seed=1)
        iterative = compute_rpa_energy(dft, cfg, coulomb=coulomb)
        direct = compute_rpa_energy_direct(dft, n_quadrature=8,
                                           coulomb=coulomb, n_eig=60)
        assert iterative.converged
        assert iterative.energy == pytest.approx(direct.energy, abs=2e-4)

    def test_parallel_serial_agreement_through_public_api(self, toy):
        dft, coulomb = toy
        cfg = RPAConfig(n_eig=24, n_quadrature=3, seed=2,
                        dynamic_block_size=False, fixed_block_size=1)
        ser = compute_rpa_energy(dft, cfg, coulomb=coulomb)
        # One sweep: on one rank the distributed entry point is the serial
        # driver bit for bit; more ranks only re-slice the applies.
        one = compute_rpa_energy_parallel(dft, cfg, n_ranks=1, coulomb=coulomb)
        assert one.energy == ser.energy
        par = compute_rpa_energy_parallel(dft, cfg, n_ranks=6, coulomb=coulomb)
        assert par.energy == pytest.approx(ser.energy, abs=1e-12)

    def test_loose_sternheimer_tolerance_preserves_energy(self, toy):
        """Figure 3's central claim: tau_Sternheimer up to ~1e-2 does not
        disturb the converged RPA energy."""
        dft, coulomb = toy
        energies = {}
        for tol in (1e-4, 1e-2):
            cfg = RPAConfig(n_eig=40, n_quadrature=4, seed=3, tol_sternheimer=tol)
            energies[tol] = compute_rpa_energy(dft, cfg, coulomb=coulomb).energy
        assert energies[1e-2] == pytest.approx(energies[1e-4], abs=5e-4)


@pytest.mark.slow
class TestScaledSilicon:
    """Structural facts on the paper's actual (coarsened) silicon system."""

    @pytest.fixture(scope="class")
    def si8(self):
        crystal, grid = scaled_silicon_crystal(1, points_per_edge=9,
                                               perturbation=0.03, seed=11)
        dft = run_scf(crystal, grid, radius=3, tol=1e-6, max_iterations=80)
        coulomb = CoulombOperator(grid, radius=3)
        return dft, coulomb

    def test_scf_structure_matches_table3(self, si8):
        dft, _ = si8
        assert dft.converged
        assert dft.n_occupied == 16  # n_s for Si8
        assert dft.grid.n_points == 729

    def test_rpa_energy_negative_and_converged(self, si8):
        dft, coulomb = si8
        cfg = RPAConfig(n_eig=64, n_quadrature=8, seed=6)
        res = compute_rpa_energy(dft, cfg, coulomb=coulomb)
        assert res.converged
        assert res.energy < 0
        # Paper's Si8 reports about -0.21 Ha/atom; at this coarse mesh we
        # only require the right order of magnitude.
        assert -1.0 < res.energy_per_atom < -0.01

    def test_spectrum_decays_like_figure_1(self, si8):
        dft, coulomb = si8
        cfg = RPAConfig(n_eig=64, n_quadrature=8, seed=7)
        res = compute_rpa_energy(dft, cfg, coulomb=coulomb)
        for p in res.points:
            mu = p.eigenvalues
            # Rapid decay: the least-negative half is tiny compared with the
            # most negative eigenvalue.
            assert np.abs(mu[len(mu) // 2 :]).max() < 0.5 * np.abs(mu[0])
