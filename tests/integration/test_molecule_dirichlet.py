"""Isolated-molecule (Dirichlet) pipeline tests.

The paper's introduction credits real-space methods with native support for
Dirichlet boundary conditions (molecules, wires, surfaces). These tests
exercise that path end-to-end: real-space potential assembly, zero-mode-free
Coulomb operator, SCF and the full RPA pipeline on an isolated dimer.
"""

import numpy as np
import pytest

from repro.config import RPAConfig
from repro.core import compute_rpa_energy, compute_rpa_energy_direct
from repro.core.sternheimer import Chi0Operator
from repro.dft import GaussianPseudopotential, real_space_local_potential, run_scf
from repro.dft.atoms import Crystal
from repro.grid import CoulombOperator, Grid3D


@pytest.fixture(scope="module")
def molecule():
    crystal = Crystal(
        ["X", "X"],
        np.array([[4.2, 5.0, 5.0], [5.8, 5.0, 5.0]]),
        (10.0, 10.0, 10.0),
        label="X2",
    )
    grid = Grid3D((11, 11, 11), (10.0, 10.0, 10.0), bc="dirichlet")
    pseudos = {"X": GaussianPseudopotential("X", z_ion=1.0, r_core=0.7)}
    dft = run_scf(crystal, grid, radius=2, tol=1e-7, max_iterations=80,
                  gaussian_pseudos=pseudos)
    return dft, CoulombOperator(grid, radius=2), pseudos


class TestMoleculeSCF:
    def test_converges_with_bound_state(self, molecule):
        dft, _, _ = molecule
        assert dft.converged
        assert dft.n_occupied == 1  # 2 electrons in a bonding orbital
        assert dft.gap > 0.1

    def test_density_localized_at_bond(self, molecule):
        dft, _, _ = molecule
        rho = dft.grid.to_field(dft.density)
        center = np.unravel_index(np.argmax(rho), rho.shape)
        # Peak density sits between the atoms (middle of the box).
        assert abs(center[1] - 5) <= 1 and abs(center[2] - 5) <= 1
        # Density decays strongly toward the boundary.
        assert rho[0, 0, 0] < 1e-3 * rho.max()

    def test_real_space_potential_values(self, molecule):
        dft, _, pseudos = molecule
        v = real_space_local_potential(dft.crystal, dft.grid, pseudos)
        pp = pseudos["X"]
        # At an atom: the erf-screened Coulomb limit of the *other* atom adds.
        expected_self = -pp.z_ion * np.sqrt(2.0 / np.pi) / pp.r_core
        assert v.min() >= 2 * expected_self  # bounded below by both atoms
        assert v.max() < 0  # purely attractive
        # Far field: -2 Z / r from the pair.
        far = dft.grid.points[np.argmax(np.linalg.norm(
            dft.grid.points - np.array([5.0, 5.0, 5.0]), axis=1))]
        r = np.linalg.norm(far - np.array([5.0, 5.0, 5.0]))
        idx = np.argmax(np.linalg.norm(
            dft.grid.points - np.array([5.0, 5.0, 5.0]), axis=1))
        assert v[idx] == pytest.approx(-2.0 * pp.z_ion / r, rel=0.15)

    def test_gth_on_dirichlet_uses_real_space_path(self):
        # GTH pseudopotentials work on Dirichlet grids through the direct
        # real-space summation (no reciprocal assembly is attempted).
        crystal = Crystal(["Si"], np.array([[5.0, 5.0, 5.0]]), (10.0, 10.0, 10.0))
        grid = Grid3D((9, 9, 9), (10.0, 10.0, 10.0), bc="dirichlet")
        res = run_scf(crystal, grid, radius=2, smearing=0.05, max_iterations=2)
        assert res.hamiltonian.v_local.min() < -0.5  # attractive wells present
        assert res.occupations.sum() == pytest.approx(2.0, abs=1e-6)


class TestMoleculeRPA:
    def test_iterative_matches_direct(self, molecule):
        # A molecule's nu chi0 spectrum is one tiny decaying tail over a
        # large near-zero cluster, so Eq. 7 needs a slightly looser tau than
        # the bulk-silicon schedule (the clustered directions carry f ~ 0
        # and do not affect the energy).
        dft, coulomb, _ = molecule
        cfg = RPAConfig(n_eig=40, n_quadrature=4, seed=1, tol_subspace=5e-3)
        it = compute_rpa_energy(dft, cfg, coulomb=coulomb)
        dr = compute_rpa_energy_direct(dft, n_quadrature=4, coulomb=coulomb, n_eig=40)
        assert it.converged
        assert it.energy == pytest.approx(dr.energy, abs=1e-3)
        assert it.energy < 0

    def test_no_zero_mode_in_dirichlet_coulomb(self, molecule):
        _, coulomb, _ = molecule
        assert coulomb.n_zero_modes == 0

    def test_float32_ir_batched_chi0_matches_the_float64_loop(self, molecule):
        # The float32 sibling of a Dirichlet (stencil-kinetic) Hamiltonian
        # under the batched kernel, gated by the float64 true residual.
        dft, coulomb, _ = molecule
        assert dft.hamiltonian.kinetic_backend == "stencil"
        V = np.random.default_rng(0).standard_normal((dft.grid.n_points, 3))
        per_orbital = Chi0Operator(dft.hamiltonian, dft.occupied_orbitals,
                                   dft.occupied_energies, coulomb, tol=1e-9)
        mixed = Chi0Operator(dft.hamiltonian, dft.occupied_orbitals,
                             dft.occupied_energies, coulomb, tol=1e-9,
                             use_batched=True, solve_dtype="float32_ir")
        ref = per_orbital.apply_chi0(V, omega=0.7)
        out = mixed.apply_chi0(V, omega=0.7)
        assert np.linalg.norm(out - ref) / np.linalg.norm(ref) < 5e-8
        assert mixed.stats.n_ir_fallbacks > 0
