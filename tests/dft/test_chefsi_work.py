"""How much work CheFSI does: each solve filters only as hard as its
tolerance needs, and an SCF run estimates its spectral bound once.

The counts come from wrapping ``Hamiltonian.apply``; single-vector applies
are the power iteration that estimates the bound (every other apply is on
the whole block).
"""

import numpy as np
import pytest

from repro.dft import (
    ChebyshevFilteredSubspace,
    build_nonlocal_projectors,
    eigensolvers,
    local_potential_on_grid,
    run_scf,
    silicon_crystal,
)
from repro.dft.hamiltonian import Hamiltonian
from repro.grid import Grid3D
from repro.grid.kronecker import KroneckerLaplacian
from tests.dft.test_inexact_chefsi_scf import _X2, _dimer, _scf

#: Steps of the power iteration behind one spectral bound.
POWER_STEPS = 12


@pytest.fixture
def applies(monkeypatch):
    """Every ``Hamiltonian.apply`` from here on, as its column count
    (0 for a single vector)."""
    calls = []
    apply = Hamiltonian.apply

    def counted(self, v):
        calls.append(0 if v.ndim == 1 else v.shape[1])
        return apply(self, v)

    monkeypatch.setattr(Hamiltonian, "apply", counted)
    return calls


@pytest.fixture
def degrees(monkeypatch):
    """The degree of every Chebyshev filter pass from here on."""
    seen = []
    filt = eigensolvers.chebyshev_filter

    def recording(apply_h, v, degree, *bounds):
        seen.append(degree)
        return filt(apply_h, v, degree, *bounds)

    monkeypatch.setattr(eigensolvers, "chebyshev_filter", recording)
    return seen


@pytest.fixture(scope="module")
def si8_h():
    """si_setup's Hamiltonian: periodic Si8 on 7^3 points, GTH projectors."""
    crystal = silicon_crystal(1)
    grid = crystal.make_grid(10.26 / 7)
    return Hamiltonian(grid, local_potential_on_grid(crystal, grid),
                       build_nonlocal_projectors(crystal, grid), radius=2)


class TestSolve:
    def test_warm_start_that_meets_tol_runs_no_pass(self, si8_h, applies):
        solver = ChebyshevFilteredSubspace(si8_h, 12, tol=1e-8, seed=0)
        cold = solver.solve()
        assert cold.converged and cold.iterations > 0
        del applies[:]
        warm = ChebyshevFilteredSubspace(si8_h, 12, tol=1e-6, seed=0,
                                         spectral_bound=cold.spectral_bound
                                         ).solve(v0=cold.subspace)
        assert warm.iterations == 0 and warm.converged
        # One block apply: the Rayleigh-Ritz step that also gave the residual.
        assert applies == [cold.subspace.shape[1]]
        # The block comes back as it went in, up to a rotation inside Si8's
        # degenerate levels.
        assert np.allclose(warm.eigenvalues, cold.eigenvalues, atol=1e-12)
        V, W = cold.subspace, warm.subspace
        assert np.allclose(V @ (V.T @ W), W, atol=1e-10)

    def test_standalone_solve_estimates_its_own_bound(self, si8_h, applies):
        res = ChebyshevFilteredSubspace(si8_h, 12, tol=1e-6, seed=0).solve()
        assert applies.count(0) == POWER_STEPS
        lam_max = np.linalg.eigvalsh(si8_h.to_dense())[-1]
        assert res.spectral_bound >= lam_max

    def test_cold_start_is_the_laplacian_modes(self, si8_h, monkeypatch):
        starts = []
        rayleigh_ritz = ChebyshevFilteredSubspace._rayleigh_ritz

        def recording(self, V):
            starts.append(V)
            return rayleigh_ritz(self, V)

        monkeypatch.setattr(ChebyshevFilteredSubspace, "_rayleigh_ritz", recording)
        solver = ChebyshevFilteredSubspace(si8_h, 12, tol=1e-6, seed=0)
        solver.solve()
        modes = KroneckerLaplacian(si8_h.grid, si8_h.radius).lowest_modes(
            12 + solver.n_buffer)
        # The QR of the already orthonormal modes changes only their signs.
        assert np.allclose(np.abs(np.sum(starts[0] * modes, axis=0)), 1.0, atol=1e-12)

    def test_pass_degrees_between_two_and_the_cap(self, si8_h, degrees):
        cap = 7
        cold = ChebyshevFilteredSubspace(si8_h, 12, degree=cap, tol=1e-6, seed=0).solve()
        assert degrees[0] == cap  # a cold solve's first pass
        warm = ChebyshevFilteredSubspace(si8_h, 12, degree=cap, tol=2e-7, seed=0,
                                         spectral_bound=cold.spectral_bound
                                         ).solve(v0=cold.subspace)
        assert warm.converged and warm.iterations > 0
        assert all(2 <= d <= cap for d in degrees)
        assert min(degrees) < cap  # a small reduction takes a low degree


def test_lowest_modes_are_the_lowest_laplacian_eigenvectors():
    grid = Grid3D((5, 6, 7), (5.0, 6.0, 7.0), bc="dirichlet")
    lap = KroneckerLaplacian(grid, radius=2)
    modes = lap.lowest_modes(9)
    assert np.allclose(modes.T @ modes, np.eye(9), atol=1e-12)
    # -nabla^2 is diagonal on them, with its 9 smallest eigenvalues.
    rayleigh = -np.sum(modes * lap.apply(modes), axis=0)
    assert np.allclose(rayleigh, np.sort(-lap.eigenvalues)[:9], atol=1e-10)


class TestSCFRun:
    def test_twelve_cube_dimer_work(self, applies, degrees):
        dft = _scf()
        assert dft.converged
        # One spectral bound for the whole run, not one per SCF iteration.
        assert applies.count(0) == POWER_STEPS
        assert dft.n_iterations > 1
        assert len(applies) <= 300
        assert all(2 <= d <= 10 for d in degrees) and min(degrees) < 10

    @pytest.mark.parametrize("system", ["si8_periodic", "dimer_dirichlet"])
    def test_reused_bound_is_still_a_bound(self, system, monkeypatch):
        """The bound the first solve estimates stays above the spectrum of
        every later potential the SCF hands CheFSI."""
        seen = []
        solve = ChebyshevFilteredSubspace.solve

        def recording(self, v0=None):
            res = solve(self, v0)
            seen.append((self.h, self.h.v_local.copy(), res.spectral_bound))
            return res

        monkeypatch.setattr(ChebyshevFilteredSubspace, "solve", recording)
        if system == "si8_periodic":
            crystal = silicon_crystal(1)
            run_scf(crystal, crystal.make_grid(10.26 / 7), radius=2,
                    eigensolver="chefsi", max_iterations=30, seed=0)
        else:
            crystal, _ = _dimer()
            grid = Grid3D((8, 8, 8), (10.0, 10.0, 10.0), bc="dirichlet")
            run_scf(crystal, grid, radius=2, eigensolver="chefsi",
                    gaussian_pseudos=_X2, max_iterations=30, seed=0)
        assert len(seen) > 1
        bounds = {bound for _, _, bound in seen}
        assert len(bounds) == 1
        (bound,) = bounds
        h = seen[0][0]
        for _, v_local, _ in (seen[0], seen[-1]):
            h.update_potential(v_local)
            assert bound >= np.linalg.eigvalsh(h.to_dense())[-1]

