"""The CheFSI branch of the SCF: inexact, warm-started eigensolves.

An X2 dimer on a 12^3 Dirichlet grid (1 728 points) is just over the 1 500
points below which ``eigensolver="auto"`` picks the dense solver, so these
tests reach the branch the benchmark's 20^3 dimer and the paper's Si8 grid
take.
"""

from dataclasses import replace

import numpy as np
import pytest

from repro.dft import ChebyshevFilteredSubspace, GaussianPseudopotential, run_scf
from repro.dft.atoms import Crystal
from repro.grid import Grid3D
from repro.obs import Tracer, use_tracer

TOL = 1e-6
#: The tolerance SCF convergence is accepted at (run_scf's final eigen-tolerance).
FINAL_EIG_TOL = max(0.1 * TOL, 1e-8)
#: Filter passes of this SCF when every iteration solved to FINAL_EIG_TOL from
#: the previous orbitals plus random buffer columns: 82 over 12 iterations.
COLD_TIGHT_PASSES = 82

_X2 = {"X": GaussianPseudopotential("X", z_ion=1.0, r_core=0.7)}


def _dimer():
    crystal = Crystal(["X", "X"], np.array([[4.2, 5.0, 5.0], [5.8, 5.0, 5.0]]),
                      (10.0, 10.0, 10.0), label="X2")
    return crystal, Grid3D((12, 12, 12), (10.0, 10.0, 10.0), bc="dirichlet")


def _scf(**kwargs):
    crystal, grid = _dimer()
    return run_scf(crystal, grid, radius=2, tol=TOL, gaussian_pseudos=_X2, **kwargs)


@pytest.fixture(scope="module")
def chefsi_run():
    """The auto-selected CheFSI SCF, with every eigensolve's input and result
    and the trace it leaves."""
    solves = []
    solve = ChebyshevFilteredSubspace.solve

    def recording_solve(self, v0=None):
        res = solve(self, v0)
        solves.append((v0, res))
        return res

    tracer = Tracer()
    with pytest.MonkeyPatch.context() as mp, use_tracer(tracer):
        mp.setattr(ChebyshevFilteredSubspace, "solve", recording_solve)
        dft = _scf()
    return dft, solves, tracer


@pytest.fixture(scope="module")
def dense_run():
    return _scf(eigensolver="dense")


class TestInexactChefsiSCF:
    def test_auto_takes_the_chefsi_branch(self, chefsi_run):
        dft, solves, _ = chefsi_run
        assert dft.grid.n_points > 1500
        assert len(solves) == dft.n_iterations
        assert dft.history.eigensolver_passes == [res.iterations for _, res in solves]

    def test_converges(self, chefsi_run):
        dft = chefsi_run[0]
        assert dft.converged
        assert dft.history.density_residuals[-1] < TOL

    def test_eigenvalues_match_dense_scf(self, chefsi_run, dense_run):
        dft, dense = chefsi_run[0], dense_run
        assert dense.converged
        assert np.abs(dft.eigenvalues - dense.eigenvalues).max() < 1e-6

    def test_at_most_half_the_filter_passes_of_tight_solves(self, chefsi_run):
        dft = chefsi_run[0]
        assert sum(dft.history.eigensolver_passes) <= COLD_TIGHT_PASSES // 2

    def test_single_precision_passes_are_recorded(self, chefsi_run, dense_run):
        dft, solves, _ = chefsi_run
        singles = dft.history.eigensolver_single_passes
        assert singles == [res.single_passes for _, res in solves]
        assert sum(singles) > 0
        assert all(0 <= s <= p for s, p in zip(singles, dft.history.eigensolver_passes))
        assert dense_run.history.eigensolver_single_passes == [0] * dense_run.n_iterations

    def test_tolerance_loose_first_and_final_last(self, chefsi_run):
        tols = chefsi_run[0].history.eigensolver_tols
        assert tols[0] == 1e-3
        assert tols[-1] == FINAL_EIG_TOL
        assert min(tols) == FINAL_EIG_TOL

    def test_warm_start_from_whole_subspace(self, chefsi_run):
        solves = chefsi_run[1]
        assert solves[0][0] is None
        for (_, prev), (v0, _) in zip(solves, solves[1:]):
            assert v0 is prev.subspace

    def test_subspace_block(self, chefsi_run):
        dft, solves, _ = chefsi_run
        res = solves[-1][1]
        n_states = len(dft.eigenvalues)
        solver = ChebyshevFilteredSubspace(dft.hamiltonian, n_states)
        assert res.subspace.shape == (dft.grid.n_points, n_states + solver.n_buffer)
        overlap = res.subspace.T @ res.subspace
        assert np.allclose(overlap, np.eye(overlap.shape[0]), atol=1e-10)
        assert np.array_equal(res.subspace[:, :n_states], res.orbitals)
        assert np.array_equal(dft.orbitals, res.orbitals)

    def test_trace_carries_the_eigensolves(self, chefsi_run):
        dft, _, tracer = chefsi_run
        hist = dft.history
        spans = [e for e in tracer.events if e["type"] == "span"]
        iters = [e["attrs"] for e in spans if e["name"] == "scf_iteration"]
        assert [a["eigensolver_passes"] for a in iters] == hist.eigensolver_passes
        assert [a["eigensolver_tol"] for a in iters] == hist.eigensolver_tols
        assert [a["eigensolver_converged"] for a in iters] == hist.eigensolver_converged
        assert ([a["eigensolver_single_passes"] for a in iters]
                == hist.eigensolver_single_passes)
        (scf,) = [e["attrs"] for e in spans if e["name"] == "scf"]
        assert scf["eigensolver_passes"] == sum(hist.eigensolver_passes)
        assert scf["eigensolver_single_passes"] == sum(hist.eigensolver_single_passes)


def test_unconverged_final_eigensolve_is_not_scf_convergence(monkeypatch):
    # Every solve at the final tolerance claims it stopped at its pass cap:
    # the density residual still falls below tol, but those orbitals must not
    # end the SCF as converged.
    solve = ChebyshevFilteredSubspace.solve

    def capped_solve(self, v0=None):
        res = solve(self, v0)
        return replace(res, converged=False) if self.tol <= FINAL_EIG_TOL else res

    monkeypatch.setattr(ChebyshevFilteredSubspace, "solve", capped_solve)
    dft = _scf(max_iterations=20)
    assert dft.converged is False
    assert dft.n_iterations == 20
    assert min(dft.history.density_residuals) < TOL
    assert dft.history.eigensolver_converged[-1] is False
