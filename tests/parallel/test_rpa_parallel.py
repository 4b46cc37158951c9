"""Tests for the distributed entry point of the (single) RPA sweep."""

import dataclasses

import numpy as np
import pytest

from repro.config import RPAConfig
from repro.core import compute_rpa_energy
from repro.dft import GaussianPseudopotential, run_scf
from repro.dft.atoms import Crystal
from repro.grid import CoulombOperator
from repro.parallel import compute_rpa_energy_parallel
from tests.parallel.test_spmd import FEATURE_MATRIX


@pytest.fixture(scope="module")
def toy_dft():
    crystal = Crystal(
        ["X", "X"],
        np.array([[1.0, 1.0, 1.0], [3.0, 3.0, 3.0]]),
        (6.0, 6.0, 6.0),
        label="toy",
    )
    grid = crystal.make_grid(1.0)
    pseudos = {"X": GaussianPseudopotential("X", z_ion=2.0, r_core=0.9)}
    return run_scf(crystal, grid, radius=2, tol=1e-8, max_iterations=80,
                   gaussian_pseudos=pseudos)


@pytest.fixture(scope="module")
def toy_coulomb(toy_dft):
    return CoulombOperator(toy_dft.grid, radius=2)


@pytest.fixture(scope="module")
def base_config():
    # Deterministic solver path (fixed s = 1) so results are bitwise
    # independent of the rank count.
    return RPAConfig(n_eig=32, n_quadrature=4, seed=1,
                     dynamic_block_size=False, fixed_block_size=1)


class TestParallelCorrectness:
    @pytest.mark.parametrize("p", [1, 2, 4, 8])
    def test_energy_independent_of_rank_count(self, toy_dft, toy_coulomb, base_config, p):
        ser = compute_rpa_energy(toy_dft, base_config, coulomb=toy_coulomb)
        par = compute_rpa_energy_parallel(toy_dft, base_config, n_ranks=p,
                                          coulomb=toy_coulomb)
        if p == 1:
            assert par.energy == ser.energy
        else:
            assert par.energy == pytest.approx(ser.energy, abs=1e-12)
        assert par.converged

    def test_block_size_cap_follows_distribution(self, toy_dft, toy_coulomb):
        cfg = RPAConfig(n_eig=32, n_quadrature=2, seed=2, max_block_size=16)
        par = compute_rpa_energy_parallel(toy_dft, cfg, n_ranks=8, coulomb=toy_coulomb)
        # Section III-D: s <= n_eig / p = 4.
        assert par.block_size_cap == 4
        assert max(par.stats.block_size_counts) <= 4

    def test_rejects_more_ranks_than_columns(self, toy_dft, toy_coulomb, base_config):
        with pytest.raises(ValueError):
            compute_rpa_energy_parallel(toy_dft, base_config, n_ranks=64,
                                        coulomb=toy_coulomb)
        with pytest.raises(ValueError):
            compute_rpa_energy_parallel(toy_dft, base_config, n_ranks=0,
                                        coulomb=toy_coulomb)

    @pytest.mark.parametrize("kwargs, match", [
        (dict(backend="spmd", n_ranks=3, n_workers=2), "disagree"),
        (dict(backend="simulated", n_ranks=2, n_workers=2),
         "n_workers requires the spmd backend"),
        (dict(backend="serial", n_workers=1),
         "n_workers requires the spmd backend"),
    ])
    def test_contradictory_rank_counts_are_rejected(self, toy_dft, toy_coulomb,
                                                    base_config, kwargs, match):
        # Used to run 2 ranks silently and validate rank_faults against 2.
        with pytest.raises(ValueError, match=match):
            compute_rpa_energy_parallel(toy_dft, base_config,
                                        coulomb=toy_coulomb, **kwargs)


class TestSimulatedScaling:
    def test_walltime_decreases_with_ranks(self, toy_dft, toy_coulomb, base_config):
        t1 = compute_rpa_energy_parallel(toy_dft, base_config, n_ranks=1,
                                         coulomb=toy_coulomb).simulated_walltime
        t4 = compute_rpa_energy_parallel(toy_dft, base_config, n_ranks=4,
                                         coulomb=toy_coulomb).simulated_walltime
        assert t4 < t1

    def test_breakdown_covers_dominant_cost(self, toy_dft, toy_coulomb, base_config):
        par = compute_rpa_energy_parallel(toy_dft, base_config, n_ranks=2,
                                          coulomb=toy_coulomb)
        assert par.breakdown["chi0_apply"] > 0
        assert par.breakdown["eval_error"] > 0
        total_kernels = sum(par.breakdown.values())
        # Kernel buckets plus comm account for (almost all of) the walltime.
        assert total_kernels <= par.simulated_walltime * 1.05

    def test_comm_grows_with_ranks(self, toy_dft, toy_coulomb, base_config):
        c2 = compute_rpa_energy_parallel(toy_dft, base_config, n_ranks=2,
                                         coulomb=toy_coulomb).comm_seconds
        c8 = compute_rpa_energy_parallel(toy_dft, base_config, n_ranks=8,
                                         coulomb=toy_coulomb).comm_seconds
        assert c8 > c2 > 0

    def test_per_rank_seconds_recorded(self, toy_dft, toy_coulomb, base_config):
        par = compute_rpa_energy_parallel(toy_dft, base_config, n_ranks=4,
                                          coulomb=toy_coulomb)
        assert par.per_rank_chi0_seconds.shape == (4,)
        assert np.all(par.per_rank_chi0_seconds > 0)

    def test_point_records(self, toy_dft, toy_coulomb, base_config):
        par = compute_rpa_energy_parallel(toy_dft, base_config, n_ranks=2,
                                          coulomb=toy_coulomb)
        assert len(par.points) == 4
        assert sum(p.simulated_seconds for p in par.points) == pytest.approx(
            par.simulated_walltime, rel=0.05
        )


class TestOneSweep:
    """The serial driver *is* the scheduler sweep on one rank."""

    @pytest.mark.parametrize("feature", sorted(FEATURE_MATRIX))
    def test_one_rank_backends_equal_serial(self, toy_dft, toy_coulomb, feature):
        cfg = RPAConfig(n_eig=8, n_quadrature=2, seed=1, **FEATURE_MATRIX[feature])
        ser = compute_rpa_energy(toy_dft, cfg, coulomb=toy_coulomb)
        for backend in ("serial", "simulated"):
            par = compute_rpa_energy_parallel(toy_dft, cfg, n_ranks=1,
                                              coulomb=toy_coulomb, backend=backend)
            assert par.backend == backend
            assert par.energy == ser.energy
            assert par.stats.n_matvec == ser.stats.n_matvec
            for a, b in zip(par.points, ser.points):
                assert a.energy_term == b.energy_term
                assert a.filter_iterations == b.filter_iterations
                assert a.subspace_mode == b.subspace_mode

    @pytest.mark.parametrize("field, value", [
        ("use_warm_start", False),
    ])
    def test_config_fields_reach_the_simulated_backend(self, toy_dft, toy_coulomb,
                                                       field, value):
        # Fixed s = 1: one and two ranks share the solver path, so the
        # serial driver is an exact reference.
        base = RPAConfig(n_eig=16, n_quadrature=2, seed=3, max_filter_iterations=25,
                         dynamic_block_size=False, fixed_block_size=1)
        cfg = dataclasses.replace(base, **{field: value})
        ser = compute_rpa_energy(toy_dft, cfg, coulomb=toy_coulomb)
        par = compute_rpa_energy_parallel(toy_dft, cfg, n_ranks=2,
                                          coulomb=toy_coulomb)
        default = compute_rpa_energy_parallel(toy_dft, base, n_ranks=2,
                                              coulomb=toy_coulomb)
        assert par.energy == pytest.approx(ser.energy, abs=1e-10)
        assert abs(par.energy - default.energy) > 1e-8

    def test_initial_and_kept_vectors(self, toy_dft, toy_coulomb):
        cfg = RPAConfig(n_eig=8, n_quadrature=2, seed=1)
        first = compute_rpa_energy_parallel(toy_dft, cfg, n_ranks=2,
                                            coulomb=toy_coulomb, keep_vectors=True)
        assert first.final_vectors.shape == (toy_dft.grid.n_points, 8)
        again = compute_rpa_energy_parallel(toy_dft, cfg, n_ranks=2,
                                            coulomb=toy_coulomb,
                                            initial_vectors=first.final_vectors)
        # Warm-started from converged vectors: less filtering at point 1.
        assert again.points[0].filter_iterations < first.points[0].filter_iterations

    def test_point_records_complete_on_degraded_run(self, toy_dft, toy_coulomb,
                                                     monkeypatch, default_chain):
        # Two COCG iterations cannot converge; a one-stage chain degrades
        # every solve, and the per-point record must say so on any backend.
        monkeypatch.setattr(default_chain, "stages", default_chain.stages[:1])
        cfg = RPAConfig(n_eig=8, n_quadrature=2, seed=1, max_cocg_iterations=2,
                        max_filter_iterations=1)
        par = compute_rpa_energy_parallel(toy_dft, cfg, n_ranks=2,
                                          coulomb=toy_coulomb)
        assert par.stats.n_degraded_solves > 0
        for p in par.points:
            assert p.eigenvalues.shape == (8,)
            assert np.isfinite(p.error)
            assert p.elapsed_seconds > 0 and p.simulated_seconds > 0
            assert p.solve_error_bound > 0
        assert par.skipped_solve_error_bound > 0
        assert sum(p.solve_error_bound for p in par.points) == pytest.approx(
            par.degraded_error_bound)


class TestParallelRecycling:
    def test_recycled_energy_matches_cold(self, toy_dft, toy_coulomb):
        cfg = RPAConfig(n_eig=24, n_quadrature=3, seed=1, tol_sternheimer=1e-6)
        cold = compute_rpa_energy_parallel(toy_dft, cfg, n_ranks=3,
                                           coulomb=toy_coulomb)
        rec = compute_rpa_energy_parallel(
            toy_dft, dataclasses.replace(cfg, use_recycling=True),
            n_ranks=3, coulomb=toy_coulomb)
        assert abs(rec.energy_per_atom - cold.energy_per_atom) <= 1e-6
        assert rec.stats.n_matvec < cold.stats.n_matvec
        # Each rank stores its own slice; full entries still assemble and
        # rotate, so the cache serves guesses across the whole run.
        assert rec.recycle is not None
        assert rec.recycle.hits > 0
        assert rec.recycle.rotations > 0
        assert rec.recycle.omega_seeds > 0
        assert cold.recycle is None
