"""Tests for the Algorithm 6 driver and the direct baseline."""

import numpy as np
import pytest

from repro.config import RPAConfig
from repro.core import (
    block_lanczos_trace,
    compute_rpa_energy,
    compute_rpa_energy_direct,
)

#: Values ``RPAConfig`` must refuse up front: each would otherwise run the
#: whole SCF and then fail inside the sweep.
_UNRUNNABLE_CONFIGS = [
    {"max_filter_iterations": -1},
    {"tol_subspace": 0.0},
    {"tol_subspace": (1e-3, -1.0)},
    {"max_cocg_iterations": 0},
    {"fixed_block_size": 0},
    {"max_block_size": 0},
]


@pytest.fixture(scope="module")
def direct_result(toy_dft, toy_coulomb):
    return compute_rpa_energy_direct(toy_dft, n_quadrature=8, coulomb=toy_coulomb)


@pytest.fixture(scope="module")
def iterative_result(toy_dft, toy_coulomb):
    cfg = RPAConfig(n_eig=60, seed=1)  # paper-default tolerances
    return compute_rpa_energy(toy_dft, cfg, coulomb=toy_coulomb, keep_vectors=True)


@pytest.fixture(scope="module")
def smeared_toy_dft():
    """The toy crystal's SCF with Fermi-Dirac smearing: a fractional state."""
    from repro.cli import build_system
    from repro.dft import run_scf

    crystal, grid, kwargs, _ = build_system("toy")
    return run_scf(crystal, grid, **{**kwargs, "tol": 1e-6, "smearing": 0.02})


class TestIgnoredOccupation:
    def test_insulator_reads_exactly_zero(self, toy_dft, iterative_result):
        assert set(toy_dft.occupations) == {0.0, 1.0}
        assert iterative_result.ignored_occupation == 0.0

    def test_smeared_scf_reads_its_fractional_mass(self, smeared_toy_dft,
                                                  toy_coulomb):
        from repro.parallel import compute_rpa_energy_parallel

        dft = smeared_toy_dft
        f, n_s = dft.occupations, dft.n_occupied
        assert 0.0 < f[n_s] < 1.0
        cfg = RPAConfig(n_eig=16, n_quadrature=2, seed=1)
        serial = compute_rpa_energy(dft, cfg, coulomb=toy_coulomb)
        expected = (1.0 - f[:n_s]).sum() + f[n_s:].sum()
        assert serial.ignored_occupation == pytest.approx(expected, rel=1e-14)
        assert serial.ignored_occupation > 1e-3
        # One fill in the sweep: every backend reports the same number.
        simulated = compute_rpa_energy_parallel(dft, cfg, n_ranks=2,
                                                coulomb=toy_coulomb)
        assert simulated.ignored_occupation == serial.ignored_occupation


class TestIterativeVsDirect:
    def test_energy_matches_truncated_direct(self, toy_dft, toy_coulomb, iterative_result):
        # Same n_eig truncation on both sides: agreement is limited only by
        # the (loose, paper-default) solver tolerances.
        direct60 = compute_rpa_energy_direct(toy_dft, n_quadrature=8,
                                             coulomb=toy_coulomb, n_eig=60)
        assert iterative_result.energy == pytest.approx(direct60.energy, abs=2e-4)

    def test_truncation_error_is_small(self, direct_result, toy_dft, toy_coulomb):
        # f(mu) = O(mu^2): truncating the rapidly-decaying spectrum loses
        # little — the justification for small n_eig (Section IV-A).
        direct60 = compute_rpa_energy_direct(toy_dft, n_quadrature=8,
                                             coulomb=toy_coulomb, n_eig=60)
        assert abs(direct60.energy - direct_result.energy) < 0.05 * abs(direct_result.energy)

    def test_energy_is_negative(self, iterative_result, direct_result):
        # Correlation energy is strictly negative.
        assert iterative_result.energy < 0
        assert direct_result.energy < 0

    def test_converged_with_paper_tolerances(self, iterative_result):
        assert iterative_result.converged
        assert all(p.converged for p in iterative_result.points)

    def test_warm_start_skips_late_filtering(self, iterative_result):
        # Section III-F: the last few quadrature points skip filtering
        # (or nearly so) thanks to the warm start.
        iters = [p.filter_iterations for p in iterative_result.points]
        assert np.mean(iters[4:]) <= np.mean(iters[:4])
        assert min(iters[1:]) <= 1

    def test_points_ordered_descending(self, iterative_result):
        omegas = [p.omega for p in iterative_result.points]
        assert omegas == sorted(omegas, reverse=True)

    def test_energy_is_weighted_sum(self, iterative_result):
        total = sum(p.energy_contribution for p in iterative_result.points)
        assert iterative_result.energy == pytest.approx(total, rel=1e-12)

    def test_summary_contains_energy(self, iterative_result):
        s = iterative_result.summary()
        assert "Total RPA correlation energy" in s
        assert f"{iterative_result.energy:.5e}" in s

    def test_eigenvalues_negative_and_sorted(self, iterative_result):
        for p in iterative_result.points:
            assert p.eigenvalues.max() < 1e-8
            assert np.all(np.diff(p.eigenvalues) >= -1e-12)

    def test_timers_cover_all_kernels(self, iterative_result):
        t = iterative_result.timers
        assert t.get("chi0_apply") > 0
        for bucket in ("matmult", "eigensolve", "eval_error"):
            assert bucket in t.buckets


class TestDriverOptions:
    def test_no_warm_start_still_matches(self, toy_dft, toy_coulomb):
        cfg = RPAConfig(n_eig=40, n_quadrature=4, use_warm_start=False, seed=2,
                        max_filter_iterations=25)
        cold = compute_rpa_energy(toy_dft, cfg, coulomb=toy_coulomb)
        cfg2 = RPAConfig(n_eig=40, n_quadrature=4, use_warm_start=True, seed=2)
        warm = compute_rpa_energy(toy_dft, cfg2, coulomb=toy_coulomb)
        assert cold.energy == pytest.approx(warm.energy, abs=5e-4)
        # Warm start needs fewer total filter iterations.
        assert (sum(p.filter_iterations for p in warm.points)
                <= sum(p.filter_iterations for p in cold.points))

    def test_fixed_block_size_matches_dynamic(self, toy_dft, toy_coulomb):
        base = dict(n_eig=30, n_quadrature=3, seed=3)
        dyn = compute_rpa_energy(toy_dft, RPAConfig(dynamic_block_size=True, **base),
                                 coulomb=toy_coulomb)
        fix = compute_rpa_energy(toy_dft, RPAConfig(dynamic_block_size=False,
                                                    fixed_block_size=2, **base),
                                 coulomb=toy_coulomb)
        assert dyn.energy == pytest.approx(fix.energy, abs=5e-4)

    def test_lanczos_trace_method(self, toy_dft, toy_coulomb, stochastic_sweep_energy):
        # SLQ (block Lanczos at block size 1) on the symmetrized operator at
        # the sweep's own points lands near the Ritz-value energy.
        cfg = RPAConfig(n_eig=40, n_quadrature=3, seed=4)
        ref = compute_rpa_energy(toy_dft, cfg, coulomb=toy_coulomb)
        est = stochastic_sweep_energy(ref, block_lanczos_trace, block_size=1,
                                      n_blocks=max(8, cfg.n_eig // 16),
                                      lanczos_steps=30)
        assert est == pytest.approx(ref.energy, rel=0.25)

    def test_initial_vectors_accepted(self, toy_dft, toy_coulomb, iterative_result):
        cfg = RPAConfig(n_eig=60, n_quadrature=2, seed=5)
        res = compute_rpa_energy(toy_dft, cfg, coulomb=toy_coulomb,
                                 initial_vectors=iterative_result.final_vectors)
        assert res.points[0].converged

    def test_validation(self, toy_dft, toy_coulomb):
        with pytest.raises(ValueError):
            compute_rpa_energy(toy_dft, RPAConfig(n_eig=10**6), coulomb=toy_coulomb)
        cfg = RPAConfig(n_eig=10, n_quadrature=2)
        with pytest.raises(ValueError):
            compute_rpa_energy(toy_dft, cfg, coulomb=toy_coulomb,
                               initial_vectors=np.zeros((3, 3)))

    def test_config_validation(self):
        with pytest.raises(ValueError):
            RPAConfig(n_eig=0)
        with pytest.raises(ValueError):
            RPAConfig(n_eig=10, tol_sternheimer=-1.0)
        for bad in _UNRUNNABLE_CONFIGS:
            with pytest.raises(ValueError, match=next(iter(bad))):
                RPAConfig(n_eig=10, **bad)
        with pytest.raises(ValueError, match="requires batched_sternheimer"):
            RPAConfig(n_eig=10, solve_dtype="float32_ir")
        cfg = RPAConfig(n_eig=10, n_quadrature=4, tol_subspace=(1e-3, 1e-4))
        assert cfg.tol_subspace == (1e-3, 1e-4, 1e-4, 1e-4)
        assert cfg.tol_subspace_for(4) == 1e-4
        with pytest.raises(ValueError):
            cfg.tol_subspace_for(5)


class TestDirectBaseline:
    def test_spectra_stored(self, direct_result, toy_dft):
        assert len(direct_result.eigenvalues_per_point) == 8
        n_d = toy_dft.grid.n_points
        assert direct_result.eigenvalues_per_point[0].shape == (n_d,)

    def test_per_point_terms_negative(self, direct_result):
        assert np.all(direct_result.per_point_energy < 0)

    def test_small_omega_contributes_most(self, direct_result):
        # Figure 1 / the output log: |E_k| grows as omega decreases (until
        # the weight suppresses the last point).
        e = np.abs(direct_result.per_point_energy)
        assert e[0] < e[4]
