"""Integration tests: verifier hooks wired through the RPA pipeline."""

import sys

import numpy as np
import pytest

from repro.config import RPAConfig
from repro.core import compute_rpa_energy
from repro.obs import Tracer, use_tracer
from repro.verify import NULL_VERIFIER, Verifier, get_verifier, use_verifier

needs_fork = pytest.mark.skipif(
    not sys.platform.startswith("linux"),
    reason="spmd backend requires the fork start method")


def _config(**overrides):
    base = dict(n_eig=8, n_quadrature=2, tol_subspace=1e-5,
                tol_sternheimer=1e-6, max_filter_iterations=30, seed=3)
    base.update(overrides)
    return RPAConfig(**base)


class TestVerifyLevelPlumbed:
    def test_cheap_run_records_checks(self, toy_dft, toy_coulomb):
        res = compute_rpa_energy(toy_dft, _config(verify_level="cheap"),
                                 coulomb=toy_coulomb)
        assert res.verify is not None
        assert res.verify["level"] == "cheap"
        assert res.verify["checks_run"] > 0
        assert res.verify["failures"] == []
        # The scoped verifier was uninstalled on exit.
        assert get_verifier() is NULL_VERIFIER

    def test_full_run_records_more_checks(self, toy_dft, toy_coulomb):
        cheap = compute_rpa_energy(toy_dft, _config(verify_level="cheap"),
                                   coulomb=toy_coulomb)
        full = compute_rpa_energy(toy_dft, _config(verify_level="full"),
                                  coulomb=toy_coulomb)
        assert full.verify["checks_run"] > cheap.verify["checks_run"]
        assert full.verify["failures"] == []

    def test_off_is_bit_identical_to_verified(self, toy_dft, toy_coulomb):
        # Enabling the verifier must not perturb the computation: it reads
        # pipeline state but never writes, and probes with a private RNG.
        off = compute_rpa_energy(toy_dft, _config(), coulomb=toy_coulomb)
        on = compute_rpa_energy(toy_dft, _config(verify_level="full"),
                                coulomb=toy_coulomb)
        assert off.verify is None
        assert on.energy == off.energy  # bit-identical, not approx
        for p_off, p_on in zip(off.points, on.points):
            assert p_on.energy_contribution == p_off.energy_contribution

    def test_preinstalled_verifier_is_reused(self, toy_dft, toy_coulomb):
        # The harness installs its own strict/instrumented verifier; the
        # driver must use it rather than shadowing it with a fresh one.
        vf = Verifier(level="cheap")
        with use_verifier(vf):
            res = compute_rpa_energy(toy_dft, _config(verify_level="cheap"),
                                     coulomb=toy_coulomb)
        assert res.verify["checks_run"] == vf.checks_run > 0

    def test_recycling_run_is_clean(self, toy_dft, toy_coulomb):
        cfg = _config(verify_level="full", use_recycling=True,
                      n_quadrature=3)
        res = compute_rpa_energy(toy_dft, cfg, coulomb=toy_coulomb)
        assert res.verify["failures"] == []

    def test_config_rejects_unknown_level(self):
        with pytest.raises(ValueError):
            _config(verify_level="loud")


class TestParallelDriverHooks:
    def test_simulated_mpi_records_checks(self, toy_dft, toy_coulomb):
        from repro.parallel import compute_rpa_energy_parallel

        res = compute_rpa_energy_parallel(
            toy_dft, _config(verify_level="cheap"), n_ranks=2,
            coulomb=toy_coulomb)
        assert res.verify is not None
        assert res.verify["checks_run"] > 0
        assert res.verify["failures"] == []


BACKEND_CELLS = {
    "serial": dict(backend="serial"),
    "simulated": dict(backend="simulated", n_ranks=2),
    "spmd": dict(backend="spmd", n_workers=2),
}


@pytest.mark.parametrize("backend", ["serial", "simulated"])
class TestEveryPointEnergyIsChecked:
    """Each point's energy term goes through the Eq. 1 <-> dielectric trace
    identity, whichever scheduler placed the point's chi0 applies."""

    def _sweep(self, toy_dft, toy_coulomb, backend):
        from repro.parallel import compute_rpa_energy_parallel

        cfg = _config(verify_level="cheap", n_quadrature=3)
        with use_tracer(Tracer()) as tracer:
            res = compute_rpa_energy_parallel(toy_dft, cfg, coulomb=toy_coulomb,
                                              **BACKEND_CELLS[backend])
        return res, tracer

    def test_one_check_per_point(self, toy_dft, toy_coulomb, backend):
        res, tracer = self._sweep(toy_dft, toy_coulomb, backend)
        assert tracer.counters["verify_trace_identity_checks"] == 3
        assert res.verify["failures"] == []

    def test_a_wrong_point_term_is_caught(self, toy_dft, toy_coulomb, backend,
                                          monkeypatch):
        import repro.core.rpa_energy as rpa_energy

        honest = rpa_energy.trace_from_eigenvalues
        monkeypatch.setattr(rpa_energy, "trace_from_eigenvalues",
                            lambda mu: 1.01 * honest(mu))
        res, tracer = self._sweep(toy_dft, toy_coulomb, backend)
        caught = [f for f in res.verify["failures"] if f["check"] == "trace_identity"]
        assert len(caught) == tracer.counters["verify_trace_identity_failures"] == 3


@needs_fork
@pytest.mark.parametrize("batched", [False, True],
                         ids=["per_orbital", "batched"])
@pytest.mark.parametrize("backend", sorted(BACKEND_CELLS))
def test_protocol_checks_run_on_every_backend_and_kernel(toy_dft, toy_coulomb,
                                                         backend, batched):
    # The Sternheimer-level checks belong to the one solve protocol, so they
    # run wherever it runs — and a worker's outcome is folded exactly once.
    from repro.parallel import compute_rpa_energy_parallel

    cfg = _config(verify_level="cheap", use_recycling=True,
                  batched_sternheimer=batched)
    with use_tracer(Tracer()) as tracer:
        res = compute_rpa_energy_parallel(toy_dft, cfg, coulomb=toy_coulomb,
                                          **BACKEND_CELLS[backend])
    assert res.verify["failures"] == []
    for check in ("operator_symmetry", "solve_residual", "recycled_guess"):
        assert tracer.counters.get(f"verify_{check}_checks", 0) > 0, check
    assert res.verify["checks_run"] == tracer.counters["verify_checks"]


@needs_fork
def test_sternheimer_faults_are_caught_wherever_the_protocol_runs(toy_dft,
                                                                  toy_coulomb):
    from repro.verify.harness import (
        _inject_broken_rotation,
        _inject_fake_converged_solve,
    )

    rotation = _inject_broken_rotation(toy_dft, toy_coulomb, "cheap")
    assert rotation["caught_on"] == {"per_orbital": True, "batched": True}
    fake = _inject_fake_converged_solve(toy_dft, toy_coulomb, "cheap")
    assert fake["caught_on"] == {"serial": True, "spmd": True}
    assert rotation["caught"] and fake["caught"]


@needs_fork
def test_stale_ssa_fault_planted_once_is_caught_on_every_backend(toy_dft,
                                                                 toy_coulomb):
    # Only possible because every backend's SSA points run the one
    # repro.core.ssa._frozen_rayleigh_ritz.
    from repro.verify.harness import _inject_stale_ssa_basis

    rec = _inject_stale_ssa_basis(toy_dft, toy_coulomb, "cheap")
    assert rec["caught_on"] == {"serial": True, "mpi": True, "spmd": True}
    assert rec["caught"]
