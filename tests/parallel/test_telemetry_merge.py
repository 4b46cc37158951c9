"""Telemetry/trace merge across execution backends (exactly-once contract).

The SPMD backend's worker processes ship per-task payloads home and the
parent folds them in keyed by task id ("process backend" in
``TestProcessBackend`` now means those workers); the simulated-MPI
scheduler tags records with ranks. In every case the parent-side counters
must equal those of the same column slices run in process — no events
lost, none double-counted — including across worker death and
resubmission.
"""

import sys

import numpy as np
import pytest

from repro.core import Chi0Operator
from repro.obs import ConvergenceRecorder, Tracer, use_recorder, use_tracer
from repro.parallel import PACE_PHOENIX, SimulatedScheduler
from repro.parallel.spmd import SpmdScheduler
from repro.resilience import DieOnceFile

needs_fork = pytest.mark.skipif(
    not sys.platform.startswith("linux"),
    reason="spmd backend requires the fork start method",
)

N_COLS = 4


def _operator(dft, coulomb):
    return Chi0Operator(dft.hamiltonian, dft.occupied_orbitals,
                        dft.occupied_energies, coulomb, tol=1e-8,
                        max_iterations=2000, dynamic_block_size=False)


def _apply_with_obs(sched, V, omega=0.5, level="summary"):
    """Run one distributed apply under a fresh recorder+tracer; return both."""
    recorder = ConvergenceRecorder(level=level)
    tracer = Tracer()
    with use_recorder(recorder), use_tracer(tracer):
        sched.apply(V, omega)
    return recorder, tracer


def _solve_spans(tracer):
    return [e for e in tracer.events if e["name"] == "sternheimer_solve"]


@pytest.fixture(scope="module")
def in_process_reference(toy_dft, toy_coulomb):
    """The same two column slices, solved in this process."""
    V = np.random.default_rng(5).standard_normal(
        (toy_dft.grid.n_points, N_COLS))
    sched = SimulatedScheduler(_operator(toy_dft, toy_coulomb), 2, N_COLS,
                               PACE_PHOENIX)
    recorder, tracer = _apply_with_obs(sched, V)
    return V, recorder, tracer


@needs_fork
class TestProcessBackend:
    def _spmd(self, toy_dft, toy_coulomb, **kwargs):
        return SpmdScheduler(_operator(toy_dft, toy_coulomb), n_ranks=2,
                             width=N_COLS, **kwargs)

    def test_child_payloads_merge_exactly_once(self, toy_dft, toy_coulomb,
                                               in_process_reference):
        V, ref_rec, ref_tr = in_process_reference
        with self._spmd(toy_dft, toy_coulomb) as spmd:
            recorder, tracer = _apply_with_obs(spmd, V)
        assert recorder.counters == ref_rec.counters
        assert recorder.aggregates == ref_rec.aggregates
        assert recorder.n_recorded == ref_rec.n_recorded
        # Child tracer spans arrive exactly once: one sternheimer_solve per
        # (column slice, orbital), same as the in-process timeline.
        assert (len(_solve_spans(tracer)) == len(_solve_spans(ref_tr))
                == 2 * toy_dft.n_occupied)

    def test_full_level_ships_histories(self, toy_dft, toy_coulomb,
                                        in_process_reference):
        V, _, _ = in_process_reference
        with self._spmd(toy_dft, toy_coulomb) as spmd:
            recorder, _ = _apply_with_obs(spmd, V, level="full")
        assert recorder.n_recorded > 0
        assert {rec["rank"] for rec in recorder.solves} == {0, 1}
        for rec in recorder.solves:
            assert rec["residual_history"][0] > 0

    def test_worker_death_merges_exactly_once(self, toy_dft, toy_coulomb,
                                              in_process_reference, tmp_path):
        V, ref_rec, ref_tr = in_process_reference
        fault = DieOnceFile(str(tmp_path / "die.token"), orbital=1).arm()
        with self._spmd(toy_dft, toy_coulomb, fault_hook=fault) as spmd:
            recorder, tracer = _apply_with_obs(spmd, V)
            assert spmd.n_rank_failures == 1
        # The dead worker's partial payload died with it; the resubmitted
        # task records once. Totals equal the undisturbed in-process run.
        assert recorder.counters == ref_rec.counters
        assert recorder.aggregates == ref_rec.aggregates
        assert len(_solve_spans(tracer)) == len(_solve_spans(ref_tr))

    def test_disabled_recorder_ships_nothing(self, toy_dft, toy_coulomb,
                                             in_process_reference):
        V, _, _ = in_process_reference
        with self._spmd(toy_dft, toy_coulomb) as spmd:
            assert spmd.apply(V, 0.5).shape == V.shape  # NULL recorder/tracer


class TestSimulatedMPI:
    def test_rank_tagged_telemetry(self, toy_dft, toy_coulomb):
        from repro.config import RPAConfig
        from repro.parallel import compute_rpa_energy_parallel

        cfg = RPAConfig(n_eig=8, n_quadrature=2, seed=1,
                        telemetry_level="summary")
        result = compute_rpa_energy_parallel(toy_dft, cfg, n_ranks=2,
                                             coulomb=toy_coulomb)
        payload = result.telemetry
        assert payload is not None
        assert payload["counters"]["solves"] > 0
        assert payload["n_points_total"] == 2
        assert len(payload["points"]) == 2
        ranks = {rec["rank"] for rec in payload["solves"]}
        assert ranks == {0, 1}

    def test_off_level_yields_none(self, toy_dft, toy_coulomb):
        from repro.config import RPAConfig
        from repro.parallel import compute_rpa_energy_parallel

        cfg = RPAConfig(n_eig=8, n_quadrature=2, seed=1)
        result = compute_rpa_energy_parallel(toy_dft, cfg, n_ranks=2,
                                             coulomb=toy_coulomb)
        assert result.telemetry is None


class TestSerialDriver:
    def test_telemetry_payload_on_result(self, toy_dft, toy_coulomb):
        from repro.config import RPAConfig
        from repro.core import compute_rpa_energy

        cfg = RPAConfig(n_eig=8, n_quadrature=2, seed=1,
                        telemetry_level="summary")
        result = compute_rpa_energy(toy_dft, cfg, coulomb=toy_coulomb)
        assert result.telemetry is not None
        assert result.telemetry["counters"]["solves"] > 0
        assert len(result.telemetry["points"]) == 2

        off = compute_rpa_energy(toy_dft, RPAConfig(n_eig=8, n_quadrature=2,
                                                    seed=1),
                                 coulomb=toy_coulomb)
        assert off.telemetry is None
        # Telemetry reads solver state but never feeds back: bit-identical.
        assert off.energy == result.energy
