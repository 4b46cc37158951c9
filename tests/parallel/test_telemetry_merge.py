"""Telemetry/trace merge across execution backends (exactly-once contract).

The process-pool backend ships per-task payloads home and folds them in
keyed by orbital; the simulated-MPI scheduler tags records with ranks. In
every case the parent-side counters must equal a serial run's — no events
lost, none double-counted — including across worker death and resubmission.
"""

import sys

import numpy as np
import pytest

from repro.core import Chi0Operator
from repro.obs import ConvergenceRecorder, Tracer, use_recorder, use_tracer
from repro.parallel import ProcessChi0Operator
from repro.resilience import DieOnceFile

needs_fork = pytest.mark.skipif(
    not sys.platform.startswith("linux"),
    reason="process backend requires the fork start method",
)

OP_KWARGS = dict(tol=1e-8, max_iterations=2000, dynamic_block_size=False)


def _apply_with_obs(op, V, omega=0.5, level="summary"):
    """Run one chi0 application under a fresh recorder+tracer; return both."""
    recorder = ConvergenceRecorder(level=level)
    tracer = Tracer()
    with use_recorder(recorder), use_tracer(tracer):
        op.apply_chi0(V, omega)
    return recorder, tracer


def _operand(dft, n_cols=3, seed=5):
    rng = np.random.default_rng(seed)
    return rng.standard_normal((dft.grid.n_points, n_cols))


@pytest.fixture(scope="module")
def serial_reference(toy_dft, toy_coulomb):
    op = Chi0Operator(toy_dft.hamiltonian, toy_dft.occupied_orbitals,
                      toy_dft.occupied_energies, toy_coulomb, **OP_KWARGS)
    V = _operand(toy_dft)
    recorder, tracer = _apply_with_obs(op, V)
    return V, recorder, tracer


@needs_fork
class TestProcessBackend:
    def _proc_op(self, toy_dft, toy_coulomb, **kwargs):
        return ProcessChi0Operator(toy_dft.hamiltonian,
                                   toy_dft.occupied_orbitals,
                                   toy_dft.occupied_energies, toy_coulomb,
                                   n_workers=2, **OP_KWARGS, **kwargs)

    def test_child_payloads_merge_exactly_once(self, toy_dft, toy_coulomb,
                                               serial_reference):
        V, serial_rec, serial_tr = serial_reference
        with self._proc_op(toy_dft, toy_coulomb) as op:
            recorder, tracer = _apply_with_obs(op, V)
        assert recorder.counters == serial_rec.counters
        assert recorder.aggregates == serial_rec.aggregates
        assert recorder.n_recorded == serial_rec.n_recorded
        # Child tracer spans arrive exactly once: one sternheimer_solve per
        # orbital, same as the serial timeline.
        solves = [e for e in tracer.events if e["name"] == "sternheimer_solve"]
        serial_solves = [e for e in serial_tr.events
                         if e["name"] == "sternheimer_solve"]
        assert len(solves) == len(serial_solves) == toy_dft.n_occupied

    def test_full_level_ships_histories(self, toy_dft, toy_coulomb,
                                        serial_reference):
        V, _, _ = serial_reference
        with self._proc_op(toy_dft, toy_coulomb) as op:
            recorder, _ = _apply_with_obs(op, V, level="full")
        assert recorder.n_recorded > 0
        for rec in recorder.solves:
            assert rec["residual_history"][0] > 0

    def test_worker_death_merges_exactly_once(self, toy_dft, toy_coulomb,
                                              serial_reference, tmp_path):
        V, serial_rec, _ = serial_reference
        fault = DieOnceFile(str(tmp_path / "die.token"), orbital=1).arm()
        with self._proc_op(toy_dft, toy_coulomb, fault_hook=fault) as op:
            recorder, tracer = _apply_with_obs(op, V)
            assert op.n_pool_restarts == 1
        # The dead worker's partial payload died with it; the resubmitted
        # orbital records once. Totals equal the undisturbed serial run.
        assert recorder.counters == serial_rec.counters
        assert recorder.aggregates == serial_rec.aggregates
        solves = [e for e in tracer.events if e["name"] == "sternheimer_solve"]
        assert len(solves) == toy_dft.n_occupied

    def test_disabled_recorder_ships_nothing(self, toy_dft, toy_coulomb,
                                             serial_reference):
        V, _, _ = serial_reference
        with self._proc_op(toy_dft, toy_coulomb) as op:
            op.apply_chi0(V, 0.5)  # NULL recorder/tracer active


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
