"""Worker-death recovery: worker processes and simulated MPI ranks.

Two layers of the same contract — losing a worker mid-sweep must never
change the physics:

* ``SpmdScheduler`` hands a dead worker process's column slices to a
  survivor and resubmits exactly the lost tasks (bit-identical to the same
  slices run in process) — "process pool" in ``TestProcessPoolRecovery``
  now means the SPMD backend's worker processes;
* ``SimulatedScheduler`` (and ``compute_rpa_energy_parallel`` on top of
  it) reassigns a dead simulated rank's column slices to the least-loaded
  survivor (energies unchanged, only the time accounting moves).
"""
import sys

import numpy as np
import pytest

from repro.core import Chi0Operator, SerialScheduler
from repro.obs import Tracer, use_tracer
from repro.parallel import (
    PACE_PHOENIX,
    BlockColumnDistribution,
    SimulatedScheduler,
    WorkerRecoveryError,
    compute_rpa_energy_parallel,
)
from repro.parallel.spmd import SpmdScheduler
from repro.resilience import DieOnceFile

pytestmark = pytest.mark.resilience

needs_fork = pytest.mark.skipif(
    not sys.platform.startswith("linux"),
    reason="spmd backend requires the fork start method",
)


@pytest.fixture(scope="module")
def rpa_config():
    # Fixed s = 1 keeps solves bitwise independent of rank layout, so the
    # reassignment tests can demand exact energy equality.
    from repro.config import RPAConfig

    return RPAConfig(n_eig=16, n_quadrature=3, seed=1,
                     dynamic_block_size=False, fixed_block_size=1)


@needs_fork
class TestProcessPoolRecovery:
    def _operator(self, toy_dft, toy_coulomb):
        return Chi0Operator(toy_dft.hamiltonian, toy_dft.occupied_orbitals,
                            toy_dft.occupied_energies, toy_coulomb, tol=1e-8,
                            max_iterations=2000, dynamic_block_size=False)

    def test_worker_death_recovers_bit_identical(self, toy_dft, toy_coulomb, tmp_path):
        # Kill the worker solving orbital 1 exactly once mid-task; its column
        # slice must move to the survivor, the lost task be resubmitted, and
        # the result equal the same slices run in process, bit for bit.
        fault = DieOnceFile(str(tmp_path / "die.token"), orbital=1).arm()
        rng = np.random.default_rng(11)
        V = rng.standard_normal((toy_dft.grid.n_points, 4))
        reference = SimulatedScheduler(
            self._operator(toy_dft, toy_coulomb), 2, 4, PACE_PHOENIX
        ).apply(V, 0.5)
        tracer = Tracer()
        with use_tracer(tracer), SpmdScheduler(
                self._operator(toy_dft, toy_coulomb), n_ranks=2, width=4,
                fault_hook=fault) as spmd:
            recovered = spmd.apply(V, 0.5)
            assert spmd.n_rank_failures == 1
            assert np.array_equal(recovered, reference)
            # A second application runs clean on the surviving worker.
            assert np.array_equal(spmd.apply(V, 0.5), reference)
            assert spmd.n_rank_failures == 1
            assert sum(p.is_alive() for p in spmd._procs.values()) == 1
        names = [e["name"] for e in tracer.events]
        assert names.count("rank_failure") == 1
        assert names.count("task_reassigned") == 1
        assert names.count("task_resubmitted") == 1

    def test_restart_budget_exhaustion_raises(self, toy_dft, toy_coulomb, tmp_path):
        # A task that kills every worker it lands on must surface a
        # WorkerRecoveryError once nobody is left, instead of looping forever.
        class DieAlways:
            def __init__(self, orbital):
                self.orbital = orbital

            def __call__(self, orbital):
                import os

                if orbital == self.orbital:
                    os._exit(1)

        with SpmdScheduler(self._operator(toy_dft, toy_coulomb), n_ranks=2,
                           width=2, fault_hook=DieAlways(0)) as spmd:
            v = np.random.default_rng(12).standard_normal(
                (toy_dft.grid.n_points, 2))
            with pytest.raises(WorkerRecoveryError,
                               match="all spmd workers died"):
                spmd.apply(v, 0.5)
            assert not any(p.is_alive() for p in spmd._procs.values())


class TestRankFaultRecovery:
    def test_dead_rank_work_is_reassigned(self, toy_dft, toy_coulomb, rpa_config):
        clean = compute_rpa_energy_parallel(toy_dft, rpa_config, n_ranks=3,
                                            coulomb=toy_coulomb)
        tracer = Tracer()
        with use_tracer(tracer):
            faulted = compute_rpa_energy_parallel(
                toy_dft, rpa_config, n_ranks=3, coulomb=toy_coulomb,
                rank_faults={1: 2},
            )
        # Physics identical: the reassigned slices run the same deterministic
        # solves, only on a different (virtual) rank.
        assert faulted.energy == clean.energy
        assert faulted.n_rank_failures == 1
        assert clean.n_rank_failures == 0
        assert any(e["name"] == "rank_failure" for e in tracer.events)
        assert any(e["name"] == "task_reassigned" for e in tracer.events)

    def test_all_ranks_dead_is_rejected(self, toy_dft, toy_coulomb, rpa_config):
        with pytest.raises(ValueError):
            compute_rpa_energy_parallel(toy_dft, rpa_config, n_ranks=2,
                                        coulomb=toy_coulomb,
                                        rank_faults={0: 1, 1: 1})

    def test_fault_validation(self, toy_dft, toy_coulomb, rpa_config):
        with pytest.raises(ValueError):
            compute_rpa_energy_parallel(toy_dft, rpa_config, n_ranks=2,
                                        coulomb=toy_coulomb, rank_faults={5: 1})
        with pytest.raises(ValueError):
            compute_rpa_energy_parallel(toy_dft, rpa_config, n_ranks=2,
                                        coulomb=toy_coulomb, rank_faults={0: 0})


class TestScheduleRecovery:
    """The slice reassignment itself, one ``SimulatedScheduler`` apply at a
    time (fixed s = 1, so a slice solves bitwise the same on any rank)."""

    WIDTH = 8
    OMEGA = 0.5

    def _scheduler(self, toy_dft, toy_coulomb, n_ranks, rank_faults=None):
        op = Chi0Operator(toy_dft.hamiltonian, toy_dft.occupied_orbitals,
                          toy_dft.occupied_energies, toy_coulomb,
                          dynamic_block_size=False, fixed_block_size=1)
        return SimulatedScheduler(op, n_ranks, self.WIDTH, PACE_PHOENIX,
                                  rank_faults=rank_faults)

    def _block(self, toy_dft):
        return np.random.default_rng(3).standard_normal(
            (toy_dft.grid.n_points, self.WIDTH))

    def test_no_failures_matches_plain_replay(self, toy_dft, toy_coulomb):
        V = self._block(toy_dft)
        sched = self._scheduler(toy_dft, toy_coulomb, 3)
        for k in (1, 2, 3):
            sched.start_point(k)
        W = sched.apply(V, self.OMEGA)
        assert sched.n_rank_failures == 0
        dist = BlockColumnDistribution(self.WIDTH, 3)
        assert sched.assignment == {r: [dist.owned_slice(r)] for r in range(3)}
        # Bitwise per owned slice. The full block agrees only to rounding:
        # BLAS rounds Eq. 13's projection psi^T B differently at other widths.
        serial = SerialScheduler(sched.op)
        for r in range(3):
            sl = dist.owned_slice(r)
            assert np.array_equal(W[:, sl], serial.apply(V[:, sl], self.OMEGA))
        full = serial.apply(V, self.OMEGA)
        assert np.abs(W - full).max() <= 1e-14 * np.abs(full).max()

    def test_dead_before_start_takes_no_work(self, toy_dft, toy_coulomb):
        tracer = Tracer()
        with use_tracer(tracer):
            sched = self._scheduler(toy_dft, toy_coulomb, 3, rank_faults={2: 1})
            sched.start_point(1)
            sched.apply(self._block(toy_dft), self.OMEGA)
        assert 2 not in sched.assignment
        assert sched.per_rank_chi0[2] == 0.0
        assert np.all(sched.per_rank_chi0[:2] > 0)
        ranks = {e["rank"] for e in tracer.events
                 if e["type"] == "span" and e["domain"] == "virtual"}
        assert ranks == {0, 1}

    def test_failure_events_reach_the_tracer(self, toy_dft, toy_coulomb):
        tracer = Tracer()
        with use_tracer(tracer):
            sched = self._scheduler(toy_dft, toy_coulomb, 4, rank_faults={0: 2})
            # Rank 2 is the least loaded survivor, not the first one.
            sched.per_rank_chi0[:] = [0.0, 3.0, 1.0, 2.0]
            sched.start_point(1)
            assert sched.n_rank_failures == 0
            sched.start_point(2)
        assert sched.n_rank_failures == 1
        failures = [e for e in tracer.events if e["name"] == "rank_failure"]
        assert len(failures) == 1
        assert failures[0]["rank"] == 0
        assert failures[0]["attrs"]["quadrature_point"] == 2
        moved = [e for e in tracer.events if e["name"] == "task_reassigned"]
        owned = BlockColumnDistribution(self.WIDTH, 4).owned_slice(0)
        assert len(moved) == 1
        assert moved[0]["attrs"]["from_rank"] == 0
        assert moved[0]["attrs"]["columns"] == (owned.start, owned.stop)
        assert moved[0]["rank"] == 2
        assert sched.assignment[2][-1] == owned
