"""Worker-death recovery: worker processes, simulated MPI ranks, schedules.

Three layers of the same contract — losing a worker mid-sweep must never
change the physics:

* ``SpmdScheduler`` hands a dead worker process's column slices to a
  survivor and resubmits exactly the lost tasks (bit-identical to the same
  slices run in process) — "process pool" in ``TestProcessPoolRecovery``
  now means the SPMD backend's worker processes;
* ``compute_rpa_energy_parallel`` reassigns a dead simulated rank's column
  slices to the least-loaded survivor (energies unchanged, only the time
  accounting moves);
* ``replay_schedule_with_recovery`` models the manager-worker policy for
  the same failures at the scheduling level, with bounded retries and
  graceful skip.
"""

import sys

import numpy as np
import pytest

from repro.core import Chi0Operator
from repro.obs import Tracer, use_tracer
from repro.parallel import (
    PACE_PHOENIX,
    RecoveryReplay,
    SimulatedScheduler,
    WorkerFailure,
    WorkerRecoveryError,
    WorkItem,
    compute_rpa_energy_parallel,
    replay_schedule,
    replay_schedule_with_recovery,
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
    def _items(self, n=12, seed=0):
        rng = np.random.default_rng(seed)
        return [WorkItem(j, (0, 4), float(d))
                for j, d in enumerate(rng.uniform(0.5, 2.0, n))]

    def test_no_failures_matches_plain_replay(self):
        items = self._items()
        plain = replay_schedule(items, p=3)
        rec = replay_schedule_with_recovery(items, p=3)
        assert isinstance(rec, RecoveryReplay)
        assert rec.makespan == plain
        assert rec.completed == len(items)
        assert not rec.degraded
        assert rec.n_worker_failures == 0

    def test_mid_item_death_reassigns_and_charges_lost_time(self):
        items = [WorkItem(0, (0, 4), 2.0), WorkItem(1, (0, 4), 2.0)]
        rec = replay_schedule_with_recovery(
            items, p=2, failures=[WorkerFailure(worker=0, at_time=1.0)],
        )
        assert rec.n_worker_failures == 1
        assert rec.n_reassigned == 1
        assert rec.lost_seconds == pytest.approx(1.0)
        assert rec.completed == 2
        assert not rec.degraded
        # Survivor runs its own item then the reassigned one.
        assert rec.makespan == pytest.approx(4.0)

    def test_retry_exhaustion_skips_gracefully(self):
        # Both workers die almost immediately: the single long item can
        # never complete and must be skipped, not looped forever.
        items = [WorkItem(0, (0, 8), 10.0)]
        failures = [WorkerFailure(0, 0.5), WorkerFailure(1, 0.5)]
        rec = replay_schedule_with_recovery(items, p=2, failures=failures,
                                            max_retries=3)
        assert rec.degraded
        assert [it.orbital for it in rec.skipped] == [0]
        assert rec.completed == 0
        assert rec.n_worker_failures == 2

    def test_max_retries_zero_skips_on_first_loss(self):
        items = [WorkItem(0, (0, 4), 5.0), WorkItem(1, (0, 4), 1.0)]
        rec = replay_schedule_with_recovery(
            items, p=2, failures=[WorkerFailure(0, 1.0)], max_retries=0,
        )
        assert rec.degraded and len(rec.skipped) == 1
        assert rec.completed == 1

    def test_dead_before_start_takes_no_work(self):
        items = self._items(6, seed=3)
        rec = replay_schedule_with_recovery(
            items, p=3, failures=[WorkerFailure(2, 0.0)],
        )
        assert rec.completed == len(items)
        assert rec.n_worker_failures == 1
        # Effective parallelism is 2 workers; makespan at least total/2... at
        # least the 2-worker LPT schedule.
        two_worker = replay_schedule(items, p=2)
        assert rec.makespan == pytest.approx(two_worker)

    def test_failure_events_reach_the_tracer(self):
        tracer = Tracer()
        items = [WorkItem(0, (0, 4), 2.0), WorkItem(1, (0, 4), 2.0)]
        with use_tracer(tracer):
            replay_schedule_with_recovery(
                items, p=2, failures=[WorkerFailure(0, 1.0)], tracer=tracer,
            )
        names = [e["name"] for e in tracer.events]
        assert "worker_failure" in names
        lost = [e for e in tracer.events if e["name"] == "work_item_lost"]
        assert len(lost) == 1 and lost[0]["dur"] == pytest.approx(1.0)

    def test_validation(self):
        with pytest.raises(ValueError):
            replay_schedule_with_recovery([], p=0)
        with pytest.raises(ValueError):
            replay_schedule_with_recovery([], p=2, max_retries=-1)
        with pytest.raises(ValueError):
            replay_schedule_with_recovery([], p=2,
                                          failures=[WorkerFailure(7, 1.0)])
        with pytest.raises(ValueError):
            WorkerFailure(-1, 0.0)
        with pytest.raises(ValueError):
            WorkerFailure(0, -1.0)
