"""Tests for the shared-memory SPMD backend.

Contract (Section III-D executed for real): the SPMD driver must be
*bit-identical* to the simulated-MPI driver — which is itself validated
against the serial driver — on every feature combination, with or
without planted worker deaths, and its telemetry must merge exactly
once.
"""

import pickle
import sys

import numpy as np
import pytest

from repro.config import RPAConfig
from repro.obs import Tracer, use_tracer
from repro.parallel import compute_rpa_energy_parallel
from repro.resilience import DieOnceFile

pytestmark = pytest.mark.skipif(
    not sys.platform.startswith("linux"),
    reason="spmd backend requires the fork start method",
)


def _cfg(**overrides):
    base = dict(n_eig=8, n_quadrature=2, seed=1)
    base.update(overrides)
    return RPAConfig(**base)


FEATURE_MATRIX = {
    "plain": {},
    "recycle": {"use_recycling": True},
    "batched": {"batched_sternheimer": True},
    "ssa": {"use_ssa": True},
    # Below the complex64 pass's 1e-5 floor, so both passes run.
    "float32_ir": {"batched_sternheimer": True, "solve_dtype": "float32_ir",
                   "tol_sternheimer": 1e-6},
}


def _run(dft, coulomb, backend, config, **kwargs):
    return compute_rpa_energy_parallel(dft, config, coulomb=coulomb,
                                       backend=backend, **kwargs)


class TestBitIdentical:
    @pytest.mark.parametrize("feature", sorted(FEATURE_MATRIX))
    def test_matches_simulated_two_ranks(self, toy_dft, toy_coulomb, feature):
        config = _cfg(**FEATURE_MATRIX[feature])
        ref = _run(toy_dft, toy_coulomb, "simulated", config, n_ranks=2)
        out = _run(toy_dft, toy_coulomb, "spmd", config, n_workers=2)
        assert out.energy == ref.energy
        for a, b in zip(out.points, ref.points):
            assert a.energy_term == b.energy_term
            assert a.filter_iterations == b.filter_iterations
            assert a.subspace_mode == b.subspace_mode
        if feature == "float32_ir":
            # Not vacuous: the float64 pass ran, on both backends alike.
            assert out.stats.n_ir_fallbacks > 0
            assert out.stats.n_ir_fallbacks == ref.stats.n_ir_fallbacks

    def test_matches_serial_driver(self, toy_dft, toy_coulomb):
        # Single-worker spmd shares the serial driver's block-size cap
        # (p=2 halves it, so the arithmetic is only comparable rank-count
        # to rank-count — the p=2 pairing is covered against simulated).
        config = _cfg()
        ref = _run(toy_dft, toy_coulomb, "serial", config, n_ranks=1)
        out = _run(toy_dft, toy_coulomb, "spmd", config, n_workers=1)
        assert out.energy == ref.energy


class TestWorkerDeath:
    """Exactly-once accounting across real rank death, end to end through
    the sweep (apply-level coverage: ``test_worker_recovery.py`` and
    ``test_telemetry_merge.py``)."""

    def test_rank_death_bitwise_and_exactly_once(self, toy_dft, toy_coulomb):
        config = _cfg(use_recycling=True, telemetry_level="summary")
        clean = _run(toy_dft, toy_coulomb, "spmd", config, n_workers=2)
        with use_tracer(Tracer()) as tracer:
            faulted = _run(toy_dft, toy_coulomb, "spmd", config, n_workers=2,
                           rank_faults={1: 2})
        # Recovery is invisible in the numbers: bitwise-equal energy...
        assert faulted.energy == clean.energy
        assert faulted.n_rank_failures == 1
        assert clean.n_rank_failures == 0
        # ...and exactly-once telemetry: the dead rank's re-executed work
        # must not double-count any counter (recycle_* are the sensitive
        # ones — a double-counted store or hit means the cache protocol
        # replayed).
        c_clean = clean.telemetry["counters"]
        c_fault = faulted.telemetry["counters"]
        assert c_fault == c_clean
        for key in c_clean:
            assert not key.startswith("resilience_") or \
                c_fault[key] == c_clean[key]
        # The failure itself is traced as a real-domain event with the
        # slice handoff.
        failures = [e for e in tracer.events if e["name"] == "rank_failure"]
        assert len(failures) == 1
        assert failures[0]["rank"] == 1
        assert failures[0]["domain"] == "real"
        reassigned = [e for e in tracer.events
                      if e["name"] == "task_reassigned"]
        assert reassigned and all(e["domain"] == "real" for e in reassigned)

    def test_mid_task_death_via_fault_hook(self, toy_dft, toy_coulomb,
                                           tmp_path):
        config = _cfg()
        clean = _run(toy_dft, toy_coulomb, "spmd", config, n_workers=2)
        fault = DieOnceFile(str(tmp_path / "die.token"), orbital=1).arm()
        faulted = _run(toy_dft, toy_coulomb, "spmd", config, n_workers=2,
                       fault_hook=fault)
        assert faulted.energy == clean.energy
        assert faulted.n_rank_failures == 1

    def test_all_ranks_dead_rejected(self, toy_dft, toy_coulomb):
        with pytest.raises(ValueError, match="one must survive"):
            _run(toy_dft, toy_coulomb, "spmd", _cfg(), n_workers=2,
                 rank_faults={0: 1, 1: 1})


    def test_planted_death_leaves_the_result_lock_free(self):
        """A ``die`` that lands while the worker's feeder thread is still
        writing a result must not take the shared write lock with it."""
        import multiprocessing
        import threading
        from types import SimpleNamespace

        from repro.parallel.spmd import _spmd_worker_main

        ctx = multiprocessing.get_context("fork")
        result_q, task_q = ctx.Queue(), ctx.SimpleQueue()
        # 2 MiB outgrows the pipe buffer, so the feeder blocks mid-write.
        blob = bytes(2 << 20)
        stub = SimpleNamespace(_fault_hook=None, _task_qs={0: task_q},
                               _result_q=result_q,
                               _worker_apply=lambda msg: {"blob": blob})
        proc = ctx.Process(target=_spmd_worker_main, args=(stub, 0), daemon=True)
        proc.start()
        try:
            task_q.put(("apply", 0, 0))
            assert result_q._reader.poll(30)  # the feeder has begun writing
            task_q.put(("die",))
            drained = []
            reader = threading.Thread(
                target=lambda: drained.append(result_q.get()), daemon=True)
            reader.start()
            proc.join(30)
            assert proc.exitcode == 17
            assert result_q._wlock.acquire(timeout=1)
            result_q._wlock.release()
            reader.join(30)
            assert drained and len(drained[0][4]["blob"]) == len(blob)
        finally:
            if proc.is_alive():
                proc.kill()
                proc.join()

    def test_mid_task_death_leaves_the_result_lock_free(self, tmp_path):
        """A ``DieOnceFile`` that fires inside a task, while the worker's
        feeder thread is still writing the previous task's result, must not
        take the shared write lock with it either."""
        import multiprocessing
        import threading
        from types import SimpleNamespace

        from repro.parallel.spmd import _spmd_worker_main

        ctx = multiprocessing.get_context("fork")
        result_q, task_q = ctx.Queue(), ctx.SimpleQueue()
        blob = bytes(2 << 20)
        fault = DieOnceFile(str(tmp_path / "die.token"), orbital=1,
                            exit_code=23).arm()

        def apply(msg):
            fault(msg[1])  # the hook's call for the task's first orbital
            return {"blob": blob}

        stub = SimpleNamespace(_fault_hook=None, _task_qs={0: task_q},
                               _result_q=result_q, _worker_apply=apply)
        proc = ctx.Process(target=_spmd_worker_main, args=(stub, 0), daemon=True)
        proc.start()
        try:
            task_q.put(("apply", 0, 0))
            assert result_q._reader.poll(30)  # the feeder has begun writing
            task_q.put(("apply", 1, 0))  # reaches orbital 1: the worker dies
            drained = []
            reader = threading.Thread(
                target=lambda: drained.append(result_q.get()), daemon=True)
            reader.start()
            proc.join(30)
            assert proc.exitcode == 23
            assert result_q._wlock.acquire(timeout=1)
            result_q._wlock.release()
            reader.join(30)
            assert drained and drained[0][0] == 0
            assert len(drained[0][4]["blob"]) == len(blob)
        finally:
            if proc.is_alive():
                proc.kill()
                proc.join()


class TestZeroCopyDescriptors:
    def test_task_descriptors_are_metadata_only(self, toy_dft, toy_coulomb,
                                                monkeypatch):
        """Per-task IPC carries slice indices and shm names, never arrays."""
        from repro.parallel.spmd import SpmdScheduler

        sizes = []
        orig = SpmdScheduler._run_round

        def recording_run_round(self, tasks):
            sizes.extend(len(pickle.dumps(msg)) for _r, msg in tasks.values())
            return orig(self, tasks)

        monkeypatch.setattr(SpmdScheduler, "_run_round", recording_run_round)
        config = _cfg(use_recycling=True)
        _run(toy_dft, toy_coulomb, "spmd", config, n_workers=2)
        assert sizes
        # Grid-sized operands (n_d x n_eig float64) would be tens of
        # kilobytes even on the toy system; descriptors stay near-constant.
        grid_bytes = toy_dft.grid.n_points * config.n_eig * 8
        assert max(sizes) < 2048
        assert max(sizes) < grid_bytes // 4
