"""Apply-level tests of the worker-process backend.

"Process" here means the SPMD backend's forked worker processes: the
orbital-fan-out pool these classes used to drive is gone, and every test
now drives ``SpmdScheduler(op, n_ranks=2, width=w).apply(V, omega)``
directly. The bitwise and counter reference is the same column slices run
in this process (``SimulatedScheduler`` at the same ``p``).
"""

import multiprocessing
import os
import pickle
import sys

import numpy as np
import pytest

from repro.config import RPAConfig
from repro.core import Chi0Operator
from repro.parallel import (
    PACE_PHOENIX,
    SimulatedScheduler,
    compute_rpa_energy_parallel,
)
from repro.parallel.spmd import SpmdScheduler, SpmdTaskError
from repro.solvers.recycle import SolveRecycler

pytestmark = pytest.mark.skipif(
    not sys.platform.startswith("linux"),
    reason="spmd backend requires the fork start method",
)

OP_KWARGS = dict(tol=1e-8, max_iterations=2000, dynamic_block_size=False)


def _operator(dft, coulomb, **kwargs):
    return Chi0Operator(dft.hamiltonian, dft.occupied_orbitals,
                        dft.occupied_energies, coulomb, **kwargs)


def _in_process(dft, coulomb, n_ranks, width, **kwargs):
    """The reference: identical column slices, executed in this process."""
    return SimulatedScheduler(_operator(dft, coulomb, **kwargs), n_ranks,
                              width, PACE_PHOENIX)


def _spmd(dft, coulomb, n_ranks, width, **kwargs):
    return SpmdScheduler(_operator(dft, coulomb, **kwargs), n_ranks=n_ranks,
                         width=width)


def _segment_exists(name):
    return os.path.exists(os.path.join("/dev/shm", name.lstrip("/")))


@pytest.fixture(scope="class")
def schedulers(toy_dft, toy_coulomb):
    ref = _in_process(toy_dft, toy_coulomb, 2, 4, **OP_KWARGS)
    with _spmd(toy_dft, toy_coulomb, 2, 4, **OP_KWARGS) as spmd:
        yield ref, spmd


class TestProcessBackend:
    def test_bit_identical_to_serial(self, schedulers, toy_dft):
        ref, spmd = schedulers
        rng = np.random.default_rng(1)
        V = rng.standard_normal((toy_dft.grid.n_points, 4))
        assert np.array_equal(ref.apply(V, 0.5), spmd.apply(V, 0.5))

    def test_single_vector(self, schedulers, toy_dft):
        # Narrower than the capacity: one column, on rank 0's slice only.
        ref, spmd = schedulers
        rng = np.random.default_rng(2)
        v = rng.standard_normal((toy_dft.grid.n_points, 1))
        out = spmd.apply(v, 0.7)
        assert out.shape == v.shape
        assert np.array_equal(ref.apply(v, 0.7), out)
        assert np.array_equal(ref.op.apply_symmetrized(v, 0.7), out)

    def test_stats_deterministic(self, toy_dft, toy_coulomb):
        # The counters a worker ships home are the ones the same slices
        # produce in process, at every rank count.
        kwargs = dict(tol=1e-6, dynamic_block_size=False)
        V = np.random.default_rng(3).standard_normal(
            (toy_dft.grid.n_points, 3))
        for p in (1, 3):
            ref = _in_process(toy_dft, toy_coulomb, p, 3, **kwargs)
            ref.apply(V, 0.4)
            with _spmd(toy_dft, toy_coulomb, p, 3, **kwargs) as spmd:
                spmd.apply(V, 0.4)
            for name in ("n_systems", "total_iterations", "n_matvec",
                         "n_block_solves"):
                assert (getattr(spmd.op.stats, name)
                        == getattr(ref.op.stats, name) > 0), (p, name)

    def test_pool_reused_across_applies(self, schedulers, toy_dft):
        _, spmd = schedulers
        rng = np.random.default_rng(4)
        v = rng.standard_normal((toy_dft.grid.n_points, 4))
        spmd.apply(v, 0.5)
        pids = {r: proc.pid for r, proc in spmd._procs.items()}
        spmd.apply(v, 0.6)
        assert {r: proc.pid for r, proc in spmd._procs.items()} == pids
        assert len(pids) == 2
        assert all(proc.is_alive() for proc in spmd._procs.values())

    def test_context_manager_closes(self, toy_dft, toy_coulomb):
        with _spmd(toy_dft, toy_coulomb, 2, 2, tol=1e-4) as spmd:
            v = np.random.default_rng(5).standard_normal(
                (toy_dft.grid.n_points, 2))
            spmd.apply(v, 0.5)
            procs = list(spmd._procs.values())
            names = spmd._shm_signature
            assert len(procs) == 2 and all(p.is_alive() for p in procs)
            assert names and all(_segment_exists(n) for n in names)
        assert not any(p.is_alive() for p in procs)
        assert not any(_segment_exists(n) for n in names)
        # The operator outlives its scheduler on private copies.
        assert np.isfinite(spmd.op.apply_symmetrized(v, 0.5)).all()

    def test_validation(self, toy_dft, toy_coulomb):
        op = _operator(toy_dft, toy_coulomb)
        with pytest.raises(ValueError):
            SpmdScheduler(op, n_ranks=0, width=2)
        with SpmdScheduler(op, n_ranks=2, width=2) as spmd:
            with pytest.raises(ValueError, match="exceeds capacity"):
                spmd.apply(np.ones((toy_dft.grid.n_points, 3)), 0.5)
            # A worker-side ValueError comes home as the task error.
            with pytest.raises(SpmdTaskError, match="omega must be positive"):
                spmd.apply(np.ones((toy_dft.grid.n_points, 2)), 0.0)


class TestProcessRecycling:
    def test_cache_survives_worker_dispatch(self, toy_dft, toy_coulomb):
        with _spmd(toy_dft, toy_coulomb, 2, 3,
                   recycler=SolveRecycler(width=3), **OP_KWARGS) as spmd:
            rng = np.random.default_rng(21)
            V = rng.standard_normal((toy_dft.grid.n_points, 3))
            ref = spmd.apply(V, 0.6)
            first = spmd.op.stats.n_matvec
            # One store per (orbital, column slice), made by the workers
            # and visible to the parent through the shared segments.
            n_units = 2 * spmd.op.n_occupied
            assert spmd.recycler.stats.stores == n_units
            assert spmd.recycler.n_cached_orbitals == spmd.op.n_occupied
            out = spmd.apply(V, 0.6)
            second = spmd.op.stats.n_matvec - first
            assert spmd.recycler.stats.hits == n_units
        assert np.allclose(out, ref, atol=1e-8)
        assert second < 0.25 * first  # exact guesses: residual checks only

    def test_results_match_serial_recycling(self, toy_dft, toy_coulomb):
        ref = _in_process(toy_dft, toy_coulomb, 2, 2,
                          recycler=SolveRecycler(width=2), **OP_KWARGS)
        rng = np.random.default_rng(22)
        V = rng.standard_normal((toy_dft.grid.n_points, 2))
        with _spmd(toy_dft, toy_coulomb, 2, 2,
                   recycler=SolveRecycler(width=2), **OP_KWARGS) as spmd:
            for omega in (0.9, 0.9, 0.4):
                assert np.array_equal(ref.apply(V, omega),
                                      spmd.apply(V, omega))
        assert (spmd.recycler.stats.as_dict()
                == ref.op.recycler.stats.as_dict())


class TestTaskPayloadSize:
    """Task descriptors stay O(metadata): operands live in shared memory."""

    def _record_dispatches(self, spmd):
        sizes = []
        orig = spmd._run_round

        def recording_run_round(tasks):
            sizes.extend(len(pickle.dumps(msg)) for _r, msg in tasks.values())
            return orig(tasks)

        spmd._run_round = recording_run_round
        return sizes

    def test_per_orbital_payload_excludes_grid_arrays(self, toy_dft,
                                                      toy_coulomb):
        rng = np.random.default_rng(31)
        V = rng.standard_normal((toy_dft.grid.n_points, 3))
        with _spmd(toy_dft, toy_coulomb, 2, 3,
                   recycler=SolveRecycler(width=3), **OP_KWARGS) as spmd:
            sizes = self._record_dispatches(spmd)
            spmd.apply(V, 0.5)  # cold: no guesses to serve
            spmd.apply(V, 0.5)  # warm: every orbital has a cached guess
        assert len(sizes) == 4
        # Hundreds of bytes regardless of grid size, cold or warm: neither
        # the V block nor a guess ever rides in a descriptor.
        assert max(sizes) < 2048
        assert max(sizes) < V.nbytes

    def test_batched_payload_excludes_grid_arrays(self, toy_dft, toy_coulomb):
        rng = np.random.default_rng(32)
        V = rng.standard_normal((toy_dft.grid.n_points, 3))
        with _spmd(toy_dft, toy_coulomb, 2, 3, use_batched=True,
                   **OP_KWARGS) as spmd:
            sizes = self._record_dispatches(spmd)
            spmd.apply(V, 0.5)
        assert sizes and max(sizes) < 2048


class TestPoolLifecycle:
    """A failed task surfaces with the worker's traceback, and the driver's
    ``with`` leaves no live worker and no shared-memory segment behind."""

    def _run_with_raising_task(self, toy_dft, toy_coulomb, monkeypatch,
                               batched):
        closed = []
        orig_close = SpmdScheduler.close

        def recording_close(self):
            names = self._shm_signature
            orig_close(self)
            closed.append(names)

        monkeypatch.setattr(SpmdScheduler, "close", recording_close)
        config = RPAConfig(n_eig=8, n_quadrature=2, seed=1,
                           batched_sternheimer=batched)
        with pytest.raises(SpmdTaskError) as err:
            compute_rpa_energy_parallel(
                toy_dft, config, coulomb=toy_coulomb, backend="spmd",
                n_workers=2, fault_hook=_raise_injected_fault)
        # The worker-side traceback rides in the message.
        assert "RuntimeError: injected task fault" in str(err.value)
        assert "_raise_injected_fault" in str(err.value)
        assert len(closed) == 1 and closed[0]
        assert not any(_segment_exists(n) for n in closed[0])
        assert multiprocessing.active_children() == []

    def test_task_exception_closes_pool(self, toy_dft, toy_coulomb,
                                        monkeypatch):
        self._run_with_raising_task(toy_dft, toy_coulomb, monkeypatch,
                                    batched=False)

    def test_task_exception_closes_pool_batched(self, toy_dft, toy_coulomb,
                                                monkeypatch):
        self._run_with_raising_task(toy_dft, toy_coulomb, monkeypatch,
                                    batched=True)


def _raise_injected_fault(j):  # pragma: no cover - runs in the worker
    raise RuntimeError("injected task fault")
