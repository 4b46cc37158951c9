"""Process-pool backend for Sternheimer solves (orbital fan-out).

:class:`ProcessChi0Operator` relocates where the one solve protocol
(``Chi0Operator._solve_orbitals``) runs: the ``n_s`` independent orbital
systems of one chi0 application are split into work units — single orbitals
on the block kernel, ``n_workers`` contiguous groups on the batched one —
and each unit runs the unchanged prepare -> kernel -> finish path in a pool
worker (fork start method: the operator state is inherited copy-on-write).

What crosses the process boundary: the recycler lives in the parent, so the
parent looks every orbital's guess up once (through the operator's own
lookup helper, shadow check included) and stores the returned solutions
(through its own store helper); the V block and the served guesses travel
through per-apply ``multiprocessing.shared_memory`` segments; task
arguments are O(metadata) — segment names, the unit, and each served
guess's hit/seed provenance; each task returns its orbitals' solutions and
one observability capsule (``repro.parallel.executor.task_capsule``:
stats, telemetry, trace, verifier outcome).

Results are bit-identical to the serial operator: each orbital's solve is
the same deterministic computation, merely executed elsewhere.

Fault tolerance: a worker process that dies mid-sweep (OOM kill, segfault
in a native kernel, induced fault) breaks the whole ``ProcessPoolExecutor``.
Instead of surfacing ``BrokenProcessPool`` to the caller, the orchestration
layer rebuilds the pool and resubmits exactly the units whose results were
lost, at most ``max_pool_restarts`` times per application — the
deterministic per-unit computation makes the recovered result bit-identical
to an undisturbed run, and the fresh per-task capsule makes its counters so.
"""

from __future__ import annotations

import os
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures import wait as futures_wait
from concurrent.futures.process import BrokenProcessPool
from multiprocessing import shared_memory
from typing import Callable

import numpy as np

from repro.core.sternheimer import Chi0Operator
from repro.obs.tracer import get_tracer
from repro.parallel.executor import (
    WorkerRecoveryError,
    fold_task_payload,
    task_capsule,
)

# Worker-side state, installed once per worker via the initializer.
_WORKER_OP: "ProcessChi0Operator | None" = None
# name -> (SharedMemory, ndarray view): per-worker cache of attached
# operand segments (pruned when an apply ships fresh segment names).
_WORKER_SHM: dict[str, tuple] = {}


def _init_worker(op: "ProcessChi0Operator") -> None:
    global _WORKER_OP
    _WORKER_OP = op


class _ShmShipment:
    """Per-apply shared-memory operands: the V block plus warm-start guesses.

    Task arguments used to pickle the full right-hand-side block and every
    orbital's guess into each task — O(grid) serialization per task, per
    quadrature point. This ships them once through shared memory instead:
    the task arguments carry only ``(segment name, shape, dtype)`` triples
    and an orbital -> (guess row, exact-hit flag) index, so per-task IPC is
    O(metadata).

    The parent owns the segments and unlinks them when the apply finishes
    (workers keep their mappings until they prune, which is safe on POSIX:
    unlink removes the name, not live mappings).
    """

    def __init__(self, V: np.ndarray,
                 guesses: dict[int, tuple[np.ndarray, bool] | None]) -> None:
        self._segments: list[shared_memory.SharedMemory] = []
        self.meta: dict = {"v": self._ship(V)}
        present = [j for j in sorted(guesses) if guesses[j] is not None]
        if present:
            stacked = np.stack(
                [np.ascontiguousarray(guesses[j][0]) for j in present]
            ).astype(np.complex128, copy=False)
            self.meta["guesses"] = self._ship(stacked)
            self.meta["guess_rows"] = {int(j): (i, bool(guesses[j][1]))
                                       for i, j in enumerate(present)}
        else:
            self.meta["guesses"] = None
            self.meta["guess_rows"] = {}

    def _ship(self, arr: np.ndarray) -> tuple[str, tuple, str, str]:
        # Memory order is preserved (pickle used to preserve it too): the
        # BLAS kernel dispatched for a column solve depends on operand
        # strides, and bit-stability vs the serial operator requires the
        # worker to see the same layout the parent computes with.
        a = np.asarray(arr)
        order = "F" if (a.flags.f_contiguous and not a.flags.c_contiguous) \
            else "C"
        a = np.asarray(a, order=order)
        seg = shared_memory.SharedMemory(create=True, size=max(a.nbytes, 1))
        view = np.ndarray(a.shape, a.dtype, buffer=seg.buf, order=order)
        view[...] = a
        self._segments.append(seg)
        return (seg.name, tuple(a.shape), a.dtype.str, order)

    def unlink(self) -> None:
        for seg in self._segments:
            try:
                seg.close()
            except BufferError:  # pragma: no cover - lingering view
                pass
            try:
                seg.unlink()
            except FileNotFoundError:  # pragma: no cover - already gone
                pass
        self._segments = []


def _shm_attach(ref: tuple[str, tuple, str, str]) -> np.ndarray:
    """Attach (or reuse) a read-only worker view of a shipped segment."""
    name, shape, dtype, order = ref
    cached = _WORKER_SHM.get(name)
    if cached is None:
        seg = shared_memory.SharedMemory(name=name)
        # On 3.11 the attach re-registers the name with the resource
        # tracker, but forked pool workers share the parent's tracker
        # process and its set-valued cache dedups the entry — so the
        # parent's unlink() retires it cleanly. Unregistering here would
        # remove the parent's sole entry and make that unlink() print a
        # tracker KeyError instead.
        view = np.ndarray(shape, np.dtype(dtype), buffer=seg.buf, order=order)
        view.setflags(write=False)
        cached = _WORKER_SHM[name] = (seg, view)
    return cached[1]


def _shm_prune(live: set[str]) -> None:
    """Drop worker attachments whose segments this apply no longer ships."""
    for name in [n for n in _WORKER_SHM if n not in live]:
        seg, _view = _WORKER_SHM.pop(name)
        try:
            seg.close()
        except BufferError:  # pragma: no cover - view still referenced
            pass


def _solve_unit_task(args: tuple[tuple[int, ...], float, dict]):
    """One work unit through the one protocol, inside a fresh capsule."""
    unit, omega, meta = args
    live = {ref[0] for ref in (meta["v"], meta["guesses"]) if ref is not None}
    _shm_prune(live)
    V = _shm_attach(meta["v"])
    op = _WORKER_OP
    if op is None:
        raise RuntimeError("pool worker was not initialized")
    # The forked recycler is a stale copy-on-write snapshot and its stores
    # would die with the process: lookups were made parent-side (served
    # below with their provenance), stores happen parent-side on the results.
    op.recycler = None
    op._served = {
        # Fresh copy: solvers may use the starting iterate as scratch.
        j: (np.array(_shm_attach(meta["guesses"])[row], copy=True), exact_hit)
        for j, (row, exact_hit) in meta["guess_rows"].items() if j in unit
    }
    if op._fault_hook is not None:
        for j in unit:
            op._fault_hook(j)
    with task_capsule(op) as payload:
        payload["solved"] = list(Chi0Operator._solve_orbitals(op, unit, V, omega))
    return unit, payload


class ProcessChi0Operator(Chi0Operator):
    """Drop-in ``Chi0Operator`` distributing orbital solves over processes.

    Parameters
    ----------
    n_workers:
        Process count (defaults to ``min(n_s, cpu_count)``).
    max_pool_restarts:
        How many times one ``apply_chi0`` may rebuild a broken pool and
        resubmit lost orbitals before raising :class:`WorkerRecoveryError`.
    fault_hook:
        Test-only callable run in the worker with the orbital index before
        each solve (see ``repro.resilience.faults.DieOnceFile``).

    Notes
    -----
    Requires a platform with the ``fork`` start method (Linux). The worker
    pool is created lazily on the first application and reused; call
    :meth:`close` (or use the operator as a context manager) to release the
    processes. ``n_pool_restarts`` counts recoveries over the operator's
    lifetime.
    """

    def __init__(self, *args, n_workers: int | None = None,
                 max_pool_restarts: int = 2,
                 fault_hook: Callable[[int], None] | None = None,
                 **kwargs) -> None:
        super().__init__(*args, **kwargs)
        if n_workers is None:
            n_workers = min(self.n_occupied, os.cpu_count() or 1)
        if n_workers < 1:
            raise ValueError("n_workers must be >= 1")
        if max_pool_restarts < 0:
            raise ValueError("max_pool_restarts must be non-negative")
        self.n_workers = int(n_workers)
        self.max_pool_restarts = int(max_pool_restarts)
        self.n_pool_restarts = 0
        self._fault_hook = fault_hook
        self._pool: ProcessPoolExecutor | None = None
        # Worker-side only: orbital -> (guess, exact_hit) the parent's lookup
        # served for the running task. None in the parent.
        self._served: dict[int, tuple[np.ndarray, bool]] | None = None

    def _ensure_pool(self) -> ProcessPoolExecutor:
        if self._pool is None:
            import multiprocessing

            ctx = multiprocessing.get_context("fork")
            self._pool = ProcessPoolExecutor(
                max_workers=self.n_workers,
                mp_context=ctx,
                initializer=_init_worker,
                initargs=(self,),
            )
        return self._pool

    def close(self) -> None:
        if self._pool is not None:
            self._pool.shutdown()
            self._pool = None

    def _submit(self, pool: ProcessPoolExecutor, fn, args):
        """Submission seam: every task enters the pool through here.

        Tests wrap this to assert the pickled task payload stays
        O(metadata) — the grid-sized operands travel via shared memory,
        never through the task arguments.
        """
        return pool.submit(fn, args)

    def __enter__(self) -> "ProcessChi0Operator":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def _recycled_guess(self, j: int, omega: float,
                        n_cols: int) -> tuple[np.ndarray, bool] | None:
        """Parent: the recycler lookup. Worker: what that lookup served."""
        if self._served is None:
            return super()._recycled_guess(j, omega, n_cols)
        return self._served.get(j)

    def _solve_orbitals(self, orbitals, V: np.ndarray, omega: float):
        """The protocol's relocation: units fan out, lookups/stores stay here."""
        orbitals = [int(j) for j in orbitals]
        if self.n_workers == 1:
            yield from super()._solve_orbitals(orbitals, V, omega)
            return
        # One lookup per orbital — not per resubmission, so a pool restart
        # cannot double-count cache hits; a miss ships nothing and the
        # worker falls back to its own Galerkin guess.
        guesses = {j: self._recycled_guess(j, omega, V.shape[1])
                   for j in orbitals}
        if self.use_batched:
            n_units = max(1, min(self.n_workers, len(orbitals)))
            units = [tuple(int(j) for j in g)
                     for g in np.array_split(orbitals, n_units) if g.size]
        else:
            units = [(j,) for j in orbitals]
        payloads = self._run_units(units, float(omega), _ShmShipment(V, guesses))
        for unit in units:  # contiguous and ascending: orbital order
            # Exactly once: _run_units accepted one payload per unit.
            fold_task_payload(self, payloads[unit])
            for j, y, converged in payloads[unit]["solved"]:
                self._store_solution(j, omega, y, converged)
                yield j, y, converged

    def _run_units(self, units: list, omega: float,
                   shipment: _ShmShipment) -> dict:
        """Run every unit on the pool, recovering from dead workers.

        Lost units (their worker died before returning) are resubmitted on
        a fresh pool; completed units are never recomputed. Returns
        ``{unit: payload}``.
        """
        tracer = get_tracer()
        pending = set(units)
        payloads: dict[tuple, dict] = {}
        restarts_this_apply = 0
        try:
            while pending:
                pool = self._ensure_pool()
                futures = [self._submit(pool, _solve_unit_task,
                                        (unit, omega, shipment.meta))
                           for unit in sorted(pending)]
                broken = False
                futures_wait(futures)
                for fut in futures:
                    try:
                        exc = fut.exception()
                    except BaseException:  # cancelled by a dying pool
                        broken = True
                        continue
                    if exc is None:
                        unit, payload = fut.result()
                        payloads[unit] = payload
                        pending.discard(unit)
                    elif isinstance(exc, BrokenProcessPool):
                        broken = True
                    else:
                        raise exc
                if not pending:
                    break
                if not broken:  # pragma: no cover - defensive
                    raise WorkerRecoveryError(
                        f"units {sorted(pending)} returned no result "
                        f"without a pool failure"
                    )
                if restarts_this_apply >= self.max_pool_restarts:
                    raise WorkerRecoveryError(
                        f"pool died {restarts_this_apply + 1} times; giving "
                        f"up on units {sorted(pending)}"
                    )
                restarts_this_apply += 1
                self.n_pool_restarts += 1
                if tracer.enabled:
                    tracer.incr("worker_pool_restarts")
                    tracer.event("worker_pool_restart", lost=len(pending),
                                 restart=restarts_this_apply)
                self.close()  # discard the broken pool; _ensure_pool rebuilds
        except BaseException:
            # A failed apply must not leak a live worker pool: recovery
            # exhaustion and worker-task exceptions land here too.
            self.close()
            raise
        finally:
            shipment.unlink()
        return payloads
