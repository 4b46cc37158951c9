"""Real shared-memory SPMD backend for the RPA sweep.

Persistent worker processes (``fork`` start method) execute the paper's
block-column work decomposition on ``multiprocessing.shared_memory`` views
of the big operands — the occupied orbitals ``Psi``, the Hamiltonian's
local potential, the subspace block ``V`` / its image ``W``, and the
solve-recycle cache. Task descriptors carry only metadata — ``(kind, task
id, generation, column slice, omega, shm names)`` — never ndarrays, so
per-task IPC is O(1) in the grid size.

Only the chi0 application is distributed: it is 99.7 % of a sweep, and the
Rayleigh-Ritz Grams and the Eq. 7 norm (0.3 %) run in the driver on the
gathered block, exactly as under every other scheduler.

Determinism contract (what makes the verify matrix and the fault tests
meaningful):

* Column slices come from the same :class:`BlockColumnDistribution` the
  simulated-MPI backend uses, and each slice's Sternheimer solves are the
  identical computation regardless of *which* worker executes them — so a
  run with planted worker deaths is bit-identical to an undisturbed run,
  and ``n_workers=1`` is bit-identical to the simulated backend at
  ``p=1`` and to the serial sweep.
* Recycle-cache stores are task-transactional: a worker stages its stores
  and commits them to shared memory only when the task completes, so a
  mid-task death leaves no partial cache state and the re-executed task
  produces identical counters (the exactly-once telemetry contract).

Worker recovery mirrors the simulated manager-worker policy: a dead
rank's column slices move permanently to the least-loaded survivor
(``rank_failure`` / ``task_reassigned`` trace events, ``domain="real"``),
in-flight tasks are resubmitted, and results are folded exactly once via
a parent-side pending set keyed by globally unique task ids.
"""

from __future__ import annotations

import os
import queue as queue_mod
import time
import traceback
from multiprocessing import shared_memory

import numpy as np

from repro.core.scheduler import Scheduler
from repro.core.sternheimer import Chi0Operator
from repro.obs.tracer import get_tracer
from repro.parallel.distribution import BlockColumnDistribution
from repro.parallel.executor import (
    WorkerRecoveryError,
    _SliceAssignment,
    fold_task_payload,
    task_capsule,
)
from repro.solvers.recycle import RecycleStats, SolveRecycler, _Entry

#: Poll interval for result collection (also the death-detection latency).
_POLL_SECONDS = 0.05


class SpmdTaskError(RuntimeError):
    """A worker task raised; carries the worker-side traceback."""


class SharedSolveRecycler(SolveRecycler):
    """A :class:`SolveRecycler` whose cache lives in shared memory.

    Storage is four preallocated arrays (solutions, omega tags, validity
    flags per column, all indexed by orbital) viewing parent-created shm
    segments; the parent and every forked worker hold views of the same
    pages, so stores made by one rank's solves serve guesses — and survive
    parent-side rotations — coherently across the whole SPMD step. The
    arrays are fixed-capacity (``width`` columns per orbital): an entry
    "exists" exactly when any of its validity flags is set, and is
    complete (rotatable/servable at full width) when all are.

    Disjointness makes it race-free without locks: within one distributed
    apply each rank stores only its own global column slice (the
    ``columns()`` scope), and rotations/clears happen parent-side between
    synchronous rounds.

    ``begin_task()`` / ``commit_task()`` bracket one worker task: stores
    are staged locally and written to shared memory only at task
    completion, so a worker death mid-task cannot publish partial state.
    """

    def __init__(self, width: int, sol: np.ndarray, omegas: np.ndarray,
                 valid: np.ndarray, max_orbitals: int | None = None) -> None:
        super().__init__(width=width, max_orbitals=max_orbitals)
        if sol.shape != (omegas.shape[0], sol.shape[1], width):
            raise ValueError("solution block shape mismatch")
        self._sol = sol  # (n_s, n_d, width) complex128
        self._omegas = omegas  # (n_s, width) float64, NaN = untagged
        self._valid = valid  # (n_s, width) bool
        self._staged: list | None = None

    # -- storage seam: entries are views of the shared arrays --------------------

    def _view(self, j: int) -> _Entry:
        return _Entry(self._sol[j], self._omegas[j], self._valid[j])

    def _entry(self, j: int) -> _Entry | None:
        return self._view(j) if self._valid[j].any() else None

    def _new_entry(self, j: int, n_rows: int) -> _Entry:
        return self._view(j)  # preallocated: nothing to create

    def _write(self, j: int, entry: _Entry, lo: int, hi: int, omega: float,
               solution: np.ndarray) -> None:
        if self._staged is not None:
            self._staged.append((j, lo, hi, omega,
                                 np.array(solution, dtype=complex, copy=True)))
        else:
            super()._write(j, entry, lo, hi, omega, solution)

    # -- task transaction ------------------------------------------------------

    def begin_task(self) -> None:
        self._staged = []

    def commit_task(self) -> None:
        staged, self._staged = self._staged, None
        for j, lo, hi, omega, sol in staged or []:
            self._write(j, self._view(j), lo, hi, omega, sol)

    def rotate(self, q: np.ndarray) -> None:
        q = np.asarray(q)
        if q.ndim != 2 or q.shape[0] != self.width:
            return
        tracer = get_tracer()
        started = self._valid.any(axis=1)
        if q.shape[1] != self.width:
            # Fixed-capacity shared storage cannot change width; drop all
            # (the RPA drivers only ever rotate by square Q, so this is a
            # defensive path for diagnostic callers sharing the hook).
            self.stats.dropped += int(started.sum())
            self._valid[:] = False
            self._omegas[:] = np.nan
        else:
            complete = self._valid.all(axis=1)
            for j in np.flatnonzero(started & ~complete):
                # Incomplete entries (a rank's slice missing) cannot be
                # rotated coherently; drop them, as the base class does.
                self._valid[j] = False
                self._omegas[j] = np.nan
                self.stats.dropped += 1
            for j in np.flatnonzero(complete):
                self._sol[j] = self._sol[j] @ q
                tags = self._omegas[j]
                if not np.all(tags == tags[0]):
                    # Mixed-frequency columns blend under rotation: tag as
                    # seeds (served, never an exact omega hit).
                    self._omegas[j] = np.nan
        self.stats.rotations += 1
        if tracer.enabled:
            tracer.incr("recycle_rotations")

    def clear(self) -> None:
        self._valid[:] = False
        self._omegas[:] = np.nan

    @property
    def n_cached_orbitals(self) -> int:
        return int(self._valid.any(axis=1).sum())

    def memory_bytes(self) -> int:
        return int(self._sol.nbytes)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (f"SharedSolveRecycler(width={self.width}, "
                f"orbitals={self.n_cached_orbitals}, "
                f"stats={self.stats.as_dict()})")


def _install_fault_hook(op: Chi0Operator, hook) -> None:
    """Route every orbital solve through ``hook(j)`` (worker-side).

    Lets the ``DieOnceFile`` injectors drive real worker deaths — including
    mid-task, after earlier orbitals in the slice already solved: the
    protocol is entered once per call, the hook fires for the first orbital
    before it and for each later one once the orbital before it has been
    closed (recorded, staged) and handed to the caller.
    """
    solve = op._solve_orbitals

    def hooked(orbitals, V, omega):
        orbitals = [int(j) for j in orbitals]
        if orbitals:
            hook(orbitals[0])
        for k, out in enumerate(solve(orbitals, V, omega), start=1):
            yield out
            if k < len(orbitals):
                hook(orbitals[k])

    op._solve_orbitals = hooked


def _spmd_worker_main(sched: "SpmdScheduler", rank: int) -> None:
    """Worker loop: inherited (forked) scheduler state, metadata tasks."""
    if sched._fault_hook is not None:
        _install_fault_hook(sched.op, sched._fault_hook)
    task_q = sched._task_qs[rank]
    result_q = sched._result_q
    while True:
        msg = task_q.get()
        kind = msg[0]
        if kind == "stop":
            return
        if kind == "die":
            _flushed_exit(result_q, 17)
        tid, gen = msg[1], msg[2]
        try:
            t0 = time.perf_counter()
            payload = sched._worker_apply(msg)
            payload["busy"] = time.perf_counter() - t0
            result_q.put((tid, gen, rank, "ok", payload))
        except SystemExit as death:  # a planted mid-task death
            _flushed_exit(result_q, death.code if isinstance(death.code, int) else 1)
        except BaseException:
            result_q.put((tid, gen, rank, "error", traceback.format_exc()))


def _flushed_exit(result_q, code: int) -> None:
    """End the worker process, but flush its queued results first: a feeder
    thread killed mid-write would leave the shared result-queue lock held,
    and every surviving rank's next put would block."""
    result_q.close()
    result_q.join_thread()
    os._exit(code)


class SpmdScheduler(Scheduler, _SliceAssignment):
    """Shared-memory SPMD execution of the distributed chi0 application.

    Parameters
    ----------
    chi0op:
        The (plain, serial) operator; its ``psi`` block and the
        Hamiltonian's local potential are moved into shared memory, and
        its recycler — if any — is replaced by a
        :class:`SharedSolveRecycler` over shm-backed storage, *before*
        workers fork so every process views the same pages.
    n_ranks:
        Persistent worker count.
    width:
        Distributed column count (the driver's ``n_eig``).
    rank_faults:
        rank -> 1-based quadrature point at whose start the rank is sent a
        real ``die`` control message (``os._exit`` in the worker).
    fault_hook:
        Test-only per-orbital callable run in workers before each solve
        (e.g. :class:`repro.resilience.faults.DieOnceFile`).
    """

    backend = "spmd"

    def __init__(self, chi0op: Chi0Operator, n_ranks: int, width: int,
                 rank_faults: dict[int, int] | None = None,
                 fault_hook=None) -> None:
        super().__init__(chi0op, n_ranks)
        import multiprocessing

        self.width = int(width)
        self.rank_faults = dict(rank_faults or {})
        self._fault_hook = fault_hook
        self.init_assignment(BlockColumnDistribution(self.width, n_ranks))
        n_d = chi0op.n_points
        n_s = chi0op.n_occupied

        self._segments: list[shared_memory.SharedMemory] = []
        self._names: dict[str, str] = {}
        self._closed = False
        self._v = self._alloc("V", (n_d, self.width), np.float64)
        self._w = self._alloc("W", (n_d, self.width), np.float64)
        # Zero-copy statics: rebind the operator's big read-only arrays onto
        # shm views so forked workers share one physical copy (no
        # copy-on-write duplication from refcount traffic). Psi keeps its
        # source memory order — BLAS picks (bitwise-)different kernels for
        # transposed vs straight operands, and the Galerkin-guess Grams
        # must match the serial driver's arithmetic exactly.
        psi_order = "F" if (chi0op.psi.flags.f_contiguous
                            and not chi0op.psi.flags.c_contiguous) else "C"
        psi = self._alloc("psi", chi0op.psi.shape, np.float64, order=psi_order)
        psi[...] = chi0op.psi
        chi0op.psi = psi
        vloc = self._alloc("vloc", chi0op.h.v_local.shape, np.float64)
        vloc[...] = chi0op.h.v_local
        chi0op.h.v_local = vloc

        self.recycler = None
        if chi0op.recycler is not None:
            sol = self._alloc("rec_sol", (n_s, n_d, self.width), np.complex128)
            omegas = self._alloc("rec_omega", (n_s, self.width), np.float64)
            valid = self._alloc("rec_valid", (n_s, self.width), np.bool_)
            omegas[:] = np.nan
            self.recycler = SharedSolveRecycler(
                self.width, sol, omegas, valid,
                max_orbitals=chi0op.recycler.max_orbitals,
            )
            chi0op.recycler = self.recycler

        self._gen = 0
        self._next_tid = 0
        self._point = 0
        self._imbalance = 0.0
        self._comm = 0.0
        self._ctx = multiprocessing.get_context("fork")
        self._result_q = self._ctx.Queue()
        self._task_qs = {r: self._ctx.SimpleQueue() for r in range(n_ranks)}
        self._procs: dict[int, object] = {}
        self._live: set[int] = set()
        self._started = False

    # -- shared-memory plumbing -------------------------------------------------

    def _alloc(self, tag: str, shape: tuple, dtype,
               order: str = "C") -> np.ndarray:
        nbytes = max(int(np.prod(shape)) * np.dtype(dtype).itemsize, 1)
        seg = shared_memory.SharedMemory(create=True, size=nbytes)
        self._segments.append(seg)
        self._names[tag] = seg.name
        view = np.ndarray(shape, dtype=dtype, buffer=seg.buf, order=order)
        view.fill(0)
        return view

    @property
    def _shm_signature(self) -> tuple[str, ...]:
        return tuple(sorted(self._names.values()))

    # -- worker lifecycle -------------------------------------------------------

    def _ensure_workers(self) -> None:
        """Fork the persistent workers (lazily, at first use).

        Deferred so workers snapshot the recorder/verifier the driver
        installs *after* building the scheduler.
        """
        if self._started:
            return
        self._started = True
        for r in range(self.n_ranks):
            proc = self._ctx.Process(target=_spmd_worker_main, args=(self, r),
                                     daemon=True)
            proc.start()
            self._procs[r] = proc
            self._live.add(r)

    def start_point(self, k: int) -> None:
        self._point = k
        faulted = sorted(r for r, kf in self.rank_faults.items() if kf == k)
        if faulted:
            self._ensure_workers()
            for r in faulted:
                if r in self._live:
                    self._task_qs[r].put(("die",))

    def close(self) -> None:
        if self._closed:
            return
        self._closed = True
        for r, proc in self._procs.items():
            if proc.is_alive():
                try:
                    self._task_qs[r].put(("stop",))
                except (OSError, ValueError):  # pragma: no cover - defensive
                    pass
        for proc in self._procs.values():
            proc.join(timeout=5.0)
            if proc.is_alive():  # pragma: no cover - defensive
                proc.terminate()
                proc.join(timeout=1.0)
        self._result_q.close()
        # Detach the operator from the shm views before releasing them (the
        # views dangle once the segments unmap).
        self.op.psi = np.array(self.op.psi)
        self.op.h.v_local = np.array(self.op.h.v_local)
        if self.recycler is not None:
            # Keep the stats object (results reference it); drop storage.
            self.recycler._sol = np.array(self.recycler._sol)
            self.recycler._omegas = np.array(self.recycler._omegas)
            self.recycler._valid = np.array(self.recycler._valid)
        self._v = self._w = None
        for seg in self._segments:
            try:
                seg.close()
            except BufferError:  # pragma: no cover - lingering external view
                pass
            try:
                seg.unlink()
            except FileNotFoundError:  # pragma: no cover - already gone
                pass
        self._segments = []

    # -- task rounds ------------------------------------------------------------

    def _tid(self) -> int:
        self._next_tid += 1
        return self._next_tid

    def _least_loaded_live(self) -> int:
        return min(sorted(self._live), key=lambda r: self.per_rank_chi0[r])

    def _retarget(self, msg: tuple) -> tuple[int, tuple]:
        """Pick the new executor for an in-flight task of a dead rank."""
        start = msg[4]
        r = next((r for r, slices in self.assignment.items()
                  if r in self._live
                  and any(sl.start == start for sl in slices)), None)
        if r is None:
            r = self._least_loaded_live()
        return r, msg[:3] + (r,) + msg[4:]

    def _check_liveness(self, tasks: dict, pending: dict) -> None:
        dead = [r for r in sorted(self._live) if not self._procs[r].is_alive()]
        if not dead:
            return
        for r in dead:
            self._live.discard(r)
            self._procs[r].join(timeout=1.0)
        if not self._live:
            # Checked before any reassignment: with nobody left there is no
            # survivor for fail_rank to hand the slices to.
            raise WorkerRecoveryError(
                "all spmd workers died; cannot recover"
            )
        for r in dead:
            if r in self.assignment:
                # Permanent slice reassignment for all future rounds.
                self.fail_rank(r, self._point, domain="real")
        for tid in sorted(pending):
            if pending[tid] in self._live:
                continue
            new_rank, new_msg = self._retarget(tasks[tid][1])
            tasks[tid] = (new_rank, new_msg)
            pending[tid] = new_rank
            self._task_qs[new_rank].put(new_msg)
            tracer = get_tracer()
            if tracer.enabled:
                tracer.event("task_resubmitted", rank=new_rank, domain="real",
                             task_id=tid, kind=new_msg[0])

    def _run_round(self, tasks: dict[int, tuple[int, tuple]]) -> dict:
        """Dispatch one synchronous round; return ``{tid: (rank, payload)}``.

        Exactly-once: results are folded only while their task id is still
        pending — a duplicate (the original worker finished *and* died
        before the parent noticed, so the task was also re-executed) is
        dropped, and stale generations are rejected.
        """
        self._ensure_workers()
        for tid in sorted(tasks):
            rank, msg = tasks[tid]
            if rank not in self._live:
                tasks[tid] = self._retarget(msg)
            self._task_qs[tasks[tid][0]].put(tasks[tid][1])
        pending = {tid: rank for tid, (rank, msg) in tasks.items()}
        results: dict[int, tuple[int, dict]] = {}
        while pending:
            try:
                tid, gen, rank, status, payload = self._result_q.get(
                    timeout=_POLL_SECONDS
                )
            except queue_mod.Empty:
                self._check_liveness(tasks, pending)
                continue
            if tid not in pending or gen != self._gen:
                continue
            if status == "error":
                raise SpmdTaskError(
                    f"spmd worker rank {rank} failed task {tid}:\n{payload}"
                )
            del pending[tid]
            results[tid] = (rank, payload)
        return results

    # -- the distributed kernel -------------------------------------------------

    def apply(self, V: np.ndarray, omega: float) -> np.ndarray:
        w = V.shape[1]
        if w > self.width:
            raise ValueError(f"operand width {w} exceeds capacity {self.width}")
        self._gen += 1
        t_round = time.perf_counter()
        self._v[:, :w] = V
        recycle_on = self.recycler is not None and self.recycler.enabled
        sig = self._shm_signature
        tasks: dict[int, tuple[int, tuple]] = {}
        for r in sorted(self.assignment):
            for sl in self.assignment[r]:
                start, stop = sl.start, min(sl.stop, w)
                if stop <= start:
                    continue
                tid = self._tid()
                tasks[tid] = (r, ("apply", tid, self._gen, r, start, stop,
                                  float(omega), w, recycle_on, sig))
        results = self._run_round(tasks)
        durations = np.zeros(self.n_ranks)
        for tid, (rank, payload) in sorted(results.items()):
            durations[rank] += payload["busy"]
            self._fold_payload(payload)
        round_wall = time.perf_counter() - t_round
        self.per_rank_chi0 += durations
        dmax = float(durations.max())
        live = max(len(self._live), 1)
        self._imbalance += (dmax * live - float(durations.sum())) / live
        self._comm += max(round_wall - dmax, 0.0)
        self._charge("chi0_apply", dmax)
        return self._w[:, :w].copy()

    # -- worker-side task body (runs in the forked children) ---------------------

    def _check_signature(self, sig: tuple) -> None:
        if tuple(sig) != self._shm_signature:
            raise SpmdTaskError(
                "task descriptor names foreign shared-memory segments "
                f"(got {sig}, have {self._shm_signature})"
            )

    def _worker_apply(self, msg: tuple) -> dict:
        (_kind, _tid, _gen, rank, start, stop, omega, w, recycle_on,
         sig) = msg
        self._check_signature(sig)
        op = self.op
        # Contiguous local copy: the strided shm column view must enter the
        # solvers with the same memory layout as the serial driver's
        # operand, so the BLAS-level arithmetic is bitwise identical.
        V = np.ascontiguousarray(self._v[:, start:stop])
        rec = op.recycler
        with task_capsule(op, rank) as payload:
            if rec is not None:
                rec.stats = RecycleStats()
                rec.begin_task()
                saved = rec.enabled
                rec.enabled = bool(recycle_on)
                try:
                    with rec.columns(start, stop):
                        W = op.apply_symmetrized(V, omega)
                finally:
                    rec.enabled = saved
                self._w[:, start:stop] = W
                rec.commit_task()
                payload["recycle"] = rec.stats.as_dict()
            else:
                W = op.apply_symmetrized(V, omega)
                self._w[:, start:stop] = W
        return payload

    # -- parent-side result folding ---------------------------------------------

    def _fold_payload(self, payload: dict) -> None:
        """Fold one accepted apply result into parent-side observability.

        Called exactly once per task id (``_run_round`` guards the pending
        set), so the capsule and the task's recycle-counter deltas are never
        double-counted across resubmissions.
        """
        fold_task_payload(self.op, payload)
        if self.recycler is not None and payload.get("recycle"):
            st = self.recycler.stats
            for key, delta in payload["recycle"].items():
                setattr(st, key, getattr(st, key) + int(delta))

    def report(self) -> dict:
        return {
            **super().report(),
            "comm_seconds": self._comm,
            "imbalance_seconds": self._imbalance,
        }
