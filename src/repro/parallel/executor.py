"""The execution backends behind the ``Scheduler`` seam.

``repro.core.scheduler`` defines the seam and the in-process single-rank
``SerialScheduler`` every serial call uses; this module adds the backends
that need ``repro.parallel``:

* :class:`SimulatedScheduler` — the paper's simulated-MPI layer: every
  rank's column slice is actually executed and its measured wall time
  charged to that rank's virtual clock; ScaLAPACK phases and collectives
  are charged from the Fig. 5-calibrated cost models.
* ``repro.parallel.spmd.SpmdScheduler`` — real column-distributed workers
  on shared memory (built by :func:`make_scheduler`).

A scheduler owns the distributed chi0 application of Algorithm 6, the
per-rank work assignment (including rank failure recovery), and the time
accounting for its execution domain. Everything else — Rayleigh-Ritz, the
Eq. 7 norm, SSA policy, recycler rotations — is the one sweep in
``repro.core``.
"""

from __future__ import annotations

import time
from contextlib import ExitStack, contextmanager

import numpy as np

from repro.core.scheduler import Scheduler, SerialScheduler
from repro.core.sternheimer import Chi0Operator, SternheimerStats
from repro.obs.telemetry import ConvergenceRecorder, get_recorder, use_recorder
from repro.obs.tracer import Tracer, get_tracer, use_tracer
from repro.parallel.costmodel import (
    MachineProfile,
    allreduce_time,
    eigensolve_parallel_time,
    matmult_parallel_time,
    redistribution_time,
)
from repro.parallel.distribution import (
    BlockColumnDistribution,
    block_cyclic_redistribution_bytes,
)
from repro.parallel.virtual_clock import VirtualClocks
from repro.verify.invariants import (
    Verifier,
    VerifyFailure,
    get_verifier,
    use_verifier,
)


class WorkerRecoveryError(RuntimeError):
    """Worker recovery gave up: no worker left to take the lost work."""


@contextmanager
def task_capsule(op: Chi0Operator, rank: int | None = None):
    """Worker side of the per-task observability capsule.

    A forked worker's recorder, tracer and verifier are dead snapshots of
    the parent's. For the duration of one task this installs fresh ones
    mirroring the snapshots' levels, gives ``op`` fresh statistics, and on
    a clean exit fills the yielded payload dict with everything observed;
    the parent folds it in with :func:`fold_task_payload`. Fresh per task,
    so a task re-executed after a worker death reports exactly what the
    lost attempt would have.
    """
    recorder, tracer, verifier = get_recorder(), get_tracer(), get_verifier()
    op.stats = SternheimerStats()
    payload: dict = {}
    with ExitStack() as stack:
        if recorder.enabled:
            recorder = stack.enter_context(
                use_recorder(ConvergenceRecorder(level=recorder.level)))
            stack.enter_context(recorder.rank_scope(rank))
        if tracer.enabled:
            tracer = stack.enter_context(use_tracer(Tracer()))
        if verifier.enabled:
            verifier = stack.enter_context(use_verifier(Verifier(
                level=verifier.level, strict=verifier.strict,
                slack=verifier.slack)))
        yield payload
        payload["stats"] = op.stats
        if recorder.enabled:
            payload["telemetry"] = recorder.payload()
        if tracer.enabled:
            payload["trace"] = tracer.export_state()
        if verifier.enabled:
            payload["verify"] = verifier.summary()


def fold_task_payload(op: Chi0Operator, payload: dict) -> None:
    """Parent side of the capsule: fold one task's payload into ``op.stats``
    and the active recorder, tracer and verifier.

    The caller guarantees exactly-once (a pending set keyed by task), so
    nothing is double-counted across resubmissions.
    """
    op.stats.merge(payload["stats"])
    recorder = get_recorder()
    if recorder.enabled and payload.get("telemetry"):
        recorder.merge(payload["telemetry"])
    tracer = get_tracer()
    if tracer.enabled and payload.get("trace"):
        tracer.absorb(payload["trace"])
    verifier = get_verifier()
    if verifier.enabled and payload.get("verify"):
        # Direct fold: the worker's tracer already counted these checks, so
        # going through _passed/_failed here would double the verify_* counters.
        verifier.checks_run += int(payload["verify"]["checks_run"])
        verifier.failures.extend(
            VerifyFailure(f["check"], f["message"], dict(f["context"]))
            for f in payload["verify"]["failures"])


class _SliceAssignment:
    """Mutable rank -> column-slices work assignment with failure recovery.

    Starts as the paper's static block-column layout; a failed rank's
    slices move to the least-loaded survivor (the manager-worker recovery
    policy shared by the simulated and SPMD backends).
    """

    def init_assignment(self, dist: BlockColumnDistribution) -> None:
        self.assignment: dict[int, list[slice]] = {
            r: [dist.owned_slice(r)] for r in range(dist.n_ranks)
        }

    def fail_rank(self, r: int, at_point: int, domain: str) -> None:
        slices = self.assignment.pop(r, [])
        self.n_rank_failures += 1
        tracer = get_tracer()
        if tracer.enabled:
            tracer.event("rank_failure", rank=r, domain=domain,
                         quadrature_point=at_point)
        for sl in slices:
            survivor = min(self.assignment,
                           key=lambda w: self.per_rank_chi0[w])
            self.assignment[survivor].append(sl)
            if tracer.enabled:
                tracer.event("task_reassigned", rank=survivor, domain=domain,
                             columns=(sl.start, sl.stop), from_rank=r)


class SimulatedScheduler(Scheduler, _SliceAssignment):
    """Simulated-MPI execution: real per-rank work, virtual-clock charges.

    Each rank's column slice is *actually executed* sequentially and its
    measured wall time charged to that rank's virtual clock; ScaLAPACK
    phases and collectives are charged from the Fig. 5-calibrated cost
    models.
    """

    backend = "simulated"
    time_domain = "virtual"

    def __init__(self, chi0op: Chi0Operator, n_ranks: int, width: int,
                 machine: MachineProfile,
                 rank_faults: dict[int, int] | None = None) -> None:
        super().__init__(chi0op, n_ranks)
        self.machine = machine
        self.rank_faults = dict(rank_faults or {})
        self.clocks = VirtualClocks(n_ranks, tracer=get_tracer())
        self.init_assignment(BlockColumnDistribution(width, n_ranks))
        self.last_apply_per_rank: np.ndarray | None = None

    def start_point(self, k: int) -> None:
        for r in sorted(r for r, kf in self.rank_faults.items()
                        if kf == k and r in self.assignment):
            self.fail_rank(r, k, domain="virtual")

    def apply(self, V: np.ndarray, omega: float) -> np.ndarray:
        """One distributed symmetrized apply; charges per-rank clocks."""
        W = np.empty_like(V)
        durations = np.zeros(self.n_ranks)
        recorder = get_recorder()
        recycler = self.op.recycler
        for r, slices in self.assignment.items():
            t0 = time.perf_counter()
            # Telemetry records from this rank's solves carry its rank tag,
            # so per-rank convergence behaviour stays separable post-merge.
            with recorder.rank_scope(r):
                for sl in slices:
                    # The assignment partitions the full block width; clamp
                    # to the operand (the SSA guard probes single columns).
                    sl = slice(sl.start, min(sl.stop, V.shape[1]))
                    if sl.stop <= sl.start:
                        continue
                    if recycler is not None:
                        # Each rank solves a disjoint column slice of the same
                        # block; scope the cache to global column offsets so
                        # full-width entries assemble coherently across ranks.
                        with recycler.columns(sl.start, sl.stop):
                            W[:, sl] = self.op.apply_symmetrized(V[:, sl], omega)
                    else:
                        W[:, sl] = self.op.apply_symmetrized(V[:, sl], omega)
            durations[r] = time.perf_counter() - t0
            self.clocks.advance(r, durations[r], label="chi0_apply")
        self.last_apply_per_rank = durations
        self.per_rank_chi0 += durations
        self.timers.add("chi0_apply", float(durations.max()))
        return W

    @property
    def elapsed(self) -> float:
        return self.clocks.elapsed

    def charge_rayleigh_ritz(self, n_d: int, m: int, t_mm_rot: float,
                             t_eig: float) -> None:
        # Simulated charges: redistribute V and W to block-cyclic, run the
        # parallel matmults and eigensolve, redistribute back.
        p = self.n_ranks
        redist = 2.0 * redistribution_time(
            self.machine, block_cyclic_redistribution_bytes(n_d, 2 * m), p
        )
        mm = matmult_parallel_time(self.machine, t_mm_rot, p)
        eig = eigensolve_parallel_time(self.machine, t_eig, p)
        self.timers.add("matmult", mm + redist)
        self.timers.add("eigensolve", eig)
        self.clocks.synchronize(redist, label="redistribute")
        self.clocks.advance_all(mm, label="matmult")
        self.clocks.advance_all(eig, label="eigensolve")

    def charge_error_eval(self, seconds: float) -> None:
        """Eq. 7: one more operator application plus a scalar allreduce.

        The paper recomputes the product; its cost is charged from the
        per-rank durations just measured for the identical one
        (post-rotation ``W`` *is* that product), so no redundant execution
        is needed and the measured norm time ``seconds`` is not what the
        model charges.
        """
        durations = self.last_apply_per_rank
        if durations is not None:
            for r in range(self.n_ranks):
                self.clocks.advance(r, float(durations[r]), label="eval_error")
            self.timers.add("eval_error", float(durations.max()))
        comm = allreduce_time(self.machine, 8.0, self.n_ranks)
        self.clocks.synchronize(comm, label="allreduce")

    def report(self) -> dict:
        return {
            **super().report(),
            "simulated_walltime": self.clocks.elapsed,
            "comm_seconds": self.clocks.comm_seconds,
            "imbalance_seconds": self.clocks.imbalance_seconds,
        }


def make_scheduler(
    backend: str,
    chi0op: Chi0Operator,
    *,
    n_ranks: int = 1,
    width: int = 1,
    machine: MachineProfile | None = None,
    rank_faults: dict[int, int] | None = None,
    fault_hook=None,
) -> Scheduler:
    """Build the scheduler for ``backend``.

    ``width`` is the distributed column count (the driver's ``n_eig``);
    ``serial`` ignores ``rank_faults`` (the driver validates they were not
    requested); ``spmd`` turns them into real worker deaths.
    """
    if backend == "serial":
        return SerialScheduler(chi0op)
    if backend == "simulated":
        return SimulatedScheduler(chi0op, n_ranks, width, machine,
                                  rank_faults=rank_faults)
    if backend == "spmd":
        from repro.parallel.spmd import SpmdScheduler

        return SpmdScheduler(chi0op, n_ranks, width,
                             rank_faults=rank_faults, fault_hook=fault_hook)
    raise ValueError(
        f"unknown backend {backend!r} "
        f"(expected serial / simulated / spmd)"
    )
