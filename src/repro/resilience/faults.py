"""Fault injection for the resilience test harness.

Deterministic, opt-in sabotage of individual solver stages and worker
processes, so breakdown/recovery paths can be exercised end-to-end without
waiting for a genuinely pathological system:

* :func:`breakdown_injector` wraps a solver stage and makes selected calls
  fail exactly the way a singular Sternheimer shift does — the solver
  returns its initial iterate with ``converged=False, breakdown=True`` —
  while all other calls pass through untouched.
* :class:`DieOnceFile` arranges for exactly one SPMD worker process to die
  the first time it sees a chosen orbital; the resubmitted task (on a
  surviving worker) proceeds normally. The token file makes the fault fire
  at most once across the forked workers.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from repro.obs.tracer import get_tracer
from repro.solvers.stats import SolveResult


def breakdown_injector(
    solver: Callable[..., SolveResult],
    when: Callable[[int], bool],
) -> Callable[..., SolveResult]:
    """Wrap ``solver`` so calls selected by ``when(call_index)`` break down.

    ``when`` receives the 0-based call count; selected calls skip the real
    solver and return the failure a singular shift produces: the initial
    iterate (``x0`` or zeros), ``converged=False``, ``breakdown=True``,
    residual 1. The wrapper exposes ``calls`` (total) and ``injected``
    (sabotaged) counters for assertions.
    """
    state = {"calls": 0, "injected": 0}

    def wrapped(a, b, x0=None, **kwargs) -> SolveResult:
        idx = state["calls"]
        state["calls"] += 1
        if not when(idx):
            return solver(a, b, x0=x0, **kwargs)
        state["injected"] += 1
        tracer = get_tracer()
        if tracer.enabled:
            tracer.event("fault_injected", kind="singular_shift_breakdown", call=idx)
        b_arr = np.asarray(b, dtype=complex)
        if x0 is not None:
            sol = np.array(x0, dtype=complex, copy=True)
        else:
            sol = np.zeros_like(b_arr)
        s = 1 if b_arr.ndim == 1 else b_arr.shape[1]
        return SolveResult(sol, False, 0, 1.0, [1.0], n_matvec=0,
                           block_size=s, breakdown=True)

    wrapped.state = state
    return wrapped


@dataclass
class DieOnceFile:
    """Kill the worker process holding the token the first time it runs
    ``orbital``; the token is consumed so retries after recovery survive.

    Picklable under the ``fork`` start method (plain data + module-level
    behaviour); pass as ``fault_hook`` to
    :class:`repro.parallel.spmd.SpmdScheduler`.
    """

    token_path: str
    orbital: int
    exit_code: int = 1
    _armed: bool = field(default=True, repr=False)

    def arm(self) -> "DieOnceFile":
        """(Re)create the token file; the next hit on ``orbital`` kills its worker."""
        with open(self.token_path, "w") as fh:
            fh.write("die-once token\n")
        return self

    def __call__(self, orbital: int) -> None:
        if orbital != self.orbital:
            return
        try:
            os.remove(self.token_path)  # atomically consume the token
        except FileNotFoundError:
            return
        # The worker loop turns this into a process exit once its queued
        # results are flushed (``os._exit`` here could strand the lock).
        raise SystemExit(self.exit_code)
