"""The ``Scheduler`` seam: *where* Algorithm 6's chi0 application runs.

The paper has one sweep (Algorithm 6); Section III-D only says where the
``n_eig`` columns of each ``nu^{1/2} chi0 nu^{1/2}`` application execute.
A scheduler owns exactly that: the distributed chi0 application, the
per-rank work assignment, and the time accounting for its execution
domain. The sweep (``repro.core.rpa_energy``), Algorithm 5
(``repro.core.subspace``) and the SSA point (``repro.core.ssa``) are
written once against this interface and never branch on the backend; the
Rayleigh-Ritz Grams and the Eq. 7 norm (0.3 % of a sweep) run in the
driver on the gathered block under every backend.

This module holds the interface and the in-process single-rank
implementation every serial call uses; the simulated-MPI and shared-memory
SPMD schedulers live in ``repro.parallel``.
"""

from __future__ import annotations

import time

import numpy as np

from repro.obs.tracer import Tracer, get_tracer
from repro.utils.timing import KernelTimers


class Scheduler:
    """Execution backend seam for the RPA sweep.

    Contract:

    * :meth:`apply` — one symmetrized chi0 application of the full block.
    * :meth:`start_point` — called at the top of each quadrature point;
      processes any planted rank faults for that point.
    * ``charge_*`` hooks — the caller reports the measured Rayleigh-Ritz /
      Eq. 7 phases; real backends book them as measured, the simulated
      backend charges its cost models instead.
    * :meth:`report` — the parallel accounting folded into
      ``RPAEnergyResult`` (comm/imbalance, per-rank seconds, rank
      failures, simulated walltime).
    * :meth:`close` — release worker processes and shared memory.

    ``timers`` is the one accumulator of the Fig. 5 kernel buckets
    (``chi0_apply``, ``matmult``, ``eigensolve``, ``eval_error``): the
    active tracer when tracing is on (a tracer satisfies the
    ``KernelTimers`` add/region protocol, and every charge becomes a span
    as well), a private ``KernelTimers`` otherwise.
    """

    backend = "abstract"
    #: timeline of :attr:`elapsed` ("virtual" for the simulated backend)
    time_domain = "real"
    #: interconnect profile behind the charges (simulated backend only)
    machine = None

    def __init__(self, chi0op=None, n_ranks: int = 1) -> None:
        if n_ranks < 1:
            raise ValueError("n_ranks must be >= 1")
        self.op = chi0op
        self.n_ranks = int(n_ranks)
        self.n_rank_failures = 0
        self.per_rank_chi0 = np.zeros(self.n_ranks)
        tracer = get_tracer()
        self.timers = tracer if tracer.enabled else KernelTimers()
        self._elapsed = 0.0

    # -- the distributed kernel -------------------------------------------------

    def apply(self, V: np.ndarray, omega: float) -> np.ndarray:
        raise NotImplementedError

    # -- per-point lifecycle ---------------------------------------------------

    def start_point(self, k: int) -> None:
        """Hook at the top of quadrature point ``k`` (1-based)."""

    # -- time accounting -------------------------------------------------------

    @property
    def elapsed(self) -> float:
        """Backend time consumed so far (virtual or measured busy time)."""
        return self._elapsed

    def _charge(self, name: str, seconds: float) -> None:
        """Book the measured seconds of a kernel phase that just ended."""
        timers = self.timers
        if isinstance(timers, Tracer):
            # Tracing: the charge is also a span, placed to end now (both
            # Rayleigh-Ritz charges arrive together and share that stamp).
            timers.record(name, timers.now() - seconds, duration=seconds,
                          bucket=name)
        else:
            timers.add(name, seconds)
        self._elapsed += seconds

    def charge_rayleigh_ritz(self, n_d: int, m: int, t_mm_rot: float,
                             t_eig: float) -> None:
        """Measured Gram + rotation seconds and eigensolve seconds of one
        Rayleigh-Ritz on an ``(n_d, m)`` block."""
        self._charge("matmult", t_mm_rot)
        self._charge("eigensolve", t_eig)

    def charge_error_eval(self, seconds: float) -> None:
        """Measured seconds of one Eq. 7 evaluation (``W`` is reused)."""
        self._charge("eval_error", seconds)

    def report(self) -> dict:
        return {
            "simulated_walltime": 0.0,
            "comm_seconds": 0.0,
            "imbalance_seconds": 0.0,
            "per_rank_chi0_seconds": self.per_rank_chi0.copy(),
            "n_rank_failures": self.n_rank_failures,
        }

    def close(self) -> None:
        """Release backend resources (worker processes, shared memory)."""

    def __enter__(self) -> "Scheduler":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


class SerialScheduler(Scheduler):
    """Single-rank execution in the calling process (the default backend).

    Without an operator it still serves Algorithm 5 callers that bring
    their own ``apply_op`` (planted test operators, the Fig. 1 dielectric
    diagnostics): the kernel buckets are booked here.
    """

    backend = "serial"

    def apply(self, V: np.ndarray, omega: float) -> np.ndarray:
        # ``chi0_apply`` is charged inside the operator and covers
        # apply_chi0 only, not the two nu^{1/2} applications around it.
        t0 = time.perf_counter()
        W = self.op.apply_symmetrized(V, omega, timers=self.timers)
        dur = time.perf_counter() - t0
        self.per_rank_chi0[0] += dur
        self._elapsed += dur
        return W
