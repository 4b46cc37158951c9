"""Per-solve convergence telemetry — the recorder behind ``--telemetry``.

The tracer (``repro.obs.tracer``) answers *where the time went*; this module
answers *how the Krylov solvers converged*. A :class:`ConvergenceRecorder`
collects one structured record per solver invocation — residual-norm
histories, per-column convergence iterations, breakdown indicators and
recycle-seed initial residuals — keyed by ``(orbital, omega, attempt)``
through the scoping context managers the Sternheimer layer installs.

Levels
------
``off``
    :data:`NULL_RECORDER` is active; every instrumentation site is a
    single ``recorder.enabled`` attribute load. The computation is
    bit-identical to an uninstrumented build
    (``benchmarks/bench_obs_overhead.py`` enforces this).
``summary``
    Compact per-solve records (a dozen scalars each) plus running
    aggregates per ``(orbital, omega)``; residual histories are reduced to
    initial/final residual and a geometric decay rate.
``full``
    Additionally keeps full residual histories and per-column convergence
    iterations, and mirrors each record into the active tracer as a
    ``solve_telemetry`` instant event.

The recorder mirrors the tracer/verifier singleton pattern
(:func:`get_recorder` / :func:`set_recorder` / :func:`use_recorder`, with
a shared no-op :data:`NULL_RECORDER`). Solvers report through
:func:`record_solves`, a decorator that notes each returned
:class:`~repro.solvers.stats.SolveResult` on the active recorder.

Thread/process safety
---------------------
Record mutation is guarded by a lock and the scope stack is thread-local,
so concurrent solves on threads record losslessly into one shared
recorder. The SPMD backend's worker processes cannot share the recorder
(fork + copy-on-write); each task records into a private recorder and
ships :meth:`ConvergenceRecorder.payload` back with its result, which the
parent folds in with :meth:`ConvergenceRecorder.merge` — exactly once,
because the scheduler keys results by task id.

The aggregation API (``aggregates`` / ``payload`` / ``merge``) is
deliberately request-shaped — one entry per ``(orbital, omega)`` work item
with counts, failures and latency proxies — so a future serving layer can
reuse it for per-request SLO accounting.
"""

from __future__ import annotations

import functools
import math
import threading
import time
from collections import defaultdict, deque
from contextlib import contextmanager
from typing import Callable

from repro.obs.tracer import get_tracer

#: Valid ``RPAConfig.telemetry_level`` / ``--telemetry`` values.
TELEMETRY_LEVELS = ("off", "summary", "full")

#: Ring-buffer capacity for per-solve records (oldest dropped beyond this).
DEFAULT_RING_SIZE = 4096


def _geometric_rate(history) -> float | None:
    """Crude per-iteration contraction factor ``(r_n / r_0)^(1/n)``.

    The cheap online estimate stored with every record; the least-squares
    geometric fit lives in :mod:`repro.obs.health` for analysis time.
    """
    if not history or len(history) < 2:
        return None
    first = float(history[0])
    last = float(history[-1])
    n = len(history) - 1
    if not (math.isfinite(first) and math.isfinite(last)) or first <= 0.0:
        return None
    if last <= 0.0:
        return 0.0
    return float((last / first) ** (1.0 / n))


class ConvergenceRecorder:
    """Ring-buffered per-solve convergence telemetry.

    Parameters
    ----------
    level:
        ``"summary"`` or ``"full"`` (``"off"`` is represented by
        :data:`NULL_RECORDER`, never by an enabled recorder).
    ring_size:
        Capacity of the per-solve ring buffer; aggregates and counters are
        unaffected by ring overflow (``n_dropped`` tracks it).
    clock:
        Zero-argument seconds callable (overridable for tests).
    """

    enabled = True

    def __init__(self, level: str = "summary", ring_size: int = DEFAULT_RING_SIZE,
                 clock: Callable[[], float] = time.perf_counter) -> None:
        if level not in ("summary", "full"):
            raise ValueError(
                f"recorder level must be 'summary' or 'full', got {level!r} "
                "(use NULL_RECORDER for 'off')"
            )
        if ring_size < 1:
            raise ValueError("ring_size must be >= 1")
        self.level = level
        self.full = level == "full"
        self.ring_size = int(ring_size)
        self._clock = clock
        self._lock = threading.Lock()
        self._local = threading.local()
        self.solves: deque[dict] = deque(maxlen=self.ring_size)
        self.n_recorded = 0
        # defaultdict keeps _bump_counters branch-free on the hot path;
        # payload() snapshots it back to a plain dict.
        self.counters: dict[str, float] = defaultdict(int)
        #: (orbital, omega) -> running aggregate dict.
        self.aggregates: dict[tuple, dict] = {}
        #: Completed quadrature-point records (in completion order).
        self.points: list[dict] = []
        self.n_points_total: int | None = None
        self._open_points: dict[int, dict] = {}

    # -- scoping ---------------------------------------------------------------

    def _stack(self) -> list[dict]:
        st = getattr(self._local, "stack", None)
        if st is None:
            st = self._local.stack = []
        return st

    def _frame(self) -> dict | None:
        st = self._stack()
        return st[-1] if st else None

    def solve_scope(self, orbital: int | None = None, omega: float | None = None,
                    guess: str | None = None):
        """Key subsequent :meth:`record_solve` calls by ``(orbital, omega)``.

        ``guess`` names the initial-guess source (``recycled`` / ``galerkin``
        / ``none``) so recycle-seed initial residuals are attributable.
        Scopes nest; the innermost wins. Thread-local, so concurrent solves
        cannot cross-label.
        """
        return self.frame_scope(self.solve_frame(orbital, omega, guess))

    def solve_frame(self, orbital: int | None = None, omega: float | None = None,
                    guess: str | None = None) -> dict:
        """The frame :meth:`solve_scope` enters, unentered. A solve that is
        suspended and resumed (the Sternheimer driver advances many in
        lockstep) enters its one frame with :meth:`frame_scope` each time it
        records, so its ``seq`` numbering runs on across the pieces."""
        return {
            "orbital": orbital,
            "omega": None if omega is None else float(omega),
            "guess": guess,
            "attempt": 0,
            "stage": None,
            "seq": 0,
        }

    @contextmanager
    def frame_scope(self, frame: dict):
        """Label subsequent records with ``frame`` (see :meth:`solve_frame`)."""
        st = self._stack()
        st.append(frame)
        try:
            yield frame
        finally:
            st.pop()

    @contextmanager
    def attempt_scope(self, attempt: int, stage: str | None = None):
        """Label records with an escalation attempt index and stage name.

        The escalation chain wraps each stage it runs itself (those after a
        failed first stage) in one of these, so chunked solves within one stage share an attempt number
        while retries are distinguishable. No-op outside a solve scope.
        """
        frame = self._frame()
        if frame is None:
            yield
            return
        prev = (frame["attempt"], frame["stage"])
        frame["attempt"] = int(attempt)
        frame["stage"] = stage
        try:
            yield
        finally:
            frame["attempt"], frame["stage"] = prev

    @contextmanager
    def rank_scope(self, rank: int | None):
        """Tag records with a (simulated-MPI or worker) rank. Thread-local."""
        prev = getattr(self._local, "rank", None)
        self._local.rank = rank
        try:
            yield
        finally:
            self._local.rank = prev

    @property
    def rank(self) -> int | None:
        return getattr(self._local, "rank", None)

    # -- per-solve records -----------------------------------------------------

    def record_solve(self, solver: str, result) -> None:
        """Note one solver invocation (a :class:`SolveResult`-shaped object)."""
        history = result.residual_history or ()
        # Hot path: one branch on the frame (not one per field) and a single
        # rank lookup — every solve in an enabled run lands here.
        frame = self._frame()
        if frame is None:
            orbital = omega = guess = stage = None
            attempt = seq = 0
        else:
            orbital = frame["orbital"]
            omega = frame["omega"]
            guess = frame["guess"]
            attempt = frame["attempt"]
            stage = frame["stage"]
            seq = frame["seq"]
            frame["seq"] = seq + 1
        rec: dict = {
            "solver": solver,
            "orbital": orbital,
            "omega": omega,
            "guess": guess,
            "attempt": attempt,
            "stage": stage,
            "seq": seq,
            "rank": getattr(self._local, "rank", None),
            "block_size": int(getattr(result, "block_size", 1)),
            "iterations": int(result.iterations),
            "n_matvec": int(result.n_matvec),
            "converged": bool(result.converged),
            "breakdown": bool(result.breakdown),
            "residual": float(result.residual_norm),
            "initial_residual": float(history[0]) if history else None,
            "decay_rate": _geometric_rate(history),
        }
        if self.full:
            rec["residual_history"] = [float(x) for x in history]
            per_col = getattr(result, "per_column_iterations", None)
            if per_col is not None:
                rec["per_column_iterations"] = [int(c) for c in per_col]
        self._append(rec)
        if self.full:
            tracer = get_tracer()
            if tracer.enabled:
                tracer.event(
                    "solve_telemetry", rank=rec["rank"], solver=solver,
                    orbital=rec["orbital"], omega=rec["omega"],
                    attempt=rec["attempt"], guess=rec["guess"],
                    iterations=rec["iterations"], residual=rec["residual"],
                    converged=rec["converged"], breakdown=rec["breakdown"],
                )

    def _append(self, rec: dict) -> None:
        with self._lock:
            self.n_recorded += 1
            self.solves.append(rec)
            self._bump_counters(rec)
            self._fold_aggregate(rec)

    def _bump_counters(self, rec: dict) -> None:
        c = self.counters
        c["solves"] += 1
        c["solves." + rec["solver"]] += 1
        c["iterations"] += rec["iterations"]
        c["matvecs"] += rec["n_matvec"]
        if not rec["converged"]:
            c["unconverged"] += 1
        if rec["breakdown"]:
            c["breakdowns"] += 1
        if rec["attempt"] > 0:
            c["escalated_records"] += 1
        if rec["guess"] == "recycled":
            c["recycled_seed_solves"] += 1

    def _fold_aggregate(self, rec: dict) -> None:
        key = (rec["orbital"], rec["omega"])
        agg = self.aggregates.get(key)
        if agg is None:
            agg = self.aggregates[key] = {
                "n_solves": 0, "iterations": 0, "n_matvec": 0,
                "n_unconverged": 0, "n_breakdowns": 0, "max_attempt": 0,
                "initial_residual_min": None, "initial_residual_max": None,
                "last_residual": None, "worst_decay_rate": None,
            }
        agg["n_solves"] += 1
        agg["iterations"] += rec["iterations"]
        agg["n_matvec"] += rec["n_matvec"]
        agg["n_unconverged"] += int(not rec["converged"])
        agg["n_breakdowns"] += int(rec["breakdown"])
        if rec["attempt"] > agg["max_attempt"]:
            agg["max_attempt"] = rec["attempt"]
        agg["last_residual"] = rec["residual"]
        r0 = rec["initial_residual"]
        if r0 is not None:
            lo = agg["initial_residual_min"]
            if lo is None or r0 < lo:
                agg["initial_residual_min"] = r0
            hi = agg["initial_residual_max"]
            if hi is None or r0 > hi:
                agg["initial_residual_max"] = r0
        q = rec["decay_rate"]
        if q is not None:
            worst = agg["worst_decay_rate"]
            if worst is None or q > worst:
                agg["worst_decay_rate"] = q

    # -- quadrature-sweep progress ---------------------------------------------

    def sweep_started(self, n_points: int) -> None:
        """Declare the quadrature sweep length (enables ETA prediction)."""
        with self._lock:
            self.n_points_total = int(n_points)

    def point_started(self, index: int, omega: float) -> None:
        with self._lock:
            self._open_points[index] = {
                "index": int(index), "omega": float(omega), "t0": self._clock(),
            }

    def point_finished(self, index: int, omega: float | None = None,
                       seconds: float | None = None, **fields) -> None:
        """Close a quadrature point; ``fields`` carries energy/convergence data.

        ``error_history`` (the subspace iteration's Eq. 7 errors) feeds the
        per-frequency residual-decay sparklines in the health dashboard and
        HTML report.
        """
        with self._lock:
            opened = self._open_points.pop(index, None)
            if seconds is None and opened is not None:
                seconds = self._clock() - opened["t0"]
            if omega is None and opened is not None:
                omega = opened["omega"]
            rec = {"index": int(index),
                   "omega": None if omega is None else float(omega),
                   "seconds": seconds}
            hist = fields.pop("error_history", None)
            if hist is not None:
                rec["error_history"] = [float(x) for x in hist]
            rec.update(fields)
            self.points.append(rec)

    @property
    def open_points(self) -> list[dict]:
        """Quadrature points currently in flight (dashboard display)."""
        with self._lock:
            now = self._clock()
            return [{**p, "elapsed": now - p["t0"]}
                    for p in self._open_points.values()]

    # -- export / merge --------------------------------------------------------

    @property
    def n_dropped(self) -> int:
        return self.n_recorded - len(self.solves)

    def payload(self) -> dict:
        """JSON-safe snapshot: the exchange format for export and merging."""
        with self._lock:
            return {
                "level": self.level,
                "n_recorded": self.n_recorded,
                "n_dropped": self.n_recorded - len(self.solves),
                "n_points_total": self.n_points_total,
                "counters": dict(self.counters),
                "aggregates": [
                    {"orbital": orb, "omega": om, **agg}
                    for (orb, om), agg in sorted(
                        self.aggregates.items(),
                        key=lambda kv: (
                            kv[0][0] is None, kv[0][0],
                            kv[0][1] is None, kv[0][1],
                        ),
                    )
                ],
                "points": [dict(p) for p in self.points],
                "solves": [dict(r) for r in self.solves],
            }

    def merge(self, payload: dict) -> None:
        """Fold another recorder's :meth:`payload` into this one.

        Used by the SPMD backend (per-task worker payloads) and by any
        cross-rank reduction. Counters and aggregates merge exactly;
        per-solve records append subject to the ring capacity.
        """
        if not payload:
            return
        with self._lock:
            self.n_recorded += int(payload.get("n_recorded", 0))
            for name, value in payload.get("counters", {}).items():
                self.counters[name] = self.counters.get(name, 0) + value
            for entry in payload.get("aggregates", []):
                entry = dict(entry)
                key = (entry.pop("orbital", None), entry.pop("omega", None))
                mine = self.aggregates.get(key)
                if mine is None:
                    self.aggregates[key] = entry
                    continue
                mine["n_solves"] += entry.get("n_solves", 0)
                mine["iterations"] += entry.get("iterations", 0)
                mine["n_matvec"] += entry.get("n_matvec", 0)
                mine["n_unconverged"] += entry.get("n_unconverged", 0)
                mine["n_breakdowns"] += entry.get("n_breakdowns", 0)
                mine["max_attempt"] = max(mine["max_attempt"],
                                          entry.get("max_attempt", 0))
                if entry.get("last_residual") is not None:
                    mine["last_residual"] = entry["last_residual"]
                for field, op in (("initial_residual_min", min),
                                  ("initial_residual_max", max),
                                  ("worst_decay_rate", max)):
                    theirs = entry.get(field)
                    if theirs is None:
                        continue
                    mine[field] = (theirs if mine.get(field) is None
                                   else op(mine[field], theirs))
            self.points.extend(dict(p) for p in payload.get("points", []))
            for rec in payload.get("solves", []):
                self.solves.append(dict(rec))

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (f"ConvergenceRecorder(level={self.level!r}, "
                f"solves={self.n_recorded}, points={len(self.points)})")


class _NullScope:
    __slots__ = ()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        pass


_NULL_SCOPE = _NullScope()


class NullRecorder:
    """Disabled recorder: every operation is a no-op (shared singleton)."""

    enabled = False
    full = False
    level = "off"
    rank = None
    n_recorded = 0
    n_dropped = 0
    n_points_total: int | None = None
    counters: dict[str, float] = {}
    aggregates: dict[tuple, dict] = {}
    points: list[dict] = []
    solves: deque = deque(maxlen=1)
    open_points: list[dict] = []

    def solve_scope(self, orbital=None, omega=None, guess=None) -> _NullScope:
        return _NULL_SCOPE

    def solve_frame(self, orbital=None, omega=None, guess=None) -> None:
        return None

    def frame_scope(self, frame) -> _NullScope:
        return _NULL_SCOPE

    def attempt_scope(self, attempt, stage=None) -> _NullScope:
        return _NULL_SCOPE

    def rank_scope(self, rank) -> _NullScope:
        return _NULL_SCOPE

    def record_solve(self, solver, result) -> None:
        pass

    def sweep_started(self, n_points) -> None:
        pass

    def point_started(self, index, omega) -> None:
        pass

    def point_finished(self, index, omega=None, seconds=None, **fields) -> None:
        pass

    def payload(self) -> dict:
        return {}

    def merge(self, payload) -> None:
        pass


#: The process-wide disabled recorder (shared; never records anything).
NULL_RECORDER = NullRecorder()

_ACTIVE: ConvergenceRecorder | NullRecorder = NULL_RECORDER


def get_recorder() -> ConvergenceRecorder | NullRecorder:
    """The active recorder; :data:`NULL_RECORDER` unless one was installed."""
    return _ACTIVE


def set_recorder(recorder: ConvergenceRecorder | NullRecorder | None):
    """Install ``recorder`` as the active one (``None`` disables). Returns it."""
    global _ACTIVE
    _ACTIVE = recorder if recorder is not None else NULL_RECORDER
    return _ACTIVE


@contextmanager
def use_recorder(recorder: ConvergenceRecorder | NullRecorder | None):
    """Scoped :func:`set_recorder`; restores the previous recorder on exit."""
    global _ACTIVE
    previous = _ACTIVE
    _ACTIVE = recorder if recorder is not None else NULL_RECORDER
    try:
        yield _ACTIVE
    finally:
        _ACTIVE = previous


def recorder_for_level(level: str) -> ConvergenceRecorder | NullRecorder:
    """Recorder for a config/CLI telemetry level (shared null for ``off``)."""
    if level not in TELEMETRY_LEVELS:
        raise ValueError(
            f"telemetry level must be one of {TELEMETRY_LEVELS}, got {level!r}"
        )
    if level == "off":
        return NULL_RECORDER
    return ConvergenceRecorder(level=level)


def record_solves(solver_name: str):
    """Decorator: note every :class:`SolveResult` a solver returns.

    The disabled path costs one global load and one attribute check per
    *solve* (not per iteration), preserving the observability layer's
    no-op-guard contract.
    """

    def decorate(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            result = fn(*args, **kwargs)
            recorder = _ACTIVE
            if recorder.enabled:
                recorder.record_solve(solver_name, result)
            return result

        return wrapper

    return decorate
