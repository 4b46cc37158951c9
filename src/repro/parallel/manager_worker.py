"""Manager-worker work distribution — the paper's Section V future work.

The paper's static block-column distribution leaves residual load imbalance
because individual right-hand sides of the same Sternheimer system converge
at different rates; it proposes a transition to a manager-worker model.
This module simulates that transition: every (orbital, column-chunk) solve
of one chi0 application is executed once and timed, then the measured item
durations are scheduled onto ``p`` virtual workers both ways:

* **static** — the paper's production layout: contiguous column blocks per
  rank, every rank solving all ``n_s`` orbitals for its own columns;
* **dynamic** — greedy list scheduling (optionally longest-processing-time
  first), the natural manager-worker policy.

The comparison quantifies how much walltime the future-work scheduler would
recover.
"""

from __future__ import annotations

import heapq
import time
from dataclasses import dataclass

import numpy as np

from repro.core.sternheimer import Chi0Operator
from repro.obs.tracer import get_tracer
from repro.parallel.distribution import BlockColumnDistribution


@dataclass(frozen=True)
class WorkItem:
    """One Sternheimer block solve: orbital ``j`` applied to a column chunk."""

    orbital: int
    columns: tuple[int, int]  # [start, stop)
    seconds: float

    def __post_init__(self) -> None:
        if self.seconds < 0:
            raise ValueError("item duration must be non-negative")
        if self.columns[1] <= self.columns[0]:
            raise ValueError("empty column chunk")


def list_schedule_makespan(durations, p: int, lpt: bool = True) -> float:
    """Makespan of greedy list scheduling of ``durations`` on ``p`` workers.

    ``lpt=True`` sorts longest-first (Graham's LPT rule, within 4/3 of
    optimal); ``lpt=False`` keeps arrival order (plain FIFO manager-worker).
    """
    durations = [float(d) for d in durations]
    if p < 1:
        raise ValueError("p must be >= 1")
    if any(d < 0 for d in durations):
        raise ValueError("durations must be non-negative")
    if not durations:
        return 0.0
    if lpt:
        durations = sorted(durations, reverse=True)
    heap = [0.0] * p
    heapq.heapify(heap)
    for d in durations:
        earliest = heapq.heappop(heap)
        heapq.heappush(heap, earliest + d)
    return max(heap)


def replay_schedule(items: list[WorkItem], p: int, tracer=None,
                    lpt: bool = True) -> float:
    """Greedy list-schedule ``items`` on ``p`` workers, emitting the timeline.

    Reconstructs the exact assignment :func:`list_schedule_makespan` would
    produce and records each item as a virtual-time span on its worker's
    rank (``domain="virtual"``), so the manager-worker schedule can be
    inspected in the Chrome trace viewer. Returns the makespan. ``tracer``
    defaults to the active tracer; with tracing disabled this is just a
    makespan computation.
    """
    if p < 1:
        raise ValueError("p must be >= 1")
    tracer = tracer if tracer is not None else get_tracer()
    order = sorted(items, key=lambda it: it.seconds, reverse=True) if lpt else list(items)
    # (finish_time, worker) heap; ties broken by worker id for determinism.
    heap = [(0.0, w) for w in range(p)]
    heapq.heapify(heap)
    for item in order:
        t, w = heapq.heappop(heap)
        if tracer.enabled and item.seconds > 0:
            tracer.record("work_item", t, duration=item.seconds, rank=w,
                          domain="virtual", orbital=item.orbital,
                          columns=item.columns)
        heapq.heappush(heap, (t + item.seconds, w))
    return max(t for t, _ in heap)


@dataclass(frozen=True)
class WorkerFailure:
    """A simulated worker death: worker ``worker`` dies at virtual ``at_time``.

    Any item in flight at the failure instant is lost (its partial work is
    charged to the dead worker's timeline) and must be reassigned.
    """

    worker: int
    at_time: float

    def __post_init__(self) -> None:
        if self.worker < 0:
            raise ValueError("worker must be non-negative")
        if self.at_time < 0:
            raise ValueError("failure time must be non-negative")


@dataclass
class RecoveryReplay:
    """Outcome of :func:`replay_schedule_with_recovery`."""

    makespan: float
    completed: int
    skipped: list[WorkItem]
    n_reassigned: int
    lost_seconds: float
    n_worker_failures: int
    retry_counts: dict[tuple[int, tuple[int, int]], int]

    @property
    def degraded(self) -> bool:
        """True when work had to be dropped (all retries exhausted or no
        workers left) — callers must account an error bound for it."""
        return bool(self.skipped)


def replay_schedule_with_recovery(
    items: list[WorkItem],
    p: int,
    failures: list[WorkerFailure] | tuple[WorkerFailure, ...] = (),
    max_retries: int = 3,
    lpt: bool = True,
    tracer=None,
) -> RecoveryReplay:
    """Manager-worker schedule under worker failures, with reassignment.

    Extends :func:`replay_schedule` with the fault model the manager-worker
    transition needs in production: a worker that dies mid-item loses that
    item's partial work; the manager reassigns the item to the next free
    worker, at most ``max_retries`` times per item, after which the item is
    *skipped* (graceful degradation — the caller accounts an error bound
    instead of crashing). Dead workers take no further work; if every
    worker dies, all remaining items are skipped.

    Emits the same virtual-timeline spans as :func:`replay_schedule`
    (``work_item``, plus ``work_item_lost`` for in-flight losses and
    ``worker_failure`` instants), so recovery is visible in the Chrome
    trace. Returns a :class:`RecoveryReplay`.
    """
    if p < 1:
        raise ValueError("p must be >= 1")
    if max_retries < 0:
        raise ValueError("max_retries must be non-negative")
    tracer = tracer if tracer is not None else get_tracer()
    fail_at: dict[int, float] = {}
    for f in failures:
        if f.worker >= p:
            raise ValueError(f"failure names worker {f.worker} but p = {p}")
        fail_at[f.worker] = min(f.at_time, fail_at.get(f.worker, np.inf))

    order = sorted(items, key=lambda it: it.seconds, reverse=True) if lpt else list(items)
    queue = list(order)
    heap = [(0.0, w) for w in range(p)]
    heapq.heapify(heap)

    def _key(item: WorkItem) -> tuple[int, tuple[int, int]]:
        return (item.orbital, item.columns)

    retry_counts: dict[tuple[int, tuple[int, int]], int] = {}
    skipped: list[WorkItem] = []
    completed = 0
    n_reassigned = 0
    lost_seconds = 0.0
    failed_workers: set[int] = set()
    finish_times = [0.0] * p

    def _mark_dead(w: int, t: float) -> None:
        failed_workers.add(w)
        finish_times[w] = max(finish_times[w], t)
        if tracer.enabled:
            tracer.event("worker_failure", rank=w, domain="virtual", at_time=t)

    while queue:
        if not heap:
            skipped.extend(queue)  # every worker is dead
            queue.clear()
            break
        t, w = heapq.heappop(heap)
        died_at = fail_at.get(w, np.inf)
        if t >= died_at:
            _mark_dead(w, t)
            continue
        item = queue.pop(0)
        end = t + item.seconds
        if end > died_at:
            # The worker dies mid-item: partial work is lost, the item is
            # reassigned (or skipped once its retry budget is spent).
            lost = died_at - t
            lost_seconds += lost
            if tracer.enabled and lost > 0:
                tracer.record("work_item_lost", t, duration=lost, rank=w,
                              domain="virtual", orbital=item.orbital,
                              columns=item.columns)
            _mark_dead(w, died_at)
            key = _key(item)
            retry_counts[key] = retry_counts.get(key, 0) + 1
            if retry_counts[key] > max_retries:
                skipped.append(item)
            else:
                n_reassigned += 1
                queue.append(item)
            continue
        if tracer.enabled and item.seconds > 0:
            tracer.record("work_item", t, duration=item.seconds, rank=w,
                          domain="virtual", orbital=item.orbital,
                          columns=item.columns,
                          retry=retry_counts.get(_key(item), 0))
        completed += 1
        finish_times[w] = end
        heapq.heappush(heap, (end, w))

    for t, w in heap:
        finish_times[w] = max(finish_times[w], t)
    return RecoveryReplay(
        makespan=max(finish_times) if finish_times else 0.0,
        completed=completed,
        skipped=skipped,
        n_reassigned=n_reassigned,
        lost_seconds=lost_seconds,
        n_worker_failures=len(failed_workers),
        retry_counts=retry_counts,
    )


def static_block_column_makespan(items: list[WorkItem], n_cols: int, p: int) -> float:
    """Makespan of the paper's static distribution for the same items.

    Each item is charged to the rank owning its columns (items never span
    owners when produced by :class:`Chi0WorkloadProfiler` with chunk sizes
    dividing the ownership blocks; spanning items are charged to the owner
    of their first column, a second-order effect).
    """
    dist = BlockColumnDistribution(n_cols, p)
    loads = np.zeros(p)
    for item in items:
        loads[dist.owner_of(item.columns[0])] += item.seconds
    return float(loads.max())


@dataclass
class ScheduleComparison:
    """Outcome of the static-vs-manager-worker comparison."""

    static_makespan: float
    dynamic_makespan: float
    dynamic_fifo_makespan: float
    ideal_makespan: float  # sum / p: perfect balance, no scheduling limits
    n_items: int

    @property
    def improvement(self) -> float:
        """Fractional walltime recovered by the manager-worker model."""
        if self.static_makespan == 0.0:
            return 0.0
        return 1.0 - self.dynamic_makespan / self.static_makespan


class Chi0WorkloadProfiler:
    """Measures per-item Sternheimer durations for scheduling studies.

    Executes each (orbital, column-chunk) block solve of one chi0
    application exactly once with real timing, producing the
    :class:`WorkItem` list both schedulers consume.
    """

    def __init__(self, chi0_operator: Chi0Operator, chunk: int = 4) -> None:
        if chunk < 1:
            raise ValueError("chunk must be >= 1")
        self.op = chi0_operator
        self.chunk = int(chunk)

    def measure(self, v: np.ndarray, omega: float) -> list[WorkItem]:
        V = np.asarray(v, dtype=float)
        if V.ndim != 2 or V.shape[0] != self.op.n_points:
            raise ValueError(f"expected (n_d, n_v) block, got {V.shape}")
        items: list[WorkItem] = []
        n_v = V.shape[1]
        tracer = get_tracer()
        for j in range(self.op.n_occupied):
            for start in range(0, n_v, self.chunk):
                stop = min(start + self.chunk, n_v)
                with tracer.span("work_item", orbital=j, columns=(start, stop)):
                    t0 = time.perf_counter()
                    list(self.op._solve_orbitals([j], V[:, start:stop], omega))
                items.append(WorkItem(j, (start, stop), time.perf_counter() - t0))
        return items

    def compare_schedules(self, v: np.ndarray, omega: float, p: int) -> ScheduleComparison:
        """Measure once, then schedule statically and dynamically on ``p``."""
        V = np.asarray(v, dtype=float)
        items = self.measure(V, omega)
        durations = [it.seconds for it in items]
        total = sum(durations)
        return ScheduleComparison(
            static_makespan=static_block_column_makespan(items, V.shape[1], p),
            dynamic_makespan=list_schedule_makespan(durations, p, lpt=True),
            dynamic_fifo_makespan=list_schedule_makespan(durations, p, lpt=False),
            ideal_makespan=total / p,
            n_items=len(items),
        )
