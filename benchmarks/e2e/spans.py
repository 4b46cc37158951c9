"""Spans recorded by the harness around calls into ``repro``'s layers.

A span is ``{id, name, start, end, parent, workload}`` (seconds on the
``perf_counter`` clock). Spans are kept in memory and written out once, when
the run ends. A layer's self time is its span's duration minus the part of
that interval its child spans cover.
"""

from __future__ import annotations

import json
from contextlib import contextmanager
from time import perf_counter


class SpanRecorder:
    """In-memory span list with a parent stack (one thread, one workload)."""

    def __init__(self, workload: str) -> None:
        self.workload = workload
        self.spans: list[dict] = []
        self._stack: list[int] = []
        self._restores: list = []

    def _open(self, name: str) -> dict:
        rec = {"id": len(self.spans), "name": name, "start": perf_counter(),
               "end": None, "parent": self._stack[-1] if self._stack else None,
               "workload": self.workload}
        self.spans.append(rec)
        self._stack.append(rec["id"])
        return rec

    def _close(self, rec: dict) -> None:
        rec["end"] = perf_counter()
        self._stack.pop()

    @contextmanager
    def span(self, name: str):
        rec = self._open(name)
        try:
            yield rec
        finally:
            self._close(rec)

    def wrap(self, obj, attr: str, name: str) -> None:
        """Shadow ``obj.attr`` with an instance-level wrapper that records one
        span per call. The class, and every other instance, is untouched."""
        inner = getattr(obj, attr)

        def traced(*args, **kwargs):
            rec = self._open(name)
            try:
                return inner(*args, **kwargs)
            finally:
                self._close(rec)

        setattr(obj, attr, traced)
        self._restores.append((obj, attr))

    def unwrap_all(self) -> None:
        for obj, attr in self._restores:
            delattr(obj, attr)
        self._restores.clear()

    def write_jsonl(self, path) -> None:
        with open(path, "w") as fh:
            for rec in self.spans:
                fh.write(json.dumps(rec) + "\n")


def self_times(spans: list[dict]) -> dict[int, float]:
    """Self time per span id: duration minus the child-covered part."""
    children: dict[int, list[tuple[float, float]]] = {}
    for s in spans:
        if s["parent"] is not None:
            children.setdefault(s["parent"], []).append((s["start"], s["end"]))
    out = {}
    for s in spans:
        covered, reach = 0.0, s["start"]
        for lo, hi in sorted(children.get(s["id"], ())):
            lo, hi = max(lo, reach), min(hi, s["end"])
            if hi > lo:
                covered += hi - lo
                reach = hi
        out[s["id"]] = (s["end"] - s["start"]) - covered
    return out


def busy(spans: list[dict], name: str, under: int | None = None) -> tuple[int, float]:
    """``(calls, total seconds)`` of the spans called ``name``; with ``under``,
    only those whose parent is that span id."""
    hits = [s for s in spans if s["name"] == name
            and (under is None or s["parent"] == under)]
    return len(hits), sum(s["end"] - s["start"] for s in hits)
