"""Lightweight peak-RSS tracking for the regression benchmark.

:class:`MemorySampler` polls the process's resident set size from
``/proc/self/statm`` on a daemon thread (a few reads per second — no
tracemalloc-style per-allocation overhead), recording the peak observed.
On platforms without procfs it degrades to the kernel-maintained
high-water mark from ``resource.getrusage`` (which can only over-report
relative to the sampled window, never under-report the process peak).
"""

from __future__ import annotations

import os
import sys
import threading
from pathlib import Path

try:
    import resource
except ImportError:  # pragma: no cover - non-POSIX
    resource = None  # type: ignore[assignment]

_STATM = Path("/proc/self/statm")
_PAGE_SIZE = os.sysconf("SC_PAGE_SIZE") if hasattr(os, "sysconf") else 4096


def current_rss_bytes() -> int | None:
    """Resident set size right now, in bytes (``None`` if unavailable)."""
    try:
        fields = _STATM.read_text().split()
        return int(fields[1]) * _PAGE_SIZE
    except (OSError, IndexError, ValueError):
        return None


def _ru_maxrss_bytes(raw: int) -> int:
    """Normalize a raw ``ru_maxrss`` reading to bytes, in one place.

    Linux reports kibibytes, macOS reports bytes (both are documented
    behavior, not guesswork). The old magnitude heuristic (``> 2**32``
    means bytes) silently under-reported Linux runs whose peak exceeded
    4 GiB by a factor of 1024 and over-reported small macOS runs by the
    same factor.
    """
    return int(raw) if sys.platform == "darwin" else int(raw) * 1024


def peak_rss_bytes(include_children: bool = True) -> int | None:
    """Kernel high-water-mark RSS for the process lifetime, in bytes.

    With ``include_children`` (the default) the reading also covers
    reaped child processes via ``RUSAGE_CHILDREN`` — in the SPMD backend
    the workers, not the parent, do the bulk of the allocation, and
    reporting only ``RUSAGE_SELF`` under-reported those runs. ``ru_maxrss``
    is a per-process high-water mark, so the combined figure is the max
    over parent and largest child (summing would over-report shared
    copy-on-write pages).
    """
    if resource is None:
        return None
    peak = _ru_maxrss_bytes(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)
    if include_children:
        child = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
        peak = max(peak, _ru_maxrss_bytes(child))
    return peak


class MemorySampler:
    """Sample RSS in the background; report the peak over the window.

    Usable as a context manager::

        with MemorySampler() as mem:
            run_benchmark()
        print(mem.peak_mb)

    When procfs sampling is unavailable, :attr:`peak_bytes` falls back to
    the process-lifetime ``ru_maxrss`` so callers always get *a* number on
    POSIX systems.
    """

    def __init__(self, interval: float = 0.05) -> None:
        self.interval = float(interval)
        self.n_samples = 0
        self._peak: int = 0
        self._thread: threading.Thread | None = None
        self._stop = threading.Event()

    def _sample_once(self) -> None:
        rss = current_rss_bytes()
        if rss is not None:
            self.n_samples += 1
            if rss > self._peak:
                self._peak = rss

    def _loop(self) -> None:
        self._sample_once()
        while not self._stop.wait(self.interval):
            self._sample_once()

    def start(self) -> "MemorySampler":
        if self._thread is None:
            self._stop.clear()
            self._thread = threading.Thread(target=self._loop, daemon=True,
                                            name="repro-memory-sampler")
            self._thread.start()
        return self

    def stop(self) -> None:
        if self._thread is not None:
            self._stop.set()
            self._thread.join(timeout=max(1.0, 10 * self.interval))
            self._thread = None
        self._sample_once()  # final sample so short runs still observe something

    @property
    def peak_bytes(self) -> int | None:
        if self.n_samples:
            return self._peak
        return peak_rss_bytes()

    @property
    def peak_mb(self) -> float | None:
        peak = self.peak_bytes
        return None if peak is None else peak / (1024.0 * 1024.0)

    def __enter__(self) -> "MemorySampler":
        return self.start()

    def __exit__(self, *exc) -> None:
        self.stop()
