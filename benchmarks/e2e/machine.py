"""What machine a record was measured on, and how fast that machine was.

``calib_ms`` and ``copy_gbps`` never feed a gated number (normalising by them
made the noise worse, see README); they let a reader tell a slow machine from
slow code.
"""

from __future__ import annotations

import gc
import os
import platform
import sys
from pathlib import Path
from statistics import median
from time import perf_counter

import numpy as np
import scipy

from repro.obs.export import git_revision

ROOT = Path(__file__).resolve().parents[2]


def calib_ms(reps: int = 15) -> float:
    """Median wall time of one fixed numpy kernel (300x300 matmul + FFT)."""
    rng = np.random.default_rng(0)
    a = rng.standard_normal((300, 300))
    z = rng.standard_normal((24, 24, 24)) + 0j
    times = []
    for _ in range(reps):
        t0 = perf_counter()
        float((a @ a).sum() + np.fft.fftn(z).real.sum())
        times.append(perf_counter() - t0)
    return 1e3 * median(times)


def copy_gbps(shape: tuple[int, ...], reps: int = 50) -> tuple[float, int]:
    """``np.copyto`` rate on a complex128 array of ``shape``: (computed GB/s
    counting the read and the write, array bytes)."""
    src = np.ones(shape, dtype=complex)
    dst = np.empty_like(src)
    times = []
    for _ in range(reps):
        t0 = perf_counter()
        np.copyto(dst, src)
        times.append(perf_counter() - t0)
    return 2 * src.nbytes / median(times) / 1e9, src.nbytes


def _llc_bytes() -> int | None:
    """Largest cache of cpu0 as sysfs states it (what ``lscpu`` prints)."""
    best = None
    for size in Path("/sys/devices/system/cpu/cpu0/cache").glob("index*/size"):
        try:
            text = size.read_text().strip()
        except OSError:
            continue
        scale = {"K": 1 << 10, "M": 1 << 20, "G": 1 << 30}.get(text[-1:], 1)
        digits = text.rstrip("KMG")
        if digits.isdigit():
            best = max(best or 0, int(digits) * scale)
    return best


def machine_block() -> dict:
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": os.cpu_count(),
        "sched_getaffinity": sorted(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "platform": platform.platform(),
        "llc_bytes": _llc_bytes(),
        "git_revision": git_revision(ROOT),
        "gc_enabled": gc.isenabled(),
        "argv": sys.argv[1:],
    }
