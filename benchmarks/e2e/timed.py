"""The untraced run: every end-to-end number comes from here.

One process, one client, closed loop: cold builds and sweeps alternate
(build .. build, sweep, build .. build, sweep, ...; each sweep uses the build
before it) until ``--seconds`` have passed and at least ``MIN_SWEEPS`` sweeps
are in. The metrics are medians over all repetitions of the window — never a
single shot, never a burst (README, "Noise").
"""

from __future__ import annotations

import gc
from statistics import median
from time import perf_counter

from repro.obs.memory import peak_rss_bytes

from benchmarks.e2e import machine
from benchmarks.e2e.workloads import (
    ENERGY_TOL, SYSTEMS, Workload, reference_energy,
)

MIN_SWEEPS = 3


def sweep_failures(workload: Workload, result, reference: float | None) -> list[str]:
    """Why this sweep does not count as a completed operation (empty = ok)."""
    why = [f"quadrature point {p.index} (omega={p.omega:.3f}) did not converge"
           for p in result.points if not p.converged]
    if reference is not None:
        delta = abs(workload.energy_of(result) - reference)
        if not delta <= ENERGY_TOL:
            why.append(f"energy {workload.energy_of(result)!r} is {delta:.2e} Ha "
                       f"from the pinned {reference!r}")
    return why


def timed_sweep(workload: Workload, dft, coulomb, reference: float | None) -> dict:
    """One operation: gc, sweep, verdict. A raise is a failed operation."""
    gc.collect()
    t0 = perf_counter()
    try:
        result = workload.sweep(dft, coulomb)
    except Exception as exc:  # the harness must outlive a failed operation to count it
        return {"wall_s": perf_counter() - t0, "failures": [f"raised {exc!r}"]}
    wall = perf_counter() - t0
    return {"wall_s": wall, "failures": sweep_failures(workload, result, reference),
            "energy": workload.energy_of(result), "matvecs": int(result.stats.n_matvec)}


def run(workload: Workload, seed: int, seconds: float, smoke: bool) -> dict:
    system = SYSTEMS[workload.smoke_system if smoke else workload.system]
    reference = None if smoke else reference_energy(workload.name)
    min_sweeps = 2 if smoke else MIN_SWEEPS

    calib_before = machine.calib_ms()
    setups, sweeps = [], []
    begin = perf_counter()
    while True:
        pair_begin = perf_counter()
        for _ in range(min(workload.builds_per_sweep, workload.max_builds - len(setups))):
            gc.collect()
            t0 = perf_counter()
            dft, coulomb = system.build()
            setups.append(perf_counter() - t0)
        sweeps.append(timed_sweep(workload, dft, coulomb, reference))
        now = perf_counter()
        if len(sweeps) >= min_sweeps and (now - begin) + (now - pair_begin) > seconds:
            break
    measured = perf_counter() - begin
    calib_after = machine.calib_ms()

    failures = [f"sweep {i}: {why}" for i, s in enumerate(sweeps) for why in s["failures"]]
    ops_failed = sum(bool(s["failures"]) for s in sweeps)
    matvecs = sorted({s["matvecs"] for s in sweeps if "matvecs" in s})
    energies = sorted({s["energy"] for s in sweeps if "energy" in s})
    repeat_ok = len(matvecs) <= 1 and len(energies) <= 1
    if not repeat_ok:
        failures.append(f"repetitions disagree: matvecs {matvecs}, energies {energies}")
    walls = [s["wall_s"] for s in sweeps]
    rss = peak_rss_bytes(include_children=True) or 0

    return {
        "mode": "timed",
        "workload": workload.name,
        "why": workload.why,
        "smoke": smoke,
        "load": "closed loop, one client, one process",
        "seed": seed,  # recorded; the inputs of a timed run do not depend on it
        "seconds_requested": seconds,
        "seconds_measured": measured,
        "metrics": {
            "sweep_wall_s": {"value": median(walls), "unit": "s"},
            "setup_s": {"value": median(setups), "unit": "s"},
            "peak_rss_mb": {"value": rss / 2**20, "unit": "MiB"},
        },
        "sweep_wall_s": {"n": len(walls), "min": min(walls), "max": max(walls),
                         "samples": walls},
        "setup_s": {"n": len(setups), "min": min(setups), "max": max(setups),
                    "samples": setups},
        "ops_attempted": len(sweeps),
        "ops_failed": ops_failed,
        "correct": ops_failed == 0 and repeat_ok,
        "failures": failures,
        "energy": energies[0] if energies else None,
        "energy_kind": "total Ha" if workload.total_energy else "Ha/atom",
        "reference_energy": reference,
        "pin_applied": reference is not None,
        "sweep_matvecs": matvecs[0] if matvecs else None,
        "calib_ms": {"before": calib_before, "after": calib_after},
    }
