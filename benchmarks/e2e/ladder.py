"""The traced run: per-layer numbers, timed from outside ``repro``.

Three sources, none of them an edit under ``src/``:

* spans the harness records around each setup stage, each sweep, and
  instance-level wrappers on the objects it passes in
  (``dft.hamiltonian.apply``, ``coulomb.apply_nu_sqrt``);
* what the public API already returns (``RPAEnergyResult.timers`` /
  ``.points`` / ``.stats``, ``ParallelRPAResult.breakdown`` /
  ``.comm_seconds`` / ``.imbalance_seconds``);
* isolated rungs: medians over repeated calls of one layer's public function
  on seeded blocks built from the workload's own system.

No end-to-end number is taken here.
"""

from __future__ import annotations

import gc
from statistics import median
from time import perf_counter

import numpy as np

from repro.core import Chi0Operator, compute_rpa_energy
from repro.core.quadrature import transformed_gauss_legendre
from repro.grid.fourier import FourierLaplacian
from repro.grid.stencil import StencilLaplacian
from repro.solvers.batched import BatchedShiftedOperator, batched_cocg_solve
from repro.solvers.block_cocg import block_cocg_solve

from benchmarks.e2e import machine
from benchmarks.e2e.spans import SpanRecorder, busy
from benchmarks.e2e.timed import sweep_failures
from benchmarks.e2e.workloads import SYSTEMS, Workload, reference_energy

#: Every per-layer metric, in print order: name -> unit. BENCHMARK.json lists
#: exactly these; a metric a workload cannot observe reads 0 (README table).
UNITS = {
    "grid.kinetic_apply_us": "us", "grid.kinetic_gbps": "GB/s",
    "grid.kinetic_bw_frac": "ratio", "grid.nu_sqrt_apply_us": "us",
    "grid.nu_sqrt_calls": "count", "grid.nu_sqrt_busy_s": "s",
    "grid.coulomb_build_s": "s",
    "dft.h_apply_s1_us": "us", "dft.h_apply_s16_us": "us",
    "dft.nonlocal_apply_us": "us", "dft.h_apply_calls": "count",
    "dft.h_apply_busy_s": "s", "dft.scf_s": "s", "dft.scf_iterations": "count",
    "solvers.block_cocg_iter_us": "us", "solvers.block_cocg_iters": "count",
    "solvers.batched_cocg_iter_us": "us", "solvers.batched_cocg_iters": "count",
    "solvers.self_s": "s",
    "core.chi0_apply_ms": "ms", "core.chi0_apply_matvecs": "count",
    "core.chi0_busy_s": "s", "core.matmult_s": "s", "core.eigensolve_s": "s",
    "core.eval_error_s": "s", "core.driver_self_s": "s",
    "core.sweep_matvecs": "count", "core.filter_iterations": "count",
    "core.point_wall_max_s": "s", "core.traced_sweep_s": "s",
    "parallel.comm_s": "s", "parallel.imbalance_s": "s",
    "parallel.efficiency": "ratio",
    "obs.trace_overhead_frac": "ratio",
    "machine.copy_gbps": "GB/s", "machine.calib_ms": "ms",
}

#: The rows a serial traced sweep is split into. ``core.driver_self_s`` is the
#: residual, so they add up to the sweep by construction; what is checked is
#: that the residual is small (``UNEXPLAINED_MAX``) and no row is negative.
UNEXPLAINED_MAX = 0.05
LADDER = ("dft.h_apply_busy_s", "grid.nu_sqrt_busy_s", "solvers.self_s",
          "core.matmult_s", "core.eigensolve_s", "core.eval_error_s",
          "core.driver_self_s")


def rung(fn, calls: int = 50) -> float:
    """Median seconds of ``calls`` back-to-back calls of ``fn``."""
    fn()  # first call pays lazy plans and allocations; not the steady state
    times = []
    for _ in range(calls):
        t0 = perf_counter()
        fn()
        times.append(perf_counter() - t0)
    return median(times)


def solver_rung(solve, min_iterations: int = 50, min_solves: int = 5) -> tuple[float, int]:
    """``(median seconds per Krylov iteration, iterations of one solve)``
    over repeated identical solves totalling at least ``min_iterations``."""
    per_iter, total, iters = [], 0, 0
    while total < min_iterations or len(per_iter) < min_solves:
        t0 = perf_counter()
        res = solve()
        wall = perf_counter() - t0
        iters = int(res.iterations)
        if not iters:
            return 0.0, 0
        per_iter.append(wall / iters)
        total += iters
    return median(per_iter), iters


def isolated_rungs(dft, coulomb, cfg, seed: int) -> tuple[dict, dict]:
    """Per-layer medians on seeded blocks of the workload's own system, and
    what they were measured on."""
    h, n_d = dft.hamiltonian, dft.grid.n_points
    rng = np.random.default_rng(seed)
    z16 = rng.standard_normal((n_d, 16)) + 1j * rng.standard_normal((n_d, 16))
    z1 = np.ascontiguousarray(z16[:, :1])
    real = rng.standard_normal((n_d, cfg.n_eig))
    rhs4 = real[:, :4]
    psi, eps = dft.occupied_orbitals, dft.occupied_energies
    omega = float(transformed_gauss_legendre(cfg.n_quadrature).points.min())
    out = {}

    copy, copy_bytes = machine.copy_gbps(z16.shape)
    kinetic = (FourierLaplacian if h.kinetic_backend == "fft"
               else StencilLaplacian)(dft.grid, h.radius)
    t = rung(lambda: kinetic.apply(z16))
    out["grid.kinetic_apply_us"] = 1e6 * t
    out["grid.kinetic_gbps"] = 2 * z16.nbytes / t / 1e9  # computed: block read + written once
    out["grid.kinetic_bw_frac"] = out["grid.kinetic_gbps"] / copy
    out["machine.copy_gbps"] = copy
    out["grid.nu_sqrt_apply_us"] = 1e6 * rung(lambda: coulomb.apply_nu_sqrt(real))
    out["dft.h_apply_s1_us"] = 1e6 * rung(lambda: h.apply(z1))
    out["dft.h_apply_s16_us"] = 1e6 * rung(lambda: h.apply(z16))
    nl = h.nonlocal_part
    out["dft.nonlocal_apply_us"] = (
        1e6 * rung(lambda: nl.apply(z16)) if nl is not None and nl.n_projectors else 0.0)

    homo = dft.n_occupied - 1
    a_homo = h.shifted(float(eps[homo]), omega)
    b_homo = -(rhs4 * psi[:, homo:homo + 1])
    t, iters = solver_rung(lambda: block_cocg_solve(
        a_homo, b_homo, tol=cfg.tol_sternheimer,
        max_iterations=cfg.max_cocg_iterations, n=n_d))
    out["solvers.block_cocg_iter_us"], out["solvers.block_cocg_iters"] = 1e6 * t, iters

    fused = BatchedShiftedOperator(h, np.repeat(-eps + 1j * omega, 4), n=n_d)
    b_all = np.concatenate([-(rhs4 * psi[:, j:j + 1]) for j in range(dft.n_occupied)], axis=1)
    t, iters = solver_rung(lambda: batched_cocg_solve(
        fused, b_all, tol=cfg.tol_sternheimer, max_iterations=cfg.max_cocg_iterations))
    out["solvers.batched_cocg_iter_us"], out["solvers.batched_cocg_iters"] = 1e6 * t, iters

    chi0 = Chi0Operator(
        h, psi, eps, coulomb, tol=cfg.tol_sternheimer,
        max_iterations=cfg.max_cocg_iterations,
        use_galerkin_guess=cfg.use_galerkin_guess,
        dynamic_block_size=cfg.dynamic_block_size,
        fixed_block_size=cfg.fixed_block_size, max_block_size=cfg.max_block_size,
        use_batched=cfg.batched_sternheimer, solve_dtype=cfg.solve_dtype)
    chi0.apply_chi0(real, omega)
    out["core.chi0_apply_matvecs"] = chi0.stats.n_matvec
    out["core.chi0_apply_ms"] = 1e3 * rung(lambda: chi0.apply_chi0(real, omega), calls=5)
    return out, {"omega": omega, "block_shape": list(z16.shape),
                 "block_bytes": copy_bytes, "kinetic_backend": h.kinetic_backend}


def _bucket(result, name: str) -> float:
    """A Fig. 5 kernel bucket from either driver's public result."""
    if hasattr(result, "timers"):
        return result.timers.get(name)
    return float(result.breakdown.get(name, 0.0))


def run(workload: Workload, seed: int, smoke: bool, trace_path) -> dict:
    system = SYSTEMS[workload.smoke_system if smoke else workload.system]
    reference = None if smoke else reference_energy(workload.name)
    cfg = workload.config()
    rec = SpanRecorder(workload.name)
    m = dict.fromkeys(UNITS, 0.0)
    calib_before = machine.calib_ms()

    with rec.span("setup"):
        dft, coulomb = system.build(rec.span)
    m["dft.scf_s"] = busy(rec.spans, "dft.run_scf")[1]
    m["dft.scf_iterations"] = dft.n_iterations
    m["grid.coulomb_build_s"] = busy(rec.spans, "grid.coulomb_build")[1]

    gc.collect()
    t0 = perf_counter()
    plain = workload.sweep(dft, coulomb)
    untraced_wall = perf_counter() - t0

    rec.wrap(dft.hamiltonian, "apply", "dft.hamiltonian.apply")
    rec.wrap(coulomb, "apply_nu_sqrt", "coulomb.apply_nu_sqrt")
    gc.collect()
    with rec.span("sweep") as sw:
        traced = workload.sweep(dft, coulomb)
    serial = None
    if workload.spmd_workers:
        # The same problem on one process, for the parallel efficiency.
        gc.collect()
        with rec.span("sweep.serial") as sw_serial:
            serial = compute_rpa_energy(dft, cfg, coulomb=coulomb)
    rec.unwrap_all()

    sweep_s = sw["end"] - sw["start"]
    h_calls, h_busy = busy(rec.spans, "dft.hamiltonian.apply", under=sw["id"])
    nu_calls, nu_busy = busy(rec.spans, "coulomb.apply_nu_sqrt", under=sw["id"])
    buckets = {k: _bucket(traced, k)
               for k in ("chi0_apply", "matmult", "eigensolve", "eval_error")}
    m["core.traced_sweep_s"] = sweep_s
    m["dft.h_apply_calls"], m["dft.h_apply_busy_s"] = h_calls, h_busy
    m["grid.nu_sqrt_calls"], m["grid.nu_sqrt_busy_s"] = nu_calls, nu_busy
    m["core.chi0_busy_s"] = buckets["chi0_apply"]
    for k in ("matmult", "eigensolve", "eval_error"):
        m[f"core.{k}_s"] = buckets[k]
    if not workload.spmd_workers:
        # Every H apply of a sweep happens inside a chi0 apply (nu^{1/2}
        # brackets it), so what is left of chi0 is the solvers' own time.
        # Under SPMD the applies run in the workers, out of the wrappers' sight.
        m["solvers.self_s"] = buckets["chi0_apply"] - h_busy
    # What neither a bucket nor nu^{1/2} (outside every bucket) claims is the
    # driver's own time: the residual that closes the ladder.
    m["core.driver_self_s"] = sweep_s - nu_busy - sum(buckets.values())
    m["core.sweep_matvecs"] = int(traced.stats.n_matvec)
    m["core.filter_iterations"] = sum(p.filter_iterations for p in traced.points)
    m["core.point_wall_max_s"] = max(
        getattr(p, "elapsed_seconds", getattr(p, "simulated_seconds", 0.0))
        for p in traced.points)
    m["obs.trace_overhead_frac"] = sweep_s / untraced_wall - 1.0
    if serial is not None:
        m["parallel.comm_s"] = traced.comm_seconds
        m["parallel.imbalance_s"] = traced.imbalance_seconds
        m["parallel.efficiency"] = (
            (sw_serial["end"] - sw_serial["start"]) / (workload.spmd_workers * sweep_s))

    rungs, rung_info = isolated_rungs(dft, coulomb, cfg, seed)
    m.update(rungs)
    calib_after = machine.calib_ms()
    m["machine.calib_ms"] = median([calib_before, calib_after])
    rec.write_jsonl(trace_path)

    verdicts = [sweep_failures(workload, s, reference) for s in (plain, traced)]
    if serial is not None:
        verdicts.append(sweep_failures(workload, serial, None))
    failures = [f"sweep {i}: {why}" for i, v in enumerate(verdicts) for why in v]
    if plain.stats.n_matvec != traced.stats.n_matvec:
        failures.append(f"matvecs differ between the untraced and the traced sweep: "
                        f"{plain.stats.n_matvec} vs {traced.stats.n_matvec}")
    if not workload.spmd_workers:
        # The timers the public result returns and the two wrapped calls must
        # account for the sweep: neither leave more than 5 % of it unexplained
        # nor claim more than there was (a negative residual or row).
        if abs(m["core.driver_self_s"]) > UNEXPLAINED_MAX * sweep_s:
            failures.append(f"{m['core.driver_self_s']:.3f} s of the {sweep_s:.3f} s traced "
                            f"sweep is in no layer row (limit {UNEXPLAINED_MAX:.0%})")
        negative = [k for k in LADDER if m[k] < -0.01 * sweep_s]
        if negative:
            failures.append(f"layer rows below zero: {negative}")
    if not smoke and h_busy < workload.h_apply_share_min * sweep_s:
        failures.append(f"H-apply is {h_busy / sweep_s:.0%} of the traced sweep; this "
                        f"workload exists to stress it (>{workload.h_apply_share_min:.0%})")

    return {
        "mode": "traced",
        "workload": workload.name,
        "smoke": smoke,
        "seed": seed,  # seeds the isolated rungs' blocks, nothing else
        "metrics": {k: {"value": m[k], "unit": UNITS[k]} for k in UNITS},
        "ladder_rows": list(LADDER),
        "h_apply_share": h_busy / sweep_s,
        "untraced_sweep_s": untraced_wall,
        "rungs": rung_info,
        "spans": {"n": len(rec.spans), "path": str(trace_path)},
        "ops_attempted": len(verdicts),
        "ops_failed": sum(bool(v) for v in verdicts),
        "correct": not failures,
        "failures": failures,
        "pin_applied": reference is not None,
        "calib_ms": {"before": calib_before, "after": calib_after},
    }
