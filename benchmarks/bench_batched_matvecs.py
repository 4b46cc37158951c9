"""Batched multi-orbital Sternheimer kernel — wall-clock per chi0 apply.

Times ``Chi0Operator.apply_chi0`` on the scaled Si8 system (n_d = 343,
n_s = 16 occupied orbitals — enough orbitals for the fused apply to matter)
three ways:

* serial: the historical per-orbital solve loop,
* batched: all 16 orbitals fused into one wide COCG solve
  (one shared Hamiltonian apply per iteration),
* batched + float32_ir: one fused complex64 pass, finished by the
  float64 recurrence from its iterate.

Acceptance criteria (ISSUE 7): the batched kernel is >= 1.5x faster per
chi0 apply than the serial loop, and a full 2-point-quadrature RPA energy
run agrees with the cold path to <= 1e-9 Ha/atom for both batched
variants. Results land in ``BENCH_batched.json`` at the repository root
(and in ``benchmarks/out/`` as text) for the CI bench-regress artifact.
"""

import dataclasses
import json
import pathlib
import time

import numpy as np

from repro.config import RPAConfig
from repro.core import compute_rpa_energy
from repro.core.sternheimer import Chi0Operator

from benchmarks.conftest import write_report

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent
RESULT_JSON = REPO_ROOT / "BENCH_batched.json"

N_EIG = 8
N_QUADRATURE = 2
TOL_STERNHEIMER = 1e-10
TOL_SUBSPACE = 1e-8
APPLY_TOL = 1e-8
N_APPLY_COLUMNS = 8
APPLY_REPEATS = 3
SPEEDUP_MIN = 1.5
ENERGY_AGREEMENT_MAX = 1e-9


def _time_apply(op, V, omega=0.5, repeats=APPLY_REPEATS):
    """Best-of-``repeats`` wall-clock for one chi0 apply (plus the result)."""
    best, out = np.inf, None
    for _ in range(repeats):
        t0 = time.perf_counter()
        out = op.apply_chi0(V, omega=omega)
        best = min(best, time.perf_counter() - t0)
    return best, out


def _measure(dft, coulomb):
    args = (dft.hamiltonian, dft.occupied_orbitals, dft.occupied_energies,
            coulomb)
    rng = np.random.default_rng(0)
    V = rng.standard_normal((dft.grid.n_points, N_APPLY_COLUMNS))

    serial = Chi0Operator(*args, tol=APPLY_TOL)
    t_serial, ref = _time_apply(serial, V)
    batched = Chi0Operator(*args, tol=APPLY_TOL, use_batched=True)
    t_batched, out_b = _time_apply(batched, V)
    batched_ir = Chi0Operator(*args, tol=APPLY_TOL, use_batched=True,
                              solve_dtype="float32_ir")
    t_ir, out_ir = _time_apply(batched_ir, V)

    apply_dev = {
        "batched": float(np.linalg.norm(out_b - ref) / np.linalg.norm(ref)),
        "batched_f32_ir": float(np.linalg.norm(out_ir - ref) / np.linalg.norm(ref)),
    }

    cfg = RPAConfig(n_eig=N_EIG, n_quadrature=N_QUADRATURE, seed=1,
                    tol_sternheimer=TOL_STERNHEIMER,
                    tol_subspace=TOL_SUBSPACE)
    cold = compute_rpa_energy(dft, cfg, coulomb=coulomb)
    warm = compute_rpa_energy(
        dft, dataclasses.replace(cfg, batched_sternheimer=True),
        coulomb=coulomb)
    warm_ir = compute_rpa_energy(
        dft, dataclasses.replace(cfg, batched_sternheimer=True,
                                 solve_dtype="float32_ir"),
        coulomb=coulomb)
    return {
        "t_serial": t_serial, "t_batched": t_batched, "t_ir": t_ir,
        "apply_dev": apply_dev,
        "cold": cold, "warm": warm, "warm_ir": warm_ir,
        "batched_stats": batched.stats, "ir_stats": batched_ir.stats,
    }


def test_batched_apply_speedup(benchmark, si8_small):
    dft, coulomb = si8_small

    m = benchmark.pedantic(lambda: _measure(dft, coulomb),
                           rounds=1, iterations=1)

    speedup = m["t_serial"] / m["t_batched"]
    speedup_ir = m["t_serial"] / m["t_ir"]
    cold, warm, warm_ir = m["cold"], m["warm"], m["warm_ir"]
    de = abs(warm.energy_per_atom - cold.energy_per_atom)
    de_ir = abs(warm_ir.energy_per_atom - cold.energy_per_atom)
    passed = bool(speedup >= SPEEDUP_MIN
                  and de <= ENERGY_AGREEMENT_MAX
                  and de_ir <= ENERGY_AGREEMENT_MAX)

    payload = {
        "benchmark": "batched_matvecs",
        "system": dft.crystal.label,
        "n_atoms": dft.crystal.n_atoms,
        "n_points": dft.grid.n_points,
        "n_occupied": dft.n_occupied,
        "apply": {
            "n_columns": N_APPLY_COLUMNS,
            "tol": APPLY_TOL,
            "serial_seconds": m["t_serial"],
            "batched_seconds": m["t_batched"],
            "batched_f32_ir_seconds": m["t_ir"],
            "speedup_batched": speedup,
            "speedup_batched_f32_ir": speedup_ir,
            "relative_deviation": m["apply_dev"],
        },
        "energy": {
            "n_eig": N_EIG,
            "n_quadrature": N_QUADRATURE,
            "tol_sternheimer": TOL_STERNHEIMER,
            "cold_ha_per_atom": cold.energy_per_atom,
            "batched_ha_per_atom": warm.energy_per_atom,
            "batched_f32_ir_ha_per_atom": warm_ir.energy_per_atom,
            "deviation_batched_ha_per_atom": de,
            "deviation_batched_f32_ir_ha_per_atom": de_ir,
        },
        "batched_counters": {
            "n_batched_solves": m["batched_stats"].n_batched_solves,
            "n_batched_applies": m["batched_stats"].n_batched_applies,
            "n_ir_fallbacks": m["ir_stats"].n_ir_fallbacks,
        },
        "criteria": {
            "speedup_min": SPEEDUP_MIN,
            "energy_agreement_max_ha_per_atom": ENERGY_AGREEMENT_MAX,
        },
        "passed": passed,
    }
    RESULT_JSON.write_text(json.dumps(payload, indent=2) + "\n")

    benchmark.extra_info.update(
        speedup_batched=speedup, speedup_batched_f32_ir=speedup_ir,
        energy_deviation=de, energy_deviation_f32_ir=de_ir)

    lines = [
        f"Batched multi-orbital Sternheimer kernel ({dft.crystal.label}, "
        f"n_d = {dft.grid.n_points}, n_s = {dft.n_occupied}, "
        f"{N_APPLY_COLUMNS}-column chi0 apply at tol = {APPLY_TOL:g})",
        f"serial per-orbital loop:  {m['t_serial'] * 1e3:8.1f} ms / apply",
        f"batched (float64):        {m['t_batched'] * 1e3:8.1f} ms / apply "
        f"({speedup:.2f}x, criterion: >= {SPEEDUP_MIN:g}x)",
        f"batched (float32 + IR):   {m['t_ir'] * 1e3:8.1f} ms / apply "
        f"({speedup_ir:.2f}x)",
        f"energy ({N_QUADRATURE}-pt quadrature, tol {TOL_STERNHEIMER:g}): "
        f"cold {cold.energy_per_atom:+.9e} Ha/atom",
        f"  batched deviation:        {de:.3e} Ha/atom "
        f"(criterion: <= {ENERGY_AGREEMENT_MAX:g})",
        f"  batched f32+IR deviation: {de_ir:.3e} Ha/atom",
        f"IR counters: {m['ir_stats'].n_ir_fallbacks} fallbacks",
        f"[json written to {RESULT_JSON}]",
    ]
    write_report("batched_matvecs", "\n".join(lines))

    assert de <= ENERGY_AGREEMENT_MAX, (
        f"batched energy drifted {de:.3e} Ha/atom from the cold run")
    assert de_ir <= ENERGY_AGREEMENT_MAX, (
        f"f32+IR energy drifted {de_ir:.3e} Ha/atom from the cold run")
    assert speedup >= SPEEDUP_MIN, (
        f"batched speedup {speedup:.2f}x below the {SPEEDUP_MIN:g}x criterion")
