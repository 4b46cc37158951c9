"""Solve recycling — end-to-end matvec savings.

Runs the full 8-point-quadrature RPA pipeline twice on the toy system —
once cold (the historical solver path) and once with the solve-recycling
cache enabled — and verifies the acceptance criteria:

* total Sternheimer matvecs (``stats.n_matvec``) drop by >= 15 %,
* the RPA correlation energy agrees to <= 1e-6 Ha/atom.

Recycling saves 18.0 % here (38 924 -> 31 922 matvecs); the 15 % bar
leaves three points of margin under that measurement.

The Sternheimer tolerance is tightened to 1e-6 (vs the paper's 1e-2) so
the energies are solver-converged on both sides; the recycled guesses
only change the iterate path, never the converged solutions. Results land
in ``BENCH_recycle.json`` at the repository root (and in
``benchmarks/out/`` as text) for the CI artifact.
"""

import dataclasses
import json
import pathlib

from repro.config import RPAConfig
from repro.core import compute_rpa_energy

from benchmarks.conftest import write_report

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent
RESULT_JSON = REPO_ROOT / "BENCH_recycle.json"

N_EIG = 24
N_QUADRATURE = 8
TOL_STERNHEIMER = 1e-6
MATVEC_REDUCTION_MIN = 0.15


def _run_pair(dft, coulomb):
    cold_cfg = RPAConfig(n_eig=N_EIG, n_quadrature=N_QUADRATURE, seed=1,
                         tol_sternheimer=TOL_STERNHEIMER)
    warm_cfg = dataclasses.replace(cold_cfg, use_recycling=True)
    cold = compute_rpa_energy(dft, cold_cfg, coulomb=coulomb)
    warm = compute_rpa_energy(dft, warm_cfg, coulomb=coulomb)
    return cold, warm


def test_recycle_matvec_reduction(benchmark, toy_system):
    dft, coulomb = toy_system

    cold, warm = benchmark.pedantic(lambda: _run_pair(dft, coulomb),
                                    rounds=1, iterations=1)

    reduction = 1.0 - warm.stats.n_matvec / cold.stats.n_matvec
    de_per_atom = abs(warm.energy_per_atom - cold.energy_per_atom)
    r = warm.recycle

    payload = {
        "benchmark": "recycle_matvecs",
        "system": dft.crystal.label,
        "n_atoms": dft.crystal.n_atoms,
        "n_eig": N_EIG,
        "n_quadrature": N_QUADRATURE,
        "tol_sternheimer": TOL_STERNHEIMER,
        "cold": {
            "energy_ha": cold.energy,
            "energy_per_atom_ha": cold.energy_per_atom,
            "n_matvec": cold.stats.n_matvec,
            "elapsed_seconds": cold.elapsed_seconds,
        },
        "recycled": {
            "energy_ha": warm.energy,
            "energy_per_atom_ha": warm.energy_per_atom,
            "n_matvec": warm.stats.n_matvec,
            "elapsed_seconds": warm.elapsed_seconds,
            "recycle": r.as_dict(),
        },
        "matvec_reduction": reduction,
        "energy_agreement_ha_per_atom": de_per_atom,
        "criteria": {
            "matvec_reduction_min": MATVEC_REDUCTION_MIN,
            "energy_agreement_max_ha_per_atom": 1e-6,
        },
        "passed": bool(reduction >= MATVEC_REDUCTION_MIN and de_per_atom <= 1e-6),
    }
    RESULT_JSON.write_text(json.dumps(payload, indent=2) + "\n")

    benchmark.extra_info.update(
        matvec_reduction=reduction, energy_agreement=de_per_atom,
        cold_matvecs=cold.stats.n_matvec, warm_matvecs=warm.stats.n_matvec)

    lines = [
        "Sternheimer solve recycling "
        f"({dft.crystal.label}, {N_QUADRATURE}-point quadrature, "
        f"n_eig = {N_EIG}, tol = {TOL_STERNHEIMER:g})",
        f"cold run:     {cold.stats.n_matvec:8d} matvecs, "
        f"E = {cold.energy_per_atom:+.9e} Ha/atom",
        f"recycled run: {warm.stats.n_matvec:8d} matvecs, "
        f"E = {warm.energy_per_atom:+.9e} Ha/atom",
        f"matvec reduction: {100.0 * reduction:.1f} % "
        f"(criterion: >= {100.0 * MATVEC_REDUCTION_MIN:.0f} %)",
        f"energy agreement: {de_per_atom:.3e} Ha/atom (criterion: <= 1e-6)",
        f"cache: {r.hits} hits, {r.omega_seeds} cross-omega seeds, "
        f"{r.misses} misses, {r.rotations} rotations",
        f"[json written to {RESULT_JSON.relative_to(REPO_ROOT)}]",
    ]
    write_report("recycle_matvecs", "\n".join(lines))

    assert de_per_atom <= 1e-6, (
        f"recycled energy drifted {de_per_atom:.3e} Ha/atom from the cold run")
    assert reduction >= MATVEC_REDUCTION_MIN, (
        f"matvec reduction {100.0 * reduction:.1f}% below the "
        f"{100.0 * MATVEC_REDUCTION_MIN:.0f}% criterion")
