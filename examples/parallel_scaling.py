#!/usr/bin/env python
"""Simulated strong scaling of the RPA pipeline (Figures 4 and 5).

Runs the distributed Algorithm 6 on simulated MPI ranks: every rank's
Sternheimer work is executed for real and timed, communication and
ScaLAPACK kernels are charged from the PACE-Phoenix-calibrated cost models.
Prints the strong-scaling table (Figure 4's data) and the per-kernel
breakdown (Figure 5's data), then runs the same sweep on the *real*
shared-memory SPMD backend for actual wall-clock time on this machine.

Run:  python examples/parallel_scaling.py
"""

import os

import numpy as np

from repro.analysis import format_table, parallel_efficiency
from repro.config import RPAConfig
from repro.dft import run_scf, scaled_silicon_crystal
from repro.grid import CoulombOperator
from repro.parallel import compute_rpa_energy_parallel


def main() -> None:
    crystal, grid = scaled_silicon_crystal(1, points_per_edge=9,
                                           perturbation=0.03, seed=11)
    dft = run_scf(crystal, grid, radius=3, tol=1e-6, max_iterations=80)
    coulomb = CoulombOperator(grid, radius=3)
    config = RPAConfig(n_eig=64, n_quadrature=4, seed=1)
    print(f"System: {crystal.label}, n_d = {grid.n_points}, "
          f"n_s = {dft.n_occupied}, n_eig = {config.n_eig}")

    # -- Figure 4: simulated strong scaling ---------------------------------
    ranks = [1, 2, 4, 8, 16]
    rows = []
    walltimes = []
    breakdowns = {}
    energy = None
    for p in ranks:
        res = compute_rpa_energy_parallel(dft, config, n_ranks=p, coulomb=coulomb)
        walltimes.append(res.simulated_walltime)
        breakdowns[p] = res.breakdown
        energy = res.energy
        rows.append([p, round(res.simulated_walltime, 3),
                     round(res.comm_seconds * 1e3, 3),
                     round(res.imbalance_seconds, 3), res.block_size_cap])
    eff = parallel_efficiency(np.array(ranks, dtype=float), np.array(walltimes))
    for row, e in zip(rows, eff):
        row.append(f"{100 * e:.0f}%")
    print()
    print(format_table(
        ["ranks", "sim time (s)", "comm (ms)", "imbalance (s)", "s cap", "efficiency"],
        rows,
        title="Simulated strong scaling (Figure 4 analogue)",
    ))
    print(f"E_RPA = {energy:.6e} Ha (identical on every rank count)")

    # -- Figure 5: kernel breakdown ------------------------------------------
    kernels = ["chi0_apply", "matmult", "eigensolve", "eval_error"]
    rows = [[p] + [round(breakdowns[p][k], 4) for k in kernels] for p in ranks]
    print()
    print(format_table(["ranks"] + kernels, rows,
                       title="Per-kernel simulated time (Figure 5 analogue)"))

    # -- real SPMD backend ---------------------------------------------------
    workers = min(4, os.cpu_count() or 1)
    print("\nReal shared-memory SPMD workers (measured, not modeled):")
    for p in sorted({1, workers}):
        res = compute_rpa_energy_parallel(dft, config, coulomb=coulomb,
                                          backend="spmd", n_workers=p)
        print(f"  {p} worker(s): wall {res.elapsed_seconds:.2f} s, "
              f"comm {res.comm_seconds:.2f} s, E_RPA = {res.energy:.6e} Ha")


if __name__ == "__main__":
    main()
