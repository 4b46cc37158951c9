#!/usr/bin/env python
"""RPA correlation energy of the paper's Si8 system (laptop-scaled).

Reproduces the workflow behind the paper's Si8.out artifact: SCF on the
perturbed 8-atom diamond silicon cell, then the warm-started RPA sweep over
the 8 Table II quadrature points, printing the same per-omega blocks the
paper's log shows (E_k term, extreme eigenvalues of nu chi0, subspace
error, timing).

The mesh is coarsened from the paper's 15 points per cell edge (n_d = 3375,
n_eig = 768) to keep a pure-Python run in seconds; pass --full for the
paper-size grid (minutes).

Run:  python examples/silicon_rpa.py [--full] [--n-rep N]
"""

import argparse
import time

from repro.config import RPAConfig
from repro.core import compute_rpa_energy
from repro.dft import run_scf, scaled_silicon_crystal, silicon_crystal
from repro.grid import CoulombOperator


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--full", action="store_true",
                        help="paper-size 15^3 grid per cell (slow)")
    parser.add_argument("--n-rep", type=int, default=1,
                        help="number of 8-atom cells along x (Table III)")
    parser.add_argument("--n-eig-per-atom", type=int, default=None,
                        help="eigenpairs of nu chi0 per atom (paper: 96)")
    args = parser.parse_args()

    if args.full:
        crystal = silicon_crystal(args.n_rep, perturbation=0.02, seed=7)
        grid = crystal.make_grid(10.26 / 15)
        n_eig_per_atom = args.n_eig_per_atom or 96
        radius = 4
    else:
        crystal, grid = scaled_silicon_crystal(args.n_rep, points_per_edge=9,
                                               perturbation=0.01, seed=11)
        n_eig_per_atom = args.n_eig_per_atom or 6
        radius = 3

    n_eig = n_eig_per_atom * crystal.n_atoms
    print(f"System: {crystal.label} ({crystal.n_atoms} atoms), grid {grid.shape} "
          f"-> n_d = {grid.n_points}, n_eig = {n_eig}")

    t0 = time.perf_counter()
    dft = run_scf(crystal, grid, radius=radius, tol=1e-6, max_iterations=80)
    print(f"SCF: converged={dft.converged} in {dft.n_iterations} iters "
          f"({time.perf_counter() - t0:.1f} s); n_s = {dft.n_occupied}, "
          f"gap = {dft.gap:.4f} Ha")

    coulomb = CoulombOperator(grid, radius=radius)
    config = RPAConfig(n_eig=min(n_eig, grid.n_points), seed=1)
    rpa = compute_rpa_energy(dft, config, coulomb=coulomb)

    # Paper-style per-omega log blocks.
    for p in rpa.points:
        print("*" * 66)
        print(f"omega {p.index} (value {p.omega:.3f}, weight {p.weight:.3f})")
        mu = p.eigenvalues
        print(f"ncheb {p.filter_iterations} | ErpaTerm {p.energy_term / rpa.n_atoms:.3e} "
              f"Ha/atom | First 2 eigs {mu[0]:.5f} {mu[1]:.5f} ; "
              f"Last 2 eigs {mu[-2]:.5f} {mu[-1]:.5f} | "
              f"eig Error {p.error:.3e} | Timing (s) {p.elapsed_seconds:.2f}"
              + ("  [filtering skipped]" if p.filter_iterations == 0 else ""))
    print("*" * 66)
    print(f"Total RPA correlation energy: {rpa.energy:.5e} (Ha), "
          f"{rpa.energy_per_atom:.5e} (Ha/atom)")
    print(f"Total walltime : {rpa.elapsed_seconds:.3f} sec")
    print(f"Block size frequencies (Table IV analogue): "
          f"{dict(sorted(rpa.stats.block_size_counts.items()))}")


if __name__ == "__main__":
    main()
