#!/usr/bin/env python
"""Solver study on real Sternheimer systems (Sections II / III-B).

Builds the coefficient matrices ``A_{j,k} = H - lambda_j I + i omega_k I``
from an actual silicon Hamiltonian and compares, across easy and hard
(j, k) index pairs:

* block COCG at s = 1 (single-vector COCG) column by column vs block
  COCG at several block sizes,
* GMRES (no short recurrence) as the general-purpose baseline,
* the effect of the Eq. 13 Galerkin deflating guess.

Run:  python examples/solver_comparison.py
"""

import time

import numpy as np

from repro.analysis import format_table
from repro.core import transformed_gauss_legendre
from repro.dft import run_scf, scaled_silicon_crystal
from repro.solvers import (
    block_cocg_solve,
    galerkin_initial_guess,
    gmres_solve,
)

TOL = 1e-6
N_RHS = 8


def main() -> None:
    crystal, grid = scaled_silicon_crystal(1, points_per_edge=9,
                                           perturbation=0.01, seed=11)
    dft = run_scf(crystal, grid, radius=3, tol=1e-6, max_iterations=80)
    h = dft.hamiltonian
    psi, eps = dft.occupied_orbitals, dft.occupied_energies
    quad = transformed_gauss_legendre(8)
    rng = np.random.default_rng(0)
    V = rng.standard_normal((grid.n_points, N_RHS))

    # The paper's two extremes: (1, 1) easy, (n_s, l) hard (Section III-B).
    cases = {
        "(1, 1)   easy": (float(eps[0]), float(quad.points[0])),
        "(n_s, l) hard": (float(eps[-1]), float(quad.points[-1])),
    }

    for label, (lam_j, omega) in cases.items():
        apply_a = h.shifted(lam_j, omega)
        B = -(V * psi[:, 0][:, None])  # Sternheimer-shaped right-hand sides
        rows = []

        def bench(name, fn):
            t0 = time.perf_counter()
            out = fn()
            dt = time.perf_counter() - t0
            if isinstance(out, tuple):
                sol, results = out
                iters = sum(r.iterations for r in results)
                conv = all(r.converged for r in results)
                mv = sum(r.n_matvec for r in results)
            else:
                iters, conv, mv = out.iterations, out.converged, out.n_matvec
            rows.append([name, iters, mv, "yes" if conv else "NO", round(dt, 3)])

        bench("block COCG s=1 (column-wise)",
              lambda: _blockwise(apply_a, B, grid.n_points, 1))
        for s in (2, 4, 8):
            bench(f"block COCG (s={s})",
                  lambda s=s: _blockwise(apply_a, B, grid.n_points, s))
        bench("GMRES(50) column-wise", lambda: _gmres_cols(apply_a, B, grid.n_points))
        y0 = galerkin_initial_guess(psi, eps, lam_j, omega, B)
        bench("block COCG (s=8) + Galerkin guess",
              lambda: block_cocg_solve(apply_a, B, x0=y0, tol=TOL,
                                       max_iterations=4000, n=grid.n_points))

        print()
        print(format_table(
            ["solver", "iterations", "matvecs", "converged", "seconds"],
            rows,
            title=f"Sternheimer index pair {label}: lambda_j = {lam_j:.3f}, "
                  f"omega = {omega:.3f}, {N_RHS} right-hand sides, tol = {TOL:g}",
        ))


def _blockwise(apply_a, B, n, s):
    results = []
    sols = np.empty(B.shape, dtype=complex)
    for start in range(0, B.shape[1], s):
        sl = slice(start, start + s)
        r = block_cocg_solve(apply_a, B[:, sl], tol=TOL, max_iterations=4000, n=n)
        results.append(r)
        sols[:, sl] = r.solution
    return sols, results


def _gmres_cols(apply_a, B, n):
    results = []
    sols = []
    for j in range(B.shape[1]):
        r = gmres_solve(apply_a, B[:, j].astype(complex), tol=TOL,
                        max_iterations=4000, restart=50, n=n)
        results.append(r)
        sols.append(r.solution)
    return np.column_stack(sols), results


if __name__ == "__main__":
    main()
