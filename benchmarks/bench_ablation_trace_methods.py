"""Ablation — trace estimators (Section V's Lanczos-quadrature future work).

Compares, at one quadrature point of the scaled Si8 system, the production
partial-eigendecomposition trace against the paper's proposed replacements:
stochastic Lanczos quadrature (block Lanczos at block size 1), its block
variant, and plain Hutchinson via Chebyshev expansion. Reports accuracy
against the dense exact trace and the number of operator columns consumed —
the quantity that governs parallel cost (all probe-based methods are
embarrassingly parallel over probes).
"""

import numpy as np
import scipy.linalg

from repro.analysis import format_table
from repro.core import (
    block_lanczos_trace,
    build_chi0_dense,
    hutchinson_trace,
    symmetrized_chi0_dense,
    trace_from_eigenvalues,
)

from benchmarks.conftest import write_report

OMEGA = 0.69
N_EIG = 64


def test_ablation_trace_methods(benchmark, si8_medium):
    dft, coulomb = si8_medium
    vals, vecs = scipy.linalg.eigh(dft.hamiltonian.to_dense())
    chi0 = build_chi0_dense(vals, vecs, dft.n_occupied, OMEGA)
    sym = symmetrized_chi0_dense(chi0, coulomb)
    mu_all = np.linalg.eigvalsh(sym)
    exact = trace_from_eigenvalues(mu_all)
    n = sym.shape[0]

    counter = {"cols": 0}

    def apply_counted(v):
        counter["cols"] += 1 if v.ndim == 1 else v.shape[1]
        return sym @ v

    def run_all():
        rows = []
        # production: partial eigendecomposition at two truncations — on a
        # 729-point grid these are far smaller spectral fractions than the
        # paper's 768/3375, so truncation error is visible and must shrink
        # with n_eig.
        partial32 = trace_from_eigenvalues(mu_all[:32])
        partial = trace_from_eigenvalues(mu_all[:N_EIG])
        rows.append(["partial eigen (n_eig = 32)", partial32, abs(partial32 - exact), "-"])
        rows.append(["partial eigen (n_eig = 64)", partial, abs(partial - exact), "-"])
        counter["cols"] = 0
        slq = block_lanczos_trace(apply_counted, n=n, block_size=1, n_blocks=12,
                                  lanczos_steps=20, seed=1)
        rows.append(["stochastic Lanczos (12 probes)", slq, abs(slq - exact),
                     counter["cols"]])
        counter["cols"] = 0
        bslq = block_lanczos_trace(apply_counted, n=n, block_size=8,
                                   lanczos_steps=20, n_blocks=2, seed=1)
        rows.append(["block Lanczos (2 x 8 probes)", bslq, abs(bslq - exact),
                     counter["cols"]])
        counter["cols"] = 0
        hutch = hutchinson_trace(apply_counted, n=n,
                                 spectrum_bound=float(mu_all[0]) * 1.1,
                                 n_probes=12, chebyshev_degree=40, seed=1)
        rows.append(["Hutchinson + Chebyshev (12 probes)", hutch,
                     abs(hutch - exact), counter["cols"]])
        return rows

    rows = benchmark.pedantic(run_all, rounds=1, iterations=1)

    by_name = {r[0]: r for r in rows}
    # Truncation error decreases with n_eig (the paper's convergence knob).
    assert by_name["partial eigen (n_eig = 64)"][2] < by_name["partial eigen (n_eig = 32)"][2]
    # The probe-based estimators (the paper's Section V proposal) land
    # within a few percent of the exact trace.
    for name in ("stochastic Lanczos (12 probes)", "block Lanczos (2 x 8 probes)",
                 "Hutchinson + Chebyshev (12 probes)"):
        est, err = by_name[name][1], by_name[name][2]
        assert err < 0.06 * abs(exact) + 5e-3, f"{name}: {est} vs {exact}"

    table = [[name, f"{est:.5f}", f"{err:.2e}", cols] for name, est, err, cols in rows]
    write_report(
        "ablation_trace_methods",
        format_table(
            ["estimator", "Tr f(nu chi0)", "|error|", "operator columns"],
            table,
            title=f"Ablation — trace estimators at omega = {OMEGA} "
                  f"(exact dense trace {exact:.5f}, scaled Si8); the Lanczos "
                  f"routes are the paper's proposed replacement for the "
                  f"poorly-scaling dense eigensolve",
        ),
    )
    benchmark.extra_info["exact"] = float(exact)
