"""Writer for the artifact's ``.out`` log format.

Renders an :class:`repro.core.rpa_energy.RPAEnergyResult` in the structure
of the artifact's ``Si8.out``: a parallelization banner, one block per
(q-point, omega) pair with the per-filter-iteration table, the per-omega
energy terms, the total RPA correlation energy, and the walltime.
"""

from __future__ import annotations

import numpy as np

from repro.core.rpa_energy import RPAEnergyResult

_RULE = "*" * 66


def format_output_log(result: RPAEnergyResult, n_ranks: int = 1,
                      memory_mb: float | None = None) -> str:
    """Render the artifact-style output log as a string."""
    lines: list[str] = []
    lines.append(_RULE)
    lines.append("                    RPA Parallelization")
    lines.append(_RULE)
    lines.append(f"NP_NUCHI_EIGS_PARAL_RPA: {n_ranks}")
    lines.append("NP_SPIN_PARAL_RPA: 1")
    lines.append("NP_KPOINT_PARAL_RPA: 1")
    lines.append("NP_BAND_PARAL_RPA: 1")
    lines.append(_RULE)
    if memory_mb is not None:
        lines.append(f"Estimated memory usage in RPA calculation is {memory_mb:.2f} MB")
        lines.append(_RULE)

    quad = result.quadrature
    for p in result.points:
        lines.append(_RULE)
        lines.append("q-point 1 (reduced coords 0.000 0.000 0.000), weight 1.000")
        unit_pt = quad.unit_points[p.index - 1]
        unit_w = quad.unit_weights[p.index - 1]
        lines.append(
            f"omega {p.index} (value {p.omega:.3f}, 0~1 value {unit_pt:.3f}, "
            f"weight {unit_w:.3f})"
        )
        lines.append(
            "ncheb | ErpaTerm (Ha/atom) | First 2 eigs & Last 2 eigs of nu chi0 "
            "| eig Error | Timing (s) | mode"
        )
        mu = p.eigenvalues
        lines.append(
            f" {p.filter_iterations:d}\t{p.energy_term / result.n_atoms: .3E}"
            f"\t{mu[0]: .5f} {mu[1]: .5f} ; {mu[-2]: .5f} {mu[-1]: .5f}"
            f"  {p.error:.3E}  {p.elapsed_seconds:.2f}  {p.subspace_mode}"
        )

    lines.append(_RULE)
    lines.append("Energy terms in every (qpt, omega) pair (Ha)")
    lines.append("q-point 1")
    contributions = [
        f"omega {p.index}: {p.energy_contribution: .5E},"
        for p in result.points
    ]
    for start in range(0, len(contributions), 3):
        lines.append(" ".join(contributions[start:start + 3]))
    lines.append(
        f"Total RPA correlation energy: {result.energy: .5E} (Ha), "
        f"{result.energy_per_atom: .5E} (Ha/atom)"
    )
    lines.append(
        f"Ignored occupation (pairs outside the first n_s orbitals' "
        f"integer filling): {result.ignored_occupation:.3E}"
    )
    lines.append(_RULE)
    lines.append("                        Timing info")
    lines.append(_RULE)
    for name in ("chi0_apply", "matmult", "eigensolve", "eval_error"):
        if name in result.timers.buckets:
            lines.append(f"{name:<12s}: {result.timers.get(name):10.3f} sec")
    lines.append(f"Total walltime : {result.elapsed_seconds:.3f} sec")
    return "\n".join(lines) + "\n"


def estimate_memory_mb(n_d: int, n_eig: int, n_s: int) -> float:
    """Rough RPA working-set estimate mirroring the artifact's banner.

    Dominated by the eigenvector block V and its operator image (real), one
    complex Sternheimer solution block per orbital solve, and the occupied
    orbitals.
    """
    if min(n_d, n_eig, n_s) < 1:
        raise ValueError("dimensions must be positive")
    doubles = (
        2.0 * n_d * n_eig          # V and A V
        + 6.0 * n_d * n_eig        # complex Y, W, P blocks (2 doubles each)
        + n_d * n_s                # occupied orbitals
    )
    return doubles * 8.0 / 2**20
