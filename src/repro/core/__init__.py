"""The paper's primary contribution: real-space RPA via Krylov solvers.

Frequency quadrature (Table II), Sternheimer chi0 applications backed by
block COCG with dynamic block sizing, warm-started filtered subspace
iteration (Algorithms 2/5), trace estimators, the Algorithm 6 driver, and
the quartic-scaling direct baseline (Adler-Wiser / ABINIT-style).
"""

from repro.core.chi0_direct import (
    build_chi0_dense,
    nu_chi0_eigenvalues_dense,
    symmetrized_chi0_dense,
)
from repro.core.direct_rpa import DirectRPAResult, compute_rpa_energy_direct
from repro.core.frequency_grids import (
    double_exponential,
    transformed_clenshaw_curtis,
    truncated_trapezoid,
)
from repro.core.quadrature import (
    PAPER_TABLE_II,
    FrequencyQuadrature,
    transformed_gauss_legendre,
)
from repro.core.rpa_energy import (
    FrequencyPointStats,
    RPAEnergyResult,
    compute_rpa_energy,
)
from repro.core.scheduler import Scheduler, SerialScheduler
from repro.core.ssa import (
    SUBSPACE_MODES,
    exterior_eigenvalue_estimate,
    frozen_subspace_point,
)
from repro.core.sternheimer import Chi0Operator, SternheimerStats
from repro.core.subspace import SubspaceResult, filtered_subspace_iteration
from repro.core.trace import (
    block_lanczos_trace,
    hutchinson_trace,
    rpa_integrand,
    trace_from_eigenvalues,
)

__all__ = [
    "FrequencyQuadrature",
    "transformed_gauss_legendre",
    "PAPER_TABLE_II",
    "transformed_clenshaw_curtis",
    "double_exponential",
    "truncated_trapezoid",
    "build_chi0_dense",
    "symmetrized_chi0_dense",
    "nu_chi0_eigenvalues_dense",
    "Chi0Operator",
    "SternheimerStats",
    "SubspaceResult",
    "filtered_subspace_iteration",
    "rpa_integrand",
    "trace_from_eigenvalues",
    "block_lanczos_trace",
    "hutchinson_trace",
    "FrequencyPointStats",
    "SUBSPACE_MODES",
    "exterior_eigenvalue_estimate",
    "frozen_subspace_point",
    "RPAEnergyResult",
    "compute_rpa_energy",
    "Scheduler",
    "SerialScheduler",
    "DirectRPAResult",
    "compute_rpa_energy_direct",
]
