"""repro — real-space RPA correlation energy via block Krylov solvers.

A from-scratch Python reproduction of *Many-Body Electronic Correlation
Energy using Krylov Subspace Linear Solvers* (Shah, Zhang, Huang, Pask,
Suryanarayana, Chow — SC 2024).

Subpackages
-----------
``repro.grid``
    Real-space finite-difference substrate (meshes, high-order Laplacians,
    Coulomb operator ``nu`` and ``nu^{1/2}``).
``repro.solvers``
    Krylov solvers, including the paper's block COCG (Algorithm 3), dynamic
    block-size selection (Algorithm 4) and the Galerkin initial guess (Eq. 13).
``repro.dft``
    Kohn-Sham DFT substrate standing in for SPARC (pseudopotentials, LDA,
    SCF, CheFSI) producing the occupied orbitals the RPA stage consumes.
``repro.core``
    The paper's contribution: quadrature, Sternheimer chi0 applications,
    filtered subspace iteration, trace estimation, the Algorithm 6 driver,
    and the quartic-scaling direct baseline.
``repro.parallel``
    Simulated-MPI runtime (virtual clocks, Hockney communication model,
    block-column distribution, ScaLAPACK-like kernels) reproducing the
    paper's scaling studies, plus a real shared-memory SPMD backend.
``repro.analysis``
    Complexity fits and paper-style reporting helpers.
"""

from repro.config import PAPER_PARAMS, PaperParams, RPAConfig

__version__ = "1.0.0"

__all__ = ["RPAConfig", "PaperParams", "PAPER_PARAMS", "__version__"]
