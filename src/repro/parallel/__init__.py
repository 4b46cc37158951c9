"""Execution backends for the RPA sweep: simulated MPI and real workers.

Reproduces the paper's parallelization structure (Section III-D) without an
MPI installation: per-rank work is executed for real and timed on virtual
clocks; communication and ScaLAPACK kernels are charged from calibrated
cost models. Figures 4-6 regenerate from these simulated walltimes. The
``spmd`` backend runs the same sweep on real worker processes.

Both backends share one manager-worker recovery policy, the paper's
Section V future work (``executor._SliceAssignment``): ranks start on the
static block-column layout, and a failed rank's column slices move to the
least-loaded survivor.
"""

from repro.parallel.costmodel import (
    PACE_PHOENIX,
    MachineProfile,
    allgather_time,
    allreduce_time,
    eigensolve_parallel_time,
    matmult_parallel_time,
    p2p_time,
    redistribution_time,
)
from repro.parallel.distribution import (
    BlockColumnDistribution,
    block_cyclic_redistribution_bytes,
)
from repro.core.scheduler import Scheduler, SerialScheduler
from repro.parallel.executor import (
    SimulatedScheduler,
    WorkerRecoveryError,
    make_scheduler,
)
from repro.parallel.rpa_parallel import (
    PARALLEL_BACKENDS,
    compute_rpa_energy_parallel,
)
from repro.parallel.virtual_clock import VirtualClocks

__all__ = [
    "MachineProfile",
    "PACE_PHOENIX",
    "p2p_time",
    "allreduce_time",
    "allgather_time",
    "redistribution_time",
    "matmult_parallel_time",
    "eigensolve_parallel_time",
    "VirtualClocks",
    "BlockColumnDistribution",
    "block_cyclic_redistribution_bytes",
    "Scheduler",
    "SerialScheduler",
    "SimulatedScheduler",
    "make_scheduler",
    "PARALLEL_BACKENDS",
    "WorkerRecoveryError",
    "compute_rpa_energy_parallel",
]
