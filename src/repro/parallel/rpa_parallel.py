"""Distributed entry point of the RPA sweep.

There is one Algorithm 6 — :func:`repro.core.rpa_energy.compute_rpa_energy`.
This module validates the parallel arguments, builds the Sternheimer
operator with Section III-D's block-size cap ``s <= n_eig / p``, builds the
execution backend (:func:`repro.parallel.executor.make_scheduler`) and
hands both to that sweep:

* ``simulated`` (default) — the paper's simulated-MPI layer: every rank's
  column slice is *actually executed* sequentially and its measured wall
  time charged to that rank's virtual clock; ScaLAPACK phases and
  collectives are charged through the Fig. 5-calibrated cost models.
  Figures 4, 5 and 6 are regenerated from these simulated walltimes.
* ``serial`` — single-rank execution in the driver process; identical to
  calling ``compute_rpa_energy`` directly.
* ``spmd`` — real shared-memory SPMD workers operating on
  ``multiprocessing.shared_memory`` views of the operands
  (:class:`repro.parallel.spmd.SpmdScheduler`), producing measured —
  not modeled — strong-scaling wall clock.

The scheduler owns only *where* the distributed kernels execute and how
time is accounted, so energies are bitwise equal across backends at equal
rank count (the rank count moves the block-size cap, hence the solver
path).
"""

from __future__ import annotations

from repro.config import RPAConfig
from repro.core.rpa_energy import (
    RPAEnergyResult,
    chi0_operator_from_config,
    compute_rpa_energy,
)
from repro.dft.scf import DFTResult
from repro.grid.coulomb import CoulombOperator
from repro.parallel.costmodel import PACE_PHOENIX, MachineProfile
from repro.parallel.distribution import BlockColumnDistribution
from repro.parallel.executor import make_scheduler

#: Backends accepted by :func:`compute_rpa_energy_parallel`.
PARALLEL_BACKENDS = ("serial", "simulated", "spmd")


def compute_rpa_energy_parallel(
    dft: DFTResult,
    config: RPAConfig,
    n_ranks: int = 1,
    machine: MachineProfile = PACE_PHOENIX,
    coulomb: CoulombOperator | None = None,
    rank_faults: dict[int, int] | None = None,
    backend: str = "simulated",
    n_workers: int | None = None,
    fault_hook=None,
    initial_vectors=None,
    keep_vectors: bool = False,
) -> RPAEnergyResult:
    """Run Algorithm 6 on ``n_ranks`` processors of the chosen backend.

    Parameters
    ----------
    dft:
        Converged ground state.
    config:
        RPA configuration; ``config.max_block_size`` is additionally capped
        at ``n_eig / n_ranks`` per Section III-D.
    n_ranks:
        Processor count; must satisfy ``n_ranks <= n_eig`` for the
        column-distributing backends (``simulated``/``spmd``). ``serial``
        requires 1.
    machine:
        Interconnect/kernel-efficiency profile for the simulated backend
        (default: the paper's PACE-Phoenix). Ignored by the real backends.
    rank_faults:
        Worker deaths: maps rank -> 1-based quadrature-point index at
        whose start the rank dies. Simulated backend: the death is
        virtual (time accounting and trace only). SPMD backend: the
        worker process really exits and recovery re-executes its work.
        Either way its column slice is reassigned to the least-loaded
        surviving rank (manager-worker recovery) and the energies are
        *identical* to the fault-free run. At least one rank must survive.
    backend:
        One of ``serial`` / ``simulated`` / ``spmd``.
    n_workers:
        ``spmd`` only: another spelling of ``n_ranks`` (the worker
        processes *are* the ranks). Giving both, different, is an error.
    fault_hook:
        Test-only per-orbital callable run in ``spmd`` workers before each
        solve (fault injection).
    initial_vectors, keep_vectors:
        As in :func:`repro.core.rpa_energy.compute_rpa_energy`.
    """
    if backend not in PARALLEL_BACKENDS:
        raise ValueError(
            f"unknown backend {backend!r} (expected one of {PARALLEL_BACKENDS})"
        )
    if n_ranks < 1:
        raise ValueError("n_ranks must be >= 1")
    if backend == "serial" and n_ranks != 1:
        raise ValueError("backend='serial' runs on exactly one rank")
    if rank_faults and backend not in ("simulated", "spmd"):
        raise ValueError(
            f"rank_faults require a column-distributing backend "
            f"(simulated/spmd), not {backend!r}"
        )
    if fault_hook is not None and backend != "spmd":
        raise ValueError("fault_hook requires the spmd backend")
    if n_workers is not None:
        if backend != "spmd":
            raise ValueError(
                f"n_workers requires the spmd backend, not {backend!r}")
        if n_workers < 1:
            raise ValueError("n_workers must be >= 1")
        if n_ranks not in (1, n_workers):
            raise ValueError(
                f"n_ranks={n_ranks} and n_workers={n_workers} disagree; "
                f"spmd workers are the ranks, give one of them")
        n_ranks = int(n_workers)
    if backend in ("simulated", "spmd") and n_ranks > config.n_eig:
        raise ValueError(
            f"the paper's distribution requires p <= n_eig (got p={n_ranks}, "
            f"n_eig={config.n_eig})"
        )
    rank_faults = dict(rank_faults or {})
    for r, k_fail in rank_faults.items():
        if not 0 <= r < n_ranks:
            raise ValueError(f"rank_faults names rank {r} but n_ranks = {n_ranks}")
        if k_fail < 1:
            raise ValueError("rank_faults quadrature indices are 1-based")
    if len([r for r, k in rank_faults.items() if k <= config.n_quadrature]) >= n_ranks:
        raise ValueError("rank_faults would kill every rank; one must survive")

    if coulomb is None:
        coulomb = CoulombOperator(dft.grid, radius=dft.hamiltonian.radius)
    block_cap = min(config.max_block_size,
                    BlockColumnDistribution(config.n_eig, n_ranks).max_block_size())
    chi0op = chi0_operator_from_config(dft, config, coulomb,
                                       max_block_size=block_cap)
    # The scheduler owns backend resources (worker processes, shared
    # memory); it is torn down on every exit path. The SPMD backend forks
    # its workers lazily at first use, i.e. inside the sweep, after the
    # verifier and recorder are installed, so workers inherit them.
    with make_scheduler(
        backend, chi0op, n_ranks=n_ranks, width=config.n_eig,
        machine=machine, rank_faults=rank_faults, fault_hook=fault_hook,
    ) as sched:
        return compute_rpa_energy(
            dft, config, scheduler=sched,
            initial_vectors=initial_vectors, keep_vectors=keep_vectors,
        )
