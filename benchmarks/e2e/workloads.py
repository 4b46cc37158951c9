"""The benchmark's workloads: what is built, what is swept, what must come out.

A workload is a system (crystal -> grid -> SCF -> Coulomb operator), an
``RPAConfig`` and a driver (serial, or SPMD on ``spmd_workers`` processes).
``repro`` only ever sees those generated inputs, never a workload name.
Why each workload exists is recorded in ``why`` and, at length, in README.md.
"""

from __future__ import annotations

import json
from contextlib import nullcontext
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from repro.config import RPAConfig
from repro.core import compute_rpa_energy
from repro.dft import GaussianPseudopotential, run_scf
from repro.dft.atoms import Crystal, scaled_silicon_crystal
from repro.grid import CoulombOperator, Grid3D
from repro.parallel import compute_rpa_energy_parallel

#: Pinned energies are compared to this many Hartree.
ENERGY_TOL = 1e-8

#: One RPA problem for every workload, and NOT the paper's: ``tol_subspace``
#: stops at 2e-3 (Table I's first two entries) where the paper goes on to 5e-4,
#: so the energy is 1.5-5e-3 Ha/atom from the paper-tolerance one, outside
#: chemical accuracy. At 5e-4 a sweep costs 17 s (three do not fit the time
#: cap) and the third point converges on the last allowed filter pass or not
#: at all depending on the starting block (findings.json). The starting block
#: is fixed: other blocks change the work by +-14 % and the energy by 4e-3.
RPA = dict(n_eig=16, n_quadrature=4, tol_subspace=(4e-3, 2e-3), seed=1)


@dataclass(frozen=True)
class System:
    """One cold build, crystal to Coulomb operator; ``build(span)`` opens a
    span around each stage when a traced run passes its recorder's ``span``."""

    make_crystal_grid: object
    scf: dict
    radius: int

    def build(self, span=None):
        span = span or (lambda name: nullcontext())
        with span("setup.crystal_grid"):
            crystal, grid = self.make_crystal_grid()
        with span("dft.run_scf"):
            dft = run_scf(crystal, grid, radius=self.radius, **self.scf)
        with span("grid.coulomb_build"):
            coulomb = CoulombOperator(grid, radius=self.radius)
        if not dft.converged:
            raise RuntimeError(f"SCF did not converge for {crystal.label}")
        return dft, coulomb


_X2 = {"X": GaussianPseudopotential("X", z_ion=1.0, r_core=0.7)}
_TOY = {"X": GaussianPseudopotential("X", z_ion=2.0, r_core=0.9)}


def _dimer(points: int, box: float = 10.0, bond: float = 1.6):
    """The X2 dimer of examples/isolated_molecule.py in a Dirichlet box."""
    mid, half = box / 2, bond / 2
    crystal = Crystal(["X", "X"],
                      np.array([[mid - half, mid, mid], [mid + half, mid, mid]]),
                      (box, box, box), label=f"X2(d={bond:.2f})")
    return crystal, Grid3D((points,) * 3, (box,) * 3, bc="dirichlet")


def _toy():
    """The 4-electron, 6^3-point model crystal of benchmarks/conftest.py."""
    crystal = Crystal(["X", "X"], np.array([[1.0, 1.0, 1.0], [3.0, 3.0, 3.0]]),
                      (6.0, 6.0, 6.0), label="toy")
    return crystal, crystal.make_grid(1.0)


SYSTEMS = {
    "si8": System(
        lambda: scaled_silicon_crystal(1, points_per_edge=7, perturbation=0.02, seed=7),
        dict(tol=1e-6, max_iterations=120, smearing=0.02), radius=2),
    "dimer20": System(
        lambda: _dimer(20),
        dict(tol=1e-7, max_iterations=80, gaussian_pseudos=_X2), radius=4),
    # --smoke stand-ins: same code paths, seconds instead of minutes.
    "toy": System(_toy, dict(tol=1e-8, max_iterations=80, gaussian_pseudos=_TOY),
                  radius=2),
    "dimer8": System(
        lambda: _dimer(8),
        dict(tol=1e-7, max_iterations=80, gaussian_pseudos=_X2), radius=2),
}


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    system: str
    smoke_system: str
    builds_per_sweep: int        # cold builds timed before each sweep ...
    max_builds: int = 1 << 30    # ... until this many are in; later sweeps reuse the last
    batched: bool = False
    spmd_workers: int = 0        # 0 = serial driver
    total_energy: bool = False   # pin the total energy, not energy per atom
    h_apply_share_min: float = 0.0   # traced run fails below this share of the sweep

    def config(self) -> RPAConfig:
        return RPAConfig(batched_sternheimer=self.batched, **RPA)

    def sweep(self, dft, coulomb):
        """Orbitals in, E_RPA out — the one timed operation."""
        cfg = self.config()
        if self.spmd_workers:
            return compute_rpa_energy_parallel(
                dft, cfg, coulomb=coulomb, backend="spmd",
                n_workers=self.spmd_workers)
        return compute_rpa_energy(dft, cfg, coulomb=coulomb)

    def energy_of(self, result) -> float:
        return result.energy if self.total_energy else result.energy_per_atom


WORKLOADS = {w.name: w for w in (
    Workload(
        "si8_perorbital",
        "Interpreter-bound: the paper's per-orbital block COCG + Algorithm 4 (at a looser "
        "subspace tolerance than the paper's), ~72k narrow Hamiltonian applies per sweep.",
        "si8", "toy", builds_per_sweep=3),
    Workload(
        "si8_batched",
        "Same system through the batched lockstep COCG: a gain for one "
        "Sternheimer path that costs the other moves the two rows apart.",
        "si8", "toy", builds_per_sweep=3, batched=True),
    Workload(
        "dimer20_dirichlet",
        "Kernel-bound on the other kinetic path: 20^3 Dirichlet grid, radius-4 "
        "stencil Laplacian + Kronecker Coulomb; H-apply is most of the sweep.",
        "dimer20", "dimer8", builds_per_sweep=1, max_builds=2,
        total_energy=True, h_apply_share_min=0.5),
    Workload(
        "si8_spmd2",
        "si8_perorbital through the 2-worker shared-memory SPMD backend, pool start "
        "and teardown included: the only workload where repro.parallel works.",
        "si8", "toy", builds_per_sweep=3, spmd_workers=2),
)}

_REFERENCES = Path(__file__).with_name("references.json")


def reference_energy(workload: str) -> float:
    """The workload's pinned energy (Ha/atom; total Ha for the dimer)."""
    return json.loads(_REFERENCES.read_text())[workload]
