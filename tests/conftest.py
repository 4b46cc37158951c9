"""Session-wide fixtures: the tiny dense-verifiable model system."""

import inspect

import numpy as np
import pytest

from repro.core import Chi0Operator
from repro.core.rpa_energy import chi0_operator_from_config
from repro.dft import GaussianPseudopotential, run_scf
from repro.dft.atoms import Crystal
from repro.grid import CoulombOperator


def bit_pin_operand(n_points, dtype, width, layout, seed=0):
    """A random ``(n_points,)`` (``width=None``) or ``(n_points, width)``
    operand of the bit-pin tests; ``layout="sliced"`` takes it as a strided
    column view out of a wider block, ``"contiguous"`` as a C-ordered copy."""
    rng = np.random.default_rng(seed)
    v = rng.standard_normal((n_points, 2 * (width or 1) + 1))
    if np.dtype(dtype).kind == "c":
        v = v + 1j * rng.standard_normal(v.shape)
    v = v.astype(dtype)
    if layout == "contiguous":
        v = np.ascontiguousarray(v[:, 0] if width is None else v[:, :width])
    elif width is None:
        v = v[:, 1]
    else:
        v = v[:, 1:2] if width == 1 else v[:, 1::2][:, :width]
    assert v.flags.c_contiguous == (layout == "contiguous")
    return v


@pytest.fixture(scope="session")
def toy_dft():
    """4-electron model system on a 6^3 grid: dense-verifiable everywhere."""
    crystal = Crystal(
        ["X", "X"],
        np.array([[1.0, 1.0, 1.0], [3.0, 3.0, 3.0]]),
        (6.0, 6.0, 6.0),
        label="toy",
    )
    grid = crystal.make_grid(1.0)
    pseudos = {"X": GaussianPseudopotential("X", z_ion=2.0, r_core=0.9)}
    return run_scf(crystal, grid, radius=2, tol=1e-8, max_iterations=80,
                   gaussian_pseudos=pseudos)


@pytest.fixture(scope="session")
def toy_coulomb(toy_dft):
    return CoulombOperator(toy_dft.grid, radius=2)


@pytest.fixture(scope="session")
def toy_dense_eigen(toy_dft):
    import scipy.linalg

    h = toy_dft.hamiltonian.to_dense()
    return scipy.linalg.eigh(h)


@pytest.fixture
def default_chain():
    """The escalation policy every ``Chi0Operator`` solves through unless
    handed a ``solver=``; tests plant faulty chains by monkeypatching its
    ``stages``."""
    return inspect.signature(Chi0Operator).parameters["solver"].default


@pytest.fixture(scope="session")
def stochastic_sweep_energy(toy_dft, toy_coulomb):
    """``sum_k w_k est_k / 2 pi`` at a toy sweep's quadrature points, with
    ``est_k`` a stochastic trace estimator run on the sweep config's
    ``nu^{1/2} chi0(i omega_k) nu^{1/2}``."""

    def energy(ref, estimator, **kwargs):
        op = chi0_operator_from_config(toy_dft, ref.config, toy_coulomb)
        return sum(
            p.weight / (2.0 * np.pi) * estimator(
                lambda v, w=p.omega: op.apply_symmetrized(v, w), n=op.n_points,
                seed=ref.config.seed, **kwargs)
            for p in ref.points
        )

    return energy
