"""Where the SPMD fault hook lands inside one Sternheimer protocol call.

The ``DieOnceFile`` recovery tests kill a worker at a given orbital; they
only exercise recovery from partial state if the hook fires *after* the
earlier orbitals of the slice were solved, recorded and handed over.
"""

import numpy as np
import pytest

from repro.core import Chi0Operator
from repro.obs import ConvergenceRecorder, use_recorder
from repro.parallel.spmd import _install_fault_hook

OMEGA = 0.7


class _Died(Exception):
    pass


@pytest.mark.parametrize("batched", [False, True], ids=["block", "batched"])
def test_hook_fires_once_the_previous_orbital_is_done(toy_dft, toy_coulomb, batched):
    op = Chi0Operator(toy_dft.hamiltonian, toy_dft.occupied_orbitals,
                      toy_dft.occupied_energies, toy_coulomb, use_batched=batched)
    V = np.random.default_rng(3).standard_normal((op.n_points, 4))
    fired, handed = [], []
    _install_fault_hook(op, lambda j: fired.append(
        (j, sorted(op.stats.iterations_per_orbital), list(handed))))
    for j, _y, _ok in op._solve_orbitals(range(op.n_occupied), V, OMEGA):
        handed.append(j)
    assert op.n_occupied > 1
    assert handed == list(range(op.n_occupied))
    # Orbital k's hook sees orbitals 0..k-1 solved, recorded and handed over.
    assert fired == [(k, list(range(k)), list(range(k)))
                     for k in range(op.n_occupied)]


def test_a_death_at_the_second_orbital_leaves_the_first_recorded(toy_dft, toy_coulomb):
    op = Chi0Operator(toy_dft.hamiltonian, toy_dft.occupied_orbitals,
                      toy_dft.occupied_energies, toy_coulomb)
    V = np.random.default_rng(3).standard_normal((op.n_points, 4))

    def die_at_1(j):
        if j == 1:
            raise _Died

    _install_fault_hook(op, die_at_1)
    recorder = ConvergenceRecorder(level="full")
    with use_recorder(recorder), pytest.raises(_Died):
        op.apply_chi0(V, OMEGA)
    # The death lands mid-task: orbital 0 was closed and its solves recorded
    # (orbital 1, in lockstep with it, may have recorded chunks too).
    assert list(op.stats.iterations_per_orbital) == [0]
    assert any(r["orbital"] == 0 for r in recorder.solves)
