"""The block kernel's lockstep: every orbital solved as if alone, H shared.

``Chi0Operator``'s block kernel runs each orbital's own Algorithm 4 chunk
sequence and Algorithm 3 recurrence, all advancing together behind one wide
``Hamiltonian.apply`` per step. These tests hold it to the single-system
drivers bit for bit — ``Y_j``, solve totals, Table IV counts and Algorithm 4
decisions — on every path a chunk can take, and check that the fusion
actually happens.
"""

import numpy as np
import pytest

import repro.core.sternheimer as sternheimer
from repro.core import Chi0Operator
from repro.obs import ConvergenceRecorder, Tracer, use_recorder, use_tracer
from repro.solvers import block_cocg_solve
from repro.solvers.block_size import (
    block_size_steps,
    flop_cost_model,
    solve_with_dynamic_block_size,
)
from repro.solvers.stats import SolveSummary

OMEGA = 0.7
N_V = 6


class _ClosureHamiltonian:
    """A Hamiltonian proxy whose ``shifted`` is a plain closure: the same
    operator, but nothing the kernel can fuse."""

    def __init__(self, h):
        self._h = h

    def __getattr__(self, name):
        return getattr(self._h, name)

    def shifted(self, lam, omega):
        op = self._h.shifted(lam, omega)
        return lambda v: op(v)


def _operator(dft, coulomb, hamiltonian=None, **kwargs):
    return Chi0Operator(hamiltonian or dft.hamiltonian, dft.occupied_orbitals,
                        dft.occupied_energies, coulomb, **kwargs)


@pytest.fixture
def V(toy_dft):
    return np.random.default_rng(11).standard_normal((toy_dft.grid.n_points, N_V))


@pytest.fixture
def captured(monkeypatch):
    """Each orbital's ``DynamicSolveResult`` as the lockstep returns it."""
    results = []

    def capturing(*args, **kwargs):
        res = yield from block_size_steps(*args, **kwargs)
        results.append(res)
        return res

    monkeypatch.setattr(sternheimer, "block_size_steps", capturing)
    return results


def _lockstep(op, V, captured):
    """``{j: (Y_j, converged, DynamicSolveResult)}`` from one kernel call."""
    out = {}
    for j, y, ok in op._solve_orbitals(range(op.n_occupied), V, OMEGA):
        res, = [r for r in captured if r.solution is y]
        out[j] = (y.copy(), ok, res)
    assert list(out) == list(range(op.n_occupied))  # yielded in orbital order
    return out


def _alone(op, j, V):
    """Orbital ``j`` through the single-system drivers, as the kernel's
    chunk schedule prescribes."""
    p = op._prepare(j, V, OMEGA)
    n = op.n_points
    if op.dynamic_block_size:
        return solve_with_dynamic_block_size(
            p.apply_a, p.rhs(), tol=op.tol, max_iterations=op.max_iterations,
            x0=p.x0, max_block_size=min(op.max_block_size, N_V),
            solver=op.solver, cost_fn=flop_cost_model(op.h.apply_cost), n=n)
    Y, chunks = np.empty((n, N_V), dtype=complex), []
    for start in range(0, N_V, op.fixed_block_size):
        sl = slice(start, min(start + op.fixed_block_size, N_V))
        r = op.solver(p.apply_a, p.rhs(sl), x0=None if p.x0 is None else p.x0[:, sl],
                      tol=op.tol, max_iterations=op.max_iterations, n=n)
        Y[:, sl] = r.solution
        chunks.append(r)
    return Y, chunks


CASES = {
    "default": {},
    # Stage 1 capped short of tol: every chunk escalates, then degrades.
    "first-stage-fails": dict(tol=1e-10, max_iterations=3),
    "fixed-chunks": dict(dynamic_block_size=False, fixed_block_size=4),
    "custom-solver": dict(solver=block_cocg_solve),
    "no-galerkin-guess": dict(use_galerkin_guess=False),
}


@pytest.mark.parametrize("proxy", [False, True], ids=["fused", "closure-proxy"])
@pytest.mark.parametrize("case", list(CASES))
def test_every_orbital_has_the_bits_of_its_solve_alone(toy_dft, toy_coulomb, V,
                                                       captured, case, proxy):
    kwargs = CASES[case]
    h = _ClosureHamiltonian(toy_dft.hamiltonian) if proxy else None
    op = _operator(toy_dft, toy_coulomb, h, **kwargs)
    lockstep = _lockstep(op, V, captured)
    ref_op = _operator(toy_dft, toy_coulomb, h, **kwargs)
    for j, (y, ok, res) in lockstep.items():
        if op.dynamic_block_size:
            ref = _alone(ref_op, j, V)
            ref_y, ref_chunks = ref.solution, ref.chunk_results
            assert res.decisions == ref.decisions
            assert res.block_size_counts == ref.block_size_counts
            assert res.selected_block_size == ref.selected_block_size
        else:
            ref_y, ref_chunks = _alone(ref_op, j, V)
        assert y.tobytes() == ref_y.tobytes()
        assert SolveSummary.of(res.chunk_results) == SolveSummary.of(ref_chunks)
        assert ok == all(r.converged for r in ref_chunks)
    if case == "first-stage-fails":
        assert op.stats.n_escalations == op.stats.n_block_solves > 0
        assert op.stats.n_degraded_solves > 0


def test_one_h_apply_per_lockstep_step(toy_dft, toy_coulomb, V, captured, monkeypatch):
    op = _operator(toy_dft, toy_coulomb, tol=1e-8)
    h = toy_dft.hamiltonian
    calls = []
    apply = h.apply
    monkeypatch.setattr(h, "apply", lambda v: calls.append(v.shape[1]) or apply(v))
    op.apply_chi0(V, OMEGA)
    # Each orbital asks for one block per step until it is done.
    requests = [sum(r.n_matvec // r.block_size for r in res.chunk_results)
                for res in captured]
    assert len(requests) == op.n_occupied > 1
    assert len(calls) == max(requests) < sum(requests)
    assert sum(calls) == op.stats.n_matvec


def test_each_orbital_keeps_its_own_span_and_telemetry_frame(toy_dft, toy_coulomb, V):
    op = _operator(toy_dft, toy_coulomb, tol=1e-8)
    tracer, recorder = Tracer(), ConvergenceRecorder(level="full")
    with use_tracer(tracer), use_recorder(recorder):
        op.apply_chi0(V, OMEGA)
    spans = [e for e in tracer.events if e["name"] == "sternheimer_solve"]
    assert [s["attrs"]["orbital"] for s in spans] == list(range(op.n_occupied))
    iterations = [e for e in tracer.events if e["name"] == "cocg_iteration"]
    assert iterations and all(
        any(s["ts"] <= c["ts"] and c["ts"] + c["dur"] <= s["ts"] + s["dur"]
            for s in spans) for c in iterations)
    assert tracer.counters["matvecs"] == op.stats.n_matvec
    assert tracer.counters["cocg_iterations"] == op.stats.total_iterations
    for j in range(op.n_occupied):
        mine = [r for r in recorder.solves if r["orbital"] == j]
        # One record per chunk, numbered in the orbital's own frame.
        assert [r["seq"] for r in mine] == list(range(len(mine)))
        assert sum(r["n_matvec"] for r in mine) == sum(
            s["attrs"]["n_matvec"] for s in spans if s["attrs"]["orbital"] == j)


def test_an_unfused_operator_of_the_wrong_shape_is_an_error(toy_dft, toy_coulomb, V):
    class _Truncating(_ClosureHamiltonian):
        def shifted(self, lam, omega):
            op = self._h.shifted(lam, omega)
            return lambda v: op(v)[:-1]

    op = _operator(toy_dft, toy_coulomb, _Truncating(toy_dft.hamiltonian))
    with pytest.raises(ValueError, match="operator returned shape"):
        op.apply_chi0(V, OMEGA)
