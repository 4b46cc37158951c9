"""Tests for the Section III-B/III-C cost model: ``Hamiltonian.apply_cost``
prices one column's apply and :func:`flop_cost_model` prices a block COCG
solve, the same price Algorithm 4 and the ``flops_est`` counter use."""

import numpy as np

from repro.core import Chi0Operator
from repro.obs import Tracer, use_tracer
from repro.solvers import flop_cost_model
from repro.solvers.stats import SolveResult


def _result(n, s, iterations):
    """A block solve of ``s`` columns on ``n`` points: one apply per
    column per iteration, as block COCG counts them."""
    return SolveResult(solution=np.zeros((n, s), dtype=complex), converged=True,
                       iterations=iterations, residual_norm=0.0,
                       n_matvec=iterations * s, block_size=s)


class TestApplyCost:
    def test_stencil_term_matches_formula(self, toy_dft):
        h = toy_dft.hamiltonian
        assert h.nonlocal_part is None  # Gaussian pseudos: no X X^H term
        assert h.apply_cost == (6 * h.radius + 1) * h.n_points

    def test_nonlocal_term_counts_sparsity(self):
        from repro.dft import build_nonlocal_projectors, local_potential_on_grid, silicon_crystal
        from repro.dft.hamiltonian import Hamiltonian

        crystal = silicon_crystal(1)
        grid = crystal.make_grid(10.26 / 7)
        v = local_potential_on_grid(crystal, grid)
        nl = build_nonlocal_projectors(crystal, grid)
        h = Hamiltonian(grid, v, nl, radius=2)
        local_only = Hamiltonian(grid, v, None, radius=2)
        assert nl.projectors.nnz > 0
        assert h.apply_cost == local_only.apply_cost + 4.0 * nl.projectors.nnz


class TestIterationModel:
    def test_terms_scale_as_documented(self):
        n, c_apply, iters = 1000, 1e5, 7
        cost = flop_cost_model(c_apply)
        no_apply = flop_cost_model(0.0)
        for s in (1, 2, 4, 32):
            r = _result(n, s, iters)
            apply_term = cost(r, 0.0) - no_apply(r, 0.0)
            # The apply term is linear in s; the BLAS-3 term dominates as s^2.
            assert apply_term == iters * s * c_apply
            assert no_apply(r, 0.0) == iters * (5.0 * n * s * s + 2.0 * s**3)
        big = _result(n, 32, iters)
        assert no_apply(big, 0.0) > cost(big, 0.0) - no_apply(big, 0.0)


class TestCostReport:
    def test_from_real_solve_stats(self, toy_dft, toy_coulomb, monkeypatch):
        op = Chi0Operator(toy_dft.hamiltonian, toy_dft.occupied_orbitals,
                          toy_dft.occupied_energies, toy_coulomb, tol=1e-4)
        finished = []
        finish = op._finish

        def spy(p, omega, Y, results, started=None):
            finished.extend(results)
            return finish(p, omega, Y, results, started)

        monkeypatch.setattr(op, "_finish", spy)
        V = np.random.default_rng(0).standard_normal((toy_dft.grid.n_points, 8))
        tr = Tracer()
        with use_tracer(tr):
            op.apply_chi0(V, 0.5)
        model = flop_cost_model(toy_dft.hamiltonian.apply_cost)
        assert finished
        assert tr.counters["flops_est"] == sum(model(r, 0.0) for r in finished)
        assert tr.counters["flops_est"] > 0
