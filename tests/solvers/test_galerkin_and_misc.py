"""Tests for the Galerkin guess (Eq. 13), seed method, a preconditioned
COCG solve and the operator wrapper."""

import numpy as np
import pytest
import scipy.sparse as sp

from repro.grid import Grid3D, spectral_laplacian
from repro.solvers import (
    as_operator,
    block_cocg_solve,
    cocg_solve,
    galerkin_initial_guess,
    residual_after_deflation,
    seed_solve,
)
from tests.solvers.conftest import make_indefinite_sternheimer


def _model_hamiltonian(n, seed=0):
    """Real symmetric H with known eigendecomposition."""
    rng = np.random.default_rng(seed)
    q, _ = np.linalg.qr(rng.standard_normal((n, n)))
    lam = np.sort(rng.uniform(-2.0, 8.0, size=n))
    return (q * lam) @ q.T, lam, q


class TestGalerkinGuess:
    def test_exact_for_rhs_in_known_subspace(self):
        n, n_s = 50, 10
        H, lam, Q = _model_hamiltonian(n, seed=1)
        psi = Q[:, :n_s]
        omega, lam_j = 0.7, lam[3]
        rhs = psi @ np.random.default_rng(2).standard_normal(n_s)
        y0 = galerkin_initial_guess(psi, lam[:n_s], lam_j, omega, rhs)
        A = H - lam_j * np.eye(n) + 1j * omega * np.eye(n)
        assert np.linalg.norm(A @ y0 - rhs) < 1e-10 * np.linalg.norm(rhs)

    def test_residual_equals_orthogonal_component(self):
        n, n_s = 40, 8
        H, lam, Q = _model_hamiltonian(n, seed=3)
        psi = Q[:, :n_s]
        omega, lam_j = 0.5, lam[n_s - 1]
        rng = np.random.default_rng(4)
        b = rng.standard_normal(n)
        A = H - lam_j * np.eye(n) + 1j * omega * np.eye(n)
        rel = residual_after_deflation(psi, lam[:n_s], lam_j, omega, b, lambda y: A @ y)
        b_perp = b - psi @ (psi.T @ b)
        assert rel == pytest.approx(np.linalg.norm(b_perp) / np.linalg.norm(b), abs=1e-10)

    def test_block_rhs(self):
        n, n_s, s = 40, 8, 3
        H, lam, Q = _model_hamiltonian(n, seed=5)
        psi = Q[:, :n_s]
        B = np.random.default_rng(6).standard_normal((n, s))
        y0 = galerkin_initial_guess(psi, lam[:n_s], lam[0], 0.3, B)
        assert y0.shape == (n, s)
        cols = np.column_stack(
            [galerkin_initial_guess(psi, lam[:n_s], lam[0], 0.3, B[:, j]) for j in range(s)]
        )
        assert np.allclose(y0, cols)

    def test_guess_reduces_cocg_iterations_on_hard_shift(self):
        # The paper's rationale: deflating the occupied spectrum removes the
        # most-negative eigencomponents from the initial residual.
        n, n_s = 80, 20
        H, lam, Q = _model_hamiltonian(n, seed=7)
        lam_j = lam[n_s - 1]  # hardest occupied shift
        omega = 0.05
        A = H - lam_j * np.eye(n) + 1j * omega * np.eye(n)
        b = np.random.default_rng(8).standard_normal(n) + 0j
        plain = cocg_solve(A, b, tol=1e-8, max_iterations=4000)
        y0 = galerkin_initial_guess(Q[:, :n_s], lam[:n_s], lam_j, omega, b)
        deflated = cocg_solve(A, b, x0=y0, tol=1e-8, max_iterations=4000)
        assert deflated.converged
        assert deflated.iterations < plain.iterations

    def test_validation_errors(self):
        psi = np.zeros((10, 3))
        with pytest.raises(ValueError):
            galerkin_initial_guess(psi, np.zeros(2), 0.0, 1.0, np.zeros(10))
        with pytest.raises(ValueError):
            galerkin_initial_guess(psi, np.zeros(3), 0.0, 1.0, np.zeros(9))
        with pytest.raises(ValueError):
            # singular projected operator: lambda_j equals a known eigenvalue
            galerkin_initial_guess(psi + 1.0, np.array([1.0, 2.0, 3.0]), 2.0, 0.0, np.zeros(10))


class TestSeedMethod:
    def test_related_rhs_converges_fast(self):
        n = 60
        A = make_indefinite_sternheimer(n, seed=9, omega=0.5)
        rng = np.random.default_rng(10)
        b0 = rng.standard_normal(n) + 0j
        # Remaining RHS are small perturbations of the seed: the projection
        # should nearly solve them outright.
        B = np.column_stack([b0, b0 + 1e-3 * rng.standard_normal(n), b0 * 1.1])
        sol, results = seed_solve(A, B, tol=1e-8, max_iterations=2000)
        assert all(r.converged for r in results)
        assert np.linalg.norm(A @ sol - B) <= 1e-5 * np.linalg.norm(B)
        # Polish solves for the related systems need far fewer iterations
        # than the seed's Krylov dimension.
        assert results[1].iterations <= results[0].iterations

    def test_unrelated_rhs_gains_little(self):
        # The paper's reason for dismissing seed methods: random RHS share
        # little Krylov information.
        n = 60
        A = make_indefinite_sternheimer(n, seed=11, omega=0.5)
        rng = np.random.default_rng(12)
        B = rng.standard_normal((n, 3)) + 0j
        _, results_seeded = seed_solve(A, B, tol=1e-8, max_iterations=2000,
                                       seed_basis_size=20)
        plain = cocg_solve(A, B[:, 1], tol=1e-8, max_iterations=2000)
        # Projection from a 20-dim unrelated subspace should not beat plain
        # COCG by more than a trivial margin.
        assert results_seeded[1].iterations >= max(plain.iterations - 20, 1)

    def test_validation(self):
        A = make_indefinite_sternheimer(10, seed=13)
        with pytest.raises(ValueError):
            seed_solve(A, np.zeros(10))
        with pytest.raises(ValueError):
            seed_solve(A, np.zeros((10, 2)))  # zero seed

    def test_per_solve_matvecs_are_deltas(self):
        # Each result must report its own solve's applies, not the shared
        # CountingOperator's cumulative total; the records must partition
        # the work done inside seed_solve exactly.
        n = 50
        A = as_operator(make_indefinite_sternheimer(n, seed=30, omega=0.5))
        rng = np.random.default_rng(31)
        B = rng.standard_normal((n, 4)) + 0j
        _, results = seed_solve(A, B, tol=1e-8, max_iterations=2000)
        assert sum(r.n_matvec for r in results) == A.n_applies
        assert all(r.n_matvec >= 0 for r in results)
        # Cumulative reporting would make the last record carry the whole
        # run's total; a delta is strictly smaller.
        assert results[-1].n_matvec < A.n_applies

    def test_matvec_accounting_ignores_prior_operator_use(self):
        # Applies accumulated on the operator *before* seed_solve must not
        # leak into any record.
        n = 40
        A = as_operator(make_indefinite_sternheimer(n, seed=32, omega=0.5))
        rng = np.random.default_rng(33)
        A(rng.standard_normal((n, 7)) + 0j)  # 7 unrelated applies
        B = rng.standard_normal((n, 3)) + 0j
        _, results = seed_solve(A, B, tol=1e-8, max_iterations=2000)
        assert sum(r.n_matvec for r in results) == A.n_applies - 7


def _shifted_laplacian_inverse(grid, sigma):
    """``(-1/2 nabla^2 + sigma I)^{-1}``, applied through the spectral
    Laplacian's mode multiplier (the paper's Section V preconditioner)."""
    lap = spectral_laplacian(grid, 2)
    return lambda v: lap.apply_multiplier(1 / (-0.5 * lap.symbol + sigma), v)


class TestPreconditioner:
    def test_spd_and_symmetric_application(self):
        grid = Grid3D((6, 6, 6), (3.0, 3.0, 3.0), bc="periodic")
        M = _shifted_laplacian_inverse(grid, 1.0)
        rng = np.random.default_rng(14)
        v, w = rng.standard_normal((2, grid.n_points))
        # Symmetry: <w, M^{-1} v> == <v, M^{-1} w>; positivity: <v, M^{-1} v> > 0.
        assert w @ M(v) == pytest.approx(v @ M(w), rel=1e-10)
        assert v @ M(v) > 0

    def test_inverts_shifted_laplacian(self):
        from repro.grid import assemble_laplacian

        grid = Grid3D((5, 5, 5), (2.5, 2.5, 2.5), bc="periodic")
        sigma = 0.8
        M = _shifted_laplacian_inverse(grid, sigma)
        L = assemble_laplacian(grid, 2).toarray()
        rng = np.random.default_rng(15)
        v = rng.standard_normal(grid.n_points)
        ref = np.linalg.solve(-0.5 * L + sigma * np.eye(grid.n_points), v)
        assert np.allclose(M(v), ref, atol=1e-9)

    def test_accelerates_kinetic_dominated_sternheimer(self):
        # A Sternheimer-like operator dominated by -1/2 nabla^2: the shifted
        # inverse Laplacian should cut the iteration count (Section V).
        grid = Grid3D((8, 8, 8), (2.0, 2.0, 2.0), bc="periodic")
        from repro.grid import assemble_laplacian

        n = grid.n_points
        rng = np.random.default_rng(16)
        L = assemble_laplacian(grid, 2)
        vloc = rng.uniform(-0.3, 0.3, size=n)
        omega = 0.4
        A = (-0.5 * L + sp.diags_array(vloc)).toarray() + 1j * omega * np.eye(n)
        b = rng.standard_normal(n) + 0j
        plain = cocg_solve(A, b, tol=1e-8, max_iterations=4000)
        M = _shifted_laplacian_inverse(grid, omega)
        pre = cocg_solve(A, b, tol=1e-8, max_iterations=4000, preconditioner=M)
        assert pre.converged
        assert pre.iterations < plain.iterations


class TestOperatorWrapper:
    def test_counts_applies(self):
        A = as_operator(np.eye(5))
        A(np.ones(5))
        A(np.ones((5, 3)))
        assert A.n_calls == 2
        assert A.n_applies == 4

    def test_sparse_and_callable(self):
        S = sp.identity(6, format="csr")
        op = as_operator(S)
        assert np.allclose(op(np.arange(6.0)), np.arange(6.0))
        op2 = as_operator(lambda x: 2.0 * x, n=6)
        assert np.allclose(op2(np.ones(6)), 2.0)

    def test_idempotent_wrap(self):
        op = as_operator(np.eye(3))
        assert as_operator(op) is op

    def test_validation(self):
        with pytest.raises(ValueError):
            as_operator(np.zeros((3, 4)))
        with pytest.raises(ValueError):
            as_operator(lambda x: x)  # missing n
        with pytest.raises(TypeError):
            as_operator("not an operator")
        op = as_operator(np.eye(3))
        with pytest.raises(ValueError):
            op(np.ones(4))
        with pytest.raises(ValueError):
            as_operator(lambda x: x[:2], n=3)(np.ones(3))

    def test_block_cocg_accepts_callable_operator(self):
        n = 30
        A = make_indefinite_sternheimer(n, seed=17, omega=0.5)
        B = np.random.default_rng(18).standard_normal((n, 2)) + 0j
        res = block_cocg_solve(lambda x: A @ x, B, tol=1e-8, max_iterations=2000, n=n)
        assert res.converged
