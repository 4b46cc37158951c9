"""Tests for the Galerkin guess (Eq. 13), the shifted inverse-Laplacian
multiplier and the operator wrapper."""

import numpy as np
import pytest
import scipy.sparse as sp

from repro.grid import Grid3D, spectral_laplacian
from repro.solvers import (
    as_operator,
    block_cocg_solve,
    galerkin_initial_guess,
    residual_after_deflation,
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
        plain = block_cocg_solve(A, b, tol=1e-8, max_iterations=4000)
        y0 = galerkin_initial_guess(Q[:, :n_s], lam[:n_s], lam_j, omega, b)
        deflated = block_cocg_solve(A, b, x0=y0, tol=1e-8, max_iterations=4000)
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
