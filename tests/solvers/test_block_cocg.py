"""Tests for block COCG (Algorithm 3)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.solvers import block_cocg_bf_solve, block_cocg_solve, cocg_solve
from repro.solvers.block_cocg import _small_solve
from tests.solvers.conftest import (
    make_complex_symmetric,
    make_definite_sternheimer,
    make_indefinite_sternheimer,
)


class TestBlockCOCG:
    @pytest.mark.parametrize("s", [1, 2, 4, 8])
    def test_solves_block_system(self, s, rng):
        n = 50
        A = make_complex_symmetric(n, seed=11)
        B = rng.standard_normal((n, s)) + 1j * rng.standard_normal((n, s))
        res = block_cocg_solve(A, B, tol=1e-7, max_iterations=1000)
        assert res.converged
        assert res.block_size == s
        assert np.linalg.norm(A @ res.solution - B) <= 1e-5 * np.linalg.norm(B)

    def test_block_size_one_matches_single_vector_cocg(self, rng):
        # On a definite (numerically stable) Sternheimer system the s = 1
        # block recurrence is the single-vector COCG recurrence; on
        # indefinite spectra rounding differences amplify chaotically, so we
        # pin equivalence in the stable regime.
        n = 40
        A = make_definite_sternheimer(n, seed=13, omega=1.0)
        b = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        r_block = block_cocg_solve(A, b[:, None], tol=1e-10)
        r_single = cocg_solve(A, b, tol=1e-10)
        assert r_block.iterations == r_single.iterations
        assert np.allclose(r_block.solution[:, 0], r_single.solution, atol=1e-9)
        hb = np.array(r_block.residual_history)
        hs = np.array(r_single.residual_history)
        m = min(len(hb), len(hs))
        meaningful = hs[:m] > 1e-6
        assert np.allclose(hb[:m][meaningful], hs[:m][meaningful], rtol=1e-4)

    def test_vector_input_round_trip(self, rng):
        n = 30
        A = make_complex_symmetric(n, seed=17)
        b = rng.standard_normal(n) + 0j
        res = block_cocg_solve(A, b, tol=1e-10)
        assert res.solution.shape == (n,)
        assert res.converged

    def test_larger_blocks_need_fewer_iterations_on_hard_systems(self, rng):
        # O'Leary's block-CG effect: the paper's rationale for Algorithm 3.
        n = 120
        A = make_indefinite_sternheimer(n, seed=23, omega=0.02)
        B = rng.standard_normal((n, 8)) + 0j
        iters = {}
        for s in (1, 8):
            if s == 1:
                runs = [
                    block_cocg_solve(A, B[:, j : j + 1], tol=1e-8, max_iterations=5000)
                    for j in range(8)
                ]
                assert all(r.converged for r in runs)
                iters[s] = max(r.iterations for r in runs)
            else:
                r = block_cocg_solve(A, B, tol=1e-8, max_iterations=5000)
                assert r.converged
                iters[s] = r.iterations
        assert iters[8] < iters[1]

    def test_initial_guess_exact_solution(self, rng):
        n = 30
        A = make_definite_sternheimer(n, seed=29)
        X = rng.standard_normal((n, 3)) + 1j * rng.standard_normal((n, 3))
        B = A @ X
        res = block_cocg_solve(A, B, x0=X, tol=1e-10)
        assert res.converged and res.iterations == 0

    def test_zero_rhs_block(self):
        A = make_complex_symmetric(10)
        res = block_cocg_solve(A, np.zeros((10, 3)))
        assert res.converged and res.iterations == 0
        assert res.solution.shape == (10, 3)

    def test_breakdown_on_duplicated_columns(self, rng):
        # Identical right-hand sides make W^T W singular at the first
        # iteration boundary; the solver must flag breakdown, not crash.
        n = 40
        A = make_complex_symmetric(n, seed=31)
        b = rng.standard_normal(n) + 0j
        B = np.column_stack([b, b])
        res = block_cocg_solve(A, B, tol=1e-12, max_iterations=200)
        assert res.breakdown or res.converged

    def test_shape_validation(self, rng):
        A = make_complex_symmetric(10)
        with pytest.raises(ValueError):
            block_cocg_solve(A, np.zeros((11, 2)))
        with pytest.raises(ValueError):
            block_cocg_solve(A, np.zeros((10, 2)), x0=np.zeros((10, 3)))
        with pytest.raises(ValueError):
            block_cocg_solve(A, np.zeros((10, 2, 1)))

    def test_matvec_count_scales_with_block(self, rng):
        n = 40
        A = make_complex_symmetric(n, seed=37)
        B = rng.standard_normal((n, 4)) + 0j
        res = block_cocg_solve(A, B, tol=1e-8)
        # One block apply per iteration plus the initial residual is not
        # computed for a zero guess: n_matvec = iterations * s.
        assert res.n_matvec == res.iterations * 4

    def test_frobenius_stopping_criterion(self, rng):
        n = 40
        A = make_complex_symmetric(n, seed=41)
        B = rng.standard_normal((n, 3)) + 0j
        tol = 1e-6
        res = block_cocg_solve(A, B, tol=tol)
        true_rel = np.linalg.norm(A @ res.solution - B) / np.linalg.norm(B)
        assert res.residual_norm <= tol
        # Recurrence residual may drift from the true residual only slightly.
        assert true_rel <= 10 * tol


class TestSmallSolveVerdicts:
    """The ``s x s`` recurrence solve: None on a non-finite system or a
    vanishing 1 x 1 pivot, otherwise the exact quotient at s = 1."""

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, complex(0.0, np.nan),
                                     complex(np.inf, 1.0)])
    @pytest.mark.parametrize("where", ["lhs", "rhs"])
    @pytest.mark.parametrize("s", [1, 2])
    def test_non_finite_system_is_a_breakdown(self, s, where, bad):
        rng = np.random.default_rng(s)
        lhs = rng.standard_normal((s, s)) + 1j * rng.standard_normal((s, s)) + 3 * np.eye(s)
        rhs = rng.standard_normal((s, s)) + 1j * rng.standard_normal((s, s))
        (lhs if where == "lhs" else rhs)[-1, 0] = bad
        assert _small_solve(lhs, rhs) is None

    @pytest.mark.parametrize("pivot", [0.0, 1e-301 + 0j, complex(5e-302, -5e-302)])
    def test_vanishing_scalar_pivot_is_a_breakdown(self, pivot):
        assert _small_solve(np.array([[pivot]], dtype=complex),
                            np.array([[1.0 + 2.0j]])) is None

    @pytest.mark.parametrize("pivot", [1e-299 + 0j, 0.3 - 2.5j, -7.0 + 1e-3j])
    def test_scalar_solve_is_the_exact_quotient(self, pivot):
        lhs = np.array([[pivot]], dtype=complex)
        rhs = np.array([[0.7 + 0.1j]])
        out = _small_solve(lhs, rhs)
        assert out.shape == (1, 1)
        assert out.tobytes() == (rhs / lhs[0, 0]).tobytes()


def _reference_history(A, B, tol, max_iterations):
    """Algorithm 3 as a plain loop, residual norms by ``np.linalg.norm``
    (a well-conditioned system: no deflation, no stagnation)."""
    Y = np.zeros_like(B)
    W = B.copy()
    b_norm = float(np.linalg.norm(B))
    history = [float(np.linalg.norm(W)) / b_norm]
    rho = W.T @ W
    P = W.copy()
    for _ in range(max_iterations):
        U = A @ P
        mu = P.T @ U
        alpha = rho / mu[0, 0] if mu.shape == (1, 1) else np.linalg.solve(mu, rho)
        Y += P @ alpha
        W -= U @ alpha
        history.append(float(np.linalg.norm(W)) / b_norm)
        if history[-1] <= tol:
            break
        rho_new = W.T @ W
        beta = rho_new / rho[0, 0] if rho.shape == (1, 1) else np.linalg.solve(rho, rho_new)
        P = W + P @ beta
        rho = rho_new
    return history


@pytest.mark.parametrize("s", [1, 4])
def test_residual_history_matches_linalg_norm_bitwise(s):
    A = make_definite_sternheimer(60, seed=43, omega=1.0)
    rng = np.random.default_rng(47)
    B = rng.standard_normal((60, s)) + 1j * rng.standard_normal((60, s))
    res = block_cocg_solve(A, B, tol=1e-10, max_iterations=500)
    ref = _reference_history(A, B, 1e-10, 500)
    assert res.converged and len(res.residual_history) > 10
    assert res.residual_history == ref
    assert all(type(r) is float for r in res.residual_history)


class TestAgainstDirectSolve:
    @pytest.mark.parametrize("maker,omega", [
        (make_complex_symmetric, 0.5),
        (make_definite_sternheimer, 1.0),
        (make_indefinite_sternheimer, 0.1),
    ])
    def test_plain_matches_numpy_solve_at_production_tolerance(self, maker, omega, rng):
        # The faithful Algorithm 3 at a tolerance comparable to the paper's
        # production setting (tau_Sternheimer = 1e-2, here 1e-6 for margin).
        n = 35
        A = maker(n, seed=43, omega=omega)
        B = rng.standard_normal((n, 3)) + 1j * rng.standard_normal((n, 3))
        res = block_cocg_solve(A, B, tol=1e-6, max_iterations=5000)
        assert res.converged
        true_rel = np.linalg.norm(A @ res.solution - B) / np.linalg.norm(B)
        assert true_rel <= 1e-5

    @pytest.mark.parametrize("maker,omega", [
        (make_complex_symmetric, 0.5),
        (make_definite_sternheimer, 1.0),
        (make_indefinite_sternheimer, 0.1),
    ])
    def test_breakdown_free_matches_numpy_solve(self, maker, omega, rng):
        # The deflating variant reaches machine-precision accuracy where the
        # plain recurrence stalls on dependent residual columns.
        n = 35
        A = maker(n, seed=43, omega=omega)
        B = rng.standard_normal((n, 3)) + 1j * rng.standard_normal((n, 3))
        res = block_cocg_bf_solve(A, B, tol=1e-12, max_iterations=5000)
        ref = np.linalg.solve(A, B)
        assert res.converged
        assert np.allclose(res.solution, ref, atol=1e-7 * np.abs(ref).max())

    def test_breakdown_free_handles_duplicated_columns(self, rng):
        n = 40
        A = make_complex_symmetric(n, seed=31)
        b = rng.standard_normal(n) + 0j
        B = np.column_stack([b, b, b])
        res = block_cocg_bf_solve(A, B, tol=1e-10, max_iterations=2000)
        assert res.converged
        assert np.allclose(res.solution[:, 0], res.solution[:, 1], atol=1e-8)


@settings(deadline=None, max_examples=15)
@given(
    n=st.integers(min_value=8, max_value=25),
    s=st.integers(min_value=1, max_value=4),
    seed=st.integers(min_value=0, max_value=10_000),
)
def test_property_block_cocg_matches_direct(n, s, seed):
    A = make_complex_symmetric(n, seed=seed, omega=1.0)
    rng = np.random.default_rng(seed + 7)
    B = rng.standard_normal((n, s)) + 1j * rng.standard_normal((n, s))
    res = block_cocg_bf_solve(A, B, tol=1e-10, max_iterations=60 * n)
    assert res.converged
    ref = np.linalg.solve(A, B)
    assert np.allclose(res.solution, ref, atol=1e-6 * max(1.0, np.abs(ref).max()))
