"""Property-based equivalence: the fused batched kernel vs the per-orbital loop.

The batched Sternheimer kernel must be a pure reorganization of work — one
shared operator apply across all orbitals' columns instead of one per
orbital — with no numerical consequences beyond f64 roundoff. Hypothesis
pins that over random grids, occupied counts, shifts and RHS widths:

1. **Apply equivalence** — ``BatchedShiftedOperator.apply`` agrees with the
   per-orbital shifted applies column by column to f64 roundoff.
2. **Solve equivalence** — converged batched columns agree with the dense
   ``numpy.linalg.solve`` oracle and with the per-orbital
   ``block_cocg_solve`` route on the same systems.
3. **Masks never freeze an unconverged column** — a column leaves the
   active set only by crossing tolerance or by breakdown/stagnation, so
   ``converged | broken`` covers every column the iteration cap did not
   cut off, and every converged column's residual is at tolerance.
4. **Matvec accounting** — ``sum(per-column applies)`` never exceeds
   ``batched_applies * total_columns``: masking can only reduce it.

The chi0-level agreement test runs under every dtype named in the
``REPRO_BATCHED_DTYPES`` environment variable (comma-separated; the CI
dtype-sweep legs run one each, locally both run by default).
"""

import os

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.sternheimer import Chi0Operator
from repro.solvers import (
    BatchedShiftedOperator,
    batched_cocg_ir_solve,
    batched_cocg_solve,
    block_cocg_solve,
)

pytestmark = [
    pytest.mark.filterwarnings("error::RuntimeWarning"),
    pytest.mark.filterwarnings("error::numpy.exceptions.ComplexWarning"),
]

SOLVE_DTYPES = tuple(
    d.strip()
    for d in os.environ.get("REPRO_BATCHED_DTYPES", "float64,float32_ir").split(",")
    if d.strip()
)

TOL = 1e-10


def _sternheimer_batch(n: int, n_orb: int, n_v: int, seed: int, omega: float,
                       definite: bool = True):
    """Random fused multi-orbital system: S, per-orbital shifts, RHS."""
    rng = np.random.default_rng(seed)
    q, _ = np.linalg.qr(rng.standard_normal((n, n)))
    if definite:
        spec = rng.uniform(0.5, 10.0, size=n)
    else:
        spec = rng.uniform(-5.0, 5.0, size=n)
    S = (q * spec) @ q.T
    lam = np.sort(rng.uniform(-2.0, 2.0, size=n_orb))
    shifts = np.repeat(-lam, n_v) + 1j * omega
    B = rng.standard_normal((n, n_orb * n_v))
    return S, lam, shifts, B


batch_params = st.tuples(
    st.integers(8, 40),           # n
    st.integers(1, 4),            # n_orb
    st.integers(1, 3),            # n_v
    st.integers(0, 2**31 - 1),    # seed
    st.floats(0.05, 5.0),         # omega
)


class TestApplyEquivalence:
    @given(params=batch_params)
    @settings(max_examples=50, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    def test_batched_apply_matches_per_orbital_applies(self, params):
        n, n_orb, n_v, seed, omega = params
        S, lam, shifts, _ = _sternheimer_batch(n, n_orb, n_v, seed, omega)
        op = BatchedShiftedOperator(S, shifts)
        rng = np.random.default_rng(seed + 1)
        C = n_orb * n_v
        X = rng.standard_normal((n, C)) + 1j * rng.standard_normal((n, C))

        fused = op.apply(X)
        for g in range(n_orb):
            sl = slice(g * n_v, (g + 1) * n_v)
            A_g = S + (-lam[g] + 1j * omega) * np.eye(n)
            per_orbital = A_g @ X[:, sl]
            scale = np.linalg.norm(per_orbital) + np.linalg.norm(X[:, sl])
            assert np.linalg.norm(fused[:, sl] - per_orbital) <= 1e-12 * scale

    @given(params=batch_params)
    @settings(max_examples=25, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    def test_column_subset_selects_matching_shifts(self, params):
        n, n_orb, n_v, seed, omega = params
        S, lam, shifts, _ = _sternheimer_batch(n, n_orb, n_v, seed, omega)
        op = BatchedShiftedOperator(S, shifts)
        rng = np.random.default_rng(seed + 2)
        C = n_orb * n_v
        cols = rng.permutation(C)[: max(1, C // 2)]
        X = rng.standard_normal((n, cols.size)) + 1j * rng.standard_normal((n, cols.size))
        out = op.apply(X, cols)
        full = S @ X + X * shifts[cols]
        assert np.allclose(out, full, rtol=1e-12, atol=1e-12)


class TestSolveEquivalence:
    @given(params=batch_params)
    @settings(max_examples=20, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    def test_converged_columns_match_dense_and_per_orbital_solves(self, params):
        n, n_orb, n_v, seed, omega = params
        S, lam, shifts, B = _sternheimer_batch(n, n_orb, n_v, seed, omega)
        op = BatchedShiftedOperator(S, shifts)
        res = batched_cocg_solve(op, B, tol=TOL, max_iterations=10 * n)

        for g in range(n_orb):
            sl = slice(g * n_v, (g + 1) * n_v)
            if not res.converged[sl].all():
                continue
            A_g = S + (-lam[g] + 1j * omega) * np.eye(n)
            x_ref = np.linalg.solve(A_g, B[:, sl].astype(complex))
            denom = np.linalg.norm(x_ref)
            assert np.linalg.norm(res.solution[:, sl] - x_ref) / denom < 1e-6

            per_orb = block_cocg_solve(A_g, B[:, sl], tol=TOL,
                                       max_iterations=10 * n)
            if per_orb.converged:
                assert (np.linalg.norm(res.solution[:, sl] - per_orb.solution)
                        / denom < 1e-6)

    @pytest.mark.parametrize("dtype", SOLVE_DTYPES)
    def test_ir_solution_meets_the_f64_true_residual_gate(self, dtype):
        n, n_orb, n_v = 32, 3, 2
        S, lam, shifts, B = _sternheimer_batch(n, n_orb, n_v, seed=5, omega=0.8)
        op = BatchedShiftedOperator(S, shifts)
        solver = batched_cocg_ir_solve if dtype == "float32_ir" else batched_cocg_solve
        res = solver(op, B, tol=1e-9, max_iterations=10 * n)
        assert res.all_converged
        assert res.dtype == dtype
        # The gate is the float64 true residual, whatever the working
        # precision of the iterations was.
        true_res = B - op.apply(res.solution.astype(np.complex128))
        rel = np.linalg.norm(true_res, axis=0) / np.linalg.norm(B, axis=0)
        assert rel.max() <= 1e-8

    def test_float32_ir_does_not_over_solve_a_loose_tolerance(self):
        # At the paper's 1e-2 the complex64 pass must stop at 1e-2 too, not
        # at a fixed tighter inner tolerance: float32_ir may not cost much
        # more than the float64 recurrence it is meant to undercut.
        n, n_orb, n_v = 32, 3, 2
        S, lam, shifts, B = _sternheimer_batch(n, n_orb, n_v, seed=5, omega=0.8)
        op = BatchedShiftedOperator(S, shifts)
        mixed = batched_cocg_ir_solve(op, B, tol=1e-2, max_iterations=10 * n)
        f64 = batched_cocg_solve(op, B, tol=1e-2, max_iterations=10 * n)
        assert mixed.all_converged
        assert mixed.n_matvec <= 1.5 * f64.n_matvec
        true_res = B - op.apply(mixed.solution)
        rel = np.linalg.norm(true_res, axis=0) / np.linalg.norm(B, axis=0)
        assert rel.max() <= 1e-2


class TestConvergenceMasks:
    @given(params=batch_params)
    @settings(max_examples=20, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    def test_masks_never_freeze_an_unconverged_column(self, params):
        n, n_orb, n_v, seed, omega = params
        S, _, shifts, B = _sternheimer_batch(n, n_orb, n_v, seed, omega)
        op = BatchedShiftedOperator(S, shifts)
        cap = 10 * n
        res = batched_cocg_solve(op, B, tol=TOL, max_iterations=cap)
        if res.iterations < cap:
            # The active set emptied: every column either crossed tol or was
            # declared broken — none was silently frozen mid-flight.
            assert (res.converged | res.broken).all()
        assert (res.residual_norms[res.converged] <= TOL).all()
        # A converged column always has a recorded crossing iteration.
        assert (res.col_iterations[res.converged] >= 0).all()
        # And a column is never both converged and broken.
        assert not (res.converged & res.broken).any()

    def test_masked_columns_stop_consuming_matvecs(self):
        # Plant one easy column (converges immediately from x0=b direction)
        # next to hard ones; its col_applies must stop growing.
        n = 48
        rng = np.random.default_rng(3)
        q, _ = np.linalg.qr(rng.standard_normal((n, n)))
        S = (q * rng.uniform(0.5, 50.0, size=n)) @ q.T
        shifts = np.array([0.2j, 0.2j])
        op = BatchedShiftedOperator(S, shifts)
        e = np.linalg.eigh(S)[1][:, 0]
        B = np.column_stack([(S + 0.2j * np.eye(n)) @ e, rng.standard_normal(n)])
        res = batched_cocg_solve(op, B, tol=1e-10, max_iterations=10 * n)
        assert res.all_converged
        easy, hard = res.col_applies
        assert res.col_iterations[0] < res.col_iterations[1]
        assert easy < hard


class TestMatvecAccounting:
    @given(params=batch_params)
    @settings(max_examples=20, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    def test_masking_only_reduces_column_applies(self, params):
        n, n_orb, n_v, seed, omega = params
        S, _, shifts, B = _sternheimer_batch(n, n_orb, n_v, seed, omega)
        op = BatchedShiftedOperator(S, shifts)
        masked = batched_cocg_solve(op, B, tol=TOL, max_iterations=10 * n)
        assert masked.n_matvec <= masked.n_batched_applies * (n_orb * n_v)
        # Per column, applies are bounded by the number of fused applies.
        assert (masked.col_applies <= masked.n_batched_applies).all()


class TestChi0Agreement:
    @pytest.mark.parametrize("dtype", SOLVE_DTYPES)
    def test_batched_chi0_matches_serial_loop(self, toy_dft, toy_coulomb, dtype):
        rng = np.random.default_rng(0)
        V = rng.standard_normal((toy_dft.grid.n_points, 3))
        serial = Chi0Operator(toy_dft.hamiltonian, toy_dft.occupied_orbitals,
                              toy_dft.occupied_energies, toy_coulomb, tol=1e-10)
        batched = Chi0Operator(toy_dft.hamiltonian, toy_dft.occupied_orbitals,
                               toy_dft.occupied_energies, toy_coulomb,
                               tol=1e-10, use_batched=True, solve_dtype=dtype)
        ref = serial.apply_chi0(V, omega=0.7)
        out = batched.apply_chi0(V, omega=0.7)
        assert np.linalg.norm(out - ref) / np.linalg.norm(ref) < 5e-8
        assert batched.stats.n_batched_solves == 1
        assert batched.stats.n_batched_applies > 0
        assert batched.stats.n_batched_fallback_orbitals == 0
        if dtype == "float32_ir":
            assert batched.stats.n_ir_fallbacks > 0

    def test_straggler_is_prepared_once_and_solved_by_the_block_kernel(
            self, toy_dft, toy_coulomb, monkeypatch):
        """An orbital the batched recurrence leaves unconverged is handed to
        the block kernel *as prepared*: one recycler lookup, one store."""
        import repro.core.sternheimer as sternheimer
        from repro.solvers.recycle import SolveRecycler

        n_v, straggler = 3, 1
        real_solve = sternheimer.batched_cocg_solve

        def one_orbital_unconverged(op, b, **kwargs):
            res = real_solve(op, b, **kwargs)
            res.converged[straggler * n_v:(straggler + 1) * n_v] = False
            return res

        monkeypatch.setattr(sternheimer, "batched_cocg_solve",
                            one_orbital_unconverged)

        def operator(**kwargs):
            return Chi0Operator(
                toy_dft.hamiltonian, toy_dft.occupied_orbitals,
                toy_dft.occupied_energies, toy_coulomb, tol=1e-10,
                recycler=SolveRecycler(width=n_v), **kwargs)

        def lookups(op):
            st = op.recycler.stats
            return st.hits + st.omega_seeds + st.misses

        batched, block = operator(use_batched=True), operator()
        n_s = batched.n_occupied
        V = np.random.default_rng(2).standard_normal(
            (toy_dft.grid.n_points, n_v))

        out = batched.apply_chi0(V, omega=0.7)  # cold: Galerkin guesses
        ref = block.apply_chi0(V, omega=0.7)
        assert np.linalg.norm(out - ref) / np.linalg.norm(ref) < 5e-8
        assert batched.stats.n_batched_fallback_orbitals == 1
        assert lookups(batched) == n_s
        assert batched.recycler.stats.stores == n_s

        # Warm: every orbital is served its stored solution. The straggler's
        # came from the block kernel, so the block kernel on its own operator
        # starts from the same guess and must return the same bits.
        warm = {j: y for j, y, _ok in
                batched._solve_orbitals(range(n_s), V, 0.7)}
        (_j, y_block, _ok), = block._solve_orbitals([straggler], V, 0.7)
        assert np.array_equal(warm[straggler], y_block)
        assert batched.stats.n_batched_fallback_orbitals == 2
        assert lookups(batched) == 2 * n_s
        assert batched.recycler.stats.hits == n_s
        assert batched.recycler.stats.stores == 2 * n_s

    def test_cold_path_is_untouched_by_the_flag(self, toy_dft, toy_coulomb):
        rng = np.random.default_rng(1)
        V = rng.standard_normal((toy_dft.grid.n_points, 2))
        plain = Chi0Operator(toy_dft.hamiltonian, toy_dft.occupied_orbitals,
                             toy_dft.occupied_energies, toy_coulomb, tol=1e-8)
        out = plain.apply_chi0(V, omega=1.1)
        again = Chi0Operator(toy_dft.hamiltonian, toy_dft.occupied_orbitals,
                             toy_dft.occupied_energies, toy_coulomb, tol=1e-8)
        assert np.array_equal(out, again.apply_chi0(V, omega=1.1))
        assert plain.stats.n_batched_solves == 0
