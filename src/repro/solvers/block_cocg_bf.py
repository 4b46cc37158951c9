"""Breakdown-free block COCG with rank-revealing deflation.

The paper notes that block methods "may require deflation if the residual
vectors become linearly dependent". This module provides that deflating
variant, following the breakdown-free block CG construction of Ji & Li
(2017) adapted to the *unconjugated* bilinear form of COCG: the search
block is re-orthonormalized every iteration with a rank-revealing SVD, and
directions whose singular values fall below ``deflation_rcond`` of the
largest are dropped. Converged right-hand sides therefore stop consuming
work, and the recurrence keeps making progress far below the accuracy
floor of the plain Algorithm 3 (``repro.solvers.block_cocg``), at the cost
of one extra ``O(n s^2)`` orthonormalization per iteration.

Use the plain solver at the paper's production tolerances (1e-2); use this
one when residuals below ~1e-8 are required (e.g. the validation suite's
machine-precision cross-checks).
"""

from __future__ import annotations

import numpy as np

from repro.obs.telemetry import get_recorder, record_solves
from repro.solvers.linear_operator import as_operator
from repro.solvers.stats import SolveResult


@record_solves("block_cocg_bf")
def block_cocg_bf_solve(
    a,
    b: np.ndarray,
    x0: np.ndarray | None = None,
    tol: float = 1e-10,
    max_iterations: int = 1000,
    n: int | None = None,
    deflation_rcond: float = 1e-12,
) -> SolveResult:
    """Solve complex symmetric ``A Y = B`` by breakdown-free block COCG.

    Parameters mirror :func:`repro.solvers.block_cocg.block_cocg_solve`;
    ``deflation_rcond`` controls when search directions are deflated.
    """
    squeeze = False
    b = np.asarray(b, dtype=complex)
    if b.ndim == 1:
        b = b[:, None]
        squeeze = True
    if b.ndim != 2:
        raise ValueError(f"b must be (n,) or (n, s), got shape {b.shape}")
    if tol <= 0:
        raise ValueError("tol must be positive")
    n_rows, s = b.shape
    A = as_operator(a, n if n is not None else n_rows)
    if A.n != n_rows:
        raise ValueError(f"operator dim {A.n} != rhs rows {n_rows}")

    if x0 is None:
        Y = np.zeros_like(b)
        R = b.copy()
    else:
        Y = np.array(x0, dtype=complex, copy=True)
        if Y.ndim == 1:
            Y = Y[:, None]
        if Y.shape != b.shape:
            raise ValueError(f"x0 shape {Y.shape} != rhs shape {b.shape}")
        R = b - A(Y)

    b_norm = float(np.linalg.norm(b))
    if b_norm == 0.0:
        out = np.zeros_like(b)
        return SolveResult(out[:, 0] if squeeze else out, True, 0, 0.0, [0.0], block_size=s)

    # Full-level telemetry: per-column first tolerance crossing (read-only
    # on the residual block, numerics untouched).
    recorder = get_recorder()
    track_cols = recorder.enabled and recorder.full and s > 1
    if track_cols:
        col_b_norms = np.linalg.norm(b, axis=0)
        col_b_norms = np.where(col_b_norms == 0.0, 1.0, col_b_norms)
        # Squared-norm comparison (see block_cocg): no sqrt, no |R| temp.
        col_tol_sq = (tol * col_b_norms) ** 2
        col_first = np.full(s, -1, dtype=int)

    def _mark_columns(iteration: int, residual_block: np.ndarray) -> None:
        pending = col_first < 0
        if not pending.any():
            return
        col_sq = np.einsum("ij,ij->j", residual_block.conj(),
                           residual_block).real
        col_first[pending & (col_sq <= col_tol_sq)] = iteration

    def _result(converged: bool, it: int, history, breakdown: bool = False) -> SolveResult:
        sol = Y[:, 0] if squeeze else Y
        return SolveResult(
            sol, converged, it, history[-1], history,
            n_matvec=A.n_applies, block_size=s, breakdown=breakdown,
            per_column_iterations=(
                [int(v) for v in col_first] if track_cols else None
            ),
        )

    history = [float(np.linalg.norm(R)) / b_norm]
    if track_cols:
        _mark_columns(0, R)
    if history[-1] <= tol:
        return _result(True, 0, history)

    P = _orth(R, deflation_rcond)
    if P is None:
        return _result(False, 0, history, breakdown=True)

    for it in range(1, max_iterations + 1):
        Q = A(P)
        mu = P.T @ Q  # unconjugated; small (k x k), k <= s after deflation
        rhs = P.T @ R
        alpha = _robust_solve(mu, rhs)
        if alpha is None:
            return _result(False, it - 1, history, breakdown=True)
        Y += P @ alpha
        R -= Q @ alpha
        rel = float(np.linalg.norm(R)) / b_norm
        history.append(rel)
        if not np.isfinite(rel):
            return _result(False, it, history, breakdown=True)
        if track_cols:
            _mark_columns(it, R)
        if rel <= tol:
            return _result(True, it, history)
        beta = _robust_solve(mu, Q.T @ R)
        if beta is None:
            return _result(False, it, history, breakdown=True)
        P_new = _orth(R - P @ beta, deflation_rcond)
        if P_new is None:
            return _result(False, it, history, breakdown=True)
        P = P_new

    return _result(False, max_iterations, history)


def _orth(block: np.ndarray, rcond: float) -> np.ndarray | None:
    """Rank-revealing orthonormal basis of ``block`` columns (SVD-based)."""
    if not np.all(np.isfinite(block)):
        return None
    u, sv, _ = np.linalg.svd(block, full_matrices=False)
    if sv.size == 0 or sv[0] == 0.0:
        return None
    keep = sv > rcond * sv[0]
    if not np.any(keep):
        return None
    return np.ascontiguousarray(u[:, keep])


def _robust_solve(lhs: np.ndarray, rhs: np.ndarray) -> np.ndarray | None:
    if not (np.all(np.isfinite(lhs)) and np.all(np.isfinite(rhs))):
        return None
    try:
        sol = np.linalg.solve(lhs, rhs)
        if np.all(np.isfinite(sol)):
            return sol
    except np.linalg.LinAlgError:
        pass
    sol, *_ = np.linalg.lstsq(lhs, rhs, rcond=1e-14)
    return sol if np.all(np.isfinite(sol)) else None
