"""Block COCG — the paper's Algorithm 3.

A short-term-recurrence block Krylov method for ``A Y = B`` with complex
symmetric ``A`` and ``s`` right-hand sides treated simultaneously. Per
iteration it costs:

* one operator application to an ``(n, s)`` block (line 6),
* five ``O(n s^2)`` BLAS-3 matrix products (lines 5, 7, 9, 10, 11),
* two ``O(s^3)`` small solves (lines 8, 12).

Larger ``s`` reduces iteration counts for numerically difficult spectra
(O'Leary's block-CG theory) at the price of the ``O(n s^2)`` terms — the
trade Algorithm 4 (``repro.solvers.block_size``) navigates dynamically.

Stopping follows Eq. 10: ``||W||_F <= tol * ||B||_F``.

Robustness
----------
As the paper notes, block methods "may require deflation if the residual
vectors become linearly dependent". We handle rank deficiency of the
``s x s`` recurrence matrices with truncated least-squares solves (the
dependent directions receive no update, which is the correct deflated
behaviour in exact arithmetic) and detect stagnation; a stagnated or
non-finite recurrence returns the best iterate seen with
``breakdown=True`` so callers (Algorithm 4) can fall back to a smaller
block size.
"""

from __future__ import annotations

import cmath
import math

import numpy as np

from repro.obs.telemetry import get_recorder, record_solves
from repro.obs.tracer import get_tracer
from repro.solvers.linear_operator import as_operator
from repro.solvers.stats import SolveResult

# Relative singular-value floor for the s x s recurrence solves.
_SMALL_RCOND = 1e-14
# Iterations without any Frobenius-residual improvement before we stop.
_STAGNATION_WINDOW = 40


@record_solves("block_cocg")
def block_cocg_solve(
    a,
    b: np.ndarray,
    x0: np.ndarray | None = None,
    tol: float = 1e-8,
    max_iterations: int = 1000,
    n: int | None = None,
) -> SolveResult:
    """Solve the complex symmetric block system ``A Y = B`` (Algorithm 3).

    Parameters
    ----------
    a:
        Complex symmetric operator accepting ``(n, s)`` blocks.
    b:
        Right-hand sides, ``(n, s)`` (a 1-D vector is treated as ``s = 1``).
    x0:
        Initial block guess (zero when omitted), e.g. the Eq. 13 Galerkin
        projection from ``repro.solvers.galerkin_guess``.
    tol:
        Relative block-Frobenius residual tolerance (Eq. 10).
    max_iterations:
        Iteration cap.

    Returns
    -------
    SolveResult
        ``solution`` has the same shape as ``b``. ``breakdown=True`` marks a
        non-finite or stagnated recurrence; the best iterate encountered is
        returned in that case.
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
    else:
        Y = np.array(x0, dtype=complex, copy=True)
        if Y.ndim == 1:
            Y = Y[:, None]
        if Y.shape != b.shape:
            raise ValueError(f"x0 shape {Y.shape} != rhs shape {b.shape}")

    b_norm = float(np.linalg.norm(b))
    if b_norm == 0.0:
        out = np.zeros_like(b)
        return SolveResult(out[:, 0] if squeeze else out, True, 0, 0.0, [0.0], block_size=s)

    best_Y = Y.copy()
    best_res = np.inf

    tracer = get_tracer()
    t_solve = tracer.now() if tracer.enabled else 0.0

    # Full-level telemetry tracks each column's first tolerance crossing
    # (the per-column convergence iteration); the recurrence itself never
    # reads these, so the numerics are untouched at any level.
    recorder = get_recorder()
    track_cols = recorder.enabled and recorder.full and s > 1
    if track_cols:
        col_b_norms = np.linalg.norm(b, axis=0)
        col_b_norms = np.where(col_b_norms == 0.0, 1.0, col_b_norms)
        # Compare squared norms against (tol * ||b_j||)^2: no sqrt, and the
        # einsum below avoids the |R| temporary linalg.norm would allocate.
        col_tol_sq = (tol * col_b_norms) ** 2
        col_first = np.full(s, -1, dtype=int)

    def _mark_columns(iteration: int, residual_block: np.ndarray) -> None:
        pending = col_first < 0
        if not pending.any():
            return
        col_sq = np.einsum("ij,ij->j", residual_block.conj(),
                           residual_block).real
        col_first[pending & (col_sq <= col_tol_sq)] = iteration

    def _result(converged: bool, iterations: int, history, breakdown: bool = False) -> SolveResult:
        sol = best_Y if breakdown else Y
        sol_out = sol[:, 0] if squeeze else sol
        final = min(history[-1], best_res) if breakdown else history[-1]
        if tracer.enabled:
            tracer.record(
                "cocg_solve", t_solve, block_size=s, iterations=iterations,
                n_matvec=A.n_applies, residual=final, converged=converged,
                breakdown=breakdown,
            )
            if breakdown:
                tracer.event("cocg_breakdown", block_size=s, iteration=iterations)
                tracer.incr("cocg_breakdowns")
        return SolveResult(
            sol_out,
            converged,
            iterations,
            final,
            history,
            n_matvec=A.n_applies,
            block_size=s,
            breakdown=breakdown,
            per_column_iterations=(
                [int(v) for v in col_first] if track_cols else None
            ),
        )

    W = b - A(Y) if x0 is not None else b.copy()
    history = [_frobenius(W) / b_norm]
    best_res = history[-1]
    if track_cols:
        _mark_columns(0, W)
    if history[-1] <= tol:
        return _result(True, 0, history)

    rho = W.T @ W  # unconjugated s x s
    P = W.copy()
    since_improvement = 0

    for it in range(1, max_iterations + 1):
        t_iter = tracer.now() if tracer.enabled else 0.0
        U = A(P)
        mu = P.T @ U
        alpha = _small_solve(mu, rho)
        if alpha is None:
            return _result(False, it - 1, history, breakdown=True)
        Y += P @ alpha
        W -= U @ alpha
        rel = _frobenius(W) / b_norm
        history.append(rel)
        if tracer.enabled:
            tracer.record("cocg_iteration", t_iter, iteration=it,
                          block_size=s, residual=rel)
        finite = math.isfinite(rel)
        if track_cols and finite:
            _mark_columns(it, W)
        if not finite:
            return _result(False, it, history, breakdown=True)
        if rel < best_res:
            best_res = rel
            np.copyto(best_Y, Y)
            since_improvement = 0
        else:
            since_improvement += 1
        if rel <= tol:
            return _result(True, it, history)
        if since_improvement >= _STAGNATION_WINDOW:
            return _result(False, it, history, breakdown=True)
        rho_new = W.T @ W
        beta = _small_solve(rho, rho_new)
        if beta is None:
            return _result(False, it, history, breakdown=True)
        P = W + P @ beta
        rho = rho_new

    return _result(False, max_iterations, history)


def _frobenius(x: np.ndarray) -> float:
    """``float(np.linalg.norm(x))`` for a complex ``x``, by NumPy's own
    formula (``ravel('K')``, then ``re.re + im.im``, then ``sqrt``) without
    its argument handling: the same bits, once per COCG iteration."""
    x = x.ravel(order="K")
    re, im = x.real, x.imag
    return math.sqrt(re.dot(re) + im.dot(im))


def _small_solve(lhs: np.ndarray, rhs: np.ndarray) -> np.ndarray | None:
    """Solve the ``s x s`` recurrence system with rank-deficiency handling.

    Returns None when the system is non-finite (true breakdown); dependent
    directions are truncated via least squares, matching exact-arithmetic
    deflation of converged residual columns.
    """
    if lhs.shape == (1, 1):
        # s = 1 runs every COCG iteration: check Python scalars, not arrays.
        pivot = complex(lhs[0, 0])
        if not (cmath.isfinite(pivot) and all(map(cmath.isfinite, rhs.ravel().tolist()))):
            return None
        if abs(pivot) < 1e-300:
            return None
        return rhs / lhs[0, 0]
    if not (np.isfinite(lhs).all() and np.isfinite(rhs).all()):
        return None
    try:
        sol = np.linalg.solve(lhs, rhs)
        if np.isfinite(sol).all():
            # Guard against catastrophic amplification from near-singularity.
            scale = np.linalg.norm(rhs) / max(np.linalg.norm(lhs), 1e-300)
            if np.linalg.norm(sol) < 1e8 * max(scale, 1.0):
                return sol
    except np.linalg.LinAlgError:
        pass
    sol, *_ = np.linalg.lstsq(lhs, rhs, rcond=_SMALL_RCOND)
    if not np.isfinite(sol).all():
        return None
    return sol
