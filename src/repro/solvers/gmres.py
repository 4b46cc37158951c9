"""Restarted GMRES — the long-recurrence baseline.

The paper contrasts its short-recurrence block COCG against GMRES, which
solves arbitrary systems but whose per-iteration cost and memory grow with
the Krylov basis (no short recurrence). This implementation follows Saad &
Schultz (1986): Arnoldi with modified Gram-Schmidt and Givens-rotation
least squares, with restarts.
"""

from __future__ import annotations

import numpy as np

from repro.obs.telemetry import record_solves
from repro.solvers.linear_operator import as_operator
from repro.solvers.stats import SolveResult


@record_solves("gmres")
def gmres_solve(
    a,
    b: np.ndarray,
    x0: np.ndarray | None = None,
    tol: float = 1e-8,
    max_iterations: int = 1000,
    restart: int = 50,
    n: int | None = None,
) -> SolveResult:
    """Solve ``A x = b`` by restarted GMRES(m).

    Parameters
    ----------
    a:
        Any square operator (no symmetry assumed).
    b:
        Right-hand side ``(n,)``.
    x0:
        Initial guess (zero when omitted).
    tol:
        Relative residual tolerance.
    max_iterations:
        Total inner-iteration cap across restarts.
    restart:
        Krylov basis size ``m`` per cycle.
    """
    A = as_operator(a, n)
    b = np.asarray(b, dtype=complex)
    if b.ndim != 1:
        raise ValueError("gmres_solve expects a single right-hand side")
    if tol <= 0 or restart < 1:
        raise ValueError("tol must be positive and restart >= 1")
    x = np.zeros_like(b) if x0 is None else np.array(x0, dtype=complex, copy=True)
    b_norm = float(np.linalg.norm(b))
    if b_norm == 0.0:
        return SolveResult(np.zeros_like(b), True, 0, 0.0, [0.0])

    history: list[float] = []
    total_iters = 0
    r = b - A(x)
    beta = float(np.linalg.norm(r))
    history.append(beta / b_norm)
    if history[-1] <= tol:
        return SolveResult(x, True, 0, history[-1], history, n_matvec=A.n_applies)

    while total_iters < max_iterations:
        m = min(restart, max_iterations - total_iters)
        V = np.zeros((len(b), m + 1), dtype=complex)
        H = np.zeros((m + 1, m), dtype=complex)
        cs = np.zeros(m, dtype=complex)
        sn = np.zeros(m, dtype=complex)
        g = np.zeros(m + 1, dtype=complex)
        V[:, 0] = r / beta
        g[0] = beta
        k_used = 0
        breakdown = False
        for k in range(m):
            w = A(V[:, k])
            # Modified Gram-Schmidt with one reorthogonalization pass for
            # robustness on ill-conditioned Sternheimer shifts.
            for j in range(k + 1):
                H[j, k] = np.vdot(V[:, j], w)
                w -= H[j, k] * V[:, j]
            for j in range(k + 1):
                corr = np.vdot(V[:, j], w)
                H[j, k] += corr
                w -= corr * V[:, j]
            H[k + 1, k] = np.linalg.norm(w)
            lucky = (H[k + 1, k] == 0
                     or abs(H[k + 1, k]) < 1e-14 * abs(H[0, 0] if k == 0 else 1.0))
            if not lucky:
                V[:, k + 1] = w / H[k + 1, k]
            # Apply stored Givens rotations to the new column.
            for j in range(k):
                t = cs[j] * H[j, k] + sn[j] * H[j + 1, k]
                H[j + 1, k] = -np.conj(sn[j]) * H[j, k] + np.conj(cs[j]) * H[j + 1, k]
                H[j, k] = t
            # New rotation to annihilate H[k+1, k].
            denom = np.sqrt(abs(H[k, k]) ** 2 + abs(H[k + 1, k]) ** 2)
            if denom == 0.0:
                # A maps the new basis vector into the span of the earlier
                # ones' images: the least-squares system is singular and a
                # restart would rebuild the same Krylov space.
                breakdown = True
                break
            cs[k] = np.conj(H[k, k]) / denom
            sn[k] = np.conj(H[k + 1, k]) / denom
            H[k, k] = cs[k] * H[k, k] + sn[k] * H[k + 1, k]
            H[k + 1, k] = 0.0
            g[k + 1] = -np.conj(sn[k]) * g[k]
            g[k] = cs[k] * g[k]
            total_iters += 1
            k_used = k + 1
            history.append(abs(g[k + 1]) / b_norm)
            if history[-1] <= tol or lucky or total_iters >= max_iterations:
                break
        # Solve the small triangular system and update x.
        y = np.linalg.solve(H[:k_used, :k_used], g[:k_used]) if k_used else np.zeros(0)
        x = x + V[:, :k_used] @ y
        r = b - A(x)
        beta = float(np.linalg.norm(r))
        history[-1] = beta / b_norm  # replace estimate with true residual
        if history[-1] <= tol:
            return SolveResult(x, True, total_iters, history[-1], history, n_matvec=A.n_applies)
        if breakdown:
            return SolveResult(x, False, total_iters, history[-1], history, A.n_applies,
                               breakdown=True)

    return SolveResult(x, False, total_iters, history[-1], history, n_matvec=A.n_applies)


def gmres_block_solve(
    a,
    b: np.ndarray,
    x0: np.ndarray | None = None,
    tol: float = 1e-8,
    max_iterations: int = 1000,
    restart: int = 50,
    n: int | None = None,
) -> SolveResult:
    """Column-by-column GMRES with the block-solver calling convention.

    Adapts :func:`gmres_solve` to the ``block_cocg_solve`` signature so the
    resilience layer can use GMRES as an escalation stage for block
    right-hand sides. Each column is solved independently to the *block*
    Frobenius criterion's column share; the aggregate result reports the
    block-relative Frobenius residual (Eq. 10), total iterations and total
    matvecs.
    """
    squeeze = False
    b = np.asarray(b, dtype=complex)
    if b.ndim == 1:
        b = b[:, None]
        squeeze = True
    if b.ndim != 2:
        raise ValueError(f"b must be (n,) or (n, s), got shape {b.shape}")
    n_rows, s = b.shape
    A = as_operator(a, n if n is not None else n_rows)
    if x0 is not None:
        x0 = np.asarray(x0, dtype=complex)
        if x0.ndim == 1:
            x0 = x0[:, None]
        if x0.shape != b.shape:
            raise ValueError(f"x0 shape {x0.shape} != rhs shape {b.shape}")
    b_norm = float(np.linalg.norm(b))
    if b_norm == 0.0:
        out = np.zeros_like(b)
        return SolveResult(out[:, 0] if squeeze else out, True, 0, 0.0, [0.0], block_size=s)

    Y = np.empty_like(b)
    iterations = 0
    per_column_cap = max(1, max_iterations // s) if s > 1 else max_iterations
    all_converged = True
    breakdown = False
    for col in range(s):
        col_norm = float(np.linalg.norm(b[:, col]))
        if col_norm == 0.0:
            Y[:, col] = 0.0
            continue
        # The block Frobenius criterion needs ||R||_F <= tol * ||B||_F;
        # driving each column to tol * ||B||_F / sqrt(s) guarantees it
        # (columns at the plain per-column share can overshoot by sqrt(s)).
        col_tol = min(1.0, tol * b_norm / (np.sqrt(s) * col_norm))
        r = gmres_solve(
            A,
            b[:, col],
            x0=None if x0 is None else x0[:, col],
            tol=col_tol,
            max_iterations=per_column_cap,
            restart=restart,
        )
        Y[:, col] = r.solution
        iterations = max(iterations, r.iterations)
        all_converged = all_converged and r.converged
        breakdown = breakdown or r.breakdown
    residual = float(np.linalg.norm(b - A(Y))) / b_norm
    converged = all_converged and residual <= tol
    return SolveResult(
        Y[:, 0] if squeeze else Y,
        converged,
        iterations,
        residual,
        [residual],
        n_matvec=A.n_applies,
        block_size=s,
        breakdown=breakdown,
    )
