"""Batched multi-orbital Sternheimer kernel (fused-apply COCG).

Every ``chi0(i omega) V`` application solves the ``n_s`` shifted systems

    (H - lambda_j I + i omega I) Y_j = B_j,    j = 1..n_s,

whose coefficient operators differ *only* by the scalar shift
``-lambda_j + i omega``. The per-orbital loop therefore wastes the
dominant cost of each iteration: the ``H`` apply (stencil sweep +
nonlocal-projector gemm) touches one orbital's columns at a time.

:class:`BatchedShiftedOperator` concatenates all right-hand-side blocks at
a quadrature point into one wide ``(n, n_s * n_v)`` matrix and performs a
*single* shared Hamiltonian application per Krylov iteration; the
per-orbital shifts commute with ``H`` (both are applied pointwise to each
column independently) so they reduce to one elementwise broadcast
``Y += X * shifts`` — a diagonal correction costing ``O(n C)`` next to the
``O((6r + 1) n C)`` stencil term that now runs at BLAS-3 width.

Because the shifts differ per column, coupling the columns through one
block-COCG recurrence would be wrong (the ``s x s`` recurrence matrices
assume a *common* operator). :func:`batched_cocg_solve` instead runs an
independent scalar COCG recurrence per column — per-column ``alpha``,
``beta``, residual and stopping test — advanced in lockstep so all columns
share each fused operator application. Columns that converge (or break
down / stagnate) are *masked out*: the active set is compressed so
finished columns drop out of the fused matvec without desynchronizing the
surviving recurrences, which never read any cross-column quantity.

A mixed-precision fast path (:func:`batched_cocg_ir_solve`) runs the COCG
iterations in complex64 and polishes with classical iterative refinement:
the residual is recomputed in float64, columns above tolerance get a
float32 correction solve on the (column-normalized) residual, and the loop
repeats until the *float64* true residual meets the requested tolerance.
Columns that stall or exhaust the refinement budget fall back to a full
float64 solve, so the result always satisfies the same gate as the cold
path.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

# Iterations without any per-column residual improvement before a column is
# declared stagnated: the block solver's window, not a second copy of it.
from repro.solvers.block_cocg import _STAGNATION_WINDOW
from repro.solvers.linear_operator import as_operator

#: Default inner tolerance for the float32 correction solves. Single
#: precision bottoms out near 1e-6 relative residual; stopping well above
#: that keeps every inner iteration productive.
_IR_INNER_TOL = 1e-4

#: Default refinement-round budget before the float64 fallback engages.
_IR_MAX_REFINEMENTS = 8

#: A refinement round must shrink the worst remaining residual by at least
#: this factor, else the f32 solves have hit their precision floor and the
#: driver falls back to float64 immediately instead of burning the budget.
_IR_MIN_PROGRESS = 0.3


class BatchedShiftedOperator:
    """``X -> H X + X * diag(shifts)`` over a fused multi-orbital block.

    Parameters
    ----------
    base:
        The shared operator ``H`` — anything :func:`as_operator` accepts
        (the Hamiltonian, a dense/sparse matrix, a callable).
    shifts:
        Per-column complex shifts, length ``C = n_s * n_v``; column ``c``
        of an application receives ``base(X)[:, c] + shifts[c] * X[:, c]``.
    n:
        Dimension (required only for bare-callable bases).
    dtype:
        ``complex128`` (default) or ``complex64`` for the mixed-precision
        path (see :meth:`single_precision`).
    """

    def __init__(self, base, shifts: np.ndarray, n: int | None = None,
                 dtype=np.complex128) -> None:
        self.dtype = np.dtype(dtype)
        if self.dtype not in (np.dtype(np.complex128), np.dtype(np.complex64)):
            raise ValueError(f"dtype must be complex128 or complex64, got {self.dtype}")
        self.base = base
        self._op = as_operator(base, n)
        self.n = self._op.n
        shifts = np.asarray(shifts)
        if shifts.ndim != 1 or shifts.size == 0:
            raise ValueError(f"shifts must be a non-empty 1-D array, got shape {shifts.shape}")
        self.shifts = shifts.astype(self.dtype)
        self.n_columns = int(shifts.size)

    def apply(self, x: np.ndarray, cols: np.ndarray | None = None) -> np.ndarray:
        """One fused application to the columns indexed by ``cols``.

        ``cols`` selects which global shift belongs to each operand column
        (all of them, in order, when omitted) — this is what lets converged
        columns drop out of the matvec.
        """
        x = np.asarray(x)
        if x.ndim != 2:
            raise ValueError(f"operand must be (n, c), got shape {x.shape}")
        shifts = self.shifts if cols is None else self.shifts[cols]
        if x.shape[1] != shifts.size:
            raise ValueError(
                f"operand has {x.shape[1]} columns but {shifts.size} shifts were selected"
            )
        return self._op(x) + x * shifts

    def single_precision(self) -> "BatchedShiftedOperator":
        """A complex64 clone over the base demoted to single precision.

        One rule for every base that owns its precision (ndarray, scipy
        sparse, the Hamiltonian): ``base.astype(...)``, complex64 when the
        base is complex, float32 otherwise — rebuilt per call, so it is never
        stale against the float64 base. A bare callable or a
        ``CountingOperator`` only gets its output cast (correct, not faster).
        """
        if self.dtype == np.dtype(np.complex64):
            return self
        if hasattr(self.base, "astype"):
            is_complex = np.dtype(getattr(self.base, "dtype", float)).kind == "c"
            base32 = self.base.astype(np.complex64 if is_complex else np.float32)
        else:
            op = self._op
            base32 = lambda x: np.asarray(op(x), dtype=np.complex64)
        return BatchedShiftedOperator(base32, self.shifts, n=self.n, dtype=np.complex64)


@dataclass
class BatchedSolveResult:
    """Outcome of one batched multi-shift solve.

    All per-column arrays have length ``C`` (the full batch width), in the
    global column order of the operator — including columns the driver was
    given via a ``cols`` subset, which are reported at their subset
    positions.
    """

    solution: np.ndarray            # (n, C)
    converged: np.ndarray           # (C,) bool
    residual_norms: np.ndarray      # (C,) final per-column relative residual
    initial_residual_norms: np.ndarray  # (C,) the same at iteration 0 (of x0)
    col_iterations: np.ndarray      # (C,) first tolerance crossing (-1: never)
    iterations: int                 # lockstep iterations performed
    n_batched_applies: int          # fused operator applications
    col_applies: np.ndarray         # (C,) per-column operator applications
    broken: np.ndarray              # (C,) bool: breakdown / stagnation
    residual_history: list[float] = field(default_factory=list)
    dtype: str = "float64"
    n_refinements: int = 0          # IR rounds performed (f32 path only)
    n_fallback_columns: int = 0     # columns polished by the f64 fallback

    @property
    def all_converged(self) -> bool:
        return bool(self.converged.all())

    @property
    def n_matvec(self) -> int:
        """Total column-applies (the accounting the equivalence suite pins)."""
        return int(self.col_applies.sum())

    @property
    def residual_norm(self) -> float:
        return float(self.residual_norms.max()) if self.residual_norms.size else 0.0

    @property
    def breakdown(self) -> bool:
        return bool(self.broken.any())


def _column_norms(block: np.ndarray) -> np.ndarray:
    """Per-column l2 norms without the |block| temporary."""
    return np.sqrt(np.einsum("ij,ij->j", block.conj(), block).real)


def batched_cocg_solve(
    op: BatchedShiftedOperator,
    b: np.ndarray,
    x0: np.ndarray | None = None,
    tol: float = 1e-8,
    max_iterations: int = 1000,
    cols: np.ndarray | None = None,
    stagnation_window: int = _STAGNATION_WINDOW,
) -> BatchedSolveResult:
    """Per-column COCG recurrences in lockstep over one fused operator.

    Parameters
    ----------
    op:
        The batched shifted operator (its dtype sets the working precision).
    b:
        Right-hand sides ``(n, C)``; column ``c`` belongs to global operator
        column ``cols[c]``.
    x0:
        Optional initial block guess.
    tol:
        Per-column relative residual tolerance (``||r_c|| <= tol ||b_c||``).
    cols:
        Global operator column index per RHS column (``arange(C)`` when
        omitted).

    Notes
    -----
    Masking never freezes an unconverged column: a column leaves the active
    set only by crossing ``tol`` or by breakdown/stagnation (reported in
    ``broken``), so on exit ``converged | broken`` covers every column the
    iteration cap did not cut off.
    """
    b = np.asarray(b)
    if b.ndim != 2:
        raise ValueError(f"b must be (n, C), got shape {b.shape}")
    if tol <= 0:
        raise ValueError("tol must be positive")
    n, C = b.shape
    if op.n != n:
        raise ValueError(f"operator dim {op.n} != rhs rows {n}")
    if cols is None:
        if C != op.n_columns:
            raise ValueError(
                f"rhs has {C} columns but the operator carries "
                f"{op.n_columns} shifts (pass cols= for a subset)"
            )
        cols = np.arange(C)
    else:
        cols = np.asarray(cols, dtype=int)
        if cols.shape != (C,):
            raise ValueError(f"cols must have shape ({C},), got {cols.shape}")
    wdtype = op.dtype
    tiny = 1e-30 if wdtype == np.dtype(np.complex64) else 1e-300

    if x0 is None:
        X = np.zeros((n, C), dtype=wdtype)
    else:
        X = np.asarray(x0).astype(wdtype, copy=True)
        if X.shape != (n, C):
            raise ValueError(f"x0 shape {X.shape} != rhs shape {(n, C)}")

    b_norms = _column_norms(np.asarray(b, dtype=wdtype))
    converged = np.zeros(C, dtype=bool)
    broken = np.zeros(C, dtype=bool)
    col_iterations = np.full(C, -1, dtype=np.int64)
    col_applies = np.zeros(C, dtype=np.int64)
    residuals = np.full(C, np.inf)
    initial_residuals = np.zeros(C)
    n_batched_applies = 0
    history: list[float] = []
    b_frob = float(np.linalg.norm(b_norms))

    zero = b_norms == 0.0
    converged[zero] = True
    col_iterations[zero] = 0
    residuals[zero] = 0.0
    X[:, zero] = 0.0

    def aggregate(res: np.ndarray) -> float:
        # Block-Frobenius relative residual over *all* columns (converged
        # ones contribute their frozen final residuals).
        if b_frob == 0.0:
            return 0.0
        return float(np.linalg.norm(res * b_norms)) / b_frob

    def result(iterations: int) -> BatchedSolveResult:
        return BatchedSolveResult(
            solution=X,
            converged=converged,
            residual_norms=np.where(np.isfinite(residuals), residuals, np.inf),
            initial_residual_norms=initial_residuals,
            col_iterations=col_iterations,
            iterations=iterations,
            n_batched_applies=n_batched_applies,
            col_applies=col_applies,
            broken=broken,
            residual_history=history,
            dtype="float32" if wdtype == np.dtype(np.complex64) else "float64",
        )

    idx = np.flatnonzero(~zero)
    if idx.size == 0:
        history.append(0.0)
        return result(0)

    R = np.asarray(b[:, idx]).astype(wdtype, copy=True)
    if x0 is not None:
        R -= op.apply(X[:, idx], cols[idx])
        n_batched_applies += 1
        col_applies[idx] += 1
    bn = b_norms[idx]
    rel = _column_norms(R) / bn
    residuals[idx] = rel
    initial_residuals[idx] = rel
    history.append(aggregate(residuals))

    nonfin = ~np.isfinite(rel)
    conv_now = (rel <= tol) & ~nonfin
    col_iterations[idx[conv_now]] = 0
    broken[idx[nonfin]] = True
    converged[idx[conv_now]] = True
    keep = ~(conv_now | nonfin)
    idx, R, bn, rel = idx[keep], R[:, keep], bn[keep], rel[keep]
    if idx.size == 0:
        return result(0)

    best_rel = rel.copy()
    since_improvement = np.zeros(idx.size, dtype=np.int64)
    rho = np.einsum("ij,ij->j", R, R)
    P = R.copy()

    for it in range(1, max_iterations + 1):
        U = op.apply(P, cols[idx])
        n_batched_applies += 1
        col_applies[idx] += 1
        sigma = np.einsum("ij,ij->j", P, U)
        bad = ~np.isfinite(sigma) | (np.abs(sigma) < tiny)
        with np.errstate(all="ignore"):
            alpha = np.where(bad, 0.0, rho / np.where(bad, 1.0, sigma))
        X[:, idx] += P * alpha
        R -= U * alpha
        rel = _column_norms(R) / bn
        residuals[idx] = rel
        history.append(aggregate(residuals))

        nonfin = ~np.isfinite(rel)
        improved = (rel < best_rel) & ~nonfin
        since_improvement = np.where(improved, 0, since_improvement + 1)
        best_rel = np.where(improved, rel, best_rel)
        conv_now = (rel <= tol) & ~nonfin & ~bad
        brk_now = bad | nonfin | (since_improvement >= stagnation_window)
        newly_conv = conv_now & (col_iterations[idx] < 0)
        col_iterations[idx[newly_conv]] = it
        broken[idx[brk_now & ~conv_now]] = True

        converged[idx[conv_now]] = True
        keep = ~(conv_now | brk_now)
        if not keep.all():
            idx, R, P, bn, rho = idx[keep], R[:, keep], P[:, keep], bn[keep], rho[keep]
            best_rel = best_rel[keep]
            since_improvement = since_improvement[keep]
        if idx.size == 0:
            return result(it)

        rho_new = np.einsum("ij,ij->j", R, R)
        bad_beta = ~np.isfinite(rho_new) | (np.abs(rho) < tiny)
        with np.errstate(all="ignore"):
            beta = np.where(bad_beta, 0.0, rho_new / np.where(bad_beta, 1.0, rho))
        if bad_beta.any():
            broken[idx[bad_beta]] = True
            keep = ~bad_beta
            idx, R, P, bn, rho_new, beta = (idx[keep], R[:, keep], P[:, keep],
                                            bn[keep], rho_new[keep], beta[keep])
            best_rel = best_rel[keep]
            since_improvement = since_improvement[keep]
            if idx.size == 0:
                return result(it)
        P = R + P * beta
        rho = rho_new

    return result(max_iterations)


def batched_cocg_ir_solve(
    op: BatchedShiftedOperator,
    b: np.ndarray,
    x0: np.ndarray | None = None,
    tol: float = 1e-8,
    max_iterations: int = 1000,
    inner_tol: float = _IR_INNER_TOL,
    max_refinements: int = _IR_MAX_REFINEMENTS,
    stagnation_window: int = _STAGNATION_WINDOW,
) -> BatchedSolveResult:
    """float32 batched COCG with float64 iterative-refinement polish.

    Classical iterative refinement: the defect ``R = B - A X`` is computed
    in float64 with the *exact* operator; each unconverged column gets a
    complex64 correction solve on its normalized defect (normalization
    keeps tiny late-round defects inside float32's dynamic range); the
    correction is accumulated into the float64 iterate. Rounds repeat until
    every column's float64 relative residual meets ``tol`` — the same true
    residual ``repro.verify`` recomputes — or the budget/progress guard
    trips, at which point the remaining columns are re-solved in float64
    from the current iterate (counted in ``n_fallback_columns``).
    """
    b = np.asarray(b)
    if b.ndim != 2:
        raise ValueError(f"b must be (n, C), got shape {b.shape}")
    if tol <= 0:
        raise ValueError("tol must be positive")
    n, C = b.shape
    if op.n != n:
        raise ValueError(f"operator dim {op.n} != rhs rows {n}")
    if C != op.n_columns:
        raise ValueError(f"rhs has {C} columns but operator carries {op.n_columns} shifts")
    if max_refinements < 0:
        raise ValueError("max_refinements must be non-negative")
    op32 = op.single_precision()

    if x0 is None:
        X = np.zeros((n, C), dtype=np.complex128)
    else:
        X = np.asarray(x0).astype(np.complex128, copy=True)
        if X.shape != (n, C):
            raise ValueError(f"x0 shape {X.shape} != rhs shape {(n, C)}")

    b_norms = _column_norms(np.asarray(b, dtype=complex))
    converged = np.zeros(C, dtype=bool)
    broken = np.zeros(C, dtype=bool)
    col_iterations = np.full(C, -1, dtype=np.int64)
    col_applies = np.zeros(C, dtype=np.int64)
    residuals = np.full(C, np.inf)
    history: list[float] = []
    n_batched_applies = 0
    total_iterations = 0
    n_refinements = 0
    b_frob = float(np.linalg.norm(b_norms))

    zero = b_norms == 0.0
    converged[zero] = True
    col_iterations[zero] = 0
    residuals[zero] = 0.0
    X[:, zero] = 0.0

    rem = np.flatnonzero(~zero)
    initial_residuals = np.zeros(C)
    prev_worst = np.inf
    fallback_cols = np.zeros(0, dtype=int)

    while rem.size:
        # float64 defect with the exact operator — the gate is the true
        # residual, never the f32 recurrence's own estimate.
        R = b[:, rem].astype(np.complex128) - op.apply(X[:, rem], rem)
        n_batched_applies += 1
        col_applies[rem] += 1
        rel = _column_norms(R) / b_norms[rem]
        residuals[rem] = rel
        if n_batched_applies == 1:  # first defect: the residual of x0
            initial_residuals[rem] = rel
        if b_frob > 0.0:
            history.append(float(np.linalg.norm(residuals * b_norms)) / b_frob)

        done = rel <= tol
        newly = rem[done]
        converged[newly] = True
        col_iterations[newly] = np.where(
            col_iterations[newly] < 0, total_iterations, col_iterations[newly]
        )
        rem = rem[~done]
        R = R[:, ~done]
        rel = rel[~done]
        if rem.size == 0:
            break

        worst = float(rel.max())
        stalled = n_refinements > 0 and worst > _IR_MIN_PROGRESS * prev_worst
        if n_refinements >= max_refinements or stalled:
            fallback_cols = rem.copy()
            break
        prev_worst = worst

        # Column-normalized f32 correction solve: A dX = R / ||R_c||.
        scale = _column_norms(R)
        scale = np.where(scale == 0.0, 1.0, scale)
        inner = batched_cocg_solve(
            op32,
            (R / scale).astype(np.complex64),
            tol=inner_tol,
            max_iterations=max_iterations,
            cols=rem,
            stagnation_window=stagnation_window,
        )
        X[:, rem] += inner.solution.astype(np.complex128) * scale
        n_batched_applies += inner.n_batched_applies
        col_applies[rem] += inner.col_applies[: rem.size]
        total_iterations += inner.iterations
        n_refinements += 1

    if fallback_cols.size:
        # Budget exhausted or f32 hit its precision floor: finish the
        # stragglers with the float64 recurrence from the current iterate.
        res64 = batched_cocg_solve(
            op,
            b[:, fallback_cols],
            x0=X[:, fallback_cols],
            tol=tol,
            max_iterations=max_iterations,
            cols=fallback_cols,
            stagnation_window=stagnation_window,
        )
        X[:, fallback_cols] = res64.solution
        converged[fallback_cols] = res64.converged[: fallback_cols.size]
        broken[fallback_cols] = res64.broken[: fallback_cols.size]
        residuals[fallback_cols] = res64.residual_norms[: fallback_cols.size]
        settled = res64.col_iterations[: fallback_cols.size] >= 0
        col_iterations[fallback_cols[settled]] = (
            total_iterations + res64.col_iterations[: fallback_cols.size][settled]
        )
        n_batched_applies += res64.n_batched_applies
        col_applies[fallback_cols] += res64.col_applies[: fallback_cols.size]
        total_iterations += res64.iterations
        history.extend(res64.residual_history)
    elif rem.size:
        # Unreachable by construction (rem empties or becomes fallback_cols),
        # but keep the accounting honest if the loop is ever restructured.
        broken[rem] = True

    return BatchedSolveResult(
        solution=X,
        converged=converged,
        residual_norms=np.where(np.isfinite(residuals), residuals, np.inf),
        initial_residual_norms=initial_residuals,
        col_iterations=col_iterations,
        iterations=total_iterations,
        n_batched_applies=n_batched_applies,
        col_applies=col_applies,
        broken=broken,
        residual_history=history,
        dtype="float32_ir",
        n_refinements=n_refinements,
        n_fallback_columns=int(fallback_cols.size),
    )
