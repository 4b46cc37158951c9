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

A mixed-precision fast path (:func:`batched_cocg_ir_solve`) is the same
recurrence run twice: one complex64 pass to ``max(tol, 1e-5)``, then the
float64 recurrence started from its iterate. The float64 pass recomputes
``b - A x`` with the exact operator at iteration 0, so a column the
complex64 pass really finished exits there, and one that stalled (or
whose float32 residual estimate lied) is finished in float64 — the result
always satisfies the same true-residual gate as the cold path.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

# Iterations without any per-column residual improvement before a column is
# declared stagnated: the block solver's window, not a second copy of it.
from repro.solvers.block_cocg import _STAGNATION_WINDOW
from repro.solvers.linear_operator import as_operator

#: Floor on the complex64 pass's tolerance. Single precision bottoms out
#: near 1e-6 relative residual; asking it for less only burns iterations
#: the float64 pass has to redo anyway.
_IR_INNER_TOL = 1e-5


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
        out = self._op(x)
        shifted = x * shifts
        # In place when the image is a fresh block of the sum's dtype: the
        # same sum without a third block. An image of another dtype (a real
        # operand's) or one overlapping the operand gets the plain sum.
        if out.dtype == np.result_type(out, shifted) and not np.may_share_memory(out, x):
            out += shifted
            return out
        return out + shifted

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
    n_fallback_columns: int = 0     # f32 path: columns the f64 pass iterated on

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
    # The active columns' iterates live compactly in Xa, updated in place;
    # a column goes back to X when it retires (and all of them on exit).
    Xa = X[:, idx]

    def retire(keep: np.ndarray) -> np.ndarray:
        X[:, idx[~keep]] = Xa[:, ~keep]
        return Xa[:, keep]

    for it in range(1, max_iterations + 1):
        U = op.apply(P, cols[idx])
        n_batched_applies += 1
        col_applies[idx] += 1
        sigma = np.einsum("ij,ij->j", P, U)
        bad = ~np.isfinite(sigma) | (np.abs(sigma) < tiny)
        with np.errstate(all="ignore"):
            alpha = np.where(bad, 0.0, rho / np.where(bad, 1.0, sigma))
        Xa += P * alpha
        R -= U * alpha
        U = None  # not held through the next apply, the kernel's peak
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
            Xa = retire(keep)
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
            Xa = retire(keep)
            idx, R, P, bn, rho_new, beta = (idx[keep], R[:, keep], P[:, keep],
                                            bn[keep], rho_new[keep], beta[keep])
            best_rel = best_rel[keep]
            since_improvement = since_improvement[keep]
            if idx.size == 0:
                return result(it)
        P = R + P * beta
        rho = rho_new

    X[:, idx] = Xa
    return result(max_iterations)


def batched_cocg_ir_solve(
    op: BatchedShiftedOperator,
    b: np.ndarray,
    x0: np.ndarray | None = None,
    tol: float = 1e-8,
    max_iterations: int = 1000,
    stagnation_window: int = _STAGNATION_WINDOW,
) -> BatchedSolveResult:
    """One complex64 pass finished by the float64 recurrence.

    The complex64 pass runs on ``op.single_precision()`` to ``max(tol,
    1e-5)``; the float64 pass restarts from its iterate. Its
    iteration 0 computes ``b - A x`` in float64 with the exact operator —
    the same true residual ``repro.verify`` recomputes — so a column the
    complex64 pass finished exits there, and a column that stalled, broke
    down or was misjudged by its float32 residual estimate is finished in
    float64 (counted in ``n_fallback_columns``).
    """
    kw = dict(max_iterations=max_iterations, stagnation_window=stagnation_window)
    fast = batched_cocg_solve(op.single_precision(), b, x0=x0,
                              tol=max(tol, _IR_INNER_TOL), **kw)
    res = batched_cocg_solve(op, b, x0=fast.solution, tol=tol, **kw)
    handed_over = res.col_iterations == 0  # passed the float64 gate at once
    crossing32 = np.where(fast.col_iterations >= 0, fast.col_iterations, fast.iterations)
    crossing64 = np.where(res.col_iterations > 0, fast.iterations + res.col_iterations, -1)
    return replace(
        res,
        initial_residual_norms=fast.initial_residual_norms,
        col_iterations=np.where(handed_over, crossing32, crossing64),
        iterations=fast.iterations + res.iterations,
        n_batched_applies=fast.n_batched_applies + res.n_batched_applies,
        col_applies=fast.col_applies + res.col_applies,
        residual_history=fast.residual_history + res.residual_history,
        dtype="float32_ir",
        n_fallback_columns=int((~handed_over).sum()),
    )
