"""Bit pins for the batched kernel's compact active block.

``batched_cocg_solve`` keeps the active columns' iterates in one compact
block updated in place, and scatters a column back into the full solution
when it retires and on every exit. That is bookkeeping only: the solution
must equal, byte for byte, the textbook lockstep recurrence kept below,
which updates ``X[:, idx]`` through fancy indexing on every iteration.
"""

import numpy as np
import pytest

from repro.solvers import BatchedShiftedOperator, batched_cocg_ir_solve, batched_cocg_solve
from repro.solvers.batched import _IR_INNER_TOL, _column_norms
from repro.solvers.block_cocg import _STAGNATION_WINDOW


def _textbook(op, b, x0=None, tol=1e-8, max_iterations=1000,
              stagnation_window=_STAGNATION_WINDOW):
    """Per-column COCG in lockstep over ``H X + X * shifts``, every column
    of ``X`` updated where it lives."""
    n, C = b.shape
    cols = np.arange(C)
    wdtype = op.dtype
    tiny = 1e-30 if wdtype == np.dtype(np.complex64) else 1e-300

    def apply(x, c):
        return op._op(x) + x * op.shifts[c]

    X = np.zeros((n, C), dtype=wdtype) if x0 is None else np.asarray(x0).astype(wdtype)
    b_norms = _column_norms(np.asarray(b, dtype=wdtype))
    converged = np.zeros(C, dtype=bool)
    col_iterations = np.full(C, -1, dtype=np.int64)
    n_applies = 0
    zero = b_norms == 0.0
    converged[zero] = True
    col_iterations[zero] = 0
    X[:, zero] = 0.0
    idx = np.flatnonzero(~zero)
    if idx.size == 0:
        return X, converged, col_iterations, 0, n_applies
    R = np.asarray(b[:, idx]).astype(wdtype, copy=True)
    if x0 is not None:
        R -= apply(X[:, idx], cols[idx])
        n_applies += 1
    bn = b_norms[idx]
    rel = _column_norms(R) / bn
    nonfin = ~np.isfinite(rel)
    conv_now = (rel <= tol) & ~nonfin
    col_iterations[idx[conv_now]] = 0
    converged[idx[conv_now]] = True
    keep = ~(conv_now | nonfin)
    idx, R, bn, rel = idx[keep], R[:, keep], bn[keep], rel[keep]
    if idx.size == 0:
        return X, converged, col_iterations, 0, n_applies
    best_rel = rel.copy()
    since = np.zeros(idx.size, dtype=np.int64)
    rho = np.einsum("ij,ij->j", R, R)
    P = R.copy()
    for it in range(1, max_iterations + 1):
        U = apply(P, cols[idx])
        n_applies += 1
        sigma = np.einsum("ij,ij->j", P, U)
        bad = ~np.isfinite(sigma) | (np.abs(sigma) < tiny)
        with np.errstate(all="ignore"):
            alpha = np.where(bad, 0.0, rho / np.where(bad, 1.0, sigma))
        X[:, idx] += P * alpha
        R -= U * alpha
        rel = _column_norms(R) / bn
        nonfin = ~np.isfinite(rel)
        improved = (rel < best_rel) & ~nonfin
        since = np.where(improved, 0, since + 1)
        best_rel = np.where(improved, rel, best_rel)
        conv_now = (rel <= tol) & ~nonfin & ~bad
        brk_now = bad | nonfin | (since >= stagnation_window)
        newly = conv_now & (col_iterations[idx] < 0)
        col_iterations[idx[newly]] = it
        converged[idx[conv_now]] = True
        keep = ~(conv_now | brk_now)
        idx, R, P, bn, rho = idx[keep], R[:, keep], P[:, keep], bn[keep], rho[keep]
        best_rel, since = best_rel[keep], since[keep]
        if idx.size == 0:
            return X, converged, col_iterations, it, n_applies
        rho_new = np.einsum("ij,ij->j", R, R)
        bad_beta = ~np.isfinite(rho_new) | (np.abs(rho) < tiny)
        with np.errstate(all="ignore"):
            beta = np.where(bad_beta, 0.0, rho_new / np.where(bad_beta, 1.0, rho))
        keep = ~bad_beta
        idx, R, P, bn, rho_new, beta = (idx[keep], R[:, keep], P[:, keep],
                                        bn[keep], rho_new[keep], beta[keep])
        best_rel, since = best_rel[keep], since[keep]
        if idx.size == 0:
            return X, converged, col_iterations, it, n_applies
        P = R + P * beta
        rho = rho_new
    return X, converged, col_iterations, max_iterations, n_applies


def _system(n=40, n_orb=4, n_v=3, seed=0, omega=0.3, definite=True):
    rng = np.random.default_rng(seed)
    q, _ = np.linalg.qr(rng.standard_normal((n, n)))
    spec = rng.uniform(0.5, 10.0, n) if definite else rng.uniform(-5.0, 5.0, n)
    S = (q * spec) @ q.T
    # Spread shifts: columns retire at very different iterations.
    lam = np.linspace(-2.0, 3.0, n_orb)
    shifts = np.repeat(-lam, n_v) + 1j * omega * np.repeat(np.geomspace(0.1, 10, n_orb), n_v)
    return BatchedShiftedOperator(S, shifts), rng.standard_normal((n, n_orb * n_v))


def _assert_same(res, ref):
    X, converged, col_iterations, iterations, n_applies = ref
    assert res.solution.tobytes() == X.tobytes()
    assert (res.converged == converged).all()
    assert (res.col_iterations == col_iterations).all()
    assert (res.iterations, res.n_batched_applies) == (iterations, n_applies)


CASES = {
    "retire-mid-run": dict(),
    "zero-column": dict(zero=True),
    "x0": dict(x0=True),
    "iteration-cap": dict(max_iterations=6),
    "stagnation": dict(definite=False, stagnation_window=3, tol=1e-14),
}


@pytest.mark.parametrize("case", list(CASES))
def test_compact_active_block_matches_the_textbook_recurrence(case):
    kw = dict(CASES[case])
    op, b = _system(definite=kw.pop("definite", True))
    if kw.pop("zero", False):
        b[:, 4] = 0.0
    x0 = None
    if kw.pop("x0", False):
        x0 = 0.1 * np.random.default_rng(7).standard_normal(b.shape) + 0j
    kw.setdefault("tol", 1e-10)
    res = batched_cocg_solve(op, b, x0=x0, **kw)
    ref = _textbook(op, b, x0=x0, **kw)
    _assert_same(res, ref)
    retired = np.unique(res.col_iterations[res.col_iterations > 0])
    if case == "retire-mid-run":
        assert retired.size > 1  # columns left the active set at several steps
    if case == "iteration-cap":
        assert not res.converged.all()
    if case == "stagnation":
        assert res.broken.any()


def test_float32_ir_path_matches_the_textbook_recurrence_twice():
    op, b = _system(seed=3)
    b[:, 2] = 0.0
    res = batched_cocg_ir_solve(op, b, tol=1e-10)
    fast = _textbook(op.single_precision(), b, tol=max(1e-10, _IR_INNER_TOL))
    ref = _textbook(op, b, x0=fast[0], tol=1e-10)
    assert res.solution.tobytes() == ref[0].tobytes()
    assert (res.converged == ref[1]).all()
    assert res.n_batched_applies == fast[4] + ref[4]


def test_shift_added_in_place_equals_the_textbook_sum():
    op, b = _system(seed=5)
    x = np.random.default_rng(1).standard_normal(b.shape) + 1j
    cols = np.arange(2, b.shape[1])
    sub = np.ascontiguousarray(x[:, cols])
    assert op.apply(sub, cols).tobytes() == (op._op(sub) + sub * op.shifts[cols]).tobytes()
    assert op.apply(x).tobytes() == (op._op(x) + x * op.shifts).tobytes()
    identity = BatchedShiftedOperator(lambda v: v, op.shifts, n=op.n)
    kept = x.copy()
    assert identity.apply(x).tobytes() == (kept + kept * op.shifts).tobytes()
    assert x.tobytes() == kept.tobytes()  # an operator returning its operand is not written
    view = BatchedShiftedOperator(lambda v: v[:, ::-1][:, ::-1], op.shifts, n=op.n)
    assert view.apply(x).tobytes() == (kept + kept * op.shifts).tobytes()
    assert x.tobytes() == kept.tobytes()  # nor one returning a view of it
    real = x.real.copy()  # a real operand's image is real: the sum is not
    assert op.apply(real).tobytes() == (op._op(real) + real * op.shifts).tobytes()

