"""Trace estimators for ``Tr[ln(I - M) + M]`` with ``M = nu chi0(i omega)``.

Three routes, mirroring the paper's Section II discussion:

* :func:`trace_from_eigenvalues` — the production path and the sweep's only
  energy rule (Section III-A): sum ``f(mu_j)`` over the Ritz values that
  Algorithm 5 converged. Since ``f(mu) = ln(1 - mu) + mu = O(mu^2)`` near
  zero and the spectrum decays rapidly (Figure 1), truncation converges
  fast in ``n_eig``.
* :func:`block_lanczos_trace` — the paper's *future work* replacement for
  the poorly-scaling dense eigensolve (Section V): stochastic Lanczos
  quadrature, embarrassingly parallel over probe vectors, in the block
  form the paper suggests ("in a similar fashion to block COCG"). At
  ``block_size=1`` it is plain SLQ.
* :func:`hutchinson_trace` — the plain Hutchinson estimator applied to
  ``f(M) v`` products realized with a Chebyshev expansion of ``f`` on the
  spectral interval.

The two stochastic estimators take any Hermitian operator, e.g.
``Chi0Operator.apply_symmetrized``; they are not part of the sweep.
"""

from __future__ import annotations

from typing import Callable

import numpy as np
import scipy.linalg

from repro.utils.rng import default_rng


def rpa_integrand(mu: np.ndarray) -> np.ndarray:
    """``f(mu) = ln(1 - mu) + mu`` elementwise (requires ``mu < 1``)."""
    mu = np.asarray(mu, dtype=float)
    if np.any(mu >= 1.0):
        raise ValueError("rpa integrand requires eigenvalues below 1")
    return np.log1p(-mu) + mu


def trace_from_eigenvalues(mu: np.ndarray) -> float:
    """Partial-spectrum trace approximation (paper Section III-A)."""
    return float(np.sum(rpa_integrand(mu)))


def block_lanczos_trace(
    apply_op: Callable[[np.ndarray], np.ndarray],
    n: int,
    f: Callable[[np.ndarray], np.ndarray] = rpa_integrand,
    block_size: int = 8,
    lanczos_steps: int = 25,
    n_blocks: int = 2,
    seed: int | None = None,
) -> float:
    """Estimate ``Tr[f(A)]`` for Hermitian ``A`` with block SLQ.

    A block Lanczos recurrence with full reorthogonalization builds a block
    tridiagonal ``T``; the quadratic forms ``z_i^T f(A) z_i`` of all probes
    in the block are then read off the eigendecomposition of ``T``
    simultaneously, sharing the operator applications exactly the way
    block COCG shares them across right-hand sides.

    Parameters
    ----------
    apply_op:
        Block application ``V -> A V`` (must accept ``(n, b)`` operands).
    n:
        Operator dimension.
    f:
        Spectral function (defaults to the RPA integrand).
    block_size:
        Probes processed per block recurrence (the analogue of COCG's s).
    lanczos_steps:
        Block iterations; the Krylov dimension is ``block_size * steps``.
    n_blocks:
        Independent probe blocks averaged (variance reduction).

    Returns
    -------
    Trace estimate (mean over all ``block_size * n_blocks`` probes).
    """
    if block_size < 1 or lanczos_steps < 1 or n_blocks < 1:
        raise ValueError("block_size, lanczos_steps and n_blocks must be >= 1")
    if block_size > n:
        raise ValueError(f"block_size {block_size} exceeds dimension {n}")
    rng = default_rng(seed)
    estimates = []
    for _ in range(n_blocks):
        Z = rng.choice([-1.0, 1.0], size=(n, block_size))
        estimates.append(_block_slq_forms(apply_op, Z, f, lanczos_steps).mean())
    return float(np.mean(estimates))


def hutchinson_trace(
    apply_op: Callable[[np.ndarray], np.ndarray],
    n: int,
    spectrum_bound: float,
    f: Callable[[np.ndarray], np.ndarray] = rpa_integrand,
    n_probes: int = 16,
    chebyshev_degree: int = 40,
    seed: int | None = None,
) -> float:
    """Hutchinson estimator of ``Tr[f(A)]`` via Chebyshev expansion of ``f``.

    ``A`` must be Hermitian with spectrum inside ``[spectrum_bound, 0]``
    (``spectrum_bound < 0``); ``f`` is expanded in Chebyshev polynomials on
    that interval and ``f(A) z`` realized with the three-term recurrence.
    """
    if spectrum_bound >= 0:
        raise ValueError("spectrum_bound must be negative (spectrum in [bound, 0])")
    if n_probes < 1 or chebyshev_degree < 1:
        raise ValueError("n_probes and chebyshev_degree must be >= 1")
    a, b = spectrum_bound, 0.0
    center, half = 0.5 * (a + b), 0.5 * (b - a)
    # Chebyshev coefficients of f on [a, b] via the DCT-like collocation.
    m = chebyshev_degree + 1
    theta = np.pi * (np.arange(m) + 0.5) / m
    x = np.cos(theta)
    fx = f(center + half * x)
    coeffs = np.array([2.0 / m * np.sum(fx * np.cos(k * theta)) for k in range(m)])
    coeffs[0] *= 0.5

    rng = default_rng(seed)

    def f_apply(z: np.ndarray) -> np.ndarray:
        # y = sum_k c_k T_k(As) z with As = (A - center)/half.
        t_prev = z
        t_curr = (apply_op(z) - center * z) / half
        y = coeffs[0] * t_prev + coeffs[1] * t_curr
        for k in range(2, m):
            t_next = 2.0 * (apply_op(t_curr) - center * t_curr) / half - t_prev
            y += coeffs[k] * t_next
            t_prev, t_curr = t_curr, t_next
        return y

    total = 0.0
    for _ in range(n_probes):
        z = rng.choice([-1.0, 1.0], size=n)
        total += float(z @ f_apply(z))
    return total / n_probes


# -- helpers -------------------------------------------------------------------


def _block_slq_forms(
    apply_op: Callable[[np.ndarray], np.ndarray],
    Z: np.ndarray,
    f: Callable[[np.ndarray], np.ndarray],
    steps: int,
) -> np.ndarray:
    """Per-probe quadratic forms ``diag(Z^T f(A) Z)`` via block Lanczos.

    Uses rank-revealing (SVD) deflation: directions exhausted by an
    invariant subspace are dropped and the recurrence continues with a
    narrower block — the block-Lanczos analogue of the deflation the
    paper's block COCG discussion calls for.
    """
    n, b = Z.shape
    steps = min(steps, max(n // b, 1))
    Q, R1 = np.linalg.qr(Z)
    basis_blocks: list[np.ndarray] = [Q]
    alphas: list[np.ndarray] = []
    betas: list[np.ndarray] = []  # betas[k]: (b_{k+1}, b_k) with W_k = Q_{k+1} beta_k
    Q_prev: np.ndarray | None = None
    beta_prev: np.ndarray | None = None
    scale = 1.0
    for k in range(steps):
        W = apply_op(Q)
        alpha = Q.T @ W
        alpha = 0.5 * (alpha + alpha.T)
        alphas.append(alpha)
        scale = max(scale, float(np.abs(alpha).max()))
        if k == steps - 1:
            break
        W = W - Q @ alpha
        if Q_prev is not None:
            W = W - Q_prev @ beta_prev.T
        # Full reorthogonalization against the accumulated basis.
        for blk in basis_blocks:
            W -= blk @ (blk.T @ W)
        U, sv, Vt = np.linalg.svd(W, full_matrices=False)
        keep = sv > 1e-12 * max(scale, float(sv[0]) if sv.size else 1.0)
        if not np.any(keep):
            break  # Krylov space exhausted: quadrature is exact from here
        Q_next = np.ascontiguousarray(U[:, keep])
        beta = sv[keep, None] * Vt[keep, :]  # (b_{k+1}, b_k)
        betas.append(beta)
        basis_blocks.append(Q_next)
        Q_prev, beta_prev, Q = Q, beta, Q_next

    # Assemble the (possibly ragged) block tridiagonal matrix.
    widths = [a.shape[0] for a in alphas]
    offsets = np.concatenate([[0], np.cumsum(widths)])
    m = int(offsets[-1])
    T = np.zeros((m, m))
    for k, alpha in enumerate(alphas):
        i, j = offsets[k], offsets[k + 1]
        T[i:j, i:j] = alpha
    for k, beta in enumerate(betas[: len(alphas) - 1]):
        i, j = offsets[k], offsets[k + 1]
        i2, j2 = offsets[k + 1], offsets[k + 2]
        T[i2:j2, i:j] = beta
        T[i:j, i2:j2] = beta.T
    theta, S = scipy.linalg.eigh(T)
    # Z^T f(A) Z ~ R1^T S_1 f(Theta) S_1^T R1 with S_1 the first block row.
    S1 = S[:b, :]
    G = (S1 * f(theta)) @ S1.T
    forms = R1.T @ G @ R1
    return np.diag(forms).copy()
