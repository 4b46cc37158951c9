"""Data distributions: block-column ownership and redistribution volumes.

The paper's runtime keeps the eigenvector block ``V`` (n_d x n_eig)
distributed by *block columns* — each of the ``p <= n_eig`` processors
owns ``n_eig / p`` full columns (Section III-D), making every chi0
application embarrassingly parallel. The ScaLAPACK steps (subspace
matmults, generalized eigensolve) require a redistribution to a 2-D
block-cyclic layout, whose communication volume this module computes.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class BlockColumnDistribution:
    """Contiguous column ownership of an ``n_rows x n_cols`` matrix."""

    n_cols: int
    n_ranks: int

    def __post_init__(self) -> None:
        if self.n_ranks < 1:
            raise ValueError("n_ranks must be >= 1")
        if self.n_cols < self.n_ranks:
            raise ValueError(
                f"need at least one column per rank: n_cols={self.n_cols} < p={self.n_ranks}"
            )

    def counts(self) -> np.ndarray:
        """Columns owned by each rank (difference at most one)."""
        base, extra = divmod(self.n_cols, self.n_ranks)
        return np.array([base + (1 if r < extra else 0) for r in range(self.n_ranks)])

    def owned_slice(self, rank: int) -> slice:
        """Column slice owned by ``rank``."""
        if not 0 <= rank < self.n_ranks:
            raise ValueError(f"rank {rank} out of range 0..{self.n_ranks - 1}")
        counts = self.counts()
        start = int(counts[:rank].sum())
        return slice(start, start + int(counts[rank]))

    def max_block_size(self) -> int:
        """Algorithm 4's block-size cap ``n_eig / p`` (Section III-D)."""
        return int(self.counts().min())


def block_cyclic_redistribution_bytes(n_rows: int, n_cols: int, itemsize: int = 8) -> float:
    """Total payload of a block-column <-> block-cyclic redistribution.

    All entries move in the worst case; callers divide across ranks via the
    cost model (``repro.parallel.costmodel.redistribution_time``).
    """
    if n_rows < 0 or n_cols < 0 or itemsize <= 0:
        raise ValueError("invalid dimensions")
    return float(n_rows) * float(n_cols) * float(itemsize)
