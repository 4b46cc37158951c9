"""Sternheimer solve recycling across subspace iterations and frequencies.

Every filtered-subspace iteration solves the same ``n_s`` Sternheimer
systems with a right-hand-side block that is *linear* in the operand
block ``V``: for orbital ``j``, ``B_j = -(V . Psi_j)``. Two pieces of
structure make the converged solutions ``Y_j`` reusable:

* **Rotation covariance.** The Rayleigh-Ritz step replaces ``V`` by
  ``V Q``, so the next solve's right-hand side is ``B_j Q`` — and by
  linearity its exact solution is ``Y_j Q``. Rotating the cached block by
  the same ``Q`` (via :meth:`SolveRecycler.rotate`, driven by the
  ``on_rotation`` hook of ``filtered_subspace_iteration``) keeps the
  cache aligned with the *next* operand, so the first solve after a
  Rayleigh-Ritz starts from an essentially converged iterate.

* **Frequency continuity.** The coefficient matrix differs between
  adjacent quadrature points only by the imaginary shift:
  ``(S + i omega') Y = B`` has residual ``i (omega' - omega) Y`` when
  seeded with the previous point's solution — small for the clustered
  transformed Gauss-Legendre points. A cache entry tagged with a
  different ``omega`` therefore still serves as a *seed* for the first
  iteration at a new frequency (Section III-F's warm start, applied to
  the linear solves instead of the eigenvectors).

Entries live per orbital as a full-width block so the simulated-MPI
driver — whose ranks solve disjoint column slices of the same block —
shares one coherent cache: each rank's store fills its slice (see
:meth:`SolveRecycler.columns`) and rotation happens once the block is
complete. A miss (cold orbital, incomplete slice, width mismatch) falls
back to the caller's Eq. 13 Galerkin guess.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass, field

import numpy as np

from repro.obs.tracer import get_tracer


@dataclass
class RecycleStats:
    """Hit/miss accounting for one :class:`SolveRecycler`."""

    hits: int = 0  # exact (orbital, omega) hits
    omega_seeds: int = 0  # served from a different omega's solution
    misses: int = 0
    stores: int = 0
    skipped_stores: int = 0  # unconverged / width-mismatched / paused
    rotations: int = 0
    frozen_rotations: int = 0  # subset of rotations from SSA frozen-basis RR
    dropped: int = 0  # entries evicted by an incompatible rotation

    @property
    def served(self) -> int:
        """Guesses served from the cache (exact hits plus omega seeds)."""
        return self.hits + self.omega_seeds

    def as_dict(self) -> dict:
        return {
            "hits": self.hits,
            "omega_seeds": self.omega_seeds,
            "misses": self.misses,
            "stores": self.stores,
            "skipped_stores": self.skipped_stores,
            "rotations": self.rotations,
            "frozen_rotations": self.frozen_rotations,
            "dropped": self.dropped,
        }


@dataclass
class _Entry:
    """Cached solutions for one orbital: a full-width block plus metadata."""

    solution: np.ndarray  # (n_d, width) complex
    omegas: np.ndarray  # (width,) frequency each column was solved at
    valid: np.ndarray  # (width,) bool — columns written since creation


class SolveRecycler:
    """Per-(orbital, omega) cache of converged Sternheimer solutions.

    Parameters
    ----------
    width:
        Column count of the operand blocks being recycled (``n_eig`` for
        the RPA drivers). Applications with a different width — stochastic
        trace probes, diagnostics — bypass the cache entirely.
    max_orbitals:
        Optional cap on the number of cached orbitals (memory bound of
        ``max_orbitals * n_d * width * 16`` bytes); stores beyond the cap
        are skipped, never evicted mid-flight.

    Notes
    -----
    The recycler is attached to a :class:`repro.core.sternheimer.Chi0Operator`
    (``chi0.recycler = SolveRecycler(width=n_eig)``); the one sweep wires
    :meth:`rotate` into the subspace iteration's ``on_rotation`` hook. One
    process owns it; the SPMD backend swaps in its shared-memory subclass.
    """

    def __init__(self, width: int, max_orbitals: int | None = None) -> None:
        if width < 1:
            raise ValueError(f"width must be >= 1, got {width}")
        if max_orbitals is not None and max_orbitals < 1:
            raise ValueError("max_orbitals must be >= 1 (or None)")
        self.width = int(width)
        self.max_orbitals = max_orbitals
        self.enabled = True
        self.stats = RecycleStats()
        self._entries: dict[int, _Entry] = {}
        self._col0 = 0  # global column offset of the current operand slice
        # How the most recent guess() was served: "hit" (exact
        # (orbital, omega) match — exact by linearity after rotations),
        # "seed" (cross-frequency warm start), or None (miss / disabled).
        # Its one consumer (``Chi0Operator._recycled_guess``) reads it right
        # after guess() and passes it on with the guess; it carries no
        # cross-call state.
        self.last_guess_kind: str | None = None
        # Global column slices of the most recent guess()/store(), for the
        # verifier's shadow-projection bookkeeping (None on miss/skip).
        self.last_guess_slice: tuple[int, int] | None = None
        self.last_store_slice: tuple[int, int] | None = None

    # -- slice / lifecycle management -----------------------------------------

    @contextmanager
    def columns(self, start: int, stop: int):
        """Scope the cache to the global column range ``[start, stop)``.

        The simulated-MPI driver applies ``chi0`` to per-rank column
        slices; inside this context the recycler maps slice-local columns
        onto the full-width entries. The default scope is ``[0, width)``.
        """
        if not 0 <= start < stop <= self.width:
            raise ValueError(
                f"column range [{start}, {stop}) outside [0, {self.width})"
            )
        prev = self._col0
        self._col0 = int(start)
        try:
            yield self
        finally:
            self._col0 = prev

    @contextmanager
    def paused(self):
        """Temporarily disable lookups and stores (trace-probe applies)."""
        prev = self.enabled
        self.enabled = False
        try:
            yield self
        finally:
            self.enabled = prev

    def clear(self) -> None:
        self._entries.clear()

    @property
    def n_cached_orbitals(self) -> int:
        return len(self._entries)

    def memory_bytes(self) -> int:
        """Approximate cache footprint (solution blocks only)."""
        return sum(e.solution.nbytes for e in self._entries.values())

    # -- storage seam (the SPMD backend keeps the blocks in shared memory) ------

    def _entry(self, j: int) -> _Entry | None:
        """Orbital ``j``'s block, or None when nothing is stored for it."""
        return self._entries.get(j)

    def _new_entry(self, j: int, n_rows: int) -> _Entry:
        entry = self._entries[j] = _Entry(
            solution=np.zeros((n_rows, self.width), dtype=complex),
            omegas=np.full(self.width, np.nan),
            valid=np.zeros(self.width, dtype=bool),
        )
        return entry

    def _write(self, j: int, entry: _Entry, lo: int, hi: int, omega: float,
               solution: np.ndarray) -> None:
        entry.solution[:, lo:hi] = solution
        entry.omegas[lo:hi] = omega
        entry.valid[lo:hi] = True

    # -- the cache proper ------------------------------------------------------

    def guess(self, j: int, omega: float, n_cols: int) -> np.ndarray | None:
        """Initial guess for orbital ``j``'s solve at ``omega``, or None.

        ``n_cols`` is the operand slice width; together with the active
        :meth:`columns` scope it selects which cached columns are served.
        Returns a fresh array (callers may overwrite it freely).
        """
        self.last_guess_kind = None
        self.last_guess_slice = None
        if not self.enabled:
            return None
        lo, hi = self._col0, self._col0 + n_cols
        entry = self._entry(j)
        tracer = get_tracer()
        if entry is None or hi > self.width or not entry.valid[lo:hi].all():
            self.stats.misses += 1
            if tracer.enabled:
                tracer.incr("recycle_misses")
            return None
        tags = entry.omegas[lo:hi]
        if np.all(tags == omega):
            self.stats.hits += 1
            self.last_guess_kind = "hit"
            if tracer.enabled:
                tracer.incr("recycle_hits")
        else:
            self.stats.omega_seeds += 1
            self.last_guess_kind = "seed"
            if tracer.enabled:
                tracer.incr("recycle_omega_seeds")
        self.last_guess_slice = (lo, hi)
        return entry.solution[:, lo:hi].copy()

    def store(self, j: int, omega: float, solution: np.ndarray,
              converged: bool = True) -> bool:
        """Cache orbital ``j``'s converged solution block at ``omega``.

        Unconverged solves are never cached (a best-effort iterate may be
        arbitrarily far from the solution and would poison later guesses).
        Returns True when the block was stored.
        """
        solution = np.asarray(solution)
        if solution.ndim == 1:
            solution = solution[:, None]
        n_cols = solution.shape[1]
        lo, hi = self._col0, self._col0 + n_cols
        self.last_store_slice = None
        if not self.enabled or not converged or hi > self.width:
            self.stats.skipped_stores += 1
            return False
        entry = self._entry(j)
        if entry is None:
            if (self.max_orbitals is not None
                    and self.n_cached_orbitals >= self.max_orbitals):
                self.stats.skipped_stores += 1
                return False
            entry = self._new_entry(j, solution.shape[0])
        if entry.solution.shape[0] != solution.shape[0]:
            self.stats.skipped_stores += 1
            return False
        self._write(j, entry, lo, hi, omega, solution)
        self.last_store_slice = (lo, hi)
        self.stats.stores += 1
        tracer = get_tracer()
        if tracer.enabled:
            tracer.incr("recycle_stores")
        return True

    def rotate(self, q: np.ndarray) -> None:
        """Rotate every complete cached block by the Rayleigh-Ritz ``Q``.

        By linearity of the Sternheimer systems in their right-hand sides,
        ``Y_j Q`` solves the system for the rotated operand ``V Q`` — the
        cache stays *exactly* aligned with the subspace iteration's next
        operand. Incomplete entries (a rank's slice missing) cannot be
        rotated coherently and are dropped.
        """
        q = np.asarray(q)
        if q.ndim != 2 or q.shape[0] != self.width:
            # A rotation for some other block width (e.g. a diagnostic run
            # sharing the hook); nothing cached here can use it.
            return
        stale = [j for j, e in self._entries.items() if not e.valid.all()]
        for j in stale:
            del self._entries[j]
            self.stats.dropped += 1
        new_width = q.shape[1]
        for entry in self._entries.values():
            entry.solution = entry.solution @ q
            if new_width != self.width or not np.all(
                entry.omegas == entry.omegas[0]
            ):
                # Columns solved at mixed frequencies blend under rotation;
                # tag them as seeds (served, but never an exact omega hit).
                entry.omegas = np.full(new_width, np.nan)
                entry.valid = np.ones(new_width, dtype=bool)
        self.width = new_width
        self.stats.rotations += 1
        tracer = get_tracer()
        if tracer.enabled:
            tracer.incr("recycle_rotations")

    def rotate_frozen(self, q: np.ndarray) -> None:
        """Rotation hook for the SSA frozen-basis Rayleigh-Ritz.

        The frozen path still rotates ``V <- V Q`` at every quadrature
        point, so the same linearity contract as :meth:`rotate` applies —
        cached cross-frequency seeds stay aligned with the frozen basis as
        it drifts through the sweep. Counted separately so telemetry can
        attribute cache alignment to the static-subspace path.
        """
        self.rotate(q)
        self.stats.frozen_rotations += 1
        tracer = get_tracer()
        if tracer.enabled:
            tracer.incr("recycle_frozen_rotations")

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (f"SolveRecycler(width={self.width}, "
                f"orbitals={len(self._entries)}, stats={self.stats.as_dict()})")
