"""Sternheimer applications of chi0 — the paper's Eqs. 4-6 via block COCG.

Each product ``chi0(i omega) V`` for a block of ``n_v`` vectors requires
solving the ``n_s`` complex symmetric block systems

    (H - lambda_j I + i omega I) Y_j = -(V . Psi_j),   j = 1..n_s

followed by ``chi0 V = 4 Re( sum_j Psi_j . Y_j )``. The solver policy is
the paper's production stack: block COCG (Algorithm 3) with the Galerkin
deflating guess (Eq. 13) and per-system dynamic block-size selection
(Algorithm 4); a solve that breaks down or stalls continues through
:mod:`repro.resilience`'s escalation chain.

``Chi0Operator.apply_symmetrized`` wraps the product with the two
``nu^{1/2}`` applications of Section III-A, giving the Hermitian operator
``nu^{1/2} chi0 nu^{1/2}`` whose partial spectrum subspace iteration hunts.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from typing import Callable

import numpy as np

from repro.dft.hamiltonian import Hamiltonian, ShiftedHamiltonian
from repro.grid.coulomb import CoulombOperator
from repro.obs.telemetry import get_recorder
from repro.obs.tracer import get_tracer
from repro.resilience.policy import EscalationPolicy, default_stages, resilient_solve
from repro.solvers.batched import (
    BatchedShiftedOperator,
    batched_cocg_ir_solve,
    batched_cocg_solve,
)
from repro.solvers.block_cocg import block_cocg_solve, block_cocg_steps
from repro.solvers.block_size import block_size_steps, flop_cost_model
from repro.solvers.galerkin_guess import galerkin_initial_guess
from repro.solvers.recycle import SolveRecycler
from repro.solvers.stats import DynamicSolveResult, SolveResult, SolveSummary
from repro.utils.timing import KernelTimers
from repro.verify.invariants import get_verifier


@dataclass
class _PreparedSolve:
    """One orbital's Sternheimer system as *prepare* hands it to a kernel.

    ``guess`` names where ``x0`` came from (``recycled`` / ``galerkin`` /
    ``none``); ``exact_hit`` marks a recycled guess served from an entry
    solved at this very ``omega`` — the only kind the recycled-guess
    bound applies to (cross-frequency seeds are merely warm starts).
    The right-hand side ``B = -(V . Psi_j)`` is recomputed where it is
    needed (:meth:`rhs`) rather than held for every orbital at once.
    """

    orbital: int
    apply_a: Callable[[np.ndarray], np.ndarray]  # the raw shifted operator
    V: np.ndarray
    psi_j: np.ndarray  # (n_d, 1)
    x0: np.ndarray | None
    guess: str
    exact_hit: bool

    @property
    def n_rhs(self) -> int:
        return self.V.shape[1]

    def rhs(self, cols: slice = slice(None)) -> np.ndarray:
        """Columns ``cols`` of ``-(V . Psi_j)`` (each entry one product and
        a negation, so any slice has the bits of the whole block's)."""
        return -(self.V[:, cols] * self.psi_j)


@dataclass
class SternheimerStats:
    """Aggregate statistics over Sternheimer solves.

    ``block_size_counts`` maps block size -> number of block solves — the
    quantity the paper tabulates in Table IV.
    """

    n_block_solves: int = 0
    n_systems: int = 0
    total_iterations: int = 0
    n_matvec: int = 0
    n_breakdowns: int = 0
    n_unconverged: int = 0
    block_size_counts: dict[int, int] = field(default_factory=dict)
    iterations_per_orbital: dict[int, int] = field(default_factory=dict)
    # Resilience accounting: escalation-chain activity and the explicit
    # error bound accumulated by degraded (unrecovered) solves. The bound
    # is rigorous for Sternheimer operators: ``A = S + i omega I`` with real
    # symmetric ``S`` has ``||A^{-1}||_2 <= 1 / omega``, so a solve left
    # with absolute residual ``r`` perturbs ``chi0 V`` by at most
    # ``4 ||r|| / omega`` (spin factor 4, l2-normalized orbitals).
    n_retries: int = 0
    n_escalations: int = 0
    stage_counts: dict[str, int] = field(default_factory=dict)
    n_degraded_solves: int = 0
    degraded_error_bound: float = 0.0
    # Galerkin guesses skipped because the projected operator was singular
    # (degenerate lambda_j at tiny omega) — the solve proceeds from
    # x0 = None instead of dying.
    n_guess_singular_skips: int = 0
    # Batched-kernel accounting: fused multi-orbital solves, fused operator
    # applications (each pushes every active column through H at once),
    # float64 fallbacks (float32_ir batches with a column the complex64
    # pass left above the float64 gate), and orbitals re-solved on the
    # cold path after a batched non-convergence.
    n_batched_solves: int = 0
    n_batched_applies: int = 0
    n_ir_fallbacks: int = 0
    n_batched_fallback_orbitals: int = 0

    def merge(self, other: "SternheimerStats") -> None:
        """Add every field of ``other`` (a worker task's statistics) in."""
        for f in fields(self):
            mine, theirs = getattr(self, f.name), getattr(other, f.name)
            if isinstance(mine, dict):
                for k, v in theirs.items():
                    mine[k] = mine.get(k, 0) + v
            else:
                setattr(self, f.name, mine + theirs)

    def absorb(self, orbital: int, summary: SolveSummary) -> None:
        """Accumulate one orbital's solve totals (a :class:`SolveSummary`)."""
        self.n_block_solves += summary.n_solves
        self.n_systems += summary.n_systems
        self.total_iterations += summary.iterations
        self.n_matvec += summary.n_matvec
        self.n_breakdowns += summary.n_breakdowns
        self.n_unconverged += summary.n_unconverged
        for k, v in summary.block_size_counts.items():
            self.block_size_counts[k] = self.block_size_counts.get(k, 0) + v
        self.iterations_per_orbital[orbital] = (
            self.iterations_per_orbital.get(orbital, 0) + summary.iterations
        )
        self.n_retries += summary.n_retries
        self.n_escalations += summary.n_escalations
        for k, v in summary.stage_counts.items():
            self.stage_counts[k] = self.stage_counts.get(k, 0) + v


class Chi0Operator:
    """Matrix-free ``chi0(i omega)`` via Sternheimer solves.

    Parameters
    ----------
    hamiltonian:
        Converged KS Hamiltonian.
    psi_occ, eps_occ:
        Occupied orbitals ``(n_d, n_s)`` (l2-orthonormal, real) and their
        eigenvalues.
    coulomb:
        Coulomb operator for the ``nu^{1/2}`` wrappers.
    tol:
        Sternheimer relative residual tolerance (Eq. 10; paper uses 1e-2).
    max_iterations:
        COCG iteration cap per block solve.
    use_galerkin_guess:
        Build the Eq. 13 initial guess for every solve.
    dynamic_block_size:
        Run Algorithm 4 per block system; otherwise use
        ``fixed_block_size``.
    max_block_size:
        Cap for Algorithm 4 (the parallel runtime sets this to
        ``n_eig / p``, Section III-D). Algorithm 4 prices a chunk with the
        deterministic FLOP model (:func:`flop_cost_model`), so an orbital's
        chunk sequence does not depend on how the orbitals interleave.
    solver:
        Block solver of every per-orbital solve (``block_cocg_solve``
        calling convention). The default, ``EscalationPolicy(
        default_stages())`` from :mod:`repro.resilience`, is one plain block
        COCG call whenever that converges; a solve that breaks down or
        stalls continues through breakdown-free block COCG, then
        shift-regularized GMRES. A solve the chain cannot rescue is
        degraded, never fatal: its best iterate is kept and
        ``stats.degraded_error_bound`` grows by the rigorous
        ``4 ||r|| / omega`` bound on its contribution. A chain whose plain
        first stage is block COCG runs that stage in lockstep across
        orbitals (see :meth:`_block_kernel`); any other solver is called
        per chunk as it is.
    recycler:
        Optional :class:`repro.solvers.recycle.SolveRecycler`. Converged
        solutions are cached per (orbital, omega) and served as initial
        guesses for later solves (falling back to the Eq. 13 Galerkin
        guess on a miss); the driver keeps the cache aligned with the
        subspace iteration through the ``on_rotation`` hook.
    use_batched:
        Kernel choice. Off (default): block COCG per orbital, every
        orbital's own recurrence advanced in lockstep behind one shared
        Hamiltonian apply per step. On: all
        orbitals' systems at a quadrature point are fused into one wide
        batch sharing a single Hamiltonian application per Krylov
        iteration (``repro.solvers.batched``), with per-orbital shifts as
        a diagonal correction and per-column convergence masks; orbitals
        the batched recurrence cannot converge are handed to the block
        kernel. Both kernels sit inside the same prepare/finish protocol.
    solve_dtype:
        Working precision of batched solves: ``"float64"`` (default) or
        ``"float32_ir"`` (one complex64 COCG pass, then the float64
        recurrence from its iterate until the true residual meets ``tol``).
        ``"float32_ir"`` requires ``use_batched``.
    """

    def __init__(
        self,
        hamiltonian: Hamiltonian,
        psi_occ: np.ndarray,
        eps_occ: np.ndarray,
        coulomb: CoulombOperator,
        tol: float = 1e-2,
        max_iterations: int = 500,
        use_galerkin_guess: bool = True,
        dynamic_block_size: bool = True,
        fixed_block_size: int = 1,
        max_block_size: int = 16,
        solver=EscalationPolicy(default_stages()),
        recycler: SolveRecycler | None = None,
        use_batched: bool = False,
        solve_dtype: str = "float64",
    ) -> None:
        psi_occ = np.asarray(psi_occ, dtype=float)
        eps_occ = np.asarray(eps_occ, dtype=float)
        if psi_occ.ndim != 2 or psi_occ.shape[0] != hamiltonian.n_points:
            raise ValueError(f"psi_occ must be (n_d, n_s), got {psi_occ.shape}")
        if eps_occ.shape != (psi_occ.shape[1],):
            raise ValueError("eps_occ must match psi_occ columns")
        if tol <= 0:
            raise ValueError("tol must be positive")
        if fixed_block_size < 1 or max_block_size < 1:
            raise ValueError("block sizes must be >= 1")
        self.h = hamiltonian
        self.psi = psi_occ
        self.eps = eps_occ
        self.coulomb = coulomb
        self.tol = float(tol)
        self.max_iterations = int(max_iterations)
        self.use_galerkin_guess = bool(use_galerkin_guess)
        self.dynamic_block_size = bool(dynamic_block_size)
        self.fixed_block_size = int(fixed_block_size)
        self.max_block_size = int(max_block_size)
        self.solver = solver
        self.recycler = recycler
        if solve_dtype not in ("float64", "float32_ir"):
            raise ValueError(
                f"solve_dtype must be 'float64' or 'float32_ir', got {solve_dtype!r}"
            )
        if solve_dtype != "float64" and not use_batched:
            raise ValueError(
                "solve_dtype='float32_ir' requires use_batched: the float32 "
                "iterations run inside the batched kernel only"
            )
        self.use_batched = bool(use_batched)
        self.solve_dtype = solve_dtype
        # Algorithm 4's chunk prices also back the tracer's FLOP counter.
        self._cost_fn = flop_cost_model(hamiltonian.apply_cost)
        self.stats = SternheimerStats()

    @property
    def n_points(self) -> int:
        return self.h.n_points

    @property
    def n_occupied(self) -> int:
        return self.psi.shape[1]

    # -- core products ---------------------------------------------------------

    def apply_chi0(self, v: np.ndarray, omega: float) -> np.ndarray:
        """``chi0(i omega) v`` for a real vector or block ``v``."""
        if omega <= 0:
            raise ValueError(f"omega must be positive (got {omega}); omega = 0 is singular")
        squeeze = False
        V = np.asarray(v, dtype=float)
        if V.ndim == 1:
            V = V[:, None]
            squeeze = True
        if V.shape[0] != self.n_points:
            raise ValueError(f"operand rows {V.shape[0]} != n_d {self.n_points}")
        acc = np.zeros((self.n_points, V.shape[1]), dtype=complex)
        for j, y, _converged in self._solve_orbitals(range(self.n_occupied), V, omega):
            acc += self.psi[:, j : j + 1] * y
        out = 4.0 * acc.real
        return out[:, 0] if squeeze else out

    def apply_symmetrized(
        self, v: np.ndarray, omega: float, timers: KernelTimers | None = None
    ) -> np.ndarray:
        """``(nu^{1/2} chi0(i omega) nu^{1/2}) v`` (Algorithm 7)."""
        w = self.coulomb.apply_nu_sqrt(np.asarray(v, dtype=float))
        if timers is None:
            x = self.apply_chi0(w, omega)
        else:
            with timers.region("chi0_apply"):
                x = self.apply_chi0(w, omega)
        return self.coulomb.apply_nu_sqrt(x)

    # -- internals ---------------------------------------------------------------

    def _solve_orbitals(self, orbitals, V: np.ndarray, omega: float):
        """The one Sternheimer solve protocol; yields ``(j, Y_j, converged)``.

        Every orbital is prepared first (:meth:`_prepare`); one kernel then
        solves them all, and each is closed by :meth:`_finish` and yielded
        in orbital order — which fixes the order of the caller's sum, the
        recycler stores and the verifier checks. Backends relocate this
        call (an SPMD worker runs it on a column slice, fault hooks wrap
        it); none re-implements a step.
        """
        prepared = [self._prepare(int(j), V, omega) for j in orbitals]
        kernel = self._batched_kernel if self.use_batched else self._block_kernel
        yield from kernel(prepared, omega)

    # -- prepare -----------------------------------------------------------------

    def _prepare(self, j: int, V: np.ndarray, omega: float) -> _PreparedSolve:
        """Orbital ``j``'s system: RHS, best available guess (recycled
        solution -> Eq. 13 Galerkin projection -> none) with its provenance,
        operator-symmetry probe."""
        lam_j = float(self.eps[j])
        apply_a = self.h.shifted(lam_j, omega)
        psi_j = self.psi[:, j : j + 1]
        x0, guess, exact_hit = None, "none", False
        served = self._recycled_guess(j, omega, V.shape[1])
        if served is not None:
            (x0, exact_hit), guess = served, "recycled"
        elif self.use_galerkin_guess:
            try:
                x0 = galerkin_initial_guess(self.psi, self.eps, lam_j, omega,
                                            -(V * psi_j))
                guess = "galerkin"
            except ValueError:
                # A degenerate lambda_j at tiny omega makes the projected
                # operator singular; that is survivable — skip the guess
                # instead of killing the run.
                self.stats.n_guess_singular_skips += 1
                tracer = get_tracer()
                if tracer.enabled:
                    tracer.incr("galerkin_guess_singular_skips")
                    tracer.event("galerkin_guess_skipped", orbital=j, omega=omega,
                                 reason="singular_projected_operator")
        verifier = get_verifier()
        if verifier.enabled:
            # The COCG recurrences assume A = A^T (unconjugated); probe it on
            # the *raw* shifted operator so solver matvec counters are
            # untouched. Cached per (orbital, omega) at the cheap level.
            verifier.check_operator_symmetry(
                apply_a, self.n_points, key=(j, float(omega)),
                orbital=j, omega=float(omega),
            )
        return _PreparedSolve(j, apply_a, V, psi_j, x0, guess, exact_hit)

    def _recycled_guess(self, j: int, omega: float,
                        n_cols: int) -> tuple[np.ndarray, bool] | None:
        """The recycler's guess for orbital ``j`` and whether it is an exact
        ``(orbital, omega)`` hit (a cross-frequency seed otherwise).

        The provenance is read next to the lookup and travels with the
        guess, so no later lookup can overwrite it; an exact hit is compared
        to its rotation-tracked shadow *before* a solve touches it.
        """
        if self.recycler is None:
            return None
        x0 = self.recycler.guess(j, omega, n_cols)
        if x0 is None:
            return None
        exact_hit = self.recycler.last_guess_kind == "hit"
        verifier = get_verifier()
        if verifier.enabled and exact_hit:
            verifier.check_recycled_shadow(
                j, float(omega), x0, self.recycler.last_guess_slice[0],
                self.recycler.width,
            )
        return x0, exact_hit

    # -- the two kernels ---------------------------------------------------------

    def _block_kernel(self, prepared: list[_PreparedSolve], omega: float):
        """Block COCG on every prepared orbital, in lockstep; yields
        ``(j, Y_j, converged)`` in orbital order.

        Each orbital runs its own chunk sequence (Algorithm 4, or fixed
        chunks) and its own Algorithm 3 recurrence as a coroutine
        (:meth:`_orbital_steps`). All of them advance together: at each step
        one wide ``self.h.apply`` serves every orbital whose operator is
        ``self.h`` shifted, each shift then added on its own block exactly
        as :class:`ShiftedHamiltonian` adds it (``H v + shift * v``); any
        other operator (a test proxy's closure) applies its own block.
        Recurrences, chunks and small solves stay per orbital, so every
        ``Y_j`` has the bits a solve of that orbital alone gives. A chunk
        solved at once (a custom solver, an escalation) does not wait for a
        step; when every chunk is, orbitals are solved and yielded one after
        the other.
        """
        tracer = get_tracer()
        recorder = get_recorder()
        # A NumPy scalar multiplies a block to the same bits as the Python
        # complex the operator holds, in half the time.
        shifts = [np.complex128(p.apply_a.shift)
                  if isinstance(p.apply_a, ShiftedHamiltonian)
                  and p.apply_a.hamiltonian is self.h else None for p in prepared]
        steps: list = []
        started: list[float] = []
        waiting: dict[int, np.ndarray] = {}  # orbital index -> block to apply
        solved: dict[int, DynamicSolveResult] = {}
        n_closed = 0

        def advance(i: int, image: np.ndarray | None) -> None:
            try:
                waiting[i] = steps[i].send(image)
            except StopIteration as stop:
                solved[i] = stop.value

        def close_finished():
            # Yield finished orbitals in orbital order, dropping the
            # kernel's hold on each: only orbitals in flight stay live.
            nonlocal n_closed
            while n_closed in solved:
                i, res = n_closed, solved.pop(n_closed)
                p, prepared[i], steps[i] = prepared[i], None, None
                n_closed += 1
                yield p.orbital, res.solution, self._finish(
                    p, omega, res.solution, res.chunk_results, started[i])

        for i, p in enumerate(prepared):
            started.append(tracer.now())
            steps.append(self._orbital_steps(
                p, recorder.solve_frame(p.orbital, float(omega), p.guess)))
            advance(i, None)
            yield from close_finished()
        while waiting:
            step = list(waiting.items())  # in orbital order
            waiting.clear()
            fused = [block for i, block in step if shifts[i] is not None]
            if fused:  # blocks are fresh C-ordered arrays, as block COCG makes them
                h_wide = self.h.apply(fused[0] if len(fused) == 1
                                      else np.concatenate(fused, axis=1))
            col = 0
            for i, block in step:
                shift = shifts[i]
                if shift is None:
                    image = np.asarray(prepared[i].apply_a(block))
                    if image.shape != block.shape:
                        raise ValueError(f"operator returned shape {image.shape} "
                                         f"for operand {block.shape}")
                    advance(i, image)
                else:
                    s = block.shape[1]
                    image = shift * block
                    image += h_wide[:, col:col + s]  # = H v + shift * v, bitwise
                    advance(i, image)
                    col += s
            h_wide = None
            yield from close_finished()

    def _orbital_steps(self, p: _PreparedSolve, frame):
        """Orbital ``p``'s whole solve as a coroutine: its chunk schedule
        over :meth:`_chunk_steps`, each chunk's solution written over its
        initial guess in ``p.x0``; returns the :class:`DynamicSolveResult`."""
        n_v = p.n_rhs
        Y = p.x0 if p.x0 is not None else np.zeros((self.n_points, n_v), dtype=complex)

        def chunk(sl: slice):
            return self._chunk_steps(p, Y, sl, frame)

        if self.dynamic_block_size and n_v > 1:
            return (yield from block_size_steps(
                Y, chunk, max_block_size=min(self.max_block_size, n_v),
                cost_fn=self._cost_fn))
        return (yield from block_size_steps(
            Y, chunk, block_size=min(self.fixed_block_size, n_v)))

    def _chunk_steps(self, p: _PreparedSolve, Y: np.ndarray, sl: slice, frame):
        """Columns ``sl`` of orbital ``p``, solved into ``Y[:, sl]`` (which
        holds their initial guess when ``p.x0`` is set).

        Under a chain whose plain first stage is block COCG that stage is
        :func:`block_cocg_steps`, yielding to the lockstep; a chunk it does
        not converge continues at once through the rest of the chain,
        handed the first stage's result. Any other solver is one call. The
        chunk's telemetry lands in the orbital's own frame.
        """
        recorder = get_recorder()
        x0 = None if p.x0 is None else Y[:, sl]
        if getattr(self.solver, "plain_first_stage", None) is block_cocg_solve:
            res = yield from block_cocg_steps(
                p.rhs(sl).astype(complex), x0, self.tol, self.max_iterations)
            with recorder.frame_scope(frame):
                if recorder.enabled:
                    recorder.record_solve("block_cocg", res)
                if not res.converged:
                    res = resilient_solve(
                        p.apply_a, p.rhs(sl), self.solver, x0=x0, tol=self.tol,
                        max_iterations=self.max_iterations, n=self.n_points,
                        first=res)
        else:
            with recorder.frame_scope(frame):
                res = self.solver(p.apply_a, p.rhs(sl), x0=x0, tol=self.tol,
                                  max_iterations=self.max_iterations,
                                  n=self.n_points)
        Y[:, sl] = res.solution if res.solution.ndim == 2 else res.solution[:, None]
        res.solution = Y[:, sl]  # keep a view, not a second copy
        return res

    def _make_batched_operator(self, shifts: np.ndarray) -> BatchedShiftedOperator:
        """The fused multi-shift operator for one batched solve.

        A separate hook so the differential harness can plant batched
        faults (e.g. dropping one orbital's shift) without touching the
        production constructor.
        """
        return BatchedShiftedOperator(self.h, shifts, n=self.n_points)

    def _batched_kernel(self, prepared: list[_PreparedSolve], omega: float):
        """Lockstep batched COCG (or float32_ir) over all prepared orbitals.

        Yields ``(j, Y_j, converged)``. Orbitals whose columns the batched
        recurrence could not converge are re-solved by the block kernel
        from the system already prepared — same guess, no second lookup —
        which carries the full recovery stack (escalation chain,
        degradation accounting).
        """
        n_v = prepared[0].n_rhs
        n_cols = len(prepared) * n_v
        tracer = get_tracer()
        verifier = get_verifier()
        recorder = get_recorder()

        B = np.empty((self.n_points, n_cols), dtype=float)
        shifts = np.empty(n_cols, dtype=complex)
        X0: np.ndarray | None = None
        for g, p in enumerate(prepared):
            sl = slice(g * n_v, (g + 1) * n_v)
            B[:, sl] = p.rhs()
            shifts[sl] = -float(self.eps[p.orbital]) + 1j * omega
            if p.x0 is not None:
                if X0 is None:
                    X0 = np.zeros((self.n_points, n_cols), dtype=complex)
                X0[:, sl] = p.x0
                p.x0 = X0[:, sl]

        op = self._make_batched_operator(shifts)
        if verifier.enabled:
            for g, p in enumerate(prepared):
                # The fused operator's column must agree with the orbital's
                # true shifted operator — the check that catches a batched
                # apply mis-routing (or dropping) a shift.
                verifier.check_batched_shift(
                    op.apply, p.apply_a, self.n_points, column=g * n_v,
                    key=(p.orbital, float(omega)), orbital=p.orbital,
                    omega=float(omega),
                )

        solve = (batched_cocg_ir_solve if self.solve_dtype == "float32_ir"
                 else batched_cocg_solve)
        with tracer.span("sternheimer_batched_solve", omega=omega,
                         n_orbitals=len(prepared), n_columns=n_cols,
                         dtype=self.solve_dtype) as sp:
            res = solve(op, B, x0=X0, tol=self.tol,
                        max_iterations=self.max_iterations)
            if sp is not None:
                sp.set(iterations=res.iterations,
                       batched_applies=res.n_batched_applies,
                       n_matvec=res.n_matvec,
                       converged=res.all_converged)

        self.stats.n_batched_solves += 1
        self.stats.n_batched_applies += res.n_batched_applies
        if res.n_fallback_columns:
            self.stats.n_ir_fallbacks += 1
        if tracer.enabled:
            tracer.incr("batched_solves")
            tracer.incr("batched_applies", res.n_batched_applies)
            tracer.incr("batched_columns", n_cols)
            if res.n_fallback_columns:
                tracer.incr("batched_ir_fallback_columns", res.n_fallback_columns)

        for g, p in enumerate(prepared):
            sl = slice(g * n_v, (g + 1) * n_v)
            if not bool(res.converged[sl].all()):
                self.stats.n_batched_fallback_orbitals += 1
                if tracer.enabled:
                    tracer.incr("batched_fallback_orbitals")
                    tracer.event("batched_orbital_fallback", orbital=p.orbital,
                                 omega=omega)
                yield from self._block_kernel([p], omega)
                continue
            Y_j = res.solution[:, sl]
            final = float(res.residual_norms[sl].max())
            # Iteration 0 is the orbital's first column, the quantity the
            # block kernel's size-1 probe chunk (Algorithm 4) reports first:
            # what the recycled-guess bound and gauge are calibrated on. (The
            # worst column of a legitimate warm start can exceed it several-fold.)
            initial = float(res.initial_residual_norms[sl.start])
            r = SolveResult(
                solution=Y_j,
                converged=True,
                iterations=int(max(res.col_iterations[sl].max(), 0)),
                residual_norm=final,
                residual_history=[initial, final],
                n_matvec=int(res.col_applies[sl].sum()),
                block_size=n_v,
                dtype=self.solve_dtype,
            )
            with recorder.solve_scope(orbital=p.orbital, omega=float(omega),
                                      guess=p.guess):
                if recorder.enabled:
                    recorder.record_solve("batched_cocg", r)
            yield p.orbital, Y_j, self._finish(p, omega, Y_j, [r])

    # -- finish ------------------------------------------------------------------

    def _finish(self, p: _PreparedSolve, omega: float, Y: np.ndarray,
                results: list[SolveResult], started: float | None = None) -> bool:
        """Close orbital ``p.orbital``'s solve; returns whether it converged.

        Stats/tracer record, true-residual check against the orbital's real
        operator (a kernel that solved the wrong system fails here),
        recycled-guess check and gauge, recycler store, degradation
        accounting — identical whichever kernel produced ``results``.
        ``started`` (a tracer stamp) closes the orbital's
        ``sternheimer_solve`` span here, around everything it did.
        """
        j = p.orbital
        summary = SolveSummary.of(results)
        self._record(j, summary, results)
        converged = all(r.converged for r in results)
        verifier = get_verifier()
        if verifier.enabled:
            claimed = max((r.residual_norm for r in results),
                          default=float("nan"))
            verifier.check_solve_residual(
                p.apply_a, p.rhs(), Y, self.tol, claimed, converged,
                orbital=j, omega=float(omega),
            )
        if p.guess == "recycled" and results and results[0].residual_history:
            # residual_history[0] is the relative residual of the served
            # guess — the solver measured it anyway, so the gauge is free.
            residual0 = float(results[0].residual_history[0])
            if verifier.enabled and p.exact_hit:
                # Exact (orbital, omega) hits are exact solutions by
                # linearity of the rotated cache; cross-omega seeds are
                # only approximate and are not held to this bound.
                verifier.check_recycled_guess(residual0, self.tol, orbital=j,
                                              omega=float(omega))
            tracer = get_tracer()
            if tracer.enabled:
                tracer.gauge("recycle_guess_residual", residual0,
                             orbital=j, omega=omega)
        self._store_solution(j, omega, Y, converged)
        self._account_failures(j, omega, p, results)
        tracer = get_tracer()
        if started is not None and tracer.enabled:
            tracer.record("sternheimer_solve", started, orbital=j, omega=omega,
                          n_rhs=Y.shape[1], guess=p.guess,
                          iterations=summary.iterations,
                          n_matvec=summary.n_matvec,
                          block_solves=summary.n_solves,
                          converged=summary.converged)
        return converged

    def _store_solution(self, j: int, omega: float, Y: np.ndarray,
                        converged: bool) -> None:
        """Offer ``Y`` to the recycler; a stored block gets its verifier
        shadow noted right here, wherever the store runs."""
        if self.recycler is None:
            return
        stored = self.recycler.store(j, omega, Y, converged=converged)
        verifier = get_verifier()
        if stored and verifier.enabled:
            verifier.note_recycle_store(
                j, float(omega), Y, self.recycler.last_store_slice[0],
                self.recycler.width,
            )

    def _account_failures(self, j: int, omega: float, p: _PreparedSolve,
                          chunk_results) -> None:
        """Degradation accounting for solves that finished unconverged.

        ``A = (H - lambda_j) + i omega I`` has ``||A^{-1}||_2 <= 1/omega``,
        so a chunk left with relative residual ``rho`` (w.r.t. its own RHS,
        hence also w.r.t. ``||B||_F``) perturbs this orbital's contribution
        to ``chi0 V`` by at most ``4 rho ||B||_F / omega`` in l2 norm. The
        bound is accumulated and reported; the run goes on.
        """
        failed = [r for r in chunk_results if not r.converged]
        if not failed:
            return
        b_norm = float(np.linalg.norm(p.rhs()))
        bound = 4.0 * sum(r.residual_norm for r in failed) * b_norm / omega
        if not np.isfinite(bound):
            bound = 4.0 * len(failed) * b_norm / omega
        self.stats.n_degraded_solves += len(failed)
        self.stats.degraded_error_bound += bound
        tracer = get_tracer()
        if tracer.enabled:
            tracer.incr("sternheimer_degraded_solves", len(failed))
            tracer.incr("sternheimer_degraded_error_bound", bound)
            tracer.event("solve_degraded", orbital=j, omega=omega,
                         count=len(failed), error_bound=bound)

    def _record(self, j: int, summary: SolveSummary,
                results: list[SolveResult]) -> None:
        """Fold one orbital's solve totals into stats and tracer counters;
        ``flops_est`` prices each chunk with Algorithm 4's own cost model."""
        self.stats.absorb(j, summary)
        tracer = get_tracer()
        if tracer.enabled:
            tracer.incr("matvecs", summary.n_matvec)
            tracer.incr("cocg_iterations", summary.iterations)
            tracer.incr("sternheimer_block_solves", summary.n_solves)
            tracer.incr("flops_est", sum(self._cost_fn(r, 0.0) for r in results))
            if summary.n_breakdowns:
                tracer.incr("sternheimer_breakdowns", summary.n_breakdowns)
            if summary.n_unconverged:
                tracer.incr("sternheimer_unconverged", summary.n_unconverged)
                tracer.event("sternheimer_unconverged", orbital=j,
                             count=summary.n_unconverged)
            if summary.n_retries:
                tracer.incr("resilience_solve_retries", summary.n_retries)
            if summary.n_escalations:
                tracer.incr("resilience_solves_escalated", summary.n_escalations)
