"""The manager-worker policy (paper Section V) as the simulated backend runs it.

``SimulatedScheduler`` starts every rank on the paper's static
block-column layout and, when ranks fail, moves their column slices to the
least-loaded survivor (``_SliceAssignment``, shared with the SPMD
backend). These tests pin the static charges, the virtual timeline and the
one-survivor limit on the toy system at fixed s = 1, where every column
slice solves bitwise the same wherever it runs.
"""

import numpy as np
import pytest

from repro.core import Chi0Operator
from repro.obs import Tracer, use_tracer
from repro.parallel import (
    PACE_PHOENIX,
    BlockColumnDistribution,
    SimulatedScheduler,
)

WIDTH = 8
OMEGA = 0.5


@pytest.fixture(scope="module")
def chi0op(toy_dft, toy_coulomb):
    return Chi0Operator(toy_dft.hamiltonian, toy_dft.occupied_orbitals,
                        toy_dft.occupied_energies, toy_coulomb,
                        dynamic_block_size=False, fixed_block_size=1)


@pytest.fixture(scope="module")
def block(toy_dft):
    return np.random.default_rng(7).standard_normal(
        (toy_dft.grid.n_points, WIDTH))


class TestStaticMakespan:
    def test_charges_column_owner(self, chi0op, block):
        sched = SimulatedScheduler(chi0op, 3, WIDTH, PACE_PHOENIX)
        dist = BlockColumnDistribution(WIDTH, 3)
        assert sched.assignment == {r: [dist.owned_slice(r)] for r in range(3)}
        sched.apply(block, OMEGA)
        # Each rank is charged exactly the measured time of its own columns.
        assert np.array_equal(sched.clocks.per_rank(), sched.last_apply_per_rank)
        assert np.all(sched.last_apply_per_rank > 0)


class TestReplaySchedule:
    @staticmethod
    def _virtual_spans(tracer):
        return [e for e in tracer.events
                if e["type"] == "span" and e["domain"] == "virtual"]

    def test_emits_virtual_spans_per_worker(self, chi0op, block):
        tr = Tracer()
        with use_tracer(tr):
            sched = SimulatedScheduler(chi0op, 3, WIDTH, PACE_PHOENIX)
            sched.apply(block, OMEGA)
            spans = self._virtual_spans(tr)
            assert all(e["name"] == "chi0_apply" for e in spans)
            assert sorted(e["rank"] for e in spans) == [0, 1, 2]
            sched.apply(block, OMEGA)
        spans = self._virtual_spans(tr)
        assert len(spans) == 6
        # Spans on one rank never overlap, and none extends past elapsed.
        for r in range(3):
            mine = sorted((e for e in spans if e["rank"] == r),
                          key=lambda e: e["ts"])
            for a, b in zip(mine, mine[1:]):
                assert a["ts"] + a["dur"] <= b["ts"]
            assert all(e["ts"] + e["dur"] <= sched.elapsed for e in mine)

    def test_no_tracer_is_pure_makespan(self, chi0op, block):
        sched = SimulatedScheduler(chi0op, 4, WIDTH, PACE_PHOENIX)
        sched.apply(block, OMEGA)
        assert sched.elapsed == sched.last_apply_per_rank.max()

    def test_validation(self, chi0op):
        with pytest.raises(ValueError):
            SimulatedScheduler(chi0op, 0, WIDTH, PACE_PHOENIX)
        with pytest.raises(ValueError):
            SimulatedScheduler(chi0op, 4, 3, PACE_PHOENIX)


class TestListScheduling:
    def test_single_worker_is_sum(self, chi0op, block):
        clean = SimulatedScheduler(chi0op, 3, WIDTH, PACE_PHOENIX)
        reference = clean.apply(block, OMEGA)
        sched = SimulatedScheduler(chi0op, 3, WIDTH, PACE_PHOENIX,
                                   rank_faults={0: 1, 2: 1})
        sched.start_point(1)
        assert list(sched.assignment) == [1]
        columns = sorted(c for sl in sched.assignment[1]
                         for c in range(sl.start, sl.stop))
        assert columns == list(range(WIDTH))
        assert np.array_equal(sched.apply(block, OMEGA), reference)
        # The survivor's clock carries the whole apply; the dead ranks none.
        assert sched.elapsed == sched.last_apply_per_rank[1]
        assert sched.per_rank_chi0[0] == sched.per_rank_chi0[2] == 0.0
