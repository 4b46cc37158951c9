"""Tests for virtual clocks and the block-column distribution."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.parallel import BlockColumnDistribution, VirtualClocks
from repro.parallel.distribution import block_cyclic_redistribution_bytes


class TestVirtualClocks:
    def test_walltime_is_slowest_rank(self):
        c = VirtualClocks(3)
        c.advance(0, 1.0)
        c.advance(1, 3.0)
        c.advance(2, 2.0)
        assert c.elapsed == 3.0

    def test_synchronize_aligns_and_charges(self):
        c = VirtualClocks(2)
        c.advance(0, 1.0)
        c.advance(1, 4.0)
        t = c.synchronize(comm_seconds=0.5)
        assert t == 4.5
        assert np.all(c.per_rank() == 4.5)
        assert c.comm_seconds == 0.5
        # Mean idle time: rank 0 waited 3 s, rank 1 none -> 1.5 s average.
        assert c.imbalance_seconds == pytest.approx(1.5)

    def test_advance_all(self):
        c = VirtualClocks(4)
        c.advance_all(2.0)
        assert np.all(c.per_rank() == 2.0)

    def test_validation(self):
        with pytest.raises(ValueError):
            VirtualClocks(0)
        c = VirtualClocks(2)
        with pytest.raises(ValueError):
            c.advance(2, 1.0)
        with pytest.raises(ValueError):
            c.advance(0, -1.0)
        with pytest.raises(ValueError):
            c.synchronize(-0.1)


class TestBlockColumnDistribution:
    def test_even_split(self):
        d = BlockColumnDistribution(n_cols=12, n_ranks=4)
        assert list(d.counts()) == [3, 3, 3, 3]
        assert d.owned_slice(1) == slice(3, 6)
        assert d.max_block_size() == 3

    def test_ragged_split_covers_all_columns(self):
        d = BlockColumnDistribution(n_cols=10, n_ranks=4)
        assert d.counts().sum() == 10
        seen = []
        for r in range(4):
            sl = d.owned_slice(r)
            seen.extend(range(sl.start, sl.stop))
        assert seen == list(range(10))

    def test_owner_of_inverts_slices(self):
        d = BlockColumnDistribution(n_cols=11, n_ranks=3)
        slices = [d.owned_slice(r) for r in range(3)]
        for col in range(11):
            assert sum(sl.start <= col < sl.stop for sl in slices) == 1

    def test_paper_constraint_p_le_neig(self):
        with pytest.raises(ValueError):
            BlockColumnDistribution(n_cols=4, n_ranks=8)

    def test_validation(self):
        d = BlockColumnDistribution(n_cols=8, n_ranks=2)
        with pytest.raises(ValueError):
            d.owned_slice(5)
        with pytest.raises(ValueError):
            block_cyclic_redistribution_bytes(-1, 3)

    @settings(deadline=None, max_examples=30)
    @given(
        n_cols=st.integers(min_value=1, max_value=500),
        n_ranks=st.integers(min_value=1, max_value=64),
    )
    def test_property_partition_is_exact(self, n_cols, n_ranks):
        if n_cols < n_ranks:
            return
        d = BlockColumnDistribution(n_cols, n_ranks)
        counts = d.counts()
        assert counts.sum() == n_cols
        assert counts.max() - counts.min() <= 1
        assert d.max_block_size() == counts.min()
