"""Unit tests for backend internals: gather/scatter machinery, stats."""

import numpy as np
import pytest

from repro.backends.base import (
    LoopStats,
    gather_batch,
    run_scalar_element,
    scatter_batch,
)
from repro.core import (
    INC,
    MAX,
    MIN,
    READ,
    RW,
    WRITE,
    Dat,
    Global,
    Map,
    Set,
    arg_dat,
    arg_gbl,
)
from repro.core.access import IDX_ALL, IDX_ID


@pytest.fixture
def problem():
    nodes = Set(6, "nodes")
    elems = Set(4, "elems")
    conn = np.array([[0, 1], [2, 3], [4, 5], [0, 5]])
    m = Map(elems, nodes, 2, conn, "m")
    return nodes, elems, m


class TestGatherBatch:
    def test_direct_contiguous_is_view(self, problem):
        nodes, elems, m = problem
        d = Dat(elems, 2, np.arange(8.0))
        batch = gather_batch(
            [arg_dat(d, IDX_ID, None, RW)], np.arange(1, 3)
        )
        # Mutating the batch array must hit the Dat directly (view).
        batch.arrays[0][0, 0] = 99.0
        assert d.data[1, 0] == 99.0
        # Views need no writeback: the scatter leaves the Dat as it is.
        expected = np.array(d.data)
        scatter_batch([arg_dat(d, IDX_ID, None, RW)], batch, {})
        np.testing.assert_array_equal(d.data, expected)

    def test_direct_noncontiguous_copies_with_writeback(self, problem):
        nodes, elems, m = problem
        d = Dat(elems, 1, np.arange(4.0))
        elems_sel = np.array([3, 0])
        batch = gather_batch([arg_dat(d, IDX_ID, None, WRITE)], elems_sel)
        batch.arrays[0][...] = -1.0
        assert d.data[3, 0] == 3.0  # untouched until scatter
        scatter_batch([arg_dat(d, IDX_ID, None, WRITE)], batch, {})
        assert d.data[3, 0] == -1.0 and d.data[0, 0] == -1.0
        assert d.data[1, 0] == 1.0

    def test_indirect_inc_starts_zeroed(self, problem):
        nodes, elems, m = problem
        d = Dat(nodes, 2, np.ones((6, 2)))
        arg = arg_dat(d, 0, m, INC)
        batch = gather_batch([arg], np.arange(4))
        assert (batch.arrays[0] == 0).all()
        # The scatter adds the increments, and only them, through slot 0.
        batch.arrays[0][...] = 1.0
        scatter_batch([arg], batch, {})
        np.testing.assert_array_equal(d.data[:, 0], [3, 1, 2, 1, 2, 1])

    def test_indirect_read_gathers_values(self, problem):
        nodes, elems, m = problem
        d = Dat(nodes, 1, np.arange(6.0))
        arg = arg_dat(d, 1, m, READ)
        batch = gather_batch([arg], np.arange(4))
        np.testing.assert_array_equal(
            batch.arrays[0].ravel(), [1, 3, 5, 5]
        )
        # A read is a copy the scatter never writes back.
        batch.arrays[0][...] = -1.0
        scatter_batch([arg], batch, {})
        np.testing.assert_array_equal(d.data.ravel(), np.arange(6.0))

    def test_vector_arg_shapes(self, problem):
        nodes, elems, m = problem
        d = Dat(nodes, 3)
        batch = gather_batch([arg_dat(d, IDX_ALL, m, READ)], np.arange(2))
        assert batch.arrays[0].shape == (2, 2, 3)

    def test_global_read_passes_raw(self, problem):
        nodes, elems, m = problem
        gbl = Global(2, 7.0)
        batch = gather_batch([arg_gbl(gbl, READ)], np.arange(3))
        assert batch.arrays[0] is gbl.data

    def test_reduction_accumulators(self, problem):
        nodes, elems, m = problem
        gmin = Global(1)
        gmin.data[:] = gmin.identity_for(MIN)
        batch = gather_batch([arg_gbl(gmin, MIN)], np.arange(3))
        assert batch.arrays[0].shape == (3, 1)
        assert (batch.arrays[0] == np.finfo(np.float64).max).all()
        # The scatter folds the lane partials into the loop accumulator.
        batch.arrays[0][:, 0] = [3.0, -2.0, 5.0]
        reductions = {0: gmin.identity_for(MIN)}
        scatter_batch([arg_gbl(gmin, MIN)], batch, reductions)
        assert reductions[0][0] == -2.0


class TestScatterBatch:
    def test_inc_serialized_handles_duplicates(self, problem):
        nodes, elems, m = problem
        d = Dat(nodes, 1)
        arg = arg_dat(d, 0, m, INC)
        batch = gather_batch([arg], np.array([0, 3]))  # both hit node 0
        batch.arrays[0][:, 0] = 1.0
        scatter_batch([arg], batch, {}, serialize_inc=True)
        assert d.data[0, 0] == 2.0  # both increments accumulated

    def test_reduction_folding(self, problem):
        nodes, elems, m = problem
        gsum = Global(1, 0.0)
        gmax = Global(1)
        gmax.data[:] = gmax.identity_for(MAX)
        args = [arg_gbl(gsum, INC), arg_gbl(gmax, MAX)]
        batch = gather_batch(args, np.arange(3))
        batch.arrays[0][:, 0] = [1.0, 2.0, 3.0]
        batch.arrays[1][:, 0] = [5.0, -1.0, 2.0]
        reductions = {0: gsum.identity_for(INC), 1: gmax.identity_for(MAX)}
        scatter_batch(args, batch, reductions)
        assert reductions[0][0] == 6.0
        assert reductions[1][0] == 5.0

    def test_scatter_rule_must_match_the_strip(self, problem):
        nodes, elems, m = problem
        arg = arg_dat(Dat(nodes, 1), 0, m, INC)
        batch = gather_batch([arg], np.arange(4))  # a serialized strip
        with pytest.raises(ValueError, match="serialize_inc"):
            scatter_batch([arg], batch, {}, serialize_inc=False)


class TestRunScalarElement:
    def test_vector_inc_writeback(self, problem):
        nodes, elems, m = problem
        d = Dat(nodes, 1, np.ones((6, 1)))
        arg = arg_dat(d, IDX_ALL, m, INC)

        def k(outs):
            outs[0][0] += 10.0
            outs[1][0] += 20.0

        run_scalar_element(k, [arg], 0, {})
        assert d.data[0, 0] == 11.0
        assert d.data[1, 0] == 21.0

    def test_vector_inc_duplicate_slots_accumulate(self):
        nodes = Set(2, "n")
        elems = Set(1, "e")
        m = Map(elems, nodes, 2, np.array([[1, 1]]), "deg")
        d = Dat(nodes, 1)
        arg = arg_dat(d, IDX_ALL, m, INC)

        def k(outs):
            outs[0][0] += 1.0
            outs[1][0] += 2.0

        run_scalar_element(k, [arg], 0, {})
        assert d.data[1, 0] == 3.0  # both slots accumulate

    def test_vector_write_writeback(self, problem):
        nodes, elems, m = problem
        d = Dat(nodes, 1)
        arg = arg_dat(d, IDX_ALL, m, RW)

        def k(vals):
            vals[:, 0] = 7.0

        run_scalar_element(k, [arg], 1, {})
        assert d.data[2, 0] == 7.0 and d.data[3, 0] == 7.0
        assert d.data[0, 0] == 0.0


class TestLoopStats:
    def test_record_accumulates(self):
        s = LoopStats()
        s.record(0.5, 100)
        s.record(0.25, 50)
        assert s.calls == 2
        assert s.elapsed == 0.75
        assert s.elements == 150
