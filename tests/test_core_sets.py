"""Unit tests for Set, Dat, Map, Global and Arg descriptors."""

import numpy as np
import pytest

from repro.core import (
    INC,
    MAX,
    MIN,
    READ,
    RW,
    WRITE,
    Arg,
    Dat,
    Global,
    Map,
    Set,
    arg_dat,
    arg_gbl,
    identity_map,
)
from repro.core.access import IDX_ALL, IDX_ID


class TestSet:
    def test_basic(self):
        s = Set(10, "s")
        assert len(s) == 10
        assert s.size == 10

    def test_negative_size_rejected(self):
        with pytest.raises(ValueError):
            Set(-1)

    def test_identity_semantics(self):
        a, b = Set(3), Set(3)
        assert a == a
        assert a != b
        assert len({a, b}) == 2

    def test_auto_names_unique(self):
        assert Set(1).name != Set(1).name


class TestMap:
    def test_shape_and_column(self):
        frm, to = Set(4), Set(6)
        m = Map(frm, to, 2, np.array([[0, 1], [2, 3], [4, 5], [0, 5]]))
        assert m.arity == 2
        np.testing.assert_array_equal(m.column(1), [1, 3, 5, 5])
        np.testing.assert_array_equal(m[3], [0, 5])

    def test_flat_values_reshaped(self):
        frm, to = Set(3), Set(9)
        m = Map(frm, to, 3, np.arange(9))
        assert m.values.shape == (3, 3)

    def test_wrong_size_rejected(self):
        with pytest.raises(ValueError):
            Map(Set(3), Set(5), 2, np.zeros(5, dtype=int))

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            Map(Set(2), Set(3), 1, np.array([0, 3]))
        with pytest.raises(ValueError):
            Map(Set(2), Set(3), 1, np.array([0, -1]))

    def test_column_index_bounds(self):
        m = identity_map(Set(4))
        with pytest.raises(IndexError):
            m.column(1)

    def test_identity_map(self):
        s = Set(5)
        m = identity_map(s)
        np.testing.assert_array_equal(m.values[:, 0], np.arange(5))


class TestDat:
    def test_zero_init(self):
        d = Dat(Set(4), 3)
        assert d.data.shape == (4, 3)
        assert (d.data == 0).all()

    def test_broadcast_init(self):
        d = Dat(Set(4), 2, data=[1.0, 2.0])
        np.testing.assert_array_equal(d.data, [[1, 2]] * 4)

    def test_flat_init_reshaped(self):
        d = Dat(Set(2), 2, data=np.arange(4.0))
        np.testing.assert_array_equal(d.data, [[0, 1], [2, 3]])

    def test_dtype_parametric(self):
        d = Dat(Set(3), 1, dtype=np.float32)
        assert d.dtype == np.float32
        assert d.itemsize == 4

    def test_nbytes(self):
        d = Dat(Set(4), 2, dtype=np.float64)
        assert d.data.shape == (4, 2)
        assert d.nbytes == 4 * 2 * 8

    def test_soa_roundtrip(self):
        d = Dat(Set(3), 2, data=np.arange(6.0))
        soa = d.soa()
        assert soa.shape == (2, 3)
        soa[0, 0] = 99.0
        d.from_soa(soa)
        assert d.data[0, 0] == 99.0

    def test_from_soa_shape_check(self):
        d = Dat(Set(3), 2)
        with pytest.raises(ValueError):
            d.from_soa(np.zeros((3, 2)))

    def test_copy_and_zero(self):
        d = Dat(Set(2), 1, data=[5.0])
        c = d.copy()
        c.zero()
        assert (d.data == 5).all() and (c.data == 0).all()

    def test_invalid_dim(self):
        with pytest.raises(ValueError):
            Dat(Set(2), 0)


class TestGlobal:
    def test_scalar_value(self):
        g = Global(1, 3.5)
        assert g.value == 3.5
        g.value = 7
        assert g.value == 7.0

    def test_reduction_identities(self):
        g = Global(2, dtype=np.float64)
        assert (g.identity_for(INC) == 0).all()
        assert (g.identity_for(MIN) == np.finfo(np.float64).max).all()
        assert (g.identity_for(MAX) == np.finfo(np.float64).min).all()

    def test_combine(self):
        g = Global(1, 5.0)
        g.combine(INC, np.array([2.0]))
        assert g.value == 7.0
        g.combine(MIN, np.array([3.0]))
        assert g.value == 3.0
        g.combine(MAX, np.array([10.0]))
        assert g.value == 10.0

    def test_combine_read_rejected(self):
        with pytest.raises(ValueError):
            Global(1).combine(READ, np.array([1.0]))

    def test_int_identities(self):
        g = Global(1, dtype=np.int64)
        assert g.identity_for(MIN)[0] == np.iinfo(np.int64).max


class TestAccess:
    def test_flags(self):
        assert READ.reads and not READ.writes
        assert WRITE.writes and not WRITE.reads
        assert RW.reads and RW.writes and not RW.is_reduction
        assert INC.is_reduction and MIN.is_reduction and MAX.is_reduction

    def test_identity_hash(self):
        # Members are singletons, so they hash by identity (C-level; a
        # chain-cache key hashes one per argument) and still agree with
        # equality, by-value lookup and a pickle round trip.
        import pickle

        from repro.core.access import Access

        assert Access.__hash__ is object.__hash__
        modes = [READ, WRITE, RW, INC, MIN, MAX]
        table = {m: m.value for m in modes}
        assert len(table) == len(set(map(hash, modes))) == 6
        for m in modes:
            assert Access(m.value) is m
            assert pickle.loads(pickle.dumps(m)) is m
            assert table[Access(m.value)] == m.value


class TestArg:
    def setup_method(self):
        self.frm = Set(4, "edges")
        self.to = Set(6, "nodes")
        self.m = Map(self.frm, self.to, 2, np.zeros((4, 2), dtype=int), "m")
        self.d_to = Dat(self.to, 3, name="on_nodes")
        self.d_frm = Dat(self.frm, 1, name="on_edges")

    def test_direct(self):
        a = arg_dat(self.d_frm, IDX_ID, None, READ)
        assert a.is_direct and not a.races

    def test_indirect_inc_races(self):
        a = arg_dat(self.d_to, 0, self.m, INC)
        assert a.is_indirect and a.races

    def test_indirect_read_no_race(self):
        assert not arg_dat(self.d_to, 1, self.m, READ).races

    def test_vector_arg(self):
        a = arg_dat(self.d_to, IDX_ALL, self.m, READ)
        assert a.is_vector

    def test_global_arg(self):
        a = arg_gbl(Global(1), INC)
        assert a.is_global and not a.races

    def test_index_out_of_range(self):
        with pytest.raises(ValueError):
            arg_dat(self.d_to, 2, self.m, READ)

    def test_direct_with_index_rejected(self):
        with pytest.raises(ValueError):
            arg_dat(self.d_frm, 0, None, READ)

    def test_map_set_mismatch(self):
        with pytest.raises(ValueError):
            arg_dat(self.d_frm, 0, self.m, READ)  # dat on edges, map to nodes

    def test_global_write_rejected(self):
        """Storing into a Global is legal in a single-element (scalar)
        loop only; the loop, not the descriptor, knows its set."""
        from repro.core import Runtime, kernel, par_loop

        @kernel("store_one")
        def store_one(g):
            g[0] = 1.0

        arg = arg_gbl(Global(1), WRITE)
        with pytest.raises(ValueError, match="single-element"):
            par_loop(store_one, self.frm, arg, runtime=Runtime("sequential"))

    def test_global_with_map_rejected(self):
        with pytest.raises(ValueError):
            Arg(dat=Global(1), index=0, map=self.m, access=READ)

    def test_describe(self):
        a = arg_dat(self.d_to, 0, self.m, INC)
        assert "m[0]" in a.describe() and "INC" in a.describe()
