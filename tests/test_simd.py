"""Unit + property tests for the SIMD substrate (VecReg, intrinsics)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.simd import (
    IntVec,
    Mask,
    VecReg,
    select,
    vabs,
    vector_width,
    vfma,
    vmax,
    vmin,
    vrecip,
    vsqrt,
)

lanes4 = st.lists(
    st.floats(-1e6, 1e6, allow_nan=False), min_size=4, max_size=4
)


class TestConstruction:
    def test_broadcast(self):
        v = VecReg.broadcast(2.5, 4)
        np.testing.assert_array_equal(v.lanes, [2.5] * 4)
        assert v.width == 4

    def test_aligned_load_store(self):
        buf = np.arange(8.0)
        v = VecReg.load(buf, 2, 4)
        np.testing.assert_array_equal(v.lanes, [2, 3, 4, 5])
        out = np.zeros(8)
        v.store(out, 1)
        np.testing.assert_array_equal(out[1:5], [2, 3, 4, 5])

    def test_load_out_of_bounds(self):
        with pytest.raises(IndexError):
            VecReg.load(np.zeros(4), 2, 4)

    def test_strided_load_store(self):
        # The AoS-component pattern of Fig 3b: &data[n*4+d] with stride 4.
        buf = np.arange(16.0)
        v = VecReg.load_strided(buf, 1, 4, 4)
        np.testing.assert_array_equal(v.lanes, [1, 5, 9, 13])
        out = np.zeros(16)
        v.store_strided(out, 1, 4)
        np.testing.assert_array_equal(out[[1, 5, 9, 13]], [1, 5, 9, 13])

    def test_gather(self):
        buf = np.arange(10.0) * 10
        v = VecReg.gather(buf, np.array([7, 0, 3, 3]))
        np.testing.assert_array_equal(v.lanes, [70, 0, 30, 30])

    def test_gather_with_intvec(self):
        idx = IntVec(np.array([1, 2]))
        v = VecReg.gather(np.arange(5.0), idx)
        np.testing.assert_array_equal(v.lanes, [1, 2])

    def test_lanes_copied_not_aliased(self):
        buf = np.arange(4.0)
        v = VecReg.load(buf, 0, 4)
        buf[0] = 99
        assert v.lanes[0] == 0.0

    def test_requires_1d(self):
        with pytest.raises(ValueError):
            VecReg(np.zeros((2, 2)))


class TestScatter:
    def test_scatter_unique(self):
        buf = np.zeros(6)
        VecReg(np.array([1.0, 2.0, 3.0])).scatter(buf, np.array([4, 0, 2]))
        np.testing.assert_array_equal(buf, [2, 0, 3, 0, 1, 0])

    def test_scatter_duplicate_last_lane_wins(self):
        buf = np.zeros(3)
        VecReg(np.array([1.0, 2.0])).scatter(buf, np.array([1, 1]))
        assert buf[1] == 2.0  # IMCI in-order semantics

    def test_scatter_add_accumulates_duplicates(self):
        buf = np.zeros(3)
        VecReg(np.array([1.0, 2.0, 4.0])).scatter_add(
            buf, np.array([1, 1, 0])
        )
        np.testing.assert_array_equal(buf, [4, 3, 0])

    def test_masked_store(self):
        buf = np.zeros(4)
        v = VecReg(np.array([1.0, 2.0, 3.0, 4.0]))
        v.store_masked(buf, 0, Mask(np.array([True, False, True, False])))
        np.testing.assert_array_equal(buf, [1, 0, 3, 0])


class TestArithmetic:
    def test_ops_match_numpy(self):
        a = VecReg(np.array([1.0, -2.0, 3.0]))
        b = VecReg(np.array([4.0, 5.0, -6.0]))
        np.testing.assert_allclose((a + b).lanes, [5, 3, -3])
        np.testing.assert_allclose((a - b).lanes, [-3, -7, 9])
        np.testing.assert_allclose((a * b).lanes, [4, -10, -18])
        np.testing.assert_allclose((a / b).lanes, [0.25, -0.4, -0.5])
        np.testing.assert_allclose((-a).lanes, [-1, 2, -3])
        np.testing.assert_allclose(abs(a).lanes, [1, 2, 3])

    def test_scalar_operands(self):
        a = VecReg(np.array([1.0, 2.0]))
        np.testing.assert_allclose((2.0 * a).lanes, [2, 4])
        np.testing.assert_allclose((a + 1).lanes, [2, 3])
        np.testing.assert_allclose((1 - a).lanes, [0, -1])
        np.testing.assert_allclose((2 / a).lanes, [2, 1])

    def test_width_mismatch_rejected(self):
        with pytest.raises(ValueError):
            VecReg(np.zeros(2)) + VecReg(np.zeros(3))

    def test_fma(self):
        a = VecReg(np.array([1.0, 2.0]))
        r = a.fma(VecReg(np.array([3.0, 4.0])), VecReg(np.array([5.0, 6.0])))
        np.testing.assert_allclose(r.lanes, [8, 14])

    def test_horizontal_ops(self):
        v = VecReg(np.array([3.0, -1.0, 5.0]))
        assert v.hsum() == 7.0
        assert v.hmin() == -1.0
        assert v.hmax() == 5.0


class TestMasksAndSelect:
    def test_comparisons_yield_masks(self):
        a = VecReg(np.array([1.0, 5.0]))
        m = a < 3.0
        assert isinstance(m, Mask)
        np.testing.assert_array_equal(m.lanes, [True, False])
        np.testing.assert_array_equal((a >= 5.0).lanes, [False, True])
        np.testing.assert_array_equal(a.eq(5.0).lanes, [False, True])

    def test_mask_logic(self):
        m1 = Mask(np.array([True, False]))
        m2 = Mask(np.array([True, True]))
        np.testing.assert_array_equal((m1 & m2).lanes, [True, False])
        np.testing.assert_array_equal((m1 | m2).lanes, [True, True])
        np.testing.assert_array_equal((m1 ^ m2).lanes, [False, True])
        np.testing.assert_array_equal((~m1).lanes, [False, True])
        assert m2.all() and m1.any()

    def test_select_vecreg(self):
        a = VecReg(np.array([1.0, 2.0]))
        b = VecReg(np.array([10.0, 20.0]))
        r = select(a < 2.0, a, b)
        np.testing.assert_array_equal(r.lanes, [1.0, 20.0])

    def test_select_scalar_path(self):
        assert select(True, 1.0, 2.0) == 1.0
        assert select(False, 1.0, 2.0) == 2.0
        assert select(np.bool_(True), 3.0, 4.0) == 3.0

    def test_select_array_path(self):
        r = select(np.array([True, False]), np.array([1.0, 2.0]), 0.0)
        np.testing.assert_array_equal(r, [1.0, 0.0])


class TestIntrinsics:
    def test_polymorphic_over_arrays_and_vecreg(self):
        arr = np.array([4.0, 9.0])
        np.testing.assert_allclose(vsqrt(arr), [2, 3])
        np.testing.assert_allclose(vsqrt(VecReg(arr)).lanes, [2, 3])
        np.testing.assert_allclose(vmin(arr, 5.0), [4, 5])
        np.testing.assert_allclose(vmax(VecReg(arr), 5.0).lanes, [5, 9])
        np.testing.assert_allclose(vabs(np.array([-1.0])), [1])
        np.testing.assert_allclose(vrecip(np.array([2.0])), [0.5])
        np.testing.assert_allclose(
            vfma(arr, 2.0, 1.0), [9, 19]
        )
        np.testing.assert_allclose(
            vfma(VecReg(arr), VecReg(arr), VecReg(arr)).lanes, [20, 90]
        )

    def test_scalar_passthrough(self):
        assert vsqrt(4.0) == 2.0
        assert vmin(1.0, 2.0) == 1.0


class TestIntVec:
    def test_load_and_arith(self):
        iv = IntVec.load(np.array([5, 6, 7, 8]), 1, 2)
        np.testing.assert_array_equal(iv.lanes, [6, 7])
        np.testing.assert_array_equal((iv * 2).lanes, [12, 14])
        np.testing.assert_array_equal((iv + 1).lanes, [7, 8])
        np.testing.assert_array_equal((2 * iv).lanes, [12, 14])
        assert iv[0] == 6


class TestVectorWidth:
    def test_paper_widths(self):
        assert vector_width("avx", np.float64) == 4
        assert vector_width("avx", np.float32) == 8
        assert vector_width("imci", np.float64) == 8
        assert vector_width("imci", np.float32) == 16

    def test_unknown(self):
        with pytest.raises(KeyError):
            vector_width("sse", np.float64)


class TestHostIsa:
    def test_flags_name_the_isa(self):
        from repro.simd import host_isa, isa_flags

        isa = host_isa()
        assert isa in ("avx512", "avx2", "baseline")
        assert isa_flags() == {"avx512": ["-march=x86-64-v4"],
                               "avx2": ["-march=x86-64-v3"],
                               "baseline": []}[isa]


# ----------------------------------------------------------------------
# Property: VecReg pipelines agree with plain NumPy.
# ----------------------------------------------------------------------
@given(lanes4, lanes4)
@settings(max_examples=100, deadline=None)
def test_property_vecreg_matches_numpy(xs, ys):
    a, b = np.array(xs), np.array(ys)
    va, vb = VecReg(a), VecReg(b)
    np.testing.assert_array_equal((va + vb).lanes, a + b)
    np.testing.assert_array_equal((va * vb).lanes, a * b)
    np.testing.assert_array_equal(vmin(va, vb).lanes, np.minimum(a, b))
    np.testing.assert_array_equal(
        select(va < vb, va, vb).lanes, np.where(a < b, a, b)
    )


@given(
    st.lists(st.integers(0, 9), min_size=4, max_size=4),
    lanes4,
)
@settings(max_examples=100, deadline=None)
def test_property_gather_scatter_add_roundtrip(idx, vals):
    buf = np.zeros(10)
    v = VecReg(np.array(vals))
    v.scatter_add(buf, np.array(idx))
    expected = np.zeros(10)
    np.add.at(expected, np.array(idx), np.array(vals))
    np.testing.assert_allclose(buf, expected)
