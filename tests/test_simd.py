"""Unit + property tests for the SIMD substrate (intrinsics, host ISA)."""

import platform

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.simd as simd
from repro.simd import (
    host_isa,
    isa_flags,
    select,
    vabs,
    vfma,
    vmax,
    vmin,
    vrecip,
    vsqrt,
)

lanes4 = st.lists(
    st.floats(-1e6, 1e6, allow_nan=False), min_size=4, max_size=4
)


class TestSelect:
    def test_select_scalar_path(self):
        assert select(True, 1.0, 2.0) == 1.0
        assert select(False, 1.0, 2.0) == 2.0
        assert select(np.bool_(True), 3.0, 4.0) == 3.0

    def test_select_scalar_path_keeps_python_scalars(self):
        # The same kernel body runs per element: a scalar condition
        # hands back the chosen operand itself, not a NumPy 0-d value.
        assert type(select(True, 1.0, 2)) is float
        assert type(select(np.bool_(False), 1.0, 2)) is int

    def test_select_array_path(self):
        r = select(np.array([True, False]), np.array([1.0, 2.0]), 0.0)
        np.testing.assert_array_equal(r, [1.0, 0.0])


class TestIntrinsics:
    def test_arrays(self):
        arr = np.array([4.0, 9.0])
        np.testing.assert_allclose(vsqrt(arr), [2, 3])
        np.testing.assert_allclose(vmin(arr, 5.0), [4, 5])
        np.testing.assert_allclose(vmax(arr, 5.0), [5, 9])
        np.testing.assert_allclose(vabs(np.array([-1.0])), [1])
        np.testing.assert_allclose(vrecip(np.array([2.0])), [0.5])
        np.testing.assert_allclose(vfma(arr, 2.0, 1.0), [9, 19])
        np.testing.assert_allclose(vfma(arr, arr, arr), [20, 90])

    def test_scalar_passthrough(self):
        assert vsqrt(4.0) == 2.0
        assert vmin(1.0, 2.0) == 1.0

    @pytest.mark.parametrize("fn, ref, operands", [
        (vsqrt, np.sqrt, ([0.25, 2.0, 9.0],)),
        (vabs, np.abs, ([-1.5, 0.0, 3.0],)),
        (vrecip, lambda x: 1.0 / x, ([-4.0, 0.5, 3.0],)),
        (vmin, np.minimum, ([1.0, -2.0, 3.0], [0.5, 4.0, 3.0])),
        (vmax, np.maximum, ([1.0, -2.0, 3.0], [0.5, 4.0, 3.0])),
        (vfma, lambda a, b, c: a * b + c,
         ([1.0, -2.0, 3.0], [0.5, 4.0, 3.0], [0.1, 0.2, -9.0])),
    ], ids=lambda v: getattr(v, "__name__", None))
    def test_scalar_lanes_match_array(self, fn, ref, operands):
        # The same kernel body serves both forms: each lane's scalar
        # result is the array result's element, bit for bit.
        arrays = [np.array(o) for o in operands]
        batched = fn(*arrays)
        np.testing.assert_array_equal(batched, ref(*arrays))
        for lane in range(batched.size):
            assert fn(*(float(a[lane]) for a in arrays)) == batched[lane]

    @pytest.mark.parametrize("name", [
        "select", "vabs", "vfma", "vmax", "vmin", "vrecip", "vsqrt",
    ])
    def test_kernelc_matches_them_by_identity(self, name):
        # kernelc's front-end and C emitter recognise an intrinsic by the
        # function object, so the package export must be that object.
        from repro.kernelc.ir import INTRINSIC_FUNCTIONS
        from repro.simd import intrinsics

        fn = getattr(simd, name)
        assert fn is getattr(intrinsics, name)
        assert fn in INTRINSIC_FUNCTIONS


def _cpuinfo_isa():
    """Reference answer for :func:`host_isa` from ``/proc/cpuinfo``'s
    flags line, or ``None`` where that file cannot be read."""
    levels = (
        ("avx512", {"avx512f", "avx512bw", "avx512cd", "avx512dq",
                    "avx512vl"}),
        ("avx2", {"avx", "avx2", "bmi1", "bmi2", "f16c", "fma", "abm",
                  "movbe", "xsave"}),
    )
    try:
        with open("/proc/cpuinfo") as f:
            flags = next(
                (set(line.split(":", 1)[1].split()) for line in f
                 if line.startswith("flags")),
                set(),
            )
    except OSError:
        return None
    if platform.machine() in ("x86_64", "AMD64"):
        for isa, needs in levels:
            if needs <= flags:
                return isa
    return "baseline"


class TestHostIsa:
    def test_flags_name_the_isa(self):
        isa = host_isa()
        assert isa in ("avx512", "avx2", "baseline")
        assert isa_flags() == {"avx512": ["-march=x86-64-v4"],
                               "avx2": ["-march=x86-64-v3"],
                               "baseline": []}[isa]

    def test_agrees_with_cpuinfo(self):
        expected = _cpuinfo_isa()
        if expected is None:
            pytest.skip("/proc/cpuinfo is not readable on this host")
        assert host_isa() == expected

    @pytest.mark.parametrize("features, isa", [
        ({"AVX512F", "AVX512BW", "AVX512CD", "AVX512DQ", "AVX512VL",
          "AVX", "AVX2", "BMI", "BMI2", "F16C", "FMA3", "LZCNT",
          "MOVBE"}, "avx512"),
        ({"AVX", "AVX2", "BMI", "BMI2", "F16C", "FMA3", "LZCNT",
          "MOVBE", "AVX512F"}, "avx2"),
        ({"AVX", "AVX2", "BMI", "BMI2", "F16C", "FMA3", "MOVBE"},
         "baseline"),
        (set(), "baseline"),
    ])
    def test_missing_feature_narrows(self, monkeypatch, features, isa):
        monkeypatch.setattr(platform, "machine", lambda: "x86_64")
        monkeypatch.setattr(simd, "_cpu_flags", lambda: features)
        simd.host_isa.cache_clear()
        try:
            assert simd.host_isa() == isa
        finally:
            monkeypatch.undo()
            simd.host_isa.cache_clear()


# ----------------------------------------------------------------------
# Property: the intrinsics are the NumPy operations they name.
# ----------------------------------------------------------------------
@given(lanes4, lanes4)
@settings(max_examples=100, deadline=None)
def test_property_intrinsics_match_numpy(xs, ys):
    a, b = np.array(xs), np.array(ys)
    np.testing.assert_array_equal(vmin(a, b), np.minimum(a, b))
    np.testing.assert_array_equal(vmax(a, b), np.maximum(a, b))
    np.testing.assert_array_equal(vfma(a, b, a), a * b + a)
    np.testing.assert_array_equal(select(a < b, a, b), np.where(a < b, a, b))
    for x, y in zip(xs, ys):
        assert select(x < y, x, y) == (x if x < y else y)
