"""The one lowering (``repro.kernelc.lower``) against the interpreter.

Every operation a kernel may perform means one thing — what the
sequential interpreter computes — and both printers take it from the
same op table.  These tests pin the cases where the printers once
decided for themselves and disagreed: builtin ``min``/``max`` on NaN and
signed zeros, float32 ``**`` on lanes, helpers called as written on
lanes, and the flop prices.
"""

import numpy as np
import pytest

from repro.core import (
    MIN,
    READ,
    WRITE,
    Dat,
    Global,
    Set,
    arg_dat,
    arg_gbl,
    kernel,
    par_loop,
)
from repro.core.access import IDX_ID
from repro.kernelc import (
    UnvectorizableKernel,
    compile_vector,
    estimate_flops,
    kernel_ir,
)
from repro.kernelc import lower
from repro.simd import vabs, vmax, vmin, vsqrt
from repro.testing import runtime_for

#: The interpreter first; the two printed forms after it.  Not driven
#: by the backend matrix: every leg must run whatever REPRO_BACKEND pins.
LEGS = ("sequential", "vectorized", "native")

NAN = float("nan")
#: Operand pairs where NumPy's min/max and Python's disagree.
PAIRS = [(0.0, NAN), (NAN, 0.0), (-0.0, 0.0), (0.0, -0.0)]
DTYPES = [np.float64, np.float32]


def _legs(run):
    """``run(runtime)`` on every leg, as bytes."""
    return {leg: run(runtime_for(leg, "two_level", {})) for leg in LEGS}


def _assert_legs_equal(got):
    for leg, value in got.items():
        assert value == got["sequential"], leg


@kernel("lw_minmax")
def lw_minmax(x, y):
    y[0] = min(x[0], x[1])
    y[1] = max(x[0], x[1])
    y[2] = min(x[1], x[0])
    y[3] = max(x[1], x[0])
    y[4] = min(x[0], 0.0)
    y[5] = max(-0.0, x[1])


@kernel("lw_min_reduction")
def lw_min_reduction(x, lo):
    lo[0] = min(lo[0], x[0])


@kernel("lw_pow")
def lw_pow(x, y):
    y[0] = x[0] ** 1.5
    y[1] = x[0] ** 0.5
    y[2] = x[0] ** x[1]


class TestBuiltinMinMax:
    """Python's rule: ``b`` wins only when strictly less (greater)."""

    @pytest.mark.parametrize("dtype", DTYPES, ids=["f64", "f32"])
    def test_direct_stores(self, dtype):
        xs = np.array(PAIRS, dtype=dtype)

        def run(rt):
            s = Set(len(xs), "s")
            x = Dat(s, 2, xs, dtype, name="x")
            y = Dat(s, 6, np.zeros((len(xs), 6)), dtype, name="y")
            par_loop(lw_minmax, s, arg_dat(x, IDX_ID, None, READ),
                     arg_dat(y, IDX_ID, None, WRITE), runtime=rt)
            return y.data.tobytes()

        got = _legs(run)
        want = np.array([[min(a, b), max(a, b), min(b, a), max(b, a),
                          min(a, 0.0), max(-0.0, b)]
                         for a, b in xs.tolist()], dtype=dtype)
        assert got["sequential"] == want.tobytes()
        _assert_legs_equal(got)

    @pytest.mark.parametrize("dtype", DTYPES, ids=["f64", "f32"])
    def test_min_reduction_skips_nan(self, dtype):
        col = np.array([[1.0], [NAN], [-2.0], [3.0], [NAN]], dtype=dtype)

        def run(rt):
            s = Set(len(col), "s")
            x = Dat(s, 1, col, dtype, name="x")
            lo = Global(1, value=np.finfo(dtype).max, dtype=dtype,
                        name="lo")
            par_loop(lw_min_reduction, s, arg_dat(x, IDX_ID, None, READ),
                     arg_gbl(lo, MIN), runtime=rt)
            return lo.value.tobytes()

        got = _legs(run)
        assert got["sequential"] == np.array([-2.0], dtype=dtype).tobytes()
        _assert_legs_equal(got)

    def test_lane_forms_follow_the_scalar_semantics(self):
        """Each op's lane form is its scalar meaning, element by
        element, on every pair of special values."""
        specials = [0.0, -0.0, 1.0, -1.5, NAN, np.inf, -np.inf]
        a, b = (np.array(v) for v in zip(*[(p, q) for p in specials
                                           for q in specials]))
        for op in (lower.MIN, lower.MAX, lower.POW):
            for dtype in op.lane_dtypes:
                x, y = a.astype(dtype), b.astype(dtype)
                with np.errstate(all="ignore"):
                    lanes = op.lanes(x, y)
                    want = np.array([op.scalar(p, q) for p, q in zip(x, y)],
                                    dtype=dtype)
                assert lanes.tobytes() == want.tobytes(), (op.name, dtype)


class TestFloat32Pow:
    """Array ``**`` on float32 is not ``powf``: no float32 lane form."""

    def test_no_float32_lane_form(self):
        ir = kernel_ir(lw_pow)
        shapes = [(True, 2), (True, 3)]
        compile_vector(ir, shapes, "float64")
        with pytest.raises(UnvectorizableKernel, match="pow"):
            compile_vector(ir, shapes, "float32")

    def test_vectorized_matches_the_interpreter(self):
        rng = np.random.default_rng(7)
        xs = np.abs(rng.standard_normal((20000, 2)) * 10)
        xs[:6, 0] = [0.0, -0.0, np.inf, -np.inf, NAN, 1.0]
        xs = xs.astype(np.float32)

        def run(rt):
            s = Set(len(xs), "s")
            x = Dat(s, 2, xs, np.float32, name="x")
            y = Dat(s, 3, np.zeros((len(xs), 3)), np.float32, name="y")
            with np.errstate(all="ignore"):
                par_loop(lw_pow, s, arg_dat(x, IDX_ID, None, READ),
                         arg_dat(y, IDX_ID, None, WRITE), runtime=rt)
            return y.data.tobytes()

        _assert_legs_equal(_legs(run))


def _max_helper(a, b):
    return max(a, b)


def _square_helper(a):
    return a ** 2


@kernel("lw_helper_max")
def lw_helper_max(x, y):
    y[0] = _max_helper(x[0], x[1])


@kernel("lw_helper_square")
def lw_helper_square(x, y):
    y[0] = _square_helper(x[0])


class TestHelpers:
    """A helper runs unchanged on lane arrays only when every op in it
    has an as-written lane form; otherwise the loop runs scalar."""

    @pytest.mark.parametrize("kern", [lw_helper_max, lw_helper_square],
                             ids=["max", "square"])
    def test_helper_ops_keep_their_meaning_on_lanes(self, kern):
        # Seed 6801 holds inputs where array ``x ** 2`` (np.square)
        # rounds one ulp away from scalar pow().
        xs = np.random.default_rng(6801).standard_normal((20000, 2))
        xs[:4] = PAIRS

        def run(rt):
            s = Set(len(xs), "s")
            x = Dat(s, 2, xs, name="x")
            y = Dat(s, 1, np.zeros((len(xs), 1)), name="y")
            par_loop(kern, s, arg_dat(x, IDX_ID, None, READ),
                     arg_dat(y, IDX_ID, None, WRITE), runtime=rt)
            return y.data.tobytes()

        _assert_legs_equal(_legs(run))


def _fma_helper(a, b):
    s = a * b + a
    return s


@kernel("fp_max_builtin")
def fp_max_builtin(x, y):
    y[0] = max(x[0], x[1])


@kernel("fp_max_numpy")
def fp_max_numpy(x, y):
    y[0] = np.maximum(x[0], x[1])


@kernel("fp_max_intrinsic")
def fp_max_intrinsic(x, y):
    y[0] = vmax(x[0], x[1])


@kernel("fp_min_intrinsic")
def fp_min_intrinsic(x, y):
    y[0] = vmin(x[0], x[1])


@kernel("fp_sqrt_numpy")
def fp_sqrt_numpy(x, y):
    y[0] = np.sqrt(x[0])


@kernel("fp_sqrt_intrinsic")
def fp_sqrt_intrinsic(x, y):
    y[0] = vsqrt(x[0])


@kernel("fp_abs_builtin")
def fp_abs_builtin(x, y):
    y[0] = abs(x[0])


@kernel("fp_abs_intrinsic")
def fp_abs_intrinsic(x, y):
    y[0] = vabs(x[0])


@kernel("fp_pow")
def fp_pow(x, y):
    y[0] = x[0] ** 1.5


@kernel("fp_pow_folded")
def fp_pow_folded(x, y):
    y[0] = x[0] ** 1 + x[1] ** 0 + 2.0 ** 3


@kernel("fp_helper")
def fp_helper(x, y):
    y[0] = _fma_helper(x[0], x[1])


class TestFlopPrices:
    def test_every_spelling_of_an_op_costs_the_same(self):
        assert {estimate_flops(k) for k in (
            fp_max_builtin, fp_max_numpy, fp_max_intrinsic,
            fp_min_intrinsic, fp_abs_builtin, fp_abs_intrinsic)} == {1.0}
        assert estimate_flops(fp_sqrt_numpy) == lower.SQRT_FLOPS
        assert estimate_flops(fp_sqrt_intrinsic) == lower.SQRT_FLOPS

    def test_pow_is_a_transcendental_unless_folded(self):
        assert estimate_flops(fp_pow) == lower.TRANSCENDENTAL_FLOPS
        # x ** 1 is x, x ** 0 and 2.0 ** 3 are literals: two adds.
        assert estimate_flops(fp_pow_folded) == 2.0

    def test_helper_call_costs_its_body(self):
        assert estimate_flops(fp_helper) == 2.0
