"""Differential fuzzing of the kernelc emitters (hypothesis).

Two compiled legs must reproduce the scalar interpreter bitwise on
randomized inputs:

* the generated **vector kernel** (vectorized backend), and
* the **native C** chain program (native backend, cffi).

The kernels below deliberately mix the constructs the emitters lower —
polynomial arithmetic, math intrinsics, integer powers, comparisons,
branches, indirect gathers/INC scatters and global reductions — and
hypothesis drives the data: mesh sizes, layouts, RNG seeds, the float
dtype (float64, and float32 as Volna runs) and special values spliced
into both operand columns (signed zeros, NaN, infinities, tiny
magnitudes, exact integers).  Results are compared as bytes, so any
emitter that rounds differently, reassociates, or mis-handles an edge
value — a NaN's sign, a zero's — shows up here long before it corrupts
an app.
"""

import linecache

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core import (
    INC,
    MIN,
    READ,
    Dat,
    Global,
    Map,
    Set,
    arg_dat,
    arg_gbl,
    kernel,
    par_loop,
)
from repro.core.access import IDX_ALL, IDX_ID
from repro.kernelc import compiler_available, native_cache_stats
from repro.testing import runtime_for

#: The differential legs.  ``sequential`` is the oracle; the other
#: two are the generated executables under test.  (This list is
#: intentionally NOT Backend-matrix driven: the property needs all
#: legs present even when REPRO_BACKEND pins the equivalence sweeps.)
LEGS = [
    ("sequential", "two_level", {}),
    ("vectorized", "two_level", {}),
    ("native", "two_level", {}),
]

CASES = st.fixed_dictionaries({
    "seed": st.integers(0, 2**32 - 1),
    "n": st.integers(1, 48),
    "layout": st.sampled_from(["aos", "soa"]),
    "dtype": st.sampled_from([np.float64, np.float32]),
    "special": st.sampled_from(
        [0.0, -0.0, 1.0, -1.0, 0.5, -2.0, 3.0, 1e-8, 7.25,
         float("nan"), float("inf"), float("-inf")]
    ),
})

FUZZ_SETTINGS = dict(max_examples=12, deadline=None)


@kernel("fz_poly")
def fz_poly(x, y):
    y[0] = x[0] * x[0] - 2.5 * x[1] + 0.5
    y[1] = x[0] / (np.abs(x[1]) + 1.0)


@kernel("fz_math")
def fz_math(x, y):
    y[0] = np.sqrt(np.abs(x[0])) + np.minimum(x[0], x[1])
    y[1] = np.maximum(x[0] * x[1], -3.0) + min(x[1], 2.0)
    y[1] += x[0] ** 2 + max(x[0], 0.25) ** 0.5


@kernel("fz_branch")
def fz_branch(x, y):
    if x[0] > 0.0:
        y[0] = x[0] * x[1]
    else:
        y[0] = x[1] - x[0]
    y[1] = (x[1] > x[0]) * (x[0] + x[1])


@kernel("fz_select")
def fz_select(x, y):
    w = 0.0 if x[0] > 0.0 else 1.0
    y[0] = w * x[1] / (np.abs(x[0]) + 1.0) * x[1]
    k = 2 if x[1] > x[0] else -1
    y[1] = k * x[0] - w


@kernel("fz_flux")
def fz_flux(w, a, b, out0, out1, lo):
    d0 = a[0] - b[0]
    d1 = a[1] - b[1]
    s = w[0] * np.sqrt(d0 * d0 + d1 * d1)
    out0[0] += s
    out0[1] += d0 * s
    out1[0] += s
    out1[1] -= d1 * s
    lo[0] = min(lo[0], s)


@kernel("fz_gather_all")
def fz_gather_all(w, v, out):
    out[0] += w[0] * (v[0][0] + v[1][0])
    out[1] += w[0] * (v[0][1] - v[1][1])


def _direct_problem(case):
    rng = np.random.default_rng(case["seed"])
    xd = rng.standard_normal((case["n"], 2))
    xd[0, 0] = xd[-1, 1] = case["special"]
    return xd


def _run_direct(kern, backend, scheme, options, case):
    rt = runtime_for(backend, scheme, options, layout=case["layout"])
    elems = Set(case["n"], "elems")
    dtype = case["dtype"]
    x = Dat(elems, 2, _direct_problem(case), dtype, name="x")
    y = Dat(elems, 2, np.zeros((case["n"], 2)), dtype, name="y")
    par_loop(kern, elems,
             arg_dat(x, IDX_ID, None, READ),
             arg_dat(y, IDX_ID, None, INC),
             runtime=rt)
    return y.data.copy()


def _ring(case):
    rng = np.random.default_rng(case["seed"])
    n = case["n"]
    nodes, edges = Set(n, "nodes"), Set(n, "edges")
    conn = np.stack([np.arange(n), (np.arange(n) + 1) % n], axis=1)
    e2n = Map(edges, nodes, 2, conn.astype(np.int64), "e2n")
    wd = rng.standard_normal((n, 1))
    xd = rng.standard_normal((n, 2))
    xd[0, 0] = xd[-1, 1] = case["special"]
    return nodes, edges, e2n, wd, xd


def _run_flux(backend, scheme, options, case):
    nodes, edges, e2n, wd, xd = _ring(case)
    rt = runtime_for(backend, scheme, options, layout=case["layout"])
    dtype = case["dtype"]
    w = Dat(edges, 1, wd, dtype, name="w")
    x = Dat(nodes, 2, xd, dtype, name="x")
    acc = Dat(nodes, 2, np.zeros_like(xd), dtype, name="acc")
    lo = Global(1, value=np.finfo(dtype).max, dtype=dtype, name="lo")
    par_loop(fz_flux, edges,
             arg_dat(w, IDX_ID, None, READ),
             arg_dat(x, 0, e2n, READ),
             arg_dat(x, 1, e2n, READ),
             arg_dat(acc, 0, e2n, INC),
             arg_dat(acc, 1, e2n, INC),
             arg_gbl(lo, MIN),
             runtime=rt)
    return acc.data.copy(), lo.value.copy()


def _run_gather_all(backend, scheme, options, case):
    nodes, edges, e2n, wd, xd = _ring(case)
    rt = runtime_for(backend, scheme, options, layout=case["layout"])
    dtype = case["dtype"]
    w = Dat(edges, 1, wd, dtype, name="w")
    x = Dat(nodes, 2, xd, dtype, name="x")
    out = Dat(edges, 2, np.zeros((case["n"], 2)), dtype, name="out")
    par_loop(fz_gather_all, edges,
             arg_dat(w, IDX_ID, None, READ),
             arg_dat(x, IDX_ALL, e2n, READ),
             arg_dat(out, IDX_ID, None, INC),
             runtime=rt)
    return out.data.copy()


def _assert_legs_bitwise(run, case, label):
    ref = None
    for backend, scheme, options in LEGS:
        with np.errstate(all="ignore"):  # NaN and inf specials
            got = run(backend, scheme, options, case)
        if not isinstance(got, tuple):
            got = (got,)
        if ref is None:
            ref = got
            continue
        for r, g in zip(ref, got):
            assert r.tobytes() == g.tobytes(), (
                f"{label}: backend {backend} diverged from sequential "
                f"(case={case}):\n{r!r}\n{g!r}"
            )


@settings(**FUZZ_SETTINGS)
@given(case=CASES)
def test_direct_poly_bitwise(case):
    _assert_legs_bitwise(
        lambda *a: _run_direct(fz_poly, *a), case, "fz_poly")


@settings(**FUZZ_SETTINGS)
@given(case=CASES)
# Regression pin: an input where array ``x ** 2`` (np.square fast path)
# rounds one ulp away from scalar pow() — the emitters must take the
# scalar path (see kernelc/vector.py:_lane_pow, native.py:_pow).
@example(case={"seed": 6801, "n": 11, "layout": "aos",
               "dtype": np.float64, "special": 0.0})
def test_direct_math_bitwise(case):
    _assert_legs_bitwise(
        lambda *a: _run_direct(fz_math, *a), case, "fz_math")


@settings(**FUZZ_SETTINGS)
@given(case=CASES)
def test_direct_branch_bitwise(case):
    _assert_legs_bitwise(
        lambda *a: _run_direct(fz_branch, *a), case, "fz_branch")


@settings(**FUZZ_SETTINGS)
@given(case=CASES)
# Regression pin: lane-free select operands take the loop's compute
# dtype (kernelc/vector.py), or float32 lanes round in float64.
@example(case={"seed": 3, "n": 48, "layout": "soa",
               "dtype": np.float32, "special": -2.0})
def test_direct_select_bitwise(case):
    _assert_legs_bitwise(
        lambda *a: _run_direct(fz_select, *a), case, "fz_select")


@settings(**FUZZ_SETTINGS)
@given(case=CASES)
def test_indirect_inc_and_reduction_bitwise(case):
    _assert_legs_bitwise(_run_flux, case, "fz_flux")


@settings(**FUZZ_SETTINGS)
@given(case=CASES)
def test_vector_gather_bitwise(case):
    _assert_legs_bitwise(_run_gather_all, case, "fz_gather_all")


# ----------------------------------------------------------------------
# Kernel locals named like the printers' own identifiers
# ----------------------------------------------------------------------
#: Names the printers generate or spell: the C printer's tuple
#: temporaries (``t<n>``), helper prefixes (``h<n>_``), slot names, loop
#: names and libm calls; the NumPy printer's branch rebinds
#: (``<name>__<n>``) and masks.  A kernel may use any of them.
GENERATED_NAMES = [
    "t0", "t1", "t2", "t3", "t0__3", "t1__4", "t2__5", "a__3", "h0_p",
    "h0_r0", "h1_", "d0", "i1", "g2", "v1", "kc_lo0", "kc_s0", "e", "lo",
    "P", "sqrt", "sqrtf", "fabs", "pow", "i64", "DBL_MAX", "FLT_MAX",
    "NAN", "INFINITY", "_kc_t__1", "_kc_f__2",
]

_NAMES_KERNEL = """\
def fz_names(x, y):
    {a} = x[0] * 2.0
    {b} = 0.5
    if x[0] > x[1]:
        {b}, {c} = x[1], {a}
    else:
        {c} = {a} - x[1]
    p, q = _fz_pair(x[1], {a})
    y[0] = {c} + {b} * p
    y[1] = {a} * {b} - q
"""


def _fz_pair(p, q):
    s = p * q
    return s + p, s - q


def _names_kernel(a, b, c):
    """``fz_names`` with its locals named ``a``, ``b``, ``c``."""
    source = _NAMES_KERNEL.format(a=a, b=b, c=c)
    filename = f"<fz_names {a} {b} {c}>"
    linecache.cache[filename] = (len(source), None,
                                 source.splitlines(True), filename)
    ns = {"_fz_pair": _fz_pair}
    exec(compile(source, filename, "exec"), ns)
    return kernel(f"fz_names_{a}_{b}_{c}")(ns["fz_names"])


def _assert_native_stayed(run, case, label):
    """All legs bitwise, and the native leg ran native: no emitted TU
    failed to compile, no loop fell back."""
    before = native_cache_stats()
    _assert_legs_bitwise(run, case, label)
    after = native_cache_stats()
    if compiler_available():
        assert after["failures"] == before["failures"], label
        assert after["fallbacks"] == before["fallbacks"], (
            label, after["fallback_reasons"])


NAMES = st.lists(st.sampled_from(GENERATED_NAMES), min_size=3, max_size=3,
                 unique=True)


@settings(**FUZZ_SETTINGS)
@given(case=CASES, names=NAMES)
# A kernel ``t0`` next to the C printer's tuple temporaries: the inner
# ``const double t0`` shadowed it and ``c`` read ``x[1]``, silently;
# with ``b`` named ``t1`` too, the TU did not compile.
@example(case={"seed": 1, "n": 9, "layout": "aos", "dtype": np.float64,
               "special": 1.0}, names=["t0", "u", "w"])
@example(case={"seed": 1, "n": 9, "layout": "aos", "dtype": np.float64,
               "special": 1.0}, names=["t0", "t1", "t2"])
# A kernel ``t0__3`` next to the NumPy printer's rebinds of ``t0`` in
# the branch: the rebind overwrote it.
@example(case={"seed": 2, "n": 9, "layout": "soa", "dtype": np.float32,
               "special": -1.0}, names=["t0__3", "t0", "t1"])
# Locals named like a libm call, a typedef and a macro the C spells.
@example(case={"seed": 3, "n": 9, "layout": "aos", "dtype": np.float64,
               "special": 0.5}, names=["sqrt", "i64", "DBL_MAX"])
def test_generated_names_never_shadow_kernel_locals(case, names):
    kern = _names_kernel(*names)
    _assert_native_stayed(lambda *a: _run_direct(kern, *a), case,
                          f"fz_names{tuple(names)}")


@kernel("fz_tuple_top")
def fz_tuple_top(x, y):
    t0 = x[0] * 2.0
    a, b = x[1], t0
    y[0] = a
    y[1] = b


@settings(**FUZZ_SETTINGS)
@given(case=CASES)
def test_tuple_temporaries_beside_a_local_t0(case):
    """Outside a branch the C printer declared ``t0`` twice: the TU did
    not compile and the loop fell back."""
    _assert_native_stayed(lambda *a: _run_direct(fz_tuple_top, *a), case,
                          "fz_tuple_top")
