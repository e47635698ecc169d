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
