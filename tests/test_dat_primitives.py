"""Property tests for the vectorized backend's batched gather and
serialized increment.

The strip executor's gather (``backends/base.py: StripProgram``, reached
through ``gather_batch``) and ``Dat.scatter_add(serialize=True)`` carry
every batched gather and serialized increment of the vectorized backend
(the paper's packing into vector registers and its sequential scatter
out of them).  Both are pinned here against the plainest possible
oracle:

* the gather == the row fancy-index ``storage[idx]`` (AoS) /
  ``moveaxis(storage[:, idx], 0, -1)`` (SoA), in shape, dtype and bits,
  and never a view of the storage;
* ``scatter_add(serialize=True)`` == a pure-Python loop applying one
  lane at a time, component by component, in index order — bitwise,
  over repeated targets, hubs, back-to-back repeats and IEEE special
  payloads (NaN results are compared as NaN: their payload bits are
  the FPU's choice, not the scatter's).
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.backends.base import gather_batch
from repro.core import IDX_ALL, READ, Dat, Map, Set, arg_dat

SETTINGS = dict(
    max_examples=120, deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)

LAYOUTS = st.sampled_from(["aos", "soa"])
DTYPES = st.sampled_from([np.float32, np.float64])
INDEX_DTYPES = st.sampled_from([np.int32, np.intp])
DIMS = st.sampled_from([1, 2, 4])

#: Payloads whose sums are order- and sign-sensitive.
SPECIALS = [0.0, -0.0, np.inf, -np.inf, np.nan, 1.0, -1.0, 1e-30, 3.5e38]


def _values(draw, shape, dtype, specials: bool) -> np.ndarray:
    n = int(np.prod(shape))
    if specials:
        picks = draw(st.lists(st.sampled_from(SPECIALS), min_size=n, max_size=n))
        vals = np.array(picks, dtype=np.float64)
    else:
        seed = draw(st.integers(0, 2**32 - 1))
        vals = np.random.default_rng(seed).standard_normal(n) * 1e3
    with np.errstate(over="ignore"):
        return vals.astype(dtype).reshape(shape)


def _same_bits(a: np.ndarray, b: np.ndarray) -> bool:
    """Equal shape and dtype, NaN where the other is NaN, and identical
    bits (signed zeros included) everywhere else."""
    if a.shape != b.shape or a.dtype != b.dtype:
        return False
    nan = np.isnan(a)
    if not np.array_equal(nan, np.isnan(b)):
        return False
    uint = np.dtype(f"u{a.dtype.itemsize}")
    return np.array_equal(a[~nan].view(uint), b[~nan].view(uint))


def _dat(init: np.ndarray, layout: str) -> Dat:
    """A Dat holding a *copy* of ``init`` (an AoS Dat adopts a matching
    C-contiguous array as its storage)."""
    return Dat(Set(init.shape[0], "s"), init.shape[1], init.copy(),
               dtype=init.dtype, layout=layout)


@st.composite
def indices(draw, extent: int, max_lanes: int = 24):
    """A 1-D ``(lanes,)`` or 2-D ``(chunk, arity)`` index array (possibly
    empty) in int32 or intp."""
    dtype = draw(INDEX_DTYPES)
    if draw(st.booleans()):
        shape = (draw(st.integers(0, max_lanes)),)
    else:
        shape = (draw(st.integers(0, 6)), draw(st.integers(1, 4)))
    n = int(np.prod(shape))
    kind = draw(st.sampled_from(["random", "hub", "pairs"]))
    if kind == "hub":
        # Every lane but a few lands on one target.
        hub = draw(st.integers(0, extent - 1))
        flat = [hub if draw(st.integers(0, 3)) else
                draw(st.integers(0, extent - 1)) for _ in range(n)]
    elif kind == "pairs":
        # The same target twice in a row, again and again.
        flat = [draw(st.integers(0, extent - 1)) for _ in range((n + 1) // 2)]
        flat = [t for t in flat for _ in range(2)][:n]
    else:
        flat = draw(st.lists(st.integers(0, extent - 1), min_size=n, max_size=n))
    return np.array(flat, dtype=dtype).reshape(shape)


def _gathered(d: Dat, idx: np.ndarray) -> np.ndarray:
    """The strip executor's gather of rows ``idx`` of ``d``: a 1-D
    ``idx`` through a single-slot READ argument, a 2-D ``(chunk,
    arity)`` one through a vector (``IDX_ALL``) READ argument."""
    n = idx.shape[0]
    vector = idx.ndim == 2
    m = Map(Set(n, "lanes"), d.set, idx.shape[1] if vector else 1, idx)
    arg = arg_dat(d, IDX_ALL if vector else 0, m, READ)
    return gather_batch([arg], np.arange(n)).arrays[0]


@st.composite
def scatter_cases(draw):
    layout, dtype, dim = draw(LAYOUTS), draw(DTYPES), draw(DIMS)
    extent = draw(st.integers(1, 12))
    idx = draw(indices(extent))
    specials = draw(st.booleans())
    init = _values(draw, (extent, dim), dtype, specials)
    vals = _values(draw, idx.shape + (dim,), dtype, specials)
    return layout, init, idx, vals


def _lane_loop(init: np.ndarray, idx: np.ndarray, vals: np.ndarray) -> np.ndarray:
    """The oracle: one lane at a time, in index order, per component."""
    out = init.copy()
    flat_idx = idx.reshape(-1)
    flat_vals = vals.reshape(-1, init.shape[1])
    with np.errstate(all="ignore"):
        for lane in range(flat_idx.size):
            row = int(flat_idx[lane])
            for k in range(init.shape[1]):
                out[row, k] = out[row, k] + flat_vals[lane, k]
    return out


class TestGather:
    @settings(**SETTINGS)
    @given(data=st.data())
    def test_matches_row_fancy_index(self, data):
        layout, dtype, dim = data.draw(LAYOUTS), data.draw(DTYPES), data.draw(DIMS)
        extent = data.draw(st.integers(1, 30))
        idx = data.draw(indices(extent, max_lanes=40))
        init = _values(data.draw, (extent, dim), dtype,
                       data.draw(st.booleans()))
        d = _dat(init, layout)
        storage = d.storage
        if layout == "soa":
            expected = np.moveaxis(storage[:, idx], 0, -1)
        else:
            expected = storage[idx]
        got = _gathered(d, idx)
        assert got.shape == idx.shape + (dim,)
        assert _same_bits(got, expected)
        assert _same_bits(got, init[idx])
        assert not np.shares_memory(got, storage)

    @pytest.mark.parametrize("layout", ["aos", "soa"])
    def test_empty_index_keeps_trailing_shape(self, layout):
        d = Dat(Set(5, "s"), 3, np.arange(15.0), layout=layout)
        assert _gathered(d, np.array([], dtype=np.intp)).shape == (0, 3)
        assert _gathered(d, np.zeros((0, 2), dtype=np.int32)).shape == (0, 2, 3)


class TestScatterAddSerialized:
    @settings(**SETTINGS)
    @given(case=scatter_cases())
    def test_bitwise_equals_per_lane_loop(self, case):
        layout, init, idx, vals = case
        d = _dat(init, layout)
        with np.errstate(all="ignore"):
            d.scatter_add(idx, vals, serialize=True)
        assert _same_bits(d.data.copy(), _lane_loop(init, idx, vals))

    @settings(**SETTINGS)
    @given(case=scatter_cases())
    def test_bitwise_equals_whole_row_add_at(self, case):
        """Per-component accumulation == one 2-D ``np.add.at`` of whole
        rows: each ``(row, k)`` target sees its lanes in index order
        either way."""
        layout, init, idx, vals = case
        d = _dat(init, layout)
        expected = init.copy()
        with np.errstate(all="ignore"):
            np.add.at(expected, idx, vals)
            d.scatter_add(idx, vals, serialize=True)
        assert _same_bits(d.data.copy(), expected)

    def test_signed_zero_order(self):
        """-0.0 + -0.0 stays -0.0, +0.0 joins it to +0.0: the result
        depends on which lanes reach a target, and must match the lane
        loop for every layout and dtype."""
        for layout in ("aos", "soa"):
            for dtype in (np.float32, np.float64):
                init = np.full((2, 2), -0.0, dtype=dtype)
                idx = np.array([1, 1, 0], dtype=np.intp)
                vals = np.array([[-0.0, 0.0], [-0.0, -0.0], [0.0, -0.0]],
                                dtype=dtype)
                d = _dat(init, layout)
                d.scatter_add(idx, vals)
                assert _same_bits(d.data.copy(), _lane_loop(init, idx, vals))


class TestScatterAddFree:
    @pytest.mark.parametrize("layout", ["aos", "soa"])
    def test_unique_targets_match_fused_add(self, layout):
        rng = np.random.default_rng(7)
        init = rng.standard_normal((9, 4))
        idx = rng.permutation(9)[:5]
        vals = rng.standard_normal((5, 4))
        d = _dat(init, layout)
        d.scatter_add(idx, vals, serialize=False)
        expected = init.copy()
        expected[idx] += vals
        assert _same_bits(d.data.copy(), expected)
