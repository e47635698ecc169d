"""The vectorized backend's strip executor (``StripProgram``).

Every strip of a loop phase runs as prebound NumPy calls: ``np.take``
gathers packed into column-major lanes, the generated kernel on ``.T``
lane views, increments written straight into (interleaved)
accumulators and a per-component ordered scatter.  Eager dispatch
prepares these programs at each call; a chained replay prepares them
once per chain shape and keeps them.  On ``Runtime("vectorized")`` the
two must agree bitwise, for the app twins under both layouts
(here: float32 Volna; the rest sit in the backend-matrix sweeps of
``test_chain.py`` / ``test_aero.py`` / ``test_matfree.py``) and for the
argument kinds the apps do not all exercise — vector (``IDX_ALL``)
increments, a merged same-Dat INC group, a global reduction, an
indirect RW operand and the non-contiguous direct INC of matrix
staging.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.backends import base
from repro.core import (
    IDX_ALL,
    IDX_ID,
    INC,
    READ,
    RW,
    WRITE,
    Dat,
    Global,
    Map,
    Mat,
    Runtime,
    Set,
    arg_dat,
    arg_gbl,
    arg_mat,
    kernel,
    make_backend,
    par_loop,
)
from repro.core.access import Access
from repro.core.plan import SCHEMES
from repro.mesh import make_airfoil_mesh, make_tri_mesh
from repro.testing import LAYOUT_MATRIX

STEPS = 3


def _airfoil(layout, chained):
    from repro.apps.airfoil import AirfoilSim

    return AirfoilSim(make_airfoil_mesh(16, 8),
                      runtime=Runtime("vectorized", layout=layout),
                      chained=chained)


class TestAppTwins:
    """Airfoil, float64 Volna and aero (assembled and matrix-free) replay
    == eager on the vectorized backend under both layouts is pinned by
    the backend-matrix sweeps of ``test_chain.py``, ``test_aero.py`` and
    ``test_matfree.py``; single-precision Volna is not."""

    @pytest.mark.parametrize("layout", LAYOUT_MATRIX)
    def test_volna_float32(self, layout):
        from repro.apps.volna import VolnaSim

        sims = [
            VolnaSim(make_tri_mesh(12, 10), dtype=np.float32,
                     runtime=Runtime("vectorized", layout=layout),
                     chained=chained)
            for chained in (False, True)
        ]
        for sim in sims:
            sim.run(STEPS)
        eager, chained = sims
        assert np.array_equal(eager.state.q.data, chained.state.q.data)
        assert np.array_equal(eager.state.rhs.data, chained.state.rhs.data)
        assert eager.dt_history == chained.dt_history


def _spy_strips(monkeypatch):
    """Record ``(args, strip)`` of every strip program prepared
    (returns the list it appends to)."""
    seen = []
    init = base.StripProgram.__init__

    def spy(self, kernel_vec, args, phase, *scratch):
        init(self, kernel_vec, args, phase, *scratch)
        seen.append((args, phase))

    monkeypatch.setattr(base.StripProgram, "__init__", spy)
    return seen


# ----------------------------------------------------------------------
# Every argument kind of StripProgram in one chain.
# ----------------------------------------------------------------------
@kernel("rp_vec_inc")
def rp_vec_inc(x, v):
    if x[0] > 0.0:
        v[0][0] += x[0]
    v[1][0] += 2.0 * x[1]
    v[0][1] -= x[0] * x[1]
    v[1][1] += x[1] - x[0]


@kernel("rp_pair_inc")
def rp_pair_inc(x, c0, c1, d0, d1, g):
    f = 0.5 * x[0] - x[1] * c0[2]
    d0[0] += f
    d1[0] -= f * c1[1]
    d0[1] += np.maximum(f, c1[0])
    d1[1] += c0[0] * x[1]
    g[0] += x[0]


@kernel("rp_rw")
def rp_rw(x, y0):
    y0[0] = y0[0] * 0.5 + x[0]


@kernel("rp_mat")
def rp_mat(x, d0, k):
    k[0] += x[0]
    k[1] += x[0] * x[1]
    k[3] -= x[1]
    d0[0] += 0.25 * x[1]


@kernel("rp_cell")
def rp_cell(c, d, w):
    w[0] = c[0] * d[1] - d[0]
    w[1] = c[1] + c[2]


def _strip(seed, layout):
    rng = np.random.default_rng(seed)
    edges, cells = Set(96, "edges"), Set(30, "cells")
    # Slot 1 sends runs of 8 edges to one cell, and neighbouring blocks
    # of 16 edges (only those) to a shared one: two_level then colours
    # blocks 0, 2, 4 | 1, 3, 5, whose phases are non-contiguous.
    first = rng.integers(0, 30, 96)
    second = (np.arange(96) + 8) // 16
    e2c = Map(edges, cells, 2, np.stack([first, second], axis=1), name="e2c")
    return dict(
        edges=edges, cells=cells, e2c=e2c,
        x=Dat(edges, 2, rng.standard_normal((96, 2)), name="x", layout=layout),
        c=Dat(cells, 3, rng.standard_normal((30, 3)), name="c", layout=layout),
        d=Dat(cells, 2, rng.standard_normal((30, 2)), name="d", layout=layout),
        v=Dat(cells, 2, rng.standard_normal((30, 2)), name="v", layout=layout),
        y=Dat(cells, 1, rng.standard_normal((30, 1)), name="y", layout=layout),
        w=Dat(cells, 2, name="w", layout=layout),
        g=Global(1, name="g"),
        mat=Mat(e2c, e2c, name="K"),
    )


def _loops(m, rt):
    e2c = m["e2c"]
    par_loop(rp_vec_inc, m["edges"], arg_dat(m["x"], IDX_ID, None, READ),
             arg_dat(m["v"], IDX_ALL, e2c, INC), runtime=rt)
    # Matrix staging is a direct INC; under a permute scheme the
    # indirect INC next to it makes the plan colour, so its phases are
    # non-contiguous.
    par_loop(rp_mat, m["edges"], arg_dat(m["x"], IDX_ID, None, READ),
             arg_dat(m["d"], 1, e2c, INC), arg_mat(m["mat"], INC),
             runtime=rt)
    par_loop(rp_pair_inc, m["edges"], arg_dat(m["x"], IDX_ID, None, READ),
             arg_dat(m["c"], 0, e2c, READ), arg_dat(m["c"], 1, e2c, READ),
             arg_dat(m["d"], 0, e2c, INC), arg_dat(m["d"], 1, e2c, INC),
             arg_gbl(m["g"], INC), runtime=rt)
    par_loop(rp_rw, m["edges"], arg_dat(m["x"], IDX_ID, None, READ),
             arg_dat(m["y"], 1, e2c, RW), runtime=rt)
    par_loop(rp_cell, m["cells"], arg_dat(m["c"], IDX_ID, None, READ),
             arg_dat(m["d"], IDX_ID, None, READ),
             arg_dat(m["w"], IDX_ID, None, WRITE), runtime=rt)


class TestArgumentKinds:
    @pytest.mark.parametrize("scheme", ["two_level", "full_permute"])
    @pytest.mark.parametrize("layout", LAYOUT_MATRIX)
    def test_chained_equals_eager(self, layout, scheme, monkeypatch):
        prepared = _spy_strips(monkeypatch)
        eager, chained = _strip(5, layout), _strip(5, layout)
        rt_e = Runtime("vectorized", scheme=scheme, block_size=16)
        rt_c = Runtime("vectorized", scheme=scheme, block_size=16)
        for _ in range(STEPS):
            _loops(eager, rt_e)
            with rt_c.chain():
                _loops(chained, rt_c)
        for name in ("v", "d", "y", "w"):
            assert np.array_equal(eager[name].data, chained[name].data), name
        assert np.array_equal(eager["g"].value, chained["g"].value)
        assert np.array_equal(eager["mat"].assemble().data,
                              chained["mat"].assemble().data)
        if scheme == "two_level":
            # One ascending phase: every strip is a contiguous range, so
            # direct arguments are zero-copy views.
            assert prepared and all(ph.contiguous for _, ph in prepared)
            return
        # Both dispatches built rp_mat's non-contiguous matrix staging
        # through the one executor, and nothing else has a direct INC.
        staged = [
            args for args, ph in prepared
            if not ph.contiguous and any(
                a.is_direct and not a.is_global and a.access is Access.INC
                for a in args)
        ]
        staging = {id(m["mat"].staging): m for m in (eager, chained)}
        owners = [staging.get(id(args[-1].dat)) for args in staged]
        assert None not in owners
        assert any(o is eager for o in owners)
        assert any(o is chained for o in owners)


class TestHotPath:
    def test_warm_airfoil_replay_never_stacks(self, monkeypatch):
        """The merged ``p_res`` INC group writes into slot views of one
        interleaved accumulator: a warm replay makes no ``np.stack``."""
        eager, chained = _airfoil("aos", False), _airfoil("aos", True)
        eager.run(STEPS)
        chained.run(STEPS - 1)

        def no_stack(*args, **kwargs):
            raise AssertionError("np.stack in the warm replay")

        monkeypatch.setattr(np, "stack", no_stack)
        chained.run(1)
        monkeypatch.undo()
        assert np.array_equal(eager.state.p_q.data, chained.state.p_q.data)
        assert eager.rms_history == chained.rms_history


# ----------------------------------------------------------------------
# Strip boundaries: the width moves no bit.
# ----------------------------------------------------------------------
def _strip_airfoil(scheme, chained, **options):
    from repro.apps.airfoil import AirfoilSim

    rt = Runtime(make_backend("vectorized", **options), scheme=scheme,
                 block_size=32)
    return AirfoilSim(make_airfoil_mesh(16, 8), runtime=rt, chained=chained)


class TestStripBoundaries:
    """Every phase runs as ascending strips of ``vec`` lanes.  Airfoil's
    ``update`` folds the Global INC ``rms`` across strip boundaries and
    ``res_calc``'s two ``p_res`` slots scatter as one merged serialized
    INC group (under ``two_level``); both must equal the default width's
    run bitwise at any width, eager and chained."""

    WIDE = 1 << 20  # wider than any phase: one strip per phase

    @pytest.mark.parametrize("chained", [False, True],
                             ids=["eager", "chained"])
    @pytest.mark.parametrize("scheme", SCHEMES)
    @pytest.mark.parametrize("width", [1, 7, 8, WIDE])
    def test_width_is_bitwise_invisible(self, width, scheme, chained):
        ref = _strip_airfoil(scheme, chained)
        got = _strip_airfoil(scheme, chained, vec=width)
        ref.run(STEPS)
        got.run(STEPS)
        assert np.array_equal(ref.state.p_q.data, got.state.p_q.data)
        assert np.array_equal(ref.state.p_res.data, got.state.p_res.data)
        assert ref.rms_history == got.rms_history

        # res_calc (edges) and update (cells) straddle strip boundaries.
        plans = got.runtime.plans._plans.values()
        for set_ in (got.mesh.edges, got.mesh.cells):
            widest = max(ph.elems.size for plan in plans if plan.set is set_
                         for ph in plan.phases(set_.size))
            assert (widest > width) == (width != self.WIDE)

    def test_kernel_stats_count_each_element_once(self):
        """One chained step records one call per loop execution and each
        element once, however many strips a phase is cut into."""
        stats = {}
        for width in (7, self.WIDE):
            sim = _strip_airfoil("two_level", True, vec=width)
            sim.step()
            sim.runtime.backend.reset_stats()
            sim.step()
            stats[width] = {
                name: (ls.calls, ls.elements)
                for name, ls in sim.runtime.stats()["kernels"].items()
            }
        assert stats[7] == stats[self.WIDE]
        m = sim.mesh
        # (calls per step, set) — save_soln once, the rest per RK stage.
        loops = {"save_soln": (1, m.cells), "adt_calc": (2, m.cells),
                 "res_calc": (2, m.edges), "bres_calc": (2, m.bedges),
                 "update": (2, m.cells)}
        assert stats[7] == {
            name: (calls, calls * set_.size)
            for name, (calls, set_) in loops.items()
        }
