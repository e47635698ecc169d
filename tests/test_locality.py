"""Locality at plan time: ``localize``, the drivers' internal numbering,
lazy colour facets.

Three layers of checks:

1. **``localize`` as a function of the mesh** (hypothesis over scrambled
   tri/airfoil meshes, plus adversarial ones — no boundary edges, one
   cell, an isolated node, an edge naming one cell twice): every
   returned permutation is a permutation, the internal mesh describes
   the same geometry, ``localize`` is idempotent (with and without its
   memo), shares every map no renumbered set touches, and never
   increases a span.
2. **The drivers run on it and answer in the caller's numbering**: a
   scrambled mesh gives the unscrambled result, permuted; native ==
   sequential bitwise on it — all three apps.
3. **Colour facets are lazy**: a native run materialises no colouring
   and writes no plan artifact, a vectorized run does both, and a warm
   process builds nothing either way.
"""

import gc
import json
import os
import subprocess
import sys
import weakref
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import store
from repro.apps.aero import AeroSim
from repro.apps.airfoil import AirfoilSim
from repro.apps.volna import DEFAULT_SCENARIO, VolnaSim
from repro.core import Map, Runtime, Set
from repro.core.map import MAP_DTYPE
from repro.kernelc import compiler_available
from repro.mesh import (
    UnstructuredMesh,
    make_airfoil_mesh,
    make_tri_mesh,
    permute_set_numbering,
)
from repro.mesh.renumber import (
    SPAN_LOCAL_ROWS,
    cell_span,
    localize,
    permute_numbering,
)

SRC_DIR = str(Path(__file__).resolve().parents[1] / "src")
SET_NAMES = ("nodes", "cells", "edges", "bedges")
#: The maps whose spans decide (and so must never get worse).
DEFINING_MAPS = ("edge2cell", "bedge2cell", "cell2node")

needs_cc = pytest.mark.skipif(
    not compiler_available(),
    reason="without a C compiler native degrades to the colour-phased "
           "vectorized path",
)


# ----------------------------------------------------------------------
# Meshes
# ----------------------------------------------------------------------
def scrambled(mesh, names, seed):
    """``mesh`` with the named sets scrambled, and the permutations."""
    perms = {}
    for k, name in enumerate(names):
        rng = np.random.default_rng([seed, k])
        perms[name] = rng.permutation(mesh.summary()[name]).astype(np.int64)
    return (permute_numbering(mesh, perms) if perms else mesh), perms


def forget(mesh):
    """The same mesh content in a fresh object (no ``localize`` memo)."""
    return permute_set_numbering(
        mesh, "cells", np.arange(mesh.cells.size, dtype=np.int64)
    )


def quad_strip(n_cells, extra_nodes=0, with_bedges=True):
    """``n_cells`` unit quads in a row, by hand: the adversarial base.

    ``n_cells=1`` has no interior edge at all; ``extra_nodes`` appends
    nodes no cell names; ``with_bedges=False`` leaves the boundary set
    empty (a closed mesh as far as the maps can tell).
    """
    nx = n_cells
    node = lambda i, j: j * (nx + 1) + i  # noqa: E731
    n_nodes = 2 * (nx + 1) + extra_nodes
    coords = np.zeros((n_nodes, 2))
    for i in range(nx + 1):
        coords[node(i, 0)] = (i, 0.0)
        coords[node(i, 1)] = (i, 1.0)
    coords[2 * (nx + 1):] = -1.0
    c2n = np.array([[node(i, 0), node(i + 1, 0), node(i + 1, 1), node(i, 1)]
                    for i in range(nx)])
    e2n = np.array([[node(i, 0), node(i, 1)] for i in range(1, nx)]
                   ).reshape(-1, 2)
    e2c = np.array([[i - 1, i] for i in range(1, nx)]).reshape(-1, 2)
    if with_bedges:
        b2n = np.array(
            [[node(i, 0), node(i + 1, 0)] for i in range(nx)]
            + [[node(i + 1, 1), node(i, 1)] for i in range(nx)]
            + [[node(0, 1), node(0, 0)], [node(nx, 0), node(nx, 1)]]
        )
        b2c = np.array(list(range(nx)) * 2 + [0, nx - 1]).reshape(-1, 1)
    else:
        b2n, b2c = np.zeros((0, 2), int), np.zeros((0, 1), int)
    nodes, cells = Set(n_nodes, "nodes"), Set(nx, "cells")
    edges, bedges = Set(e2n.shape[0], "edges"), Set(b2n.shape[0], "bedges")
    mesh = UnstructuredMesh(
        nodes=nodes, cells=cells, edges=edges, bedges=bedges,
        maps={
            "edge2node": Map(edges, nodes, 2, e2n, "edge2node"),
            "edge2cell": Map(edges, cells, 2, e2c, "edge2cell"),
            "bedge2node": Map(bedges, nodes, 2, b2n, "bedge2node"),
            "bedge2cell": Map(bedges, cells, 1, b2c, "bedge2cell"),
            "cell2node": Map(cells, nodes, 4, c2n, "cell2node"),
        },
        coords=coords,
        meta={"bound": np.ones(b2n.shape[0], dtype=np.int64)},
    )
    mesh.validate()
    return mesh


ADVERSARIAL = {
    "no_bedges": lambda: quad_strip(40, with_bedges=False),
    "one_cell": lambda: quad_strip(1),
    "isolated_nodes": lambda: quad_strip(40, extra_nodes=3),
    # make_tri_mesh mirrors the one real cell of a boundary edge into
    # both edge2cell slots.
    "edge_names_cell_twice": lambda: make_tri_mesh(9, 7),
}


@st.composite
def meshes(draw):
    """A generated or adversarial mesh with any subset of sets scrambled."""
    kind = draw(st.sampled_from(["tri", "airfoil"] + sorted(ADVERSARIAL)))
    if kind == "tri":
        mesh = make_tri_mesh(draw(st.integers(2, 14)),
                             draw(st.integers(2, 10)))
    elif kind == "airfoil":
        mesh = make_airfoil_mesh(draw(st.integers(3, 24)),
                                 draw(st.integers(1, 10)))
    else:
        mesh = ADVERSARIAL[kind]()
    names = draw(st.lists(st.sampled_from(SET_NAMES), unique=True))
    return scrambled(mesh, names, draw(st.integers(0, 2**16)))[0]


def defining_spans(mesh):
    spans = {name: mesh.maps[name].gather_span() for name in DEFINING_MAPS}
    spans["cells"] = cell_span(mesh.maps["edge2cell"].values)
    return spans


# ----------------------------------------------------------------------
# 1. localize as a function of the mesh
# ----------------------------------------------------------------------
class TestLocalize:
    @settings(max_examples=60, deadline=None)
    @given(mesh=meshes())
    def test_invariants(self, mesh):
        loc = localize(mesh)
        internal = loc.mesh
        internal.validate()

        # Every returned permutation is a permutation of its set.
        sizes = mesh.summary()
        assert set(loc.new_of_old) == set(loc.report["sets"])
        for name, perm in loc.new_of_old.items():
            assert perm.dtype == MAP_DTYPE
            assert sorted(perm.tolist()) == list(range(sizes[name]))
        ident = {name: np.arange(n) for name, n in sizes.items()}
        p = {**ident, **loc.new_of_old}

        # Same geometry: every map row names the same target elements
        # (as relabelled), coordinates and boundary flags follow.
        for name, m in mesh.maps.items():
            frm = next(k for k in SET_NAMES if getattr(mesh, k) is m.from_set)
            to = next(k for k in SET_NAMES if getattr(mesh, k) is m.to_set)
            got = internal.maps[name].values[p[frm]]
            assert np.array_equal(got, p[to][m.values])
        assert np.array_equal(internal.coords[p["nodes"]], mesh.coords)
        for key, set_name in (("bound", "bedges"),
                              ("is_boundary_edge", "edges")):
            if key in mesh.meta:
                assert np.array_equal(
                    internal.meta[key][p[set_name]], mesh.meta[key]
                )

        # Zero-copy where nothing moved.
        if not loc.new_of_old:
            assert internal is mesh
        for name, m in mesh.maps.items():
            moved = {
                k for k in loc.new_of_old
                if getattr(mesh, k) in (m.from_set, m.to_set)
            }
            assert (internal.maps[name] is m) == (not moved)
        for k in SET_NAMES:
            assert getattr(internal, k) is getattr(mesh, k)

        # Memoised, and the internal mesh is its own localization.
        assert localize(mesh) is loc
        again = localize(internal)
        assert again.mesh is internal and not again.new_of_old

        # Spans never increase: the root's always; a defining map's
        # whenever the cells it is measured against stayed put (across
        # an RCM the two numbers are in different frames — there the
        # fixed-point test below is the statement).  The report agrees.
        before, after = defining_spans(mesh), defining_spans(internal)
        assert after["cells"] <= before["cells"]
        if "cells" not in loc.new_of_old:
            for name in DEFINING_MAPS:
                assert after[name] <= before[name], (name, loc.report)
        for name in DEFINING_MAPS:
            assert loc.report["spans"][name] == {
                "before": before[name], "after": after[name]}
        assert loc.report["cell_span"] == {
            "before": before["cells"], "after": after["cells"]}

    @settings(max_examples=60, deadline=None)
    @given(mesh=meshes())
    def test_idempotent_without_the_memo(self, mesh):
        """The internal mesh is a fixed point of the decision rules
        themselves: localizing a fresh copy of it renumbers nothing —
        every set is either local or already in the best order
        ``localize`` knows for it."""
        copy = forget(localize(mesh).mesh)
        assert copy._localization is None
        again = localize(copy)
        assert again.new_of_old == {} and again.mesh is copy

    def test_round_trips_between_numberings(self):
        mesh, _ = scrambled(make_tri_mesh(12, 9), ("cells", "nodes"), 3)
        loc = localize(mesh)
        assert {"cells", "nodes"} <= set(loc.new_of_old)
        rows = np.arange(mesh.cells.size * 2.0).reshape(-1, 2)
        inside = loc.to_internal("cells", rows)
        assert not np.array_equal(inside, rows)
        assert np.array_equal(loc.to_caller("cells", inside), rows)
        # An untouched set passes through as the same array.
        edges_only = localize(make_airfoil_mesh(16, 8))
        assert "cells" not in edges_only.new_of_old
        assert edges_only.to_caller("cells", rows) is rows
        assert edges_only.to_internal("cells", rows) is rows

    def test_scrambled_mesh_is_made_local(self):
        base = make_tri_mesh(30, 20)
        mesh, _ = scrambled(base, ("cells", "edges"), 11)
        loc = localize(mesh)
        assert loc.report["sets"]["cells"] == "rcm(edge2cell)"
        assert set(loc.report["sets"]) >= {"cells", "edges", "nodes"}
        spans = loc.report["spans"]
        for name in ("edge2cell", "cell2node", "cell2edge"):
            assert spans[name]["before"] > 20 * SPAN_LOCAL_ROWS
            assert spans[name]["after"] <= SPAN_LOCAL_ROWS
        n = mesh.cells.size
        assert loc.report["cell_span"]["before"] > 5 * np.sqrt(n)
        assert loc.report["cell_span"]["after"] <= 2 * np.sqrt(n)
        assert loc.report["seconds"] > 0

    def test_airfoil_generator_edges_are_not_local(self):
        """``make_airfoil_mesh`` numbers consecutive edges a whole mesh
        row of cells apart; only the edges move, and every map that does
        not touch them is shared."""
        mesh = make_airfoil_mesh(40, 20)
        loc = localize(mesh)
        assert loc.report["sets"] == {"edges": "sort(min edge2cell)"}
        assert loc.report["spans"]["edge2cell"]["before"] > 40
        assert loc.report["spans"]["edge2cell"]["after"] < 1
        for name in ("cell2node", "bedge2node", "bedge2cell"):
            assert loc.mesh.maps[name] is mesh.maps[name]
        assert loc.mesh.coords is mesh.coords

    def test_permutation_argument_is_validated(self):
        mesh = make_tri_mesh(3, 3)
        n = mesh.cells.size
        for bad in (np.zeros(n, int), np.arange(n) - 1, np.arange(n + 1),
                    np.r_[np.arange(n - 1), n]):
            with pytest.raises(ValueError, match="permutation"):
                permute_set_numbering(mesh, "cells", bad)


# ----------------------------------------------------------------------
# 2. The drivers run on it and answer in caller numbering
# ----------------------------------------------------------------------
def _volna_mesh():
    return make_tri_mesh(12, 9, DEFAULT_SCENARIO.extent_x,
                         DEFAULT_SCENARIO.extent_y)


APPS = {
    # name: (mesh factory, sets to scramble, sim factory, units,
    #        {accessor: set it is numbered by})
    "airfoil": (
        lambda: make_airfoil_mesh(16, 8), ("cells", "edges", "nodes"),
        lambda mesh, rt: AirfoilSim(mesh, runtime=rt), 3, {"q": "cells"},
    ),
    "volna": (
        _volna_mesh, ("cells", "edges"),
        lambda mesh, rt: VolnaSim(mesh, dtype=np.float64, runtime=rt), 3,
        {"q": "cells"},
    ),
    "aero": (
        lambda: make_airfoil_mesh(12, 6), ("cells", "nodes", "bedges"),
        lambda mesh, rt: AeroSim(mesh, runtime=rt, cg_tol=1e-13,
                                 cg_maxiter=2000), 2,
        {"phi": "nodes", "rho": "cells"},
    ),
}


@pytest.mark.parametrize("app", sorted(APPS))
class TestDriversInCallerNumbering:
    def test_scrambled_equals_unscrambled_permuted(self, app):
        make_mesh, names, make_sim, units, accessors = APPS[app]
        base = make_mesh()
        mesh, perms = scrambled(base, names, 5)
        ref = make_sim(base, Runtime("vectorized", block_size=32))
        sim = make_sim(mesh, Runtime("vectorized", block_size=32))
        assert "cells" in sim.numbering["sets"]  # the path under test
        assert sim.mesh is localize(mesh).mesh
        ref.run(units)
        sim.run(units)
        # Only the increment order moved: the cross-backend tolerances
        # of test_airfoil / test_volna; aero solves CG to a tolerance.
        rtol, atol = {"airfoil": (1e-10, 1e-12), "volna": (1e-9, 1e-11),
                      "aero": (1e-8, 1e-12)}[app]
        for accessor, set_name in accessors.items():
            got = getattr(sim, accessor)[perms[set_name]]
            np.testing.assert_allclose(
                got, getattr(ref, accessor), rtol=rtol, atol=atol)
        if app == "volna":
            assert sim.total_mass() == pytest.approx(
                ref.total_mass(), rel=1e-12)
            assert sim.max_eta() == pytest.approx(ref.max_eta(), rel=1e-12)

    @needs_cc
    def test_native_bitwise_equals_sequential_on_scrambled(self, app):
        make_mesh, names, make_sim, units, accessors = APPS[app]
        mesh, _ = scrambled(make_mesh(), names, 6)
        fast = make_sim(mesh, Runtime("native"))
        slow = make_sim(mesh, Runtime("sequential"))
        fast.run(units)
        slow.run(units)
        for accessor in accessors:
            assert np.array_equal(
                getattr(fast, accessor), getattr(slow, accessor))

    def test_tuner_probes_reuse_the_internal_mesh(self, app):
        """Constructing a sim on another sim's ``mesh`` (what the tuner's
        probes do) is free and changes nothing."""
        make_mesh, names, make_sim, _, _ = APPS[app]
        mesh, _ = scrambled(make_mesh(), names, 7)
        sim = make_sim(mesh, Runtime("vectorized"))
        probe = make_sim(sim.mesh, Runtime("vectorized"))
        assert probe.mesh is sim.mesh
        assert probe.numbering["sets"] == {}


# ----------------------------------------------------------------------
# 3. Lazy colour facets
# ----------------------------------------------------------------------
class TestLazyColouring:
    @pytest.fixture(autouse=True)
    def fresh_store(self, tmp_path, monkeypatch):
        """An empty artifact store: cold builds must be builds."""
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "store"))

    def _airfoil(self, backend, scheme="two_level"):
        rt = Runtime(backend, block_size=32, scheme=scheme)
        sim = AirfoilSim(make_airfoil_mesh(14, 7), runtime=rt)
        store.reset_store_stats()
        sim.run(2)
        return rt, rt.stats()["plan_cache"]

    def _assert_uncoloured(self, rt, plan_cache):
        assert plan_cache["misses"] > 0  # plans were resolved ...
        assert plan_cache["colourings_materialized"] == 0  # ... not coloured
        assert not any(p.colored for p in rt.plans._plans.values()
                       if not p.is_direct)
        for counter in ("writes", "builds", "disk_hits", "disk_misses"):
            assert plan_cache["store"][counter] == 0, counter

    @needs_cc
    def test_native_materialises_no_colouring(self):
        self._assert_uncoloured(*self._airfoil("native"))

    def test_vectorized_two_level_materialises_no_colouring(self):
        """One thread scatters in element order: ``two_level`` runs
        every racing loop as one ascending phase, uncoloured."""
        self._assert_uncoloured(*self._airfoil("vectorized"))

    def test_block_permute_materialises_and_persists(self):
        rt, plan_cache = self._airfoil("vectorized", "block_permute")
        indirect = [p for p in rt.plans._plans.values() if not p.is_direct]
        assert indirect and all(p.colored for p in indirect)
        assert plan_cache["colourings_materialized"] == len(indirect)
        assert plan_cache["store"]["writes"] == len(indirect)
        assert plan_cache["store"]["builds"] == len(indirect)

    def test_facets_materialise_on_first_access_only(self):
        rt = Runtime("vectorized", block_size=32, scheme="block_permute")
        sim = AirfoilSim(make_airfoil_mesh(14, 7), runtime=rt)
        set_, *args = sim._loop_args()["res_calc"]
        plan = rt.plan_for(sim.kernels["res_calc"], set_, args)
        # Cheap facets answer without colouring ...
        assert not plan.is_direct and plan.layout.nblocks > 0
        assert not plan.colored
        assert rt.plans.colourings_materialized == 0
        # ... any colour facet (the names bench_e2e reads) colours once.
        assert plan.n_block_colors >= 1
        assert plan.colored and rt.plans.colourings_materialized == 1
        assert plan.block_permutation is not None
        assert len(plan.phases(set_.size)) >= plan.n_block_colors
        assert rt.plans.colourings_materialized == 1
        # Direct plans colour trivially, without the store or the count.
        d_set, *d_args = sim._loop_args()["save_soln"]
        direct = rt.plan_for(sim.kernels["save_soln"], d_set, d_args)
        assert direct.is_direct and direct.n_block_colors == 1
        assert rt.plans.colourings_materialized == 1
        # A two_level plan's phases read no colour facet at all.
        two_level = Runtime("vectorized", block_size=32).plan_for(
            sim.kernels["res_calc"], set_, args)
        assert len(two_level.phases(set_.size)) == 1
        assert not two_level.colored
        assert two_level.elem_colors is None
        assert two_level.block_ncolors is None

    @pytest.mark.parametrize("chained", [False, True])
    def test_uncoloured_plan_pins_no_dat(self, chained):
        # A plan a backend never colours keeps its colorer for good;
        # it must hold the racing maps only, not the first loop's Dats
        # (and a chain-cache entry holds none either).
        rt = Runtime("sequential", block_size=32)
        sim = AirfoilSim(make_airfoil_mesh(14, 7), runtime=rt,
                         chained=chained)
        sim.step()
        assert any(not p.is_direct and not p.colored
                   for p in rt.plans._plans.values())
        res = weakref.ref(sim.state.p_res)
        del sim
        gc.collect()
        assert res() is None

    def test_profile_reports_gather_span(self):
        rt = Runtime("vectorized", block_size=32)
        sim = AirfoilSim(make_airfoil_mesh(14, 7), runtime=rt)
        sim.step()
        loops = rt.stats()["profile"]["loops"]
        assert loops["save_soln"]["gather_span"] == 0.0
        e2c = sim.mesh.map("edge2cell").gather_span()
        assert 0.0 < e2c < 1.0
        assert loops["res_calc"]["gather_span"] == max(
            e2c, sim.mesh.map("edge2node").gather_span())


WARM_SCRIPT = """\
import json, sys
import numpy as np
from repro import store
from repro.apps.airfoil import AirfoilSim
from repro.core import Runtime
from repro.mesh import make_airfoil_mesh
from repro.mesh.renumber import scramble

mesh = scramble(scramble(make_airfoil_mesh(14, 7), "cells", 1), "edges", 2)
rt = Runtime(sys.argv[1], block_size=32, scheme=sys.argv[2])
sim = AirfoilSim(mesh, runtime=rt)
sim.run(2)
print(json.dumps({
    "rms": sim.rms_history,
    "renumbered": sorted(sim.numbering["sets"]),
    "colourings": rt.stats()["plan_cache"]["colourings_materialized"],
    "stats": {k: store.store_stats(k) for k in store.SCHEMA_VERSIONS},
}))
"""


@pytest.mark.parametrize("backend, scheme", [
    pytest.param("native", "two_level", marks=needs_cc, id="native"),
    # block_permute: the scheme whose colouring the plan store keeps.
    pytest.param("vectorized", "block_permute", id="vectorized"),
    pytest.param("vectorized", "two_level", id="vectorized-two_level"),
])
def test_warm_process_builds_nothing(tmp_path, backend, scheme):
    script = tmp_path / "warm_locality.py"
    script.write_text(WARM_SCRIPT)
    env = dict(os.environ, REPRO_CACHE_DIR=str(tmp_path / "store"),
               PYTHONPATH=SRC_DIR)

    def run():
        out = subprocess.run(
            [sys.executable, str(script), backend, scheme],
            env=env, capture_output=True, text=True, timeout=120,
        )
        assert out.returncode == 0, out.stderr[-2000:]
        return json.loads(out.stdout)

    cold, warm = run(), run()
    assert {"cells", "edges"} <= set(cold["renumbered"])
    assert warm["rms"] == cold["rms"]
    # Only colourings and native libraries persist, so a vectorized
    # two_level run builds nothing the store keeps.
    persists = (backend, scheme) != ("vectorized", "two_level")
    assert (sum(s["builds"] for s in cold["stats"].values()) > 0) == persists
    for kind, s in warm["stats"].items():
        assert s["builds"] == 0, kind
    plan = cold["stats"]["plan"]
    if scheme == "two_level":
        assert cold["colourings"] == warm["colourings"] == 0
        assert plan["writes"] == plan["disk_entries"] == 0
        assert warm["stats"]["plan"]["disk_hits"] == 0
    else:
        assert cold["colourings"] == warm["colourings"] > 0
        assert plan["writes"] == cold["colourings"]
        assert warm["stats"]["plan"]["disk_hits"] == cold["colourings"]
