"""The chain cache is keyed on a trace's shape, and bound at each flush.

``Runtime.compiled_chain_for`` keys a compiled chain on the trace's
structure (``repro.core.chain.chain_signature``): kernels, sets and
maps by identity, Dats and Globals by first-occurrence ordinal plus
dim, dtype, layout and home set.  Two traces that differ in any of
those must get distinct entries; two that differ only in which Dats
carry the data must share one, and every run must match the
interpreter (bitwise under ``two_level``, at rounding level under the
permute schemes) and touch only its own Dats.  Swept over the backend matrix.
"""

import numpy as np
import pytest

from repro.core import (
    INC,
    READ,
    RW,
    WRITE,
    Dat,
    Global,
    Map,
    Runtime,
    Set,
    arg_dat,
    arg_gbl,
    kernel,
    par_loop,
)
from repro.core.access import IDX_ID
from repro.core.chain import Repeat
from repro.testing import (
    BACKEND_MATRIX, assert_matches_sequential, runtime_for,
)

N = 24


@kernel("ck_scale", flops=1)
def ck_scale(x, y):
    y[0] = 2.0 * x[0]


@kernel("ck_spmv", flops=2)
def ck_spmv(s, r0, r1):
    r0[0] += s[0]
    r1[0] += s[0]


@kernel("ck_tick", flops=2)
def ck_tick(lim, a, b):
    a[0] += 1.0
    b[0] = 1.0 if a[0] >= lim[0] else 0.0


def ring():
    nodes, edges = Set(N, "ck_nodes"), Set(N, "ck_edges")
    conn = np.stack([np.arange(N), (np.arange(N) + 1) % N], axis=1)
    return nodes, edges, Map(edges, nodes, 2, conn, "ck_e2n")


def fresh_dats(mesh, seed=0, dim=1, dtype=np.float64, layout="aos",
               s_set=None):
    """``(w, s, r)``: the scaled input, the scaled copy and the
    node accumulator of one trace."""
    nodes, edges, _ = mesh
    values = np.random.default_rng(seed).random((N, dim))
    return (Dat(edges, dim, values, dtype, name="w", layout=layout),
            Dat(s_set or edges, 1, dtype=dtype, name="s"),
            Dat(nodes, 1, dtype=dtype, name="r"))


def trace(rt, mesh, w, s, r, spmv_reads=None):
    """scale ``w`` into ``s``, then scatter ``spmv_reads`` (default
    ``s``) onto ``r`` through the ring map."""
    _, edges, e2n = mesh
    par_loop(ck_scale, edges, arg_dat(w, IDX_ID, None, READ),
             arg_dat(s, IDX_ID, None, WRITE), runtime=rt)
    read = s if spmv_reads is None else spmv_reads
    par_loop(ck_spmv, edges, arg_dat(read, IDX_ID, None, READ),
             arg_dat(r, 0, e2n, INC), arg_dat(r, 1, e2n, INC), runtime=rt)


def chained(rt, mesh, dats, **kw):
    with rt.chain():
        trace(rt, mesh, *dats, **kw)
    return dats[2].data.copy()


def interpreted(mesh, dats, **kw):
    """``r`` after one eager run of the trace on the interpreter."""
    rt = Runtime("sequential")
    trace(rt, mesh, *dats, **kw)
    return dats[2].data.copy()


def assert_contract(scheme, got, want):
    """Every backend equals the interpreter bitwise under ``two_level``;
    the permute schemes agree with it at rounding level."""
    eps = np.finfo(got.dtype).eps
    assert_matches_sequential(got, want, scheme, rtol=8 * eps, atol=0)


def chain_cache(rt):
    st = rt.stats()["chain_cache"]
    return st["entries"], st["misses"]


#: The base trace and one trace per structural difference from it:
#: ``(fresh_dats options, whether the scatter reads w instead of s)``.
VARIANTS = {
    "base": ({}, False),
    "aliasing": ({}, True),
    "dim": ({"dim": 2}, False),
    "dtype": ({"dtype": np.float32}, False),
    "layout": ({"layout": "soa"}, False),
}


@pytest.mark.parametrize("backend,scheme,options", BACKEND_MATRIX)
class TestStructuralKey:
    def test_each_difference_is_its_own_entry(self, backend, scheme,
                                              options):
        mesh = ring()
        rt = runtime_for(backend, scheme, options)
        for k, (make, reads_w) in enumerate(VARIANTS.values(), start=1):
            ref = fresh_dats(mesh, **make)
            want = interpreted(mesh, ref,
                               spmv_reads=ref[0] if reads_w else None)
            for _ in range(2):  # a miss, then a hit over fresh Dats
                dats = fresh_dats(mesh, **make)
                got = chained(rt, mesh, dats,
                              spmv_reads=dats[0] if reads_w else None)
                assert_contract(scheme, got, want)
            assert chain_cache(rt) == (k, k)

    def test_a_dat_on_another_set_is_not_served(self, backend, scheme,
                                                options):
        """Same extent, other home set: the trace must validate (and
        fail) on its own, not replay the valid trace's entry."""
        mesh = ring()
        rt = runtime_for(backend, scheme, options)
        chained(rt, mesh, fresh_dats(mesh))
        stray = fresh_dats(mesh, s_set=Set(N, "ck_other"))
        with pytest.raises(ValueError, match="lives on set"):
            chained(rt, mesh, stray)
        assert chain_cache(rt) == (1, 2)

    def test_equal_shapes_share_one_entry(self, backend, scheme, options):
        mesh = ring()
        rt = runtime_for(backend, scheme, options)
        for seed in range(3):
            dats, ref = fresh_dats(mesh, seed=seed), fresh_dats(mesh, seed=seed)
            # Twice over the same Dats: the second run accumulates onto
            # the first's r.
            for _ in range(2):
                assert_contract(scheme, chained(rt, mesh, dats),
                                interpreted(mesh, ref))
        assert chain_cache(rt) == (1, 1)
        assert rt.stats()["chain_cache"]["hits"] == 5

    def test_repeat_flag_and_record_slots(self, backend, scheme, options):
        """One body, its two Globals swapped between flag and record:
        one chain entry, two back edges, each as the interpreter."""
        one = Set(1, "ck_one")
        lim = Global(1, 3.0, name="lim")
        a, b = Global(1, name="a"), Global(1, name="b")

        def body(rt):
            par_loop(ck_tick, one, arg_gbl(lim, READ), arg_gbl(a, RW),
                     arg_gbl(b, WRITE), runtime=rt)

        def run(rt, until, record):
            a.value, b.value = 0.0, 0.0
            ch = rt.chain(repeat=Repeat(10, until=until, record=record))
            ch.run(lambda: body(rt))
            return ch.trips, [float(v) for v in ch.recorded]

        rt = runtime_for(backend, scheme, options)
        ref = Runtime("sequential")
        for _ in range(2):
            for until, record in ((b, a), (a, b)):
                assert run(rt, until, record) == run(ref, until, record)
        assert run(rt, b, a) == (3, [1.0, 2.0, 3.0])
        assert run(rt, a, b) == (1, [0.0])
        assert chain_cache(rt) == (1, 1)


@pytest.mark.parametrize("backend,scheme,options", BACKEND_MATRIX)
def test_replay_over_a_second_sim_leaves_the_first(backend, scheme, options):
    """A second sim on the same mesh replays the first sim's cached
    chains and prepared programs over its own Dats: the first sim's
    arrays stay byte-identical, and both sims compute the same bits."""
    from repro.apps.aero import AeroSim
    from repro.mesh import make_airfoil_mesh

    mesh = make_airfoil_mesh(10, 5)
    rt = runtime_for(backend, scheme, options)

    def sim_run():
        sim = AeroSim(mesh, runtime=rt, operator="matfree", chained=True)
        return sim, sim.solve(picard=2)

    def arrays(sim):
        out = {}
        for owner in (sim.state, sim.matfree):
            for name, obj in vars(owner).items():
                if isinstance(obj, Dat):
                    out[name] = obj._storage.tobytes()
                elif isinstance(obj, Global):
                    out[name] = obj._data.tobytes()
        return out

    first, res1 = sim_run()
    misses = rt.stats()["chain_cache"]["misses"]
    before = arrays(first)
    assert before
    second, res2 = sim_run()
    assert rt.stats()["chain_cache"]["misses"] == misses
    assert arrays(first) == before
    assert np.array_equal(first.phi, second.phi)
    assert [c.history for c in res1.cg_results] == \
        [c.history for c in res2.cg_results]
