"""Loop chains with a back edge: ``Repeat``, scalar loops, and CG on them.

The contract under test: a chain flushed with ``repeat=`` executes its
recorded body until a flag Global is raised (or ``max_trips``), and
whoever executes it — the native backend inside one C call, every other
backend trip by trip from the compiled chain, or the host calling a
non-capturable body once per trip — produces the *same bits* as the
sequential interpreter running the body eagerly in a Python loop.
``solve.cg`` is that construct's first client, so the solver's
``x`` / ``history`` / ``iterations`` are compared the same way over the
backend matrix x {eager, chained, tiled} x {compiler, no compiler}.
"""

import gc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import (
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
    par_loop,
)
from repro.core import dat as dat_module
from repro.core.access import IDX_ALL, IDX_ID
from repro.core.chain import Repeat
from repro.solve import MatOperator, cg
from repro.testing import BACKEND_MATRIX, runtime_for

MODES = ["eager", "chained", "tiled"]


def mode_kwargs(mode):
    return {"chained": mode != "eager",
            "tiling": "auto" if mode == "tiled" else None}


def no_compiler(monkeypatch):
    monkeypatch.setenv("REPRO_NATIVE_DISABLE_CC", "1")


def repeat_stats(rt):
    return rt.stats()["profile"]["repeat"]


# ----------------------------------------------------------------------
# SPD test systems
# ----------------------------------------------------------------------
@kernel("weighted_stiffness")
def weighted_stiffness(w, K):
    K[0] += w[0]
    K[1] += -1.0
    K[2] += -1.0
    K[3] += w[0]


def banded_system(n=40, offsets=(1,), seed=0, dtype=np.float64):
    """SPD "FEM" system: one two-node element per (node, band offset),
    local block ``[[w, -1], [-1, w]]`` with ``w > 2``."""
    rng = np.random.default_rng(seed)
    nodes = Set(n, "nodes")
    conn = np.concatenate([
        np.stack([np.arange(n), (np.arange(n) + off) % n], axis=1)
        for off in offsets
    ])
    elems = Set(len(conn), "elems")
    e2n = Map(elems, nodes, 2, conn, "e2n")
    w = Dat(elems, 1, rng.uniform(2.2, 4.0, len(conn)), dtype, name="w")
    mat = Mat(e2n, e2n, dtype=dtype, name="A")
    par_loop(weighted_stiffness, elems, arg_dat(w, IDX_ID, None, READ),
             arg_mat(mat, INC), runtime=Runtime("sequential"))
    mat.assemble()
    return nodes, mat, rng.standard_normal(n)


def solve(system, rt, dtype=np.float64, operator=None, **kw):
    nodes, mat, bvals = system
    b = Dat(nodes, 1, bvals, dtype, name="b")
    x = Dat(nodes, 1, dtype=dtype, name="x")
    op = operator if operator is not None else MatOperator(mat)
    res = cg(op, b, x, runtime=rt, **kw)
    return x.data[: nodes.size, 0].copy(), res


def assert_same_solve(got, ref):
    np.testing.assert_array_equal(got[0], ref[0])
    assert got[1].history == ref[1].history
    assert got[1].iterations == ref[1].iterations
    assert got[1].converged == ref[1].converged


F64 = dict(tol=1e-12, maxiter=200)
F32 = dict(tol=1e-4, maxiter=60)


@pytest.fixture(scope="module")
def system64():
    return banded_system(40, (1, 3))


@pytest.fixture(scope="module")
def reference64(system64):
    return solve(system64, Runtime("sequential"), **F64)


@pytest.fixture(scope="module")
def system32():
    return banded_system(32, (1,), seed=3, dtype=np.float32)


@pytest.fixture(scope="module")
def reference32(system32):
    return solve(system32, Runtime("sequential"), np.float32, **F32)


# ----------------------------------------------------------------------
# CG over the matrix: bitwise against the sequential interpreter
# ----------------------------------------------------------------------
class TestCGAcrossTheMatrix:
    @pytest.mark.parametrize("backend,scheme,options", BACKEND_MATRIX)
    @pytest.mark.parametrize("mode", MODES)
    def test_mat_operator(self, backend, scheme, options, mode, system64,
                          reference64):
        assert reference64[1].converged and reference64[1].iterations > 5
        rt = runtime_for(backend, scheme, options)
        got = solve(system64, rt, **F64, **mode_kwargs(mode))
        assert_same_solve(got, reference64)

    @pytest.mark.parametrize("backend,scheme,options", BACKEND_MATRIX)
    @pytest.mark.parametrize("mode", MODES)
    def test_float32(self, backend, scheme, options, mode, system32,
                     reference32):
        assert reference32[1].iterations > 3
        rt = runtime_for(backend, scheme, options)
        got = solve(system32, rt, np.float32, **F32, **mode_kwargs(mode))
        assert got[0].dtype == np.float32
        assert_same_solve(got, reference32)

    @pytest.mark.parametrize("mode", MODES)
    @pytest.mark.parametrize("layout", ["aos", "soa"])
    def test_native_without_compiler(self, mode, layout, system64,
                                     reference64, monkeypatch):
        no_compiler(monkeypatch)
        rt = runtime_for("native", "two_level", {}, layout=layout)
        got = solve(system64, rt, **F64, **mode_kwargs(mode))
        assert_same_solve(got, reference64)
        if mode != "eager":
            # Native runs a tiled request untiled: the same fallback.
            assert repeat_stats(rt)["fallbacks"] == {"no compiler": 1}
            assert repeat_stats(rt)["native_calls"] == 0

    def test_native_one_call_equals_per_trip_replay(self, system64,
                                                    reference64):
        """The C back edge against the base class's Python one."""
        native = Runtime("native")
        replay = Runtime("sequential")
        one_call = solve(system64, native, chained=True, **F64)
        per_trip = solve(system64, replay, chained=True, **F64)
        assert_same_solve(one_call, per_trip)
        assert_same_solve(one_call, reference64)
        trips = reference64[1].iterations
        from repro.kernelc import compiler_available

        if compiler_available():
            assert repeat_stats(native) == {
                "solves": 1, "trips": trips, "native_calls": 1,
                "fallbacks": {}}
        assert repeat_stats(replay) == {
            "solves": 1, "trips": trips, "native_calls": 0,
            "fallbacks": {"sequential backend": 1}}

    @pytest.mark.parametrize("backend", ["native", "vectorized"])
    def test_stats_count_every_trip(self, backend, system64, reference64):
        """``Backend.stats`` is what ``melem_per_s`` is computed from:
        calls and elements of every loop, every trip."""
        rt = Runtime(backend)
        _, res = solve(system64, rt, chained=True, **F64)
        n, trips = system64[0].size, res.iterations
        stats = rt.backend.stats
        for name in ("spmv_w5", "cg_pap", "cg_update", "cg_direction"):
            expect = trips + 1 if name == "spmv_w5" else trips
            assert stats[name].calls == expect, name
            assert stats[name].elements == expect * n, name
        assert stats["cg_rotate"].calls == trips
        assert stats["cg_rotate"].elements == trips  # the one-element set
        assert stats["cg_begin"].elements == 1


class TestMatFreeAcrossTheMatrix:
    """The matrix-free operator, through the aero driver (Picard steps
    re-flush the same three chains: build, start-up, trip)."""

    @staticmethod
    def _run(rt, mode):
        from repro.apps.aero import AeroSim
        from repro.mesh import make_airfoil_mesh

        sim = AeroSim(make_airfoil_mesh(12, 6), runtime=rt,
                      operator="matfree", cg_maxiter=400,
                      **mode_kwargs(mode))
        res = sim.solve(picard=2)
        assert res.converged
        return (sim.phi.copy(),
                [(c.iterations, c.history) for c in res.cg_results])

    @pytest.fixture(scope="class")
    def reference(self):
        return self._run(Runtime("sequential"), "eager")

    @pytest.mark.parametrize("backend,scheme,options", BACKEND_MATRIX)
    @pytest.mark.parametrize("mode", MODES)
    def test_bitwise(self, backend, scheme, options, mode, reference):
        phi, solves = self._run(runtime_for(backend, scheme, options), mode)
        np.testing.assert_array_equal(phi, reference[0])
        assert solves == reference[1]

    def test_native_without_compiler(self, reference, monkeypatch):
        no_compiler(monkeypatch)
        rt = Runtime("native")
        phi, solves = self._run(rt, "chained")
        np.testing.assert_array_equal(phi, reference[0])
        assert solves == reference[1]
        assert repeat_stats(rt)["fallbacks"] == {"no compiler": 2}

    def test_one_native_call_per_solve_three_flushes_per_step(self):
        from repro.kernelc import compiler_available

        if not compiler_available():
            pytest.skip("no C compiler")
        rt = Runtime("native")
        _, solves = self._run(rt, "chained")
        profile = rt.stats()["profile"]
        assert profile["repeat"]["native_calls"] == 2
        assert profile["repeat"]["trips"] == sum(it for it, _ in solves)
        flushes = sum(c["flushes"] for c in profile["chains"].values())
        assert flushes <= 3 * 2


# ----------------------------------------------------------------------
# Solver edge cases
# ----------------------------------------------------------------------
CHAINED_RUNTIMES = ["sequential", "vectorized", "native"]


class TestSolverEdges:
    @pytest.mark.parametrize("backend", CHAINED_RUNTIMES)
    @pytest.mark.parametrize("mode", MODES)
    def test_converged_before_the_first_trip(self, backend, mode):
        nodes, mat, _ = banded_system(16)
        rt = Runtime(backend)
        x, res = solve((nodes, mat, np.zeros(16)), rt, **F64,
                       **mode_kwargs(mode))
        assert (res.iterations, res.converged, res.history) == (0, True, [0.0])
        assert not x.any()
        assert repeat_stats(rt)["solves"] == 0  # no trip chain flushed

    @pytest.mark.parametrize("backend", CHAINED_RUNTIMES)
    @pytest.mark.parametrize("mode", MODES)
    def test_max_trips_reached(self, backend, mode, system64):
        ref = solve(system64, Runtime("sequential"), tol=1e-300, maxiter=3)
        got = solve(system64, Runtime(backend), tol=1e-300, maxiter=3,
                    **mode_kwargs(mode))
        assert_same_solve(got, ref)
        res = got[1]
        assert not res.converged and res.iterations == 3
        assert len(res.history) == 4

    def test_maxiter_zero_runs_no_trip(self, system64):
        _, res = solve(system64, Runtime("native"), tol=1e-12, maxiter=0,
                       chained=True)
        assert (res.iterations, res.converged) == (0, False)
        assert len(res.history) == 1

    @pytest.mark.parametrize("backend", CHAINED_RUNTIMES)
    @pytest.mark.parametrize("mode", MODES)
    def test_non_spd_raises(self, backend, mode):
        @kernel("negative_definite")
        def negative_definite(K):
            K[0] += -1.0
            K[3] += -1.0

        n = 8
        nodes, elems = Set(n, "nodes"), Set(n, "elems")
        conn = np.stack([np.arange(n), (np.arange(n) + 1) % n], axis=1)
        e2n = Map(elems, nodes, 2, conn, "e2n")
        mat = Mat(e2n, e2n)
        par_loop(negative_definite, elems, arg_mat(mat, INC),
                 runtime=Runtime("sequential"))
        mat.assemble()
        with pytest.raises(ValueError, match=r"positive definite.*p\.Ap = -"):
            solve((nodes, mat, np.ones(n)), Runtime(backend), **F64,
                  **mode_kwargs(mode))
        # The workspace (shared per node set) is clean for the next solve.
        good = Mat(e2n, e2n)
        w = Dat(elems, 1, 3.0, name="w")
        par_loop(weighted_stiffness, elems, arg_dat(w, IDX_ID, None, READ),
                 arg_mat(good, INC), runtime=Runtime("sequential"))
        good.assemble()
        assert solve((nodes, good, np.ones(n)), Runtime(backend), **F64,
                     **mode_kwargs(mode))[1].converged

    def test_one_tolerance_independent_program(self, system64):
        """``tol`` is data (a READ Global): a second tolerance reuses
        the compiled trip."""
        from repro.kernelc import compiler_available, native_cache_stats

        rt = Runtime("native")
        op = MatOperator(system64[1])
        loose = solve(system64, rt, operator=op, tol=1e-3, maxiter=200,
                      chained=True)[1]
        before = native_cache_stats()
        tight = solve(system64, rt, operator=op, tol=1e-12, maxiter=200,
                      chained=True)[1]
        assert tight.iterations > loose.iterations
        assert tight.history[: len(loose.history)] == loose.history
        if compiler_available():
            # Fresh b/x Dats re-key the chains, but the emitted text —
            # hence the library — is the same: served from memory.
            after = native_cache_stats()
            assert after["compiles"] == before["compiles"]
            assert after["disk_hits"] == before["disk_hits"]
            assert after["mem_hits"] == before["mem_hits"] + 2


# ----------------------------------------------------------------------
# Capturability
# ----------------------------------------------------------------------
class DenseOperator:
    """Host code only: reads and writes ``.data`` — nothing to trace."""

    def __init__(self, mat):
        self.dense = mat.todense()

    def apply(self, x, y, runtime=None):
        y.data[:, 0] = self.dense @ x.data[:, 0]


@kernel("copy_row")
def copy_row(x, y):
    y[0] = x[0]


class HalfTracedOperator(DenseOperator):
    """Records a loop, *then* does host work on its output: the host
    read lands on a barrier in the middle of the recorded body."""

    def apply(self, x, y, runtime=None):
        par_loop(copy_row, x.set, arg_dat(x, IDX_ID, None, READ),
                 arg_dat(y, IDX_ID, None, WRITE), runtime=runtime)
        y.data[:, 0] = self.dense @ y.data[:, 0]


class TestCapturability:
    @pytest.mark.parametrize("backend", CHAINED_RUNTIMES)
    @pytest.mark.parametrize("operator", [DenseOperator, HalfTracedOperator])
    @pytest.mark.parametrize("tiling", [None, "auto"])
    def test_host_reading_operator_falls_back_and_is_counted(
            self, backend, operator, tiling, system64):
        op = operator(system64[1])
        ref = solve(system64, Runtime("sequential"), operator=op, **F64)
        rt = Runtime(backend)
        got = solve(system64, rt, operator=op, chained=True, tiling=tiling,
                    **F64)
        assert_same_solve(got, ref)
        assert ref[1].converged and ref[1].iterations > 5
        assert repeat_stats(rt) == {
            "solves": 1, "trips": ref[1].iterations, "native_calls": 0,
            "fallbacks": {"body not capturable": 1}}
        assert dat_module._on_host_access is None

    def test_with_block_runs_one_host_driven_trip(self):
        """Under a bare ``with`` a non-capturable body executes once;
        ``LoopChain.run`` is the form that completes the repeat."""
        prob = Decay(8, 0.5)
        rt = Runtime("sequential")

        def body():
            prob.trip(rt, ["damp"])
            prob.u.data  # host access while recording

        with rt.chain(repeat=prob.repeat(50)) as ch:
            body()
        assert (ch.captured, ch.trips) == (False, 1)
        assert prob.count.value == 1.0

        prob2 = Decay(8, 0.5)

        def body2():
            prob2.trip(rt, ["damp"])
            prob2.u.data

        ch2 = rt.chain(repeat=prob2.repeat(50)).run(body2)
        ref = Decay(8, 0.5).eager(Runtime("sequential"), ["damp"], 50)
        assert not ch2.captured and ch2.trips == ref[0] > 1
        assert [float(v) for v in ch2.recorded] == ref[1]

    def test_exception_in_body_disarms_the_hook(self):
        prob = Decay(8, 0.5)
        rt = Runtime("sequential")
        with pytest.raises(RuntimeError, match="boom"):
            with rt.chain(repeat=prob.repeat(5)):
                prob.trip(rt, ["damp"])
                raise RuntimeError("boom")
        assert dat_module._on_host_access is None
        assert rt._active_chain is None
        assert prob.count.value == 0.0  # nothing executed


# ----------------------------------------------------------------------
# The construct itself: random trip bodies
# ----------------------------------------------------------------------
@kernel("rp_damp")
def rp_damp(c, v, u):
    u[0] = c[0] * v[0]


@kernel("rp_mix")
def rp_mix(c, u, v):
    v[0] = c[0] * v[0] + (1.0 - c[0]) * u[0]


@kernel("rp_smooth")
def rp_smooth(un, v):
    v[0] = 0.5 * (un[0][0] + un[1][0])


@kernel("rp_norm")
def rp_norm(u, v, s):
    s[0] += u[0] * u[0] + v[0] * v[0]


@kernel("rp_step")
def rp_step(tol, s, resid, count, flag):
    resid[0] = np.sqrt(s[0])
    s[0] = 0.0
    count[0] += 1.0
    flag[0] = 1.0 if resid[0] <= tol[0] else 0.0


@kernel("rp_stop_now")
def rp_stop_now(s, resid, flag):
    resid[0] = s[0]
    flag[0] = 1.0


class Decay:
    """Two Dats on a ring damped until their norm drops under ``tol``;
    the trip is any sequence of the ``rp_*`` loops, then the norm and
    the scalar loop that tests it."""

    def __init__(self, n, c, tol=1e-3, seed=0, dtype=np.float64):
        rng = np.random.default_rng(seed)
        self.n = n
        self.nodes = Set(n, "ring")
        self.one = Set(1, "one")
        nb = np.stack([(np.arange(n) - 1) % n, (np.arange(n) + 1) % n], 1)
        self.ring = Map(self.nodes, self.nodes, 2, nb, "ring")
        self.u = Dat(self.nodes, 1, rng.standard_normal(n), dtype, name="u")
        self.v = Dat(self.nodes, 1, rng.standard_normal(n), dtype, name="v")
        self.c = Global(1, c, dtype, name="c")
        self.tol = Global(1, tol, dtype, name="tol")
        self.s = Global(1, 0.0, dtype, name="s")
        self.resid = Global(1, 0.0, dtype, name="resid")
        self.count = Global(1, 0.0, dtype, name="count")
        self.flag = Global(1, 0.0, dtype, name="flag")

    def repeat(self, max_trips):
        return Repeat(max_trips, until=self.flag, record=self.resid)

    def trip(self, rt, ops):
        d = lambda dat, acc: arg_dat(dat, IDX_ID, None, acc)  # noqa: E731
        for op in ops:
            if op == "damp":
                par_loop(rp_damp, self.nodes, arg_gbl(self.c, READ),
                         d(self.v, READ), d(self.u, WRITE), runtime=rt)
            elif op == "mix":
                par_loop(rp_mix, self.nodes, arg_gbl(self.c, READ),
                         d(self.u, READ), d(self.v, RW), runtime=rt)
            else:
                par_loop(rp_smooth, self.nodes,
                         arg_dat(self.u, IDX_ALL, self.ring, READ),
                         d(self.v, WRITE), runtime=rt)
        par_loop(rp_norm, self.nodes, d(self.u, READ), d(self.v, READ),
                 arg_gbl(self.s, INC), runtime=rt)
        par_loop(rp_step, self.one, arg_gbl(self.tol, READ),
                 arg_gbl(self.s, RW), arg_gbl(self.resid, WRITE),
                 arg_gbl(self.count, RW), arg_gbl(self.flag, WRITE),
                 runtime=rt)

    def state(self):
        return (self.u.data[:, 0].copy(), self.v.data[:, 0].copy(),
                float(self.count.value))

    def eager(self, rt, ops, max_trips):
        """The oracle: the trip, eagerly, in a Python loop."""
        recorded = []
        while len(recorded) < max_trips:
            self.trip(rt, ops)
            recorded.append(float(self.resid.value))
            if self.flag.value:
                break
        return len(recorded), recorded

    def chained(self, rt, ops, max_trips, tiling=None):
        ch = rt.chain(tiling=tiling, repeat=self.repeat(max_trips))
        ch.run(lambda: self.trip(rt, ops))
        assert ch.captured
        return ch.trips, [float(v) for v in ch.recorded]


BODIES = st.fixed_dictionaries({
    "n": st.integers(1, 40),
    "c": st.sampled_from([0.0, 0.25, 0.5, 0.9, 1.0]),
    "ops": st.lists(st.sampled_from(["damp", "mix", "smooth"]),
                    min_size=0, max_size=4),
    "max_trips": st.integers(1, 30),
    "seed": st.integers(0, 2**16),
    "dtype": st.sampled_from([np.float64, np.float32]),
    "tiling": st.sampled_from([None, "auto", 4]),
})


class TestRandomTripBodies:
    @settings(max_examples=25, deadline=None)
    @given(case=BODIES)
    def test_every_executor_replays_the_eager_loop(self, case):
        make = lambda: Decay(case["n"], case["c"], seed=case["seed"],  # noqa: E731
                             dtype=case["dtype"])
        oracle = make()
        ref = oracle.eager(Runtime("sequential"), case["ops"],
                           case["max_trips"])
        for backend in ("sequential", "vectorized", "native"):
            prob, rt = make(), Runtime(backend)
            got = prob.chained(rt, case["ops"], case["max_trips"],
                               case["tiling"])
            assert got == ref, backend
            for a, b in zip(prob.state(), oracle.state()):
                np.testing.assert_array_equal(a, b, err_msg=backend)
            assert repeat_stats(rt)["trips"] == ref[0]

    @settings(max_examples=15, deadline=None)
    @given(seed=st.integers(0, 2**16), n=st.integers(4, 36),
           offsets=st.lists(st.integers(1, 3), min_size=1, max_size=3,
                            unique=True),
           tol=st.sampled_from([1e-2, 1e-8, 1e-13]),
           maxiter=st.integers(1, 80))
    def test_cg_on_random_spd_systems(self, seed, n, offsets, tol, maxiter):
        system = banded_system(n, tuple(offsets), seed)
        ref = solve(system, Runtime("sequential"), tol=tol, maxiter=maxiter)
        for backend in ("vectorized", "native"):
            for tiling in (None, "auto"):
                got = solve(system, Runtime(backend), tol=tol,
                            maxiter=maxiter, chained=True, tiling=tiling)
                assert_same_solve(got, ref)

    def test_flag_raised_on_trip_one(self):
        for backend in CHAINED_RUNTIMES:
            prob, rt = Decay(6, 0.5), Runtime(backend)
            prob.s.value = 7.0

            def body():
                par_loop(rp_stop_now, prob.one, arg_gbl(prob.s, READ),
                         arg_gbl(prob.resid, WRITE),
                         arg_gbl(prob.flag, WRITE), runtime=rt)

            ch = rt.chain(repeat=prob.repeat(100)).run(body)
            assert (ch.trips, list(ch.recorded)) == (1, [7.0])

    def test_bare_with_block_replays_a_capturable_body(self):
        ref = Decay(12, 0.5).eager(Runtime("sequential"), ["damp"], 40)
        prob, rt = Decay(12, 0.5), Runtime("native")
        with rt.chain(repeat=prob.repeat(40)) as ch:
            prob.trip(rt, ["damp"])
        assert ch.captured
        assert (ch.trips, [float(v) for v in ch.recorded]) == ref

    def test_run_without_repeat_is_a_plain_chain(self):
        prob, rt = Decay(5, 0.5), Runtime("vectorized")
        ch = rt.chain().run(lambda: prob.trip(rt, ["damp"]))
        assert (ch.flushes, ch.trips, prob.count.value) == (1, 0, 1.0)
        assert repeat_stats(rt)["solves"] == 0


# ----------------------------------------------------------------------
# Validation
# ----------------------------------------------------------------------
class TestValidation:
    def test_global_write_outside_a_single_element_loop(self):
        prob = Decay(6, 0.5)
        args = (arg_gbl(prob.tol, READ), arg_gbl(prob.s, RW),
                arg_gbl(prob.resid, WRITE), arg_gbl(prob.count, RW),
                arg_gbl(prob.flag, WRITE))
        for backend in CHAINED_RUNTIMES:
            rt = Runtime(backend)
            with pytest.raises(ValueError, match="single-element"):
                par_loop(rp_step, prob.nodes, *args, runtime=rt)
            with pytest.raises(ValueError, match="single-element"):
                with rt.chain():
                    par_loop(rp_step, prob.nodes, *args, runtime=rt)
        assert prob.count.value == 0.0

    @pytest.mark.parametrize("role", ["until", "record"])
    def test_flag_or_record_not_written_by_the_body(self, role):
        prob, rt = Decay(6, 0.5), Runtime("sequential")
        stranger = Global(1, 0.0, name="stranger")
        rep = Repeat(5, **{"until": prob.flag, "record": prob.resid,
                           role: stranger})
        with pytest.raises(ValueError, match=f"{role}=.*stranger"):
            rt.chain(repeat=rep).run(lambda: prob.trip(rt, ["damp"]))
        assert prob.count.value == 0.0  # rejected before any trip ran
        # A Global the body only *reads* is not "touched" either.
        rep = Repeat(5, **{"until": prob.flag, "record": prob.resid,
                           role: prob.tol})
        with pytest.raises(ValueError, match=f"{role}=.*tol"):
            rt.chain(repeat=rep).run(lambda: prob.trip(rt, ["damp"]))

    def test_repeat_arguments(self):
        g = Global(1)
        with pytest.raises(ValueError, match="max_trips"):
            Repeat(0, until=g, record=g)
        with pytest.raises(TypeError, match="until"):
            Repeat(3, until=Dat(Set(1), 1), record=g)
        with pytest.raises(TypeError, match="Repeat"):
            Runtime("sequential").chain(repeat=3)

    def test_scalar_loop_is_a_barrier(self):
        """Fusion keeps a scalar loop alone; the tiling inspector runs
        it whole."""
        from repro.tiling.inspector import barrier_reason

        prob, rt = Decay(16, 0.5), Runtime("vectorized")
        with rt.chain(tiling=4) as ch:
            prob.trip(rt, ["damp", "mix"])
            # two scalar loops over one set back to back: still apart
            par_loop(rp_stop_now, prob.one, arg_gbl(prob.s, READ),
                     arg_gbl(prob.resid, WRITE), arg_gbl(prob.flag, WRITE),
                     runtime=rt)
        assert ch.flushes == 1
        (compiled,) = rt._chains.values()
        names = [[bl.kernel.name for bl in g.loops] for g in compiled.groups]
        assert names == [["rp_damp", "rp_mix", "rp_norm"], ["rp_step"],
                         ["rp_stop_now"]]
        assert [barrier_reason(bl) for bl in compiled.loops[-2:]] == \
            ["scalar-loop", "scalar-loop"]


# ----------------------------------------------------------------------
# Degradations are counted with their reason
# ----------------------------------------------------------------------
@kernel("cos_scaled")
def cos_scaled(d, x, y):
    # np.cos is outside the C emitter's vocabulary (cos(0) * d = d).
    y[0] = np.cos(0.0 * x[0]) * d[0] * x[0]


class CosOperator:
    """SPD diagonal operator through a kernel the C emitter refuses."""

    def __init__(self, nodes, seed=5):
        rng = np.random.default_rng(seed)
        self.d = Dat(nodes, 1, rng.uniform(1.0, 9.0, nodes.size), name="d")

    def apply(self, x, y, runtime=None):
        par_loop(cos_scaled, x.set, arg_dat(self.d, IDX_ID, None, READ),
                 arg_dat(x, IDX_ID, None, READ),
                 arg_dat(y, IDX_ID, None, WRITE), runtime=runtime)


class TestCountedReasons:
    def test_un_nativizable_loop(self, system64):
        from repro.kernelc import compiler_available

        op = CosOperator(system64[0])
        ref = solve(system64, Runtime("sequential"), operator=op, **F64)
        rt = Runtime("native")
        got = solve(system64, rt, operator=op, chained=True, **F64)
        assert_same_solve(got, ref)
        reason = ("un-nativizable loop" if compiler_available()
                  else "no compiler")
        assert repeat_stats(rt)["fallbacks"] == {reason: 1}

    def test_tiled(self, system64, reference64):
        """Native runs a tiled repeat untiled: one native call."""
        from repro.kernelc import compiler_available

        rt = Runtime("native")
        got = solve(system64, rt, chained=True, tiling="auto", **F64)
        assert_same_solve(got, reference64)
        if compiler_available():
            assert repeat_stats(rt)["fallbacks"] == {}
            assert repeat_stats(rt)["native_calls"] == 1
        else:
            assert repeat_stats(rt)["fallbacks"] == {"no compiler": 1}

    def test_unanalyzable_profile_is_counted_not_swallowed(
            self, monkeypatch):
        """``RuntimeProfile.register_loop`` keeps going when a loop
        shape defeats an estimate — and says which, and why."""
        import repro.kernelc
        import repro.perfmodel
        from repro.tune.profile import RuntimeProfile

        def broken(*args, **kwargs):
            raise RuntimeError("estimator down")

        profile = RuntimeProfile()
        nodes = Set(4, "nodes")
        args = [arg_dat(Dat(nodes, 1, name="d"), IDX_ID, None, READ)]
        monkeypatch.setattr(repro.perfmodel, "analyze_loop", broken)
        profile.register_loop(rp_damp, nodes, args)
        snap = profile.snapshot()
        assert snap["loops"]["rp_damp"]["bytes_per_element"] == 0.0
        assert snap["loops"]["rp_damp"]["flops_per_element"] > 0
        assert snap["unanalyzed"] == {"transfer: RuntimeError": 1}
        profile.register_loop(rp_damp, nodes, args)  # idempotent
        assert profile.snapshot()["unanalyzed"] == snap["unanalyzed"]

        monkeypatch.undo()
        monkeypatch.setattr(repro.kernelc, "estimate_flops", broken)
        profile.register_loop(rp_mix, nodes, args)
        snap = profile.snapshot()
        assert snap["loops"]["rp_mix"]["bytes_per_element"] > 0
        assert snap["loops"]["rp_mix"]["flops_per_element"] == 0.0
        assert snap["unanalyzed"] == {"transfer: RuntimeError": 1,
                                      "flops: RuntimeError": 1}
        assert Runtime("sequential").stats()["profile"]["unanalyzed"] == {}


# ----------------------------------------------------------------------
# The chain cache holds the chains of live Dats only
# ----------------------------------------------------------------------
class TestChainCacheLifetime:
    @pytest.mark.parametrize("backend", ["vectorized", "native"])
    def test_fifty_fresh_sims_leave_the_live_ones_chains(self, backend):
        from repro.apps.aero import AeroSim
        from repro.mesh import make_airfoil_mesh

        mesh = make_airfoil_mesh(10, 5)
        rt = Runtime(backend)
        was_enabled = gc.isenabled()
        gc.disable()  # reference counts alone must free a dead sim
        try:
            per_sim = None
            for _ in range(50):
                sim = AeroSim(mesh, runtime=rt, operator="matfree",
                              chained=True)
                sim.solve(picard=2)
                entries = rt.stats()["chain_cache"]["entries"]
                per_sim = per_sim or entries
                assert entries == per_sim <= 3  # build, start-up, trip
            keep = sim
            other = AeroSim(mesh, runtime=rt, operator="matfree",
                            chained=True)
            other.solve(picard=1)
            assert rt.stats()["chain_cache"]["entries"] == 2 * per_sim
            del other
            assert rt.stats()["chain_cache"]["entries"] == per_sim
            del sim, keep
            assert rt.stats()["chain_cache"]["entries"] == 0
            assert all(not keys for keys in rt._chain_keys_of.values())
        finally:
            if was_enabled:
                gc.enable()
        assert rt.stats()["chain_cache"]["evictions"] == 0

    def test_retained_chain_keeps_its_storage(self):
        """Whoever holds a compiled chain can still run it after the
        caller's Dats are gone: it owns aliases of them."""
        prob, rt = Decay(8, 0.5), Runtime("sequential")
        with rt.chain():
            prob.trip(rt, ["damp"])
        (compiled,) = rt._chains.values()
        u = compiled.loops[0].args[2].dat
        assert u == prob.u and u is not prob.u
        expect = prob.u.data.copy()
        del prob
        assert len(rt._chains) == 0
        np.testing.assert_array_equal(u.data, expect)
        rt.backend.run_chain(compiled)

    def test_lru_eviction_unwatches(self):
        rt = Runtime("sequential", chain_cache_entries=2)
        prob = Decay(4, 0.5)
        for ops in (["damp"], ["mix"], ["smooth"]):
            with rt.chain():
                prob.trip(rt, ops)
        stats = rt.stats()["chain_cache"]
        assert (stats["entries"], stats["evictions"]) == (2, 1)
        watched = set().union(*rt._chain_keys_of.values())
        assert watched == set(rt._chains)
        rt.clear_caches()
        assert not set().union(*rt._chain_keys_of.values())
