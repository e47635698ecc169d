"""Kernel compiler tests: IR parsing, vector emission, bitwise identity.

Three layers:

1. emitter unit tests — subscript rewriting, mask lowering, dim-loop
   fusion, min/max/IfExp rewrites, and the refusal cases (constructs
   outside the vectorizable subset must raise, never mis-compile);
2. the **generated-vs-scalar cross-validation**: every Airfoil and Volna
   kernel's generated batched form run on a lane block must produce
   *bitwise* the per-lane results of the scalar source (this is the
   post-deletion form of the generated-vs-hand-written check that
   retired the ``*_vec`` duplicates — the hand-written kernels were
   validated bitwise against the generated ones before removal);
3. integration — backends pick up generated kernels through
   ``Kernel.vector_for``, the per-shape compile cache hits and counts,
   unvectorizable kernels fall back to the scalar path, and the finite
   vector widths (the register-width ablation) run generated kernels on
   register-sized blocks.
"""

import numpy as np
import pytest

from repro.core import (
    INC,
    READ,
    WRITE,
    Dat,
    Map,
    Runtime,
    Set,
    arg_dat,
    kernel,
    make_backend,
    par_loop,
)
from repro.core.access import IDX_ID
from repro.kernelc import (
    UnvectorizableKernel,
    clear_cache,
    compile_vector,
    emit_vector_source,
    kernel_ir,
    parse_kernel,
    vectorizable,
)

RNG = np.random.default_rng(1234)
LANES = 48


def _batch(shape, lo=0.5, hi=2.0, dtype=np.float64):
    return RNG.uniform(lo, hi, (LANES,) + shape).astype(dtype)


def _generated(k, shapes, dtype="float64"):
    return compile_vector(kernel_ir(k), shapes, dtype)


def _assert_matches_scalar(k, shapes, arrays):
    """Generated batched run == per-lane scalar run, bitwise, at the
    arrays' own floating dtype (the loop's compute dtype)."""
    batched = [s[0] if isinstance(s, tuple) else s for s in shapes]
    a_vec = [np.copy(a) for a in arrays]
    a_scal = [np.copy(a) for a in arrays]
    dtype = np.result_type(*(a for a in arrays if a.dtype.kind == "f"))
    _generated(k, shapes, dtype.name)(*a_vec)
    for e in range(LANES):
        views = [a[e] if b else a for a, b in zip(a_scal, batched)]
        k.scalar(*views)
    for got, ref in zip(a_vec, a_scal):
        np.testing.assert_array_equal(got, ref)


# ----------------------------------------------------------------------
# 1. Emitter unit tests.
# ----------------------------------------------------------------------
class TestEmitter:
    def test_subscript_rewrite_and_fusion(self):
        @kernel("kc_copy4")
        def kc_copy4(a, b):
            for n in range(4):
                b[n] = a[n]

        src = emit_vector_source(kernel_ir(kc_copy4), [(True, 4), (True, 4)])
        # The dim loop over matching extents fuses to one whole slice.
        assert "b[:, :] = a[:, :]" in src
        assert "for n" not in src

    def test_loop_kept_when_extent_mismatches(self):
        @kernel("kc_copy4b")
        def kc_copy4b(a, b):
            for n in range(4):
                b[n] = a[n]

        src = emit_vector_source(kernel_ir(kc_copy4b), [(True, 4), (True, 8)])
        assert "for n in range(4):" in src
        assert "b[:, n] = a[:, n]" in src

    def test_loop_kept_for_index_arithmetic(self):
        @kernel("kc_rot")
        def kc_rot(a, b):
            for n in range(4):
                b[n] = a[(n + 1) % 4]

        src = emit_vector_source(kernel_ir(kc_rot), [(True, 4), (True, 4)])
        assert "for n in range(4):" in src
        assert "a[:, (n + 1) % 4]" in src

    def test_minmax_and_ifexp_rewrite(self):
        @kernel("kc_clamp")
        def kc_clamp(a, b):
            b[0] = max(a[0], 0.0)
            b[1] = min(a[0], 1.0)
            b[2] = a[0] if a[1] > 0.5 else a[2]

        src = emit_vector_source(kernel_ir(kc_clamp), [(True, 3), (True, 3)])
        # Builtin min/max keep Python's rule; the literal takes the dtype.
        assert "_kc_max(a[:, 0], _kc_np.float64(0.0))" in src
        assert "_kc_min(a[:, 0], _kc_np.float64(1.0))" in src
        assert "_kc_select(a[:, 1] > 0.5, a[:, 0], a[:, 2])" in src

    def test_min_shadowed_by_namespace_not_rewritten(self):
        # A name spelled ``min`` that resolves in the kernel's own
        # namespace keeps its semantics; only the builtin is lowered to
        # Python's min rule.
        min = np.minimum  # noqa: A001 — deliberate shadow via closure

        def f(a, b):
            b[0] = min(a[0], a[1])

        ir = parse_kernel(f)
        src = emit_vector_source(ir, [(True, 2), (True, 1)])
        assert "_kc_min" not in src
        assert "min(a[:, 0], a[:, 1])" in src
        a = _batch((2,))
        b = np.zeros((LANES, 1))
        compile_vector(ir, [(True, 2), (True, 1)])(a, b)
        np.testing.assert_array_equal(b[:, 0], np.minimum(a[:, 0], a[:, 1]))

    def test_branch_mask_lowering_bitwise(self):
        @kernel("kc_branch")
        def kc_branch(a, out):
            t = a[0] * 2.0
            if a[1] > 1.0:
                out[0] += t
                t = t + 1.0
            else:
                out[1] = t * 3.0
            out[2] = t

        arrays = [_batch((3,)), np.zeros((LANES, 3))]
        _assert_matches_scalar(kc_branch, [(True, 3), (True, 3)], arrays)
        src = emit_vector_source(kernel_ir(kc_branch), [(True, 3), (True, 3)])
        # Masked read-modify-write keeps untouched lanes bitwise intact.
        assert "_kc_select" in src and "_kc_np.logical_not" in src

    def test_nested_branches(self):
        @kernel("kc_nested")
        def kc_nested(a, out):
            if a[0] > 1.0:
                if a[1] > 1.0:
                    out[0] = 1.0
                else:
                    out[0] = 2.0
            else:
                out[0] = 3.0

        arrays = [_batch((2,)), np.zeros((LANES, 1))]
        _assert_matches_scalar(kc_nested, [(True, 2), (True, 1)], arrays)

    def test_vector_argument_chained_subscripts(self):
        @kernel("kc_gather")
        def kc_gather(xs, out):
            out[0] = xs[0][0] + xs[2][1]

        arrays = [_batch((3, 2)), np.zeros((LANES, 1))]
        _assert_matches_scalar(kc_gather, [(True, None), (True, 1)], arrays)
        src = emit_vector_source(
            kernel_ir(kc_gather), [(True, None), (True, 1)]
        )
        assert "xs[:, 0][:, 0]" in src

    def test_view_alias_rewrite(self):
        @kernel("kc_alias")
        def kc_alias(x, out):
            row = x[1]
            out[0] = row[0] - row[1]

        arrays = [_batch((3, 2)), np.zeros((LANES, 1))]
        _assert_matches_scalar(kc_alias, [(True, None), (True, 1)], arrays)

    def test_computed_array_local_subscript(self):
        # A local computed FROM a view (not a bare alias) is still an
        # array per element in the scalar form; its subscripts must keep
        # the lane axis.  LANES != dim here, so a misclassification
        # cannot hide behind broadcasting.
        @kernel("kc_computed")
        def kc_computed(x, res):
            w = x[0] * 2.0
            v = w + x[1]
            res[0] = w[1] + v[0]

        arrays = [_batch((3, 2)), np.zeros((LANES, 1))]
        _assert_matches_scalar(kc_computed, [(True, None), (True, 1)], arrays)

    def test_branch_scoped_batched_classification(self):
        # A local bound to a lane-carrying array in one branch and a
        # constant in the other must stay lane-classified at the join,
        # regardless of branch emission order.
        @kernel("kc_branch_cls")
        def kc_branch_cls(x, res):
            if x[0][0] > 1.0:
                w = x[1]
            else:
                w = x[0] * 0.5
            res[0] = w[1]

        arrays = [_batch((3, 2)), np.zeros((LANES, 1))]
        _assert_matches_scalar(
            kc_branch_cls, [(True, None), (True, 1)], arrays
        )

    def test_read_global_stays_scalar(self):
        @kernel("kc_gbl")
        def kc_gbl(a, g, out):
            out[0] = a[0] * g[0]

        g = np.array([2.5])
        arrays = [_batch((1,)), g, np.zeros((LANES, 1))]
        _assert_matches_scalar(
            kc_gbl, [(True, 1), (False, None), (True, 1)], arrays
        )
        src = emit_vector_source(
            kernel_ir(kc_gbl), [(True, 1), (False, None), (True, 1)]
        )
        assert "g[0]" in src and "g[:, 0]" not in src


class TestRefusals:
    def _refused(self, fn):
        with pytest.raises(UnvectorizableKernel):
            parse_kernel(fn)

    def test_while_loop(self):
        def f(x):
            while x[0] > 0.0:
                x[0] -= 1.0

        self._refused(f)

    def test_boolop(self):
        def f(x, y):
            y[0] = 1.0 if x[0] > 0 and x[1] > 0 else 0.0

        self._refused(f)

    def test_chained_compare(self):
        def f(x, y):
            y[0] = 1.0 if 0.0 < x[0] < 1.0 else 0.0

        self._refused(f)

    def test_lane_dependent_index(self):
        def f(x, y):
            i = 2
            i = i + 1
            y[0] = x[i]

        self._refused(f)

    def test_unknown_call(self):
        def f(x, y):
            y[0] = len(x)

        self._refused(f)

    def test_data_dependent_range(self):
        def f(x, y):
            for n in range(int(x[0])):
                y[0] += 1.0

        self._refused(f)

    def test_return_value(self):
        def f(x):
            return x[0]

        self._refused(f)

    def test_augmented_assign_through_view_alias(self):
        # ``x1 = x[0]; x1 += 1.0`` mutates the parameter through a view
        # in the scalar form; the vector lowering cannot express that as
        # a local rebind, so the kernel must fall back to scalar.
        def f(x, y):
            x1 = x[0]
            x1 += 1.0
            y[0] = x1[1]

        self._refused(f)

    def test_view_alias_aug_runs_scalar_and_correct(self):
        @kernel("kc_viewaug")
        def kc_viewaug(x, y):
            row = x       # alias of the whole per-element view
            row += 1.0    # in-place mutation through the view
            y[0] = row[1]

        def run(bk):
            from repro.core import RW

            s = Set(6, "s")
            x = Dat(s, 2, np.arange(12.0).reshape(6, 2), name="x")
            y = Dat(s, 1, name="y")
            par_loop(
                kc_viewaug, s,
                arg_dat(x, IDX_ID, None, RW),
                arg_dat(y, IDX_ID, None, WRITE),
                runtime=Runtime(bk),
            )
            return x.data.copy(), y.data.copy()

        ref = run("sequential")
        got = run("vectorized")  # scalar fallback, not mis-vectorized
        np.testing.assert_array_equal(got[0], ref[0])
        np.testing.assert_array_equal(got[1], ref[1])

    def test_vectorizable_probe(self):
        @kernel("kc_ok")
        def kc_ok(x, y):
            y[0] = x[0]

        @kernel("kc_bad")
        def kc_bad(x, y):
            while x[0] > 0.0:
                x[0] -= 1.0

        assert vectorizable(kc_ok)
        assert not vectorizable(kc_bad)
        assert kc_ok.has_vector_form
        assert not kc_bad.has_vector_form


# ----------------------------------------------------------------------
# 2. Generated-vs-scalar bitwise cross-validation for both apps.
#    (The pre-deletion run of this matrix also compared generated
#    against the hand-written *_vec kernels, elementwise bitwise, over
#    the full backend x layout matrix before they were removed.)
# ----------------------------------------------------------------------
class TestAppKernelsBitwise:
    def test_airfoil_kernels(self):
        from repro.apps.airfoil.kernels import make_kernels

        ks = make_kernels()
        q = _batch((4,))
        q[:, 3] += 40.0  # keep the sound speed real for any u, v draw
        _assert_matches_scalar(
            ks["save_soln"], [(True, 4), (True, 4)],
            [q, np.zeros((LANES, 4))],
        )
        _assert_matches_scalar(
            ks["adt_calc"], [(True, None), (True, 4), (True, 1)],
            [_batch((4, 2)), q, np.zeros((LANES, 1))],
        )
        _assert_matches_scalar(
            ks["res_calc"],
            [(True, 2)] * 2 + [(True, 4)] * 2 + [(True, 1)] * 2
            + [(True, 4)] * 2,
            [_batch((2,)), _batch((2,)), q, q + 0.25,
             _batch((1,)), _batch((1,)),
             np.zeros((LANES, 4)), np.zeros((LANES, 4))],
        )
        bound = RNG.integers(1, 3, (LANES, 1)).astype(float)
        _assert_matches_scalar(
            ks["bres_calc"],
            [(True, 2), (True, 2), (True, 4), (True, 1), (True, 4),
             (True, 1)],
            [_batch((2,)), _batch((2,)), q, _batch((1,)),
             np.zeros((LANES, 4)), bound],
        )
        _assert_matches_scalar(
            ks["update"],
            [(True, 4), (True, 4), (True, 4), (True, 1), (True, 1)],
            [q, np.zeros((LANES, 4)), _batch((4,)), _batch((1,)),
             np.zeros((LANES, 1))],
        )

    def test_volna_kernels(self):
        """At Volna's own dtype, float32: ``space_disc``'s literal wall
        weight must stay float32 across lanes as it does per element."""
        from repro.apps.volna.kernels import make_kernels

        f32 = np.float32
        ks = make_kernels()
        geom = _batch((4,), dtype=f32)
        geom[:, 3] = RNG.integers(0, 2, LANES).astype(f32)
        q0 = _batch((4,), dtype=f32)
        q0[: LANES // 4, 0] = 0.0  # dry states exercise the guards
        q1 = _batch((4,), dtype=f32)

        def zeros(dim):
            return np.zeros((LANES, dim), dtype=f32)

        _assert_matches_scalar(
            ks["compute_flux"], [(True, 4)] * 3 + [(True, 4), (True, 2)],
            [geom, q0, q1, zeros(4), zeros(2)],
        )
        _assert_matches_scalar(
            ks["numerical_flux"],
            [(True, 1), (True, None), (True, 4), (True, 1)],
            [_batch((1,), dtype=f32), _batch((3, 2), dtype=f32),
             _batch((4,), dtype=f32), np.full((LANES, 1), 1e9, dtype=f32)],
        )
        _assert_matches_scalar(
            ks["space_disc"],
            [(True, 4), (True, 4), (True, 4), (True, 4), (True, 1),
             (True, 1), (True, 4), (True, 4)],
            [_batch((4,), dtype=f32), geom, q0, q1, _batch((1,), dtype=f32),
             _batch((1,), dtype=f32), zeros(4), zeros(4)],
        )
        dt = np.array([0.01], dtype=f32)
        _assert_matches_scalar(
            ks["RK_1"], [(True, 4)] * 4 + [(False, None)],
            [q0, _batch((4,), dtype=f32), zeros(4), zeros(4), dt],
        )
        _assert_matches_scalar(
            ks["RK_2"], [(True, 4)] * 4 + [(False, None)],
            [q0, q1, _batch((4,), dtype=f32), zeros(4), dt],
        )
        _assert_matches_scalar(
            ks["sim_1"], [(True, 4), (True, 4)],
            [q0, zeros(4)],
        )

    def test_literal_select_keeps_compute_dtype(self):
        """A select of two literals is typed with the loop's compute
        dtype: the float32 product after it rounds per element."""
        @kernel("kc_lit_select")
        def kc_lit_select(a, b, out):
            w = 0.0 if a[0] > 1.0 else 1.0
            out[0] += w * a[1] / b[0] * a[0]

        f32 = np.float32
        shapes = [(True, 2), (True, 1), (True, 1)]
        src = emit_vector_source(kernel_ir(kc_lit_select), shapes, "float32")
        assert "_kc_np.float32(0.0), _kc_np.float32(1.0)" in src
        _assert_matches_scalar(
            kc_lit_select, shapes,
            [_batch((2,), dtype=f32), _batch((1,), lo=0.1, hi=3.0, dtype=f32),
             np.zeros((LANES, 1), dtype=f32)],
        )


# ----------------------------------------------------------------------
# 3. Integration: backends, cache, fallbacks, finite widths.
# ----------------------------------------------------------------------
def _ring(n=31):
    nodes = Set(n, "nodes")
    edges = Set(n, "edges")
    conn = np.stack([np.arange(n), (np.arange(n) + 1) % n], axis=1)
    e2n = Map(edges, nodes, 2, conn, "e2n")
    w = Dat(edges, 2, RNG.standard_normal((n, 2)), name="w")
    return nodes, edges, e2n, w


@kernel("kc_scatter", flops=2)
def kc_scatter(w, a0, a1):
    a0[0] += w[0] * 2.0
    a1[1] += w[1]


class TestBackendIntegration:
    def test_vectorized_runs_generated(self):
        nodes, edges, e2n, w = _ring()

        def run(bk, **opts):
            acc = Dat(nodes, 2, name="acc")
            par_loop(
                kc_scatter, edges,
                arg_dat(w, IDX_ID, None, READ),
                arg_dat(acc, 0, e2n, INC),
                arg_dat(acc, 1, e2n, INC),
                runtime=Runtime(make_backend(bk, **opts)),
            )
            return acc.data.copy()

        ref = run("sequential")
        np.testing.assert_array_equal(run("vectorized"), ref)

    @pytest.mark.parametrize("vec", [1, 2, 4, 8])
    def test_register_width_blocks(self, vec):
        # Any strip width runs the generated kernel on (<= vec, dim)
        # blocks and matches the scalar sweep bitwise.
        nodes, edges, e2n, w = _ring()
        acc = Dat(nodes, 2, name="acc")
        par_loop(
            kc_scatter, edges,
            arg_dat(w, IDX_ID, None, READ),
            arg_dat(acc, 0, e2n, INC),
            arg_dat(acc, 1, e2n, INC),
            runtime=Runtime(make_backend("vectorized", vec=vec)),
        )
        ref = Dat(nodes, 2, name="ref")
        par_loop(
            kc_scatter, edges,
            arg_dat(w, IDX_ID, None, READ),
            arg_dat(ref, 0, e2n, INC),
            arg_dat(ref, 1, e2n, INC),
            runtime=Runtime("sequential"),
        )
        np.testing.assert_array_equal(acc.data, ref.data)

    def test_unvectorizable_kernel_falls_back_scalar(self):
        @kernel("kc_opaque")
        def kc_opaque(x, y):
            total = 0.0
            while total < x[0]:
                total += 1.0
            y[0] = total

        s = Set(9, "s")
        x = Dat(s, 1, np.arange(9.0) + 0.5, name="x")
        y = Dat(s, 1, name="y")
        par_loop(
            kc_opaque, s,
            arg_dat(x, IDX_ID, None, READ),
            arg_dat(y, IDX_ID, None, WRITE),
            runtime=Runtime("vectorized"),
        )
        np.testing.assert_array_equal(y.data[:, 0], np.ceil(np.arange(9.0) + 0.5))

    def test_explicit_vector_overrides_generated(self):
        calls = []

        @kernel("kc_override")
        def kc_override(x, y):
            y[0] = x[0]

        @kc_override.vectorized
        def kc_override_vec(x, y):
            calls.append(len(x))
            y[:, 0] = x[:, 0]

        s = Set(7, "s")
        x = Dat(s, 1, np.arange(7.0), name="x")
        y = Dat(s, 1, name="y")
        par_loop(
            kc_override, s,
            arg_dat(x, IDX_ID, None, READ),
            arg_dat(y, IDX_ID, None, WRITE),
            runtime=Runtime("vectorized"),
        )
        assert calls == [7]  # hand-written override ran, not generated

    def test_compile_cache_counters(self):
        clear_cache()

        @kernel("kc_cached")
        def kc_cached(x, y):
            y[0] = x[0] + 1.0

        s = Set(11, "s")
        x = Dat(s, 1, np.arange(11.0), name="x")
        y = Dat(s, 1, name="y")
        rt = Runtime("vectorized")
        for _ in range(3):
            par_loop(
                kc_cached, s,
                arg_dat(x, IDX_ID, None, READ),
                arg_dat(y, IDX_ID, None, WRITE),
                runtime=rt,
            )
        stats = rt.stats()["kernelc_cache"]
        assert stats["entries"] >= 1
        assert stats["misses"] >= 1
        assert stats["hits"] >= 2  # recompiled nothing after first sight

    def test_runtimes_share_the_process_cache_not_the_disk(
            self, tmp_path, monkeypatch):
        # Emitting is cheaper than loading a stored source: a second
        # Runtime reuses the process-wide entry, and nothing is written
        # to the artifact store.
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "store"))
        clear_cache()

        @kernel("kc_shared")
        def kc_shared(x, y):
            y[0] = 3.0 * x[0]

        s = Set(9, "s")
        x = Dat(s, 1, np.arange(9.0), name="x")
        y = Dat(s, 1, name="y")
        for rt in (Runtime("vectorized"), Runtime("vectorized")):
            par_loop(
                kc_shared, s,
                arg_dat(x, IDX_ID, None, READ),
                arg_dat(y, IDX_ID, None, WRITE),
                runtime=rt,
            )
        stats = rt.stats()["kernelc_cache"]
        assert stats["misses"] == 1 and stats["hits"] >= 1
        assert not (tmp_path / "store").exists()
        np.testing.assert_array_equal(y.data[:, 0], 3.0 * np.arange(9.0))

    def test_negative_cache_for_unvectorizable(self):
        clear_cache()

        @kernel("kc_neg")
        def kc_neg(x, y):
            while x[0] > 1e9:
                x[0] -= 1.0
            y[0] = x[0]

        s = Set(5, "s")
        x = Dat(s, 1, np.arange(5.0), name="x")
        y = Dat(s, 1, name="y")
        rt = Runtime("vectorized")
        for _ in range(3):
            par_loop(
                kc_neg, s,
                arg_dat(x, IDX_ID, None, READ),
                arg_dat(y, IDX_ID, None, WRITE),
                runtime=rt,
            )
        stats = rt.stats()["kernelc_cache"]
        assert stats["failures"] == 1  # parse failed once, then cached
        np.testing.assert_array_equal(y.data[:, 0], np.arange(5.0))

    def test_chained_execution_uses_generated(self):
        # The chained StripProgram replay resolves vector forms through
        # the same per-shape cache; results match eager bitwise.
        from repro.apps.airfoil import AirfoilSim
        from repro.mesh import make_airfoil_mesh

        mesh = make_airfoil_mesh(10, 5)
        eager = AirfoilSim(mesh, runtime=Runtime("vectorized"),
                           chained=False)
        chained = AirfoilSim(mesh, runtime=Runtime("vectorized"),
                             chained=True)
        eager.run(3)
        chained.run(3)
        np.testing.assert_array_equal(chained.q, eager.q)
