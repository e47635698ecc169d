"""Golden-source snapshots for both kernelc emitters.

Every generated artifact — the batched vector kernels for the app loop
shapes and the native C translation unit of every traced app chain —
is snapshotted as text under ``tests/golden/`` and diffed in CI, so any
codegen change shows up as a reviewable source diff rather than as an
opaque behavioural shift.

Regenerate intentionally changed snapshots with::

    REGEN_GOLDEN=1 python -m pytest tests/test_golden_codegen.py
"""

import os
from pathlib import Path

import pytest

from repro.kernelc import emit_vector_source, kernel_ir
from repro.testing import spy_chains

GOLDEN_DIR = Path(__file__).parent / "golden"


def _assert_golden(name: str, source: str) -> None:
    path = GOLDEN_DIR / name
    if os.environ.get("REGEN_GOLDEN"):
        GOLDEN_DIR.mkdir(exist_ok=True)
        path.write_text(source)
        return
    assert path.exists(), (
        f"golden snapshot {name} missing; regenerate with "
        f"REGEN_GOLDEN=1 python -m pytest tests/test_golden_codegen.py"
    )
    assert source == path.read_text(), (
        f"generated source for {name} drifted from tests/golden/{name}; "
        f"if intentional, regenerate with REGEN_GOLDEN=1"
    )


# ----------------------------------------------------------------------
# Vector emitter snapshots: one per app kernel, at the driver's shapes.
# ----------------------------------------------------------------------
AIRFOIL_SHAPES = {
    "save_soln": [(True, 4), (True, 4)],
    "adt_calc": [(True, None), (True, 4), (True, 1)],
    "res_calc": [(True, 2), (True, 2), (True, 4), (True, 4), (True, 1),
                 (True, 1), (True, 4), (True, 4)],
    "bres_calc": [(True, 2), (True, 2), (True, 4), (True, 1), (True, 4),
                  (True, 1)],
    "update": [(True, 4), (True, 4), (True, 4), (True, 1), (True, 1)],
}

VOLNA_SHAPES = {
    "compute_flux": [(True, 4), (True, 4), (True, 4), (True, 4), (True, 2)],
    "numerical_flux": [(True, 1), (True, None), (True, 4), (True, 1)],
    "space_disc": [(True, 4), (True, 4), (True, 4), (True, 4), (True, 1),
                   (True, 1), (True, 4), (True, 4)],
    "RK_1": [(True, 4), (True, 4), (True, 4), (True, 4), (False, None)],
    "RK_2": [(True, 4), (True, 4), (True, 4), (True, 4), (False, None)],
    "sim_1": [(True, 4), (True, 4)],
}


AERO_SHAPES = {
    "rho_calc": [(True, None), (True, None), (True, 1)],
    "res_calc": [(True, None), (True, 1), (True, 16)],
    "rhs_calc": [(True, 1), (True, 1), (True, 1), (True, 1)],
    "apply_bc": [(True, 1), (True, 1), (True, 1)],
}


class TestVectorGolden:
    @pytest.mark.parametrize("name", sorted(AIRFOIL_SHAPES))
    def test_airfoil(self, name):
        from repro.apps.airfoil.kernels import make_kernels

        source = emit_vector_source(
            kernel_ir(make_kernels()[name]), AIRFOIL_SHAPES[name]
        )
        _assert_golden(f"vec_airfoil_{name}.py.txt", source)

    @pytest.mark.parametrize("name", sorted(VOLNA_SHAPES))
    def test_volna(self, name):
        """At Volna's own compute dtype: float32 lane-free select
        operands (``space_disc``'s wall weight)."""
        from repro.apps.volna.kernels import make_kernels

        source = emit_vector_source(
            kernel_ir(make_kernels()[name]), VOLNA_SHAPES[name], "float32"
        )
        _assert_golden(f"vec_volna_{name}.py.txt", source)

    @pytest.mark.parametrize("name", sorted(AERO_SHAPES))
    def test_aero(self, name):
        """Aero pins the local-matrix lowering: ``K[4*i + j] += ...``
        stores become lane-sliced index arithmetic in the vector form."""
        from repro.apps.aero.kernels import make_kernels

        source = emit_vector_source(
            kernel_ir(make_kernels()[name]), AERO_SHAPES[name]
        )
        _assert_golden(f"vec_aero_{name}.py.txt", source)

    def test_spmv(self):
        """The solver's padded-row SpMV (width-specialized)."""
        from repro.solve import make_spmv_kernel

        source = emit_vector_source(
            kernel_ir(make_spmv_kernel(9)),
            [(True, None), (True, None), (True, 1)],
        )
        _assert_golden("vec_solve_spmv_w9.py.txt", source)

    # Matfree kernels at the aero driver's shapes (W=9 row width,
    # C=4 fold contributions): gathered IDX_ALL operands are (True,
    # None); the per-row coefficient rows are fixed width-9 dats.
    MATFREE_SHAPES = {
        "coeffs": [(True, None), (True, None), (True, None),
                   (True, None), (True, 9), (True, 9), (True, 9)],
        "apply": [(True, 9), (True, None), (True, 1)],
        "action": [(True, None), (True, None), (True, None),
                   (True, None), (True, 1)],
    }

    @pytest.mark.parametrize("name", sorted(MATFREE_SHAPES))
    def test_matfree(self, name):
        """The matrix-free A·p kernels: the coefficient build (the
        fold-table sum the assembled oracle replicates), the fixed-width
        row MAC, and the fused single-pass action."""
        from repro.solve import make_matfree_kernels

        kernels = make_matfree_kernels(9, 4, 4)
        source = emit_vector_source(
            kernel_ir(kernels[name]), self.MATFREE_SHAPES[name]
        )
        _assert_golden(f"vec_matfree_{name}_w9c4.py.txt", source)


# ----------------------------------------------------------------------
# Native emitter snapshots: one C translation unit per traced app chain.
# ----------------------------------------------------------------------
class TestNativeGolden:
    """Whole-chain C programs for every chain the three apps trace.

    Emission is pure (no compiler needed), so these run everywhere and
    pin the full native surface: pointer-table layout, per-loop bodies,
    reduction plumbing and the fused/tiled entry points.  A chain's
    on-disk cache key is the sha256 of exactly this text, so any diff
    here is also a cache-key change.
    """

    @staticmethod
    def _traced_chains(app):
        from repro.core import Runtime
        from repro.mesh import make_airfoil_mesh, make_tri_mesh

        rt = Runtime("sequential")
        chains = spy_chains(rt)
        if app == "airfoil":
            from repro.apps.airfoil import AirfoilSim

            sim = AirfoilSim(make_airfoil_mesh(12, 6), runtime=rt,
                             chained=True)
        elif app == "volna":
            from repro.apps.volna import VolnaSim

            sim = VolnaSim(make_tri_mesh(8, 6), runtime=rt, chained=True)
        elif app == "aero":
            from repro.apps.aero import AeroSim

            sim = AeroSim(make_airfoil_mesh(10, 5), runtime=rt,
                          chained=True)
        else:  # aeromf: the matrix-free operator pipeline
            from repro.apps.aero import AeroSim

            sim = AeroSim(make_airfoil_mesh(10, 5), runtime=rt,
                          chained=True, operator="matfree")
        sim.run(1)
        return list(chains)

    @staticmethod
    def _repeat_of(compiled):
        """The back edge the solver flushes its trip chain with (the
        scalar loop ``cg_rotate`` closes a trip; its last two Globals
        are the residual norm and the stop flag), else ``None``."""
        from repro.core.chain import Repeat

        last = compiled.loops[-1]
        if last.kernel.name != "cg_rotate":
            return None
        resid, flag = (arg.dat for arg in last.args[-2:])
        return Repeat(1, until=flag, record=resid)

    @pytest.mark.parametrize("app", ["airfoil", "volna", "aero", "aeromf"])
    def test_app_chains(self, app):
        """Each chain's TU as the native backend builds it — the CG
        trip chain therefore with its ``kc_run_repeat``."""
        from repro.kernelc import emit_chain_source

        chains = self._traced_chains(app)
        assert chains, f"{app} traced no chains"
        repeats = 0
        for i, compiled in enumerate(chains):
            name = f"{app}{i:02d}"
            repeat = self._repeat_of(compiled)
            source = emit_chain_source(compiled.loops, name=name,
                                       repeat=repeat)
            assert ("kc_run_repeat" in source) == (repeat is not None)
            repeats += repeat is not None
            first = compiled.loops[0].kernel.name
            _assert_golden(f"native_{app}_{i:02d}_{first}.c.txt", source)
        assert repeats == (1 if app.startswith("aero") else 0)

    def test_threaded_airfoil_chain(self):
        """An airfoil step above ``THREAD_MIN_ELEMENTS``: the one-team
        ``kc_run_fused``, the owner guards of ``res_calc``, the owner
        facet and reduction-column slots.  (Every golden above is below
        the threshold and has no OpenMP in it.)"""
        from repro.apps.airfoil import AirfoilSim
        from repro.core import Runtime
        from repro.kernelc import emit_chain_source
        from repro.kernelc.native import THREAD_MIN_ELEMENTS
        from repro.mesh import make_airfoil_mesh

        rt = Runtime("vectorized")
        chains = spy_chains(rt)
        sim = AirfoilSim(make_airfoil_mesh(260, 130), runtime=rt,
                         chained=True)
        sim.run(1)
        (compiled,) = chains
        assert compiled.loops[0].n >= THREAD_MIN_ELEMENTS
        source = emit_chain_source(compiled.loops, name="airfoil_threaded")
        assert "#pragma omp parallel" in source
        assert "/* loop 2: res_calc, owner */" in source
        _assert_golden("native_airfoil_threaded_00_save_soln.c.txt", source)

    def test_threaded_volna_chains(self):
        """Scrambled float32 Volna above ``THREAD_MIN_ELEMENTS``: a float32
        reduction column and its ``kc_loop<J>_cfold`` (``numerical_flux``'s
        time-step ``min``), and float32 ``packet`` loops (``space_disc``)."""
        from repro.apps.volna import VolnaSim
        from repro.core import Runtime
        from repro.kernelc import emit_chain_source
        from repro.kernelc.native import THREAD_MIN_ELEMENTS
        from repro.mesh import make_tri_mesh
        from repro.mesh.renumber import scramble

        rt = Runtime("vectorized")
        chains = spy_chains(rt)
        mesh = scramble(scramble(make_tri_mesh(130, 128), "cells", 3),
                        "edges", 4)
        sim = VolnaSim(mesh, runtime=rt, chained=True)
        sim.run(1)
        assert chains
        sources = []
        for i, compiled in enumerate(chains):
            assert compiled.loops[0].n >= THREAD_MIN_ELEMENTS
            source = emit_chain_source(compiled.loops,
                                       name=f"volna_threaded{i:02d}")
            first = compiled.loops[0].kernel.name
            _assert_golden(f"native_volna_threaded_{i:02d}_{first}.c.txt",
                           source)
            sources.append(source)
        text = "\n".join(sources)
        assert "#pragma omp parallel" in text
        assert "_cfold(void **P, i64 lo, i64 hi)" in text
        assert "float *kc_col" in text
        assert "packet(16)" in text

    def test_cache_key_tracks_source(self):
        """The on-disk .so key is the source hash: same text, same key;
        any textual drift (even one literal) is a new compilation."""
        from repro.kernelc import emit_chain_source, source_key

        chains = self._traced_chains("airfoil")
        source = emit_chain_source(chains[0].loops, name="airfoil00")
        again = emit_chain_source(chains[0].loops, name="airfoil00")
        assert source == again
        assert source_key(source) == source_key(again)
        assert len(source_key(source)) == 64  # sha256 hexdigest
        assert source_key(source) != source_key(source + "\n/* edit */")
