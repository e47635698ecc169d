"""The four workloads: sizes, seeded inputs, units of work, output checks.

Why each workload exists is recorded once, in ``BENCHMARK.json``
(``workloads[].why``) and at length in README.md.

Every workload is one app of ``repro`` in one pinned configuration
(never ``Runtime("auto")`` in a timed path: a tuner flip would make a
metric bimodal).  ``--seed`` drives the ``mesh.renumber.scramble``
permutations and a jitter of the mesh shape: ``nx`` moves by up to
+-3 % and ``ny`` is re-derived so the cell count stays within ~0.5 % of
nominal — no size is a magic constant, yet a time or memory metric does
not inherit a +-6 % spread from the seed alone.  The program under test
receives only the generated mesh.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, Tuple

import numpy as np

#: Relative jitter of ``nx`` drawn from the seed.
JITTER = 0.03

#: Units each output-check twin runs.
TWIN_UNITS = 3


@dataclass(frozen=True)
class Workload:
    name: str
    app: str                    # "airfoil" | "volna" | "aero"
    backend: str                # pinned Runtime backend
    dtype: str
    nominal: Tuple[int, int]    # (nx, ny) at full size
    twin: Tuple[int, int]       # (nx, ny) of the output-check twin
    scrambled: bool
    #: Processes per run: ``cold_runs`` set up against an empty store
    #: each, ``warm_runs`` against a store a cold one filled.  A cold
    #: set-up of the large meshes costs ~8 s (a warm one ~4 s), so they
    #: get one cold process and three warm ones.
    cold_runs: int
    warm_runs: int
    #: Kernel-name prefixes of the three most expensive distinct loops,
    #: most expensive first (measured once at full size; see README).
    #: Slot k feeds ``backends.loop<k>_*``; the slots are fixed here, not
    #: re-ranked per run, so a later optimisation cannot reshuffle them.
    top_kernels: Tuple[str, str, str]


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="airfoil_large",
            app="airfoil", backend="native", dtype="float64",
            nominal=(1200, 600), twin=(60, 30), scrambled=False,
            cold_runs=1, warm_runs=3,
            top_kernels=("res_calc", "adt_calc", "update"),
        ),
        Workload(
            name="volna_scrambled",
            app="volna", backend="native", dtype="float32",
            nominal=(600, 400), twin=(35, 30), scrambled=True,
            cold_runs=1, warm_runs=3,
            top_kernels=("compute_flux", "space_disc", "numerical_flux"),
        ),
        Workload(
            name="aero_solve",
            app="aero", backend="native", dtype="float64",
            nominal=(100, 50), twin=(16, 8), scrambled=False,
            cold_runs=3, warm_runs=3,
            top_kernels=("matfree_apply", "cg_update", "cg_direction"),
        ),
        Workload(
            name="airfoil_fallback",
            app="airfoil", backend="vectorized", dtype="float64",
            nominal=(400, 200), twin=(60, 30), scrambled=False,
            cold_runs=3, warm_runs=3,
            top_kernels=("res_calc", "adt_calc", "update"),
        ),
    )
}

#: Picard iterations and CG iteration cap of one ``aero_solve`` unit.
AERO_PICARD = 3
AERO_CG_MAXITER = 20000


def dims(w: Workload, seed: int, twin: bool = False) -> Tuple[int, int]:
    """Seed-jittered ``(nx, ny)`` keeping ``nx * ny`` near nominal."""
    nx0, ny0 = w.twin if twin else w.nominal
    rng = np.random.default_rng([seed, 0xD1])
    nx = max(4, int(round(nx0 * (1.0 + JITTER * rng.uniform(-1.0, 1.0)))))
    ny = max(4, int(round(nx0 * ny0 / nx)))
    return nx, ny


def build_mesh(w: Workload, seed: int, twin: bool = False):
    """Generate (and for ``scrambled`` workloads renumber) the mesh."""
    from repro.mesh import make_airfoil_mesh, make_tri_mesh
    from repro.mesh.renumber import scramble

    nx, ny = dims(w, seed, twin)
    if w.app == "volna":
        from repro.apps.volna import DEFAULT_SCENARIO as scen

        mesh = make_tri_mesh(nx, ny, scen.extent_x, scen.extent_y)
    else:
        mesh = make_airfoil_mesh(nx, ny)
    if w.scrambled:
        mesh = scramble(mesh, "cells", seed)
        mesh = scramble(mesh, "edges", seed + 1)
    return mesh


class Instance:
    """One app instance on one runtime: the unit of work and its outputs."""

    def __init__(self, w: Workload, mesh, backend=None, chained=True,
                 tiling=None, runtime=None, recorder=None) -> None:
        from repro.core import Runtime

        self.w = w
        self.mesh = mesh
        self.chained = chained
        self.tiling = tiling
        self.recorder = recorder
        self.runtime = (
            runtime if runtime is not None
            else Runtime(backend if backend is not None else w.backend)
        )
        self.dtype = np.dtype(w.dtype)
        #: Per-unit output history compared across processes.
        self.history = []
        self.sim = None if w.app == "aero" else self.construct()

    def construct(self):
        """A fresh sim of this workload's app on the instance's runtime
        (under an ``apps.construct`` span when a recorder is attached)."""
        if self.recorder is None:
            return self._construct()
        with self.recorder.span("apps.construct"):
            return self._construct()

    def _construct(self):
        from repro.apps.aero import AeroSim
        from repro.apps.airfoil import AirfoilSim
        from repro.apps.volna import VolnaSim

        kw = dict(dtype=self.dtype, runtime=self.runtime,
                  chained=self.chained, tiling=self.tiling)
        if self.w.app == "airfoil":
            return AirfoilSim(self.mesh, **kw)
        if self.w.app == "volna":
            return VolnaSim(self.mesh, **kw)
        return AeroSim(self.mesh, operator="matfree",
                       cg_maxiter=AERO_CG_MAXITER, **kw)

    def unit(self) -> float:
        """One unit of work; returns a scalar that must be finite.

        airfoil/volna: one ``step()``.  aero: construct a fresh
        ``AeroSim`` on the shared runtime and ``solve`` it — every CG
        solve must converge.
        """
        if self.w.app != "aero":
            out = self.sim.step()
            self.history.append(out)
            return out
        self.sim = self.construct()
        res = self.sim.solve(picard=AERO_PICARD)
        if not all(c.converged for c in res.cg_results):
            raise RuntimeError("aero_solve: a CG solve did not converge")
        self.history.append(tuple(c.iterations for c in res.cg_results))
        return res.delta

    def set_chained(self, chained: bool) -> None:
        """Switch between chained and eager dispatch of later units."""
        self.chained = chained
        if self.sim is not None:
            self.sim.chained = chained

    def state(self) -> Dict[str, np.ndarray]:
        """State arrays: finite after the last unit, bitwise vs the twin."""
        if self.w.app == "aero":
            return {"phi": self.sim.phi, "rho": self.sim.rho}
        return {"q": self.sim.q}

    def elements_done(self) -> int:
        """Loop elements executed so far on this runtime (exact)."""
        return int(sum(s.elements for s in self.runtime.backend.stats.values()))


# ----------------------------------------------------------------------
# Output checks
# ----------------------------------------------------------------------
def _within_ulps(a, b, ulps: int) -> bool:
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if a.shape != b.shape:
        return False
    return bool(np.all(np.abs(a - b) <= ulps * np.spacing(
        np.maximum(np.abs(a), np.abs(b)))))


def twin_check(w: Workload, seed: int):
    """Same app, config and seed at twin size against two oracles.

    Native workloads execute elements in ascending order, like the
    sequential interpreter: state Dats must match ``Runtime("sequential")``
    eager bitwise and reduction-derived histories (rms / dt) to 1 ulp.
    The vectorized backend applies increments colour by colour, so it is
    *not* bitwise against sequential (1-ulp state differences, up to 7
    ulps in rms at 1.8k cells); there the state must match sequential to
    the tolerance of tests/test_airfoil.py and — the contract the repo
    does hold — the same backend run eagerly, bitwise.
    Returns ``[(name, ok, detail)]``, one per unit.
    """
    mesh = build_mesh(w, seed, twin=True)
    fast = Instance(w, mesh)
    slow = Instance(w, mesh, backend="sequential", chained=False)
    ascending = w.backend == "native"
    eager = None if ascending else Instance(w, mesh, chained=False)
    ulps = 1 if ascending else math.ceil(math.sqrt(mesh.cells.size))
    if fast.dtype == np.float32:
        ulps *= int(np.finfo(np.float32).eps / np.finfo(np.float64).eps)
    out = []
    for k in range(TWIN_UNITS):
        fast.unit()
        slow.unit()
        sf, ss = fast.state(), slow.state()
        if ascending:
            state = all(np.array_equal(sf[n], ss[n]) for n in sf)
        else:
            eager.unit()
            se = eager.state()
            state = all(
                np.array_equal(sf[n], se[n])
                and np.allclose(sf[n], ss[n], rtol=1e-10, atol=1e-12)
                for n in sf
            ) and fast.history[-1] == eager.history[-1]
        hist = _within_ulps(fast.history[-1], slow.history[-1], ulps)
        out.append((
            f"twin.unit{k}", state and hist,
            f"cells={mesh.cells.size} state_ok={state} "
            f"history_within_{ulps}ulp={hist}",
        ))
    return out


def reference_check(w: Workload, mesh, q_after_first: np.ndarray,
                    rms_first: float):
    """One full-size airfoil step from the initial state against the
    whole-array ``reference_sweep`` (tolerances of tests/test_airfoil)."""
    from repro.apps.airfoil import AirfoilSim
    from repro.apps.airfoil.reference import reference_sweep

    q0 = AirfoilSim(mesh, dtype=np.dtype(w.dtype)).q.copy()
    ref = reference_sweep(mesh, q0)
    ok_q = bool(np.allclose(q_after_first, ref["q"], rtol=1e-10, atol=1e-12))
    ok_rms = bool(abs(rms_first - ref["rms"]) <= 1e-10 * abs(ref["rms"]))
    return [("reference.step0", ok_q and ok_rms,
             f"q_close={ok_q} rms_close={ok_rms}")]


def finite_check(inst: Instance):
    ok = all(bool(np.isfinite(a).all()) for a in inst.state().values())
    return [("finite.final_state", ok, "")]
