"""Volna application driver: shallow-water tsunami simulation.

Geometry preprocessing (edge normals oriented cell0 → cell1, triangle
areas), state initialization from the synthetic coastal scenario, and the
SSP-RK2 time loop whose kernel sequence matches the paper's Volna
(``compute_flux`` → ``numerical_flux`` → ``space_disc`` twice per step,
plus ``RK_1``/``RK_2``/``sim_1``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

import numpy as np

from ...core import (
    IDX_ALL,
    IDX_ID,
    INC,
    MIN,
    READ,
    WRITE,
    Dat,
    Global,
    Runtime,
    arg_dat,
    arg_gbl,
    dat_layout,
    par_loop,
)
from ...mesh import UnstructuredMesh, make_tri_mesh
from ...mesh.renumber import localize
from .bathymetry import DEFAULT_SCENARIO, CoastalScenario, initial_state
from .kernels import CFL, GRAVITY, make_kernels


@dataclass
class VolnaState:
    """All Dats of one Volna problem instance."""

    q: Dat          # (h, hu, hv, zb)
    q_old: Dat
    q_mid: Dat
    q_out: Dat      # sim_1 snapshot
    rhs: Dat        # L, the spatial-discretization accumulator
    flux: Dat       # per-edge rotated HLL flux
    speed: Dat      # per-edge (max wave speed, length)
    geom: Dat       # per-edge (nx, ny, length, boundary flag)
    vol: Dat        # per-cell area
    dt: Global      # MIN-reduced time step
    dt_used: Global # frozen copy consumed by the RK kernels


#: Edges per slice of :func:`edge_geometry`: bounds its float64
#: temporaries (a dozen ``(rows, 2)`` arrays) to a few MB instead of
#: ~110 bytes per edge on top of the live mesh and state.
_GEOMETRY_ROWS = 1 << 16


def edge_geometry(mesh: UnstructuredMesh, dtype=np.float64) -> np.ndarray:
    """Per-edge ``(nx, ny, length, bflag)`` with the unit normal oriented
    from cell slot 0 toward cell slot 1 (outward at boundaries)."""
    e2n = mesh.map("edge2node").values
    e2c = mesh.map("edge2cell").values
    centroids = mesh.cell_centroids()
    out = np.empty((e2n.shape[0], 4), dtype=dtype)
    for lo in range(0, e2n.shape[0], _GEOMETRY_ROWS):
        rows = slice(lo, lo + _GEOMETRY_ROWS)
        _edge_geometry_rows(
            e2n[rows], e2c[rows], mesh.coords, centroids, out[rows]
        )
    return out


def _edge_geometry_rows(e2n, e2c, coords, centroids, out) -> None:
    p1 = coords[e2n[:, 0]]
    p2 = coords[e2n[:, 1]]
    d = p2 - p1
    length = np.hypot(d[:, 0], d[:, 1])
    nx = d[:, 1] / length
    ny = -d[:, 0] / length

    is_boundary = e2c[:, 0] == e2c[:, 1]
    mid = 0.5 * (p1 + p2)
    # Interior: flip normals that point 1 -> 0; boundary: flip normals
    # that point into the domain (toward the cell centroid).
    toward = np.where(
        is_boundary[:, None],
        mid - centroids[e2c[:, 0]],
        centroids[e2c[:, 1]] - centroids[e2c[:, 0]],
    )
    flip = nx * toward[:, 0] + ny * toward[:, 1] < 0
    out[:, 0] = np.where(flip, -nx, nx)
    out[:, 1] = np.where(flip, -ny, ny)
    out[:, 2] = length
    out[:, 3] = is_boundary


def cell_areas(mesh: UnstructuredMesh) -> np.ndarray:
    """Triangle areas via the shoelace formula."""
    c2n = mesh.map("cell2node").values
    p = mesh.coords[c2n]  # (cells, 3, 2)
    return 0.5 * np.abs(
        (p[:, 1, 0] - p[:, 0, 0]) * (p[:, 2, 1] - p[:, 0, 1])
        - (p[:, 2, 0] - p[:, 0, 0]) * (p[:, 1, 1] - p[:, 0, 1])
    )


class VolnaSim:
    """Shallow-water tsunami solver on a triangular coastal mesh.

    The paper runs Volna in single precision only; ``dtype`` defaults to
    ``np.float32`` accordingly (``float64`` works too and is what the
    equivalence tests use for tight tolerances).
    """

    def __init__(
        self,
        mesh: Optional[UnstructuredMesh] = None,
        dtype=np.float32,
        runtime: Optional[Runtime] = None,
        scenario: CoastalScenario = DEFAULT_SCENARIO,
        gravity: float = GRAVITY,
        cfl: float = CFL,
        chained: bool = True,
        tiling=None,
    ) -> None:
        #: The run happens on a locality-friendly *internal* numbering
        #: (``self.mesh``, ``self.state``); ``q`` / ``total_mass`` /
        #: ``max_eta`` answer in the caller's.
        self._numbering = localize(
            mesh
            if mesh is not None
            else make_tri_mesh(
                32, 24, scenario.extent_x, scenario.extent_y
            )
        )
        self.mesh = self._numbering.mesh
        #: What was renumbered, how, and each map's gather span before
        #: and after (:class:`repro.mesh.renumber.Localization.report`).
        self.numbering = self._numbering.report
        self.dtype = np.dtype(dtype)
        self.runtime = runtime
        self.scenario = scenario
        self.chained = bool(chained)
        if tiling is not None and not self.chained:
            raise ValueError(
                "tiling requires chained=True (sparse tiling lowers a "
                "traced loop chain; eager dispatch has no chain to tile)"
            )
        #: Sparse-tiling request forwarded to ``runtime.chain(tiling=...)``.
        self.tiling = tiling
        self.kernels: Dict[str, object] = make_kernels(gravity, cfl)
        self.state = self._init_state()
        self.time = 0.0
        self.steps_run = 0
        self.dt_history: List[float] = []

    def _runtime(self) -> Runtime:
        from ...core.runtime import default_runtime

        return self.runtime if self.runtime is not None else default_runtime()

    # ------------------------------------------------------------------
    def _init_state(self) -> VolnaState:
        m = self.mesh
        q0 = initial_state(m.cell_centroids(), self.scenario, self.dtype)
        # Allocate under the runtime's preferred data layout (AoS/SoA).
        with dat_layout(getattr(self.runtime, "layout", None)):
            return self._make_state(m, q0)

    def _make_state(self, m, q0) -> VolnaState:
        return VolnaState(
            q=Dat(m.cells, 4, q0, self.dtype, name="q"),
            q_old=Dat(m.cells, 4, dtype=self.dtype, name="q_old"),
            q_mid=Dat(m.cells, 4, dtype=self.dtype, name="q_mid"),
            q_out=Dat(m.cells, 4, dtype=self.dtype, name="q_out"),
            rhs=Dat(m.cells, 4, dtype=self.dtype, name="rhs"),
            flux=Dat(m.edges, 4, dtype=self.dtype, name="flux"),
            speed=Dat(m.edges, 2, dtype=self.dtype, name="speed"),
            geom=Dat(m.edges, 4, edge_geometry(m, self.dtype),
                     self.dtype, name="geom"),
            vol=Dat(m.cells, 1, cell_areas(m).reshape(-1, 1),
                    self.dtype, name="vol"),
            dt=Global(1, 0.0, self.dtype, name="dt"),
            dt_used=Global(1, 0.0, self.dtype, name="dt_used"),
        )

    # ------------------------------------------------------------------
    def _loop_args(self, q_in: Dat) -> Dict[str, tuple]:
        """Loop signatures for one stage; memoized per ``q_in`` Dat
        (stage 1 reads ``q``, stage 2 reads ``q_mid`` — two entries)."""
        cache = getattr(self, "_loop_args_cache", None)
        if cache is None:
            cache = self._loop_args_cache = {}
        cached = cache.get(q_in)
        if cached is not None:
            return cached
        m, s = self.mesh, self.state
        e2c = m.map("edge2cell")
        c2e = m.map("cell2edge")
        cache[q_in] = {
            "compute_flux": (
                m.edges,
                arg_dat(s.geom, IDX_ID, None, READ),
                arg_dat(q_in, 0, e2c, READ),
                arg_dat(q_in, 1, e2c, READ),
                arg_dat(s.flux, IDX_ID, None, WRITE),
                arg_dat(s.speed, IDX_ID, None, WRITE),
            ),
            "numerical_flux": (
                m.cells,
                arg_dat(s.vol, IDX_ID, None, READ),
                arg_dat(s.speed, IDX_ALL, c2e, READ),
                arg_dat(s.rhs, IDX_ID, None, WRITE),
                arg_gbl(s.dt, MIN),
            ),
            "space_disc": (
                m.edges,
                arg_dat(s.flux, IDX_ID, None, READ),
                arg_dat(s.geom, IDX_ID, None, READ),
                arg_dat(q_in, 0, e2c, READ),
                arg_dat(q_in, 1, e2c, READ),
                arg_dat(s.vol, 0, e2c, READ),
                arg_dat(s.vol, 1, e2c, READ),
                arg_dat(s.rhs, 0, e2c, INC),
                arg_dat(s.rhs, 1, e2c, INC),
            ),
            "RK_1": (
                m.cells,
                arg_dat(s.q, IDX_ID, None, READ),
                arg_dat(s.rhs, IDX_ID, None, READ),
                arg_dat(s.q_old, IDX_ID, None, WRITE),
                arg_dat(s.q_mid, IDX_ID, None, WRITE),
                arg_gbl(s.dt_used, READ),
            ),
            "RK_2": (
                m.cells,
                arg_dat(s.q_old, IDX_ID, None, READ),
                arg_dat(s.q_mid, IDX_ID, None, READ),
                arg_dat(s.rhs, IDX_ID, None, READ),
                arg_dat(s.q, IDX_ID, None, WRITE),
                arg_gbl(s.dt_used, READ),
            ),
            "sim_1": (
                m.cells,
                arg_dat(s.q, IDX_ID, None, READ),
                arg_dat(s.q_out, IDX_ID, None, WRITE),
            ),
        }
        return cache[q_in]

    def _run_loop(self, name: str, q_in: Dat) -> None:
        set_, *args = self._loop_args(q_in)[name]
        par_loop(self.kernels[name], set_, *args, runtime=self.runtime)

    # ------------------------------------------------------------------
    def step(self) -> float:
        """One SSP-RK2 step with adaptive CFL time step; returns dt.

        In chained mode (the default) the step body records into a
        deferred loop chain; the mid-step ``dt`` read (the CFL-reduced
        time step feeds the RK kernels) and the final ``dt_used`` read
        are natural flush points through the Globals' read barriers, so
        one step flushes as two batches — loops 1–3 (flux / dt / RHS)
        and loops 4–9 (the RK updates and snapshot).
        """
        if self.chained:
            with self._runtime().chain(tiling=self.tiling):
                return self._step_body()
        return self._step_body()

    def _step_body(self) -> float:
        s = self.state
        # Stage 1: fluxes at q, dt reduction, RHS.
        s.dt.value = np.finfo(self.dtype).max
        self._run_loop("compute_flux", s.q)
        self._run_loop("numerical_flux", s.q)
        self._run_loop("space_disc", s.q)
        s.dt_used.value = s.dt.value
        self._run_loop("RK_1", s.q)

        # Stage 2: fluxes at the midpoint state, same dt.
        self._run_loop("compute_flux", s.q_mid)
        self._run_loop("numerical_flux", s.q_mid)
        self._run_loop("space_disc", s.q_mid)
        self._run_loop("RK_2", s.q_mid)

        self._run_loop("sim_1", s.q)
        dt = float(s.dt_used.value)
        self.time += dt
        self.steps_run += 1
        self.dt_history.append(dt)
        return dt

    def run(self, nsteps: int) -> float:
        """Run ``nsteps`` steps; returns simulated time."""
        for _ in range(nsteps):
            self.step()
        return self.time

    # ------------------------------------------------------------------
    @property
    def q(self) -> np.ndarray:
        """Current state ``(n_cells, 4)`` in the caller's cell numbering
        (a view unless cells were renumbered)."""
        return self._numbering.to_caller(
            "cells", self.state.q.data[: self.mesh.cells.size]
        )

    def total_mass(self) -> float:
        """Water volume — conserved exactly by the FV scheme (test hook).
        Summed in the caller's cell order."""
        vol = self._numbering.to_caller(
            "cells", self.state.vol.data[: self.mesh.cells.size, 0]
        )
        h = self.q[:, 0]
        return float((vol * h).sum())

    def max_eta(self) -> float:
        """Peak free-surface elevation above sea level."""
        q = self.q
        return float((q[:, 0] + q[:, 3]).max())
