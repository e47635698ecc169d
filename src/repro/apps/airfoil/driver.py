"""Airfoil application driver: the OP2 benchmark's main program.

One iteration = save the state, then two Runge-Kutta-like sweeps of
``adt_calc`` → ``res_calc`` → ``bres_calc`` → ``update`` (the original
benchmark's predictor/corrector), with the RMS residual reduced every
iteration — the exact loop nest whose per-kernel timings Tables V-VIII
break down.

By default the time step executes as a deferred **loop chain**
(``core/chain.py``): the nine ``par_loop`` calls of one iteration are
recorded and flushed as one pre-analyzed, pre-fused schedule (the RMS
read at the end of the step is the flush point, through the Global's
read barrier).  ``chained=False`` keeps the classic eager dispatch;
results are bitwise identical either way — the equivalence tests sweep
both modes over the full backend × layout matrix.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, List, Optional

import numpy as np

from ...core import (
    IDX_ALL,
    IDX_ID,
    INC,
    READ,
    RW,
    WRITE,
    Dat,
    Global,
    Runtime,
    arg_dat,
    arg_gbl,
    dat_layout,
    par_loop,
)
from ...mesh import UnstructuredMesh, make_airfoil_mesh
from ...mesh.renumber import localize
from .constants import AirfoilConstants, DEFAULT_CONSTANTS
from .kernels import make_kernels


@dataclass
class AirfoilState:
    """All Dats of one Airfoil problem instance."""

    p_x: Dat
    p_q: Dat
    p_qold: Dat
    p_adt: Dat
    p_res: Dat
    p_bound: Dat
    rms: Global = field(default=None)  # type: ignore[assignment]


class AirfoilSim:
    """Non-linear 2-D inviscid airfoil solver on an unstructured mesh.

    Parameters
    ----------
    mesh:
        An airfoil-style mesh (defaults to a small generated O-mesh).
        The sim runs on :func:`~repro.mesh.renumber.localize`'s internal
        numbering of it — ``sim.mesh`` and ``sim.state`` are in that
        numbering, ``sim.q`` in the caller's; ``sim.numbering`` reports
        what moved.
    dtype:
        ``np.float64`` (paper DP) or ``np.float32`` (paper SP).
    runtime:
        Execution configuration; module default when omitted.
    constants:
        Flow constants (Mach, angle of attack, CFL, dissipation).
    chained:
        ``True`` (default) traces each time step as a deferred loop
        chain; ``False`` dispatches every ``par_loop`` eagerly.
    tiling:
        Sparse-tiling request forwarded to ``runtime.chain(tiling=...)``
        (``None`` = fused loop-major execution, ``"auto"`` or a seed
        tile size = tile-major execution; requires ``chained=True``).
        Results are bitwise identical in every mode.
    """

    def __init__(
        self,
        mesh: Optional[UnstructuredMesh] = None,
        dtype=np.float64,
        runtime: Optional[Runtime] = None,
        constants: AirfoilConstants = DEFAULT_CONSTANTS,
        chained: bool = True,
        tiling=None,
    ) -> None:
        #: The run happens on a locality-friendly *internal* numbering
        #: (``self.mesh``); ``q`` translates back to the caller's.
        self._numbering = localize(
            mesh if mesh is not None else make_airfoil_mesh(48, 24)
        )
        self.mesh = self._numbering.mesh
        #: What was renumbered, how, and each map's gather span before
        #: and after (:class:`repro.mesh.renumber.Localization.report`).
        self.numbering = self._numbering.report
        self.dtype = np.dtype(dtype)
        self.runtime = runtime
        self.constants = constants
        self.chained = bool(chained)
        if tiling is not None and not self.chained:
            raise ValueError(
                "tiling requires chained=True (sparse tiling lowers a "
                "traced loop chain; eager dispatch has no chain to tile)"
            )
        self.tiling = tiling
        self.kernels: Dict[str, object] = make_kernels(constants)
        self.state = self._init_state()
        self.rms_history: List[float] = []
        self.iterations_run = 0

    def _runtime(self) -> Runtime:
        from ...core.runtime import default_runtime

        return self.runtime if self.runtime is not None else default_runtime()

    # ------------------------------------------------------------------
    def _init_state(self) -> AirfoilState:
        m = self.mesh
        qinf = self.constants.qinf(self.dtype)
        q0 = np.broadcast_to(qinf, (m.cells.size, 4))
        # Allocate under the runtime's preferred data layout (AoS/SoA) so
        # layout is a Runtime knob rather than per-Dat boilerplate.
        with dat_layout(getattr(self.runtime, "layout", None)):
            return self._make_state(m, q0)

    def _make_state(self, m, q0) -> AirfoilState:
        return AirfoilState(
            p_x=Dat(m.nodes, 2, m.coords, self.dtype, name="p_x"),
            p_q=Dat(m.cells, 4, q0, self.dtype, name="p_q"),
            p_qold=Dat(m.cells, 4, dtype=self.dtype, name="p_qold"),
            p_adt=Dat(m.cells, 1, dtype=self.dtype, name="p_adt"),
            p_res=Dat(m.cells, 4, dtype=self.dtype, name="p_res"),
            p_bound=Dat(
                m.bedges, 1, m.meta["bound"].reshape(-1, 1),
                np.int64, name="p_bound",
            ),
            rms=Global(1, 0.0, self.dtype, name="rms"),
        )

    # ------------------------------------------------------------------
    def _loop_args(self) -> Dict[str, tuple]:
        """The five parallel-loop signatures (set, args...).

        Args are immutable descriptors over fixed state Dats, so the
        dict is built once and memoized — rebuilding ~45 Arg objects
        per loop call was pure per-step overhead for both execution
        modes.
        """
        cached = getattr(self, "_loop_args_cache", None)
        if cached is not None:
            return cached
        m, s = self.mesh, self.state
        e2n = m.map("edge2node")
        e2c = m.map("edge2cell")
        b2n = m.map("bedge2node")
        b2c = m.map("bedge2cell")
        c2n = m.map("cell2node")
        self._loop_args_cache = {
            "save_soln": (
                m.cells,
                arg_dat(s.p_q, IDX_ID, None, READ),
                arg_dat(s.p_qold, IDX_ID, None, WRITE),
            ),
            "adt_calc": (
                m.cells,
                arg_dat(s.p_x, IDX_ALL, c2n, READ),
                arg_dat(s.p_q, IDX_ID, None, READ),
                arg_dat(s.p_adt, IDX_ID, None, WRITE),
            ),
            "res_calc": (
                m.edges,
                arg_dat(s.p_x, 0, e2n, READ),
                arg_dat(s.p_x, 1, e2n, READ),
                arg_dat(s.p_q, 0, e2c, READ),
                arg_dat(s.p_q, 1, e2c, READ),
                arg_dat(s.p_adt, 0, e2c, READ),
                arg_dat(s.p_adt, 1, e2c, READ),
                arg_dat(s.p_res, 0, e2c, INC),
                arg_dat(s.p_res, 1, e2c, INC),
            ),
            "bres_calc": (
                m.bedges,
                arg_dat(s.p_x, 0, b2n, READ),
                arg_dat(s.p_x, 1, b2n, READ),
                arg_dat(s.p_q, 0, b2c, READ),
                arg_dat(s.p_adt, 0, b2c, READ),
                arg_dat(s.p_res, 0, b2c, INC),
                arg_dat(s.p_bound, IDX_ID, None, READ),
            ),
            "update": (
                m.cells,
                arg_dat(s.p_qold, IDX_ID, None, READ),
                arg_dat(s.p_q, IDX_ID, None, WRITE),
                arg_dat(s.p_res, IDX_ID, None, RW),
                arg_dat(s.p_adt, IDX_ID, None, READ),
                arg_gbl(s.rms, INC),
            ),
        }
        return self._loop_args_cache

    def _run_loop(self, name: str) -> None:
        set_, *args = self._loop_args()[name]
        par_loop(self.kernels[name], set_, *args, runtime=self.runtime)

    # ------------------------------------------------------------------
    def step(self) -> float:
        """One outer iteration (two RK sweeps); returns the RMS residual.

        In chained mode the whole 9-loop body records into one trace;
        the ``rms.value`` read at the end is the flush point (its read
        barrier executes the pending loops), so the chain covers the
        entire step — steady-state iterations replay the memoized
        schedule from the runtime's chain cache.
        """
        if self.chained:
            with self._runtime().chain(tiling=self.tiling):
                return self._step_body()
        return self._step_body()

    def _step_body(self) -> float:
        self._run_loop("save_soln")
        self.state.rms.value = 0.0
        for _ in range(2):
            self._run_loop("adt_calc")
            self._run_loop("res_calc")
            self._run_loop("bres_calc")
            self._run_loop("update")
        self.iterations_run += 1
        rms = math.sqrt(float(self.state.rms.value) / self.mesh.cells.size)
        self.rms_history.append(rms)
        return rms

    def run(self, niter: int) -> float:
        """Run ``niter`` iterations; returns the final RMS residual."""
        rms = float("nan")
        for _ in range(niter):
            rms = self.step()
        return rms

    # ------------------------------------------------------------------
    @property
    def q(self) -> np.ndarray:
        """Current conservative state, ``(n_cells, 4)``, in the
        caller's cell numbering (a view unless cells were renumbered)."""
        return self._numbering.to_caller(
            "cells", self.state.p_q.data[: self.mesh.cells.size]
        )
