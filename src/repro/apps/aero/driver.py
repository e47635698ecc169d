"""Aero application driver: nonlinear potential flow by FEM + CG.

The third canonical OP2-family workload (next to Airfoil and Volna):
where the finite-volume apps stream edge fluxes, aero *assembles a
sparse operator* — each Picard iteration evaluates the isentropic
density from the current potential, assembles the density-weighted
stiffness matrix through a :class:`~repro.core.mat.Mat` argument,
builds the Dirichlet-lifted right-hand side, and solves the linear
system with the par_loop conjugate-gradient solver
(:mod:`repro.solve`).

One Picard iteration (= one :meth:`AeroSim.step`)::

    rho_calc   cells  phi -> rho            (gather, direct write)
    res_calc   cells  x, rho -> Mat(INC)    (element -> matrix scatter)
    assemble   host   staged -> CSR         (canonical fold, Mat.assemble)
    spmv       nodes  K lift -> kg          (padded-row gather SpMV)
    rhs_calc   nodes  kg, lift, bc -> b
    dirichlet  host   K rows/cols -> identity
    cg         nodes  ~10-100 solver loops  (repro.solve.cg)

Everything mesh-sized is a parallel loop; the two host steps are the
deterministic folds that make the assembled CSR and the solution
*bitwise identical* across every backend, data layout and execution
mode ({eager, chained, tiled}) — the aero acceptance property.

The matrix-free path (``operator="matfree"``) replaces the middle of
that pipeline: no staging scatter, no host folds, no assembled values.
A :class:`~repro.solve.matfree.MatFreeOperator` re-derives the operator
action from static per-element quadrature tables and the current
density, so one Picard step becomes::

    rho_calc    cells  phi -> rho
    mf_coeffs   nodes  rho, tables -> action coefficients (raw + BC)
    mf_kg       nodes  raw coeffs x lift -> kg
    rhs_calc    nodes  kg, lift, bc -> b
    apply_bc    nodes  far-field pin
    cg          nodes  matfree A·p iterations

— every stage a par_loop, so the whole pre-solve phase traces into a
single unbroken chain.  The coefficient kernel folds element
contributions in ``Mat.assemble``'s canonical order, which keeps phi
and rho bitwise identical to the assembled oracle; ``operator="auto"``
(the default) runs matfree on a float64 sim under ``Runtime("auto")``
and the assembled path on every explicit backend.
"""

from __future__ import annotations

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
    Mat,
    Runtime,
    arg_dat,
    arg_mat,
    dat_layout,
    par_loop,
)
from ...mesh import UnstructuredMesh, make_airfoil_mesh
from ...mesh.renumber import localize
from ...solve import CGResult, MatFreeOperator, MatOperator, cg
from .constants import AeroConstants, DEFAULT_CONSTANTS
from .kernels import element_quadrature_tables, make_kernels

#: Valid values of the ``operator=`` knob.
OPERATOR_MODES = ("auto", "assembled", "matfree")


@dataclass
class AeroState:
    """All Dats (and the Mat) of one aero problem instance."""

    p_x: Dat
    p_phi: Dat
    p_rho: Dat
    p_lift: Dat
    p_bc: Dat
    p_kg: Dat
    p_b: Dat
    mat: Mat = field(default=None)  # type: ignore[assignment]


class AeroSim:
    """Nonlinear 2-D potential-flow FEM solver on the airfoil O-mesh.

    Parameters
    ----------
    mesh:
        An airfoil-style quad mesh (defaults to a small generated
        O-mesh).  Far-field boundary nodes (``bound == 2`` bedges)
        carry the Dirichlet data; the wall is a natural (zero normal
        flow) boundary.
    dtype:
        ``np.float64`` or ``np.float32``.
    runtime:
        Execution configuration; module default when omitted.  The
        state (including the matrix staging) allocates under the
        runtime's preferred data layout.
    constants:
        Flow configuration (Mach, angle of attack, gamma).
    chained:
        ``True`` (default) traces the assembly phase and each CG
        iteration as deferred loop chains; ``False`` dispatches every
        ``par_loop`` eagerly.  Bitwise identical either way.
    tiling:
        Sparse-tiling request forwarded to ``runtime.chain(tiling=...)``
        (requires ``chained=True``); bitwise identical too.
    cg_tol, cg_maxiter:
        Linear-solve controls for each Picard iteration.
    operator:
        Operator realization for the CG solve: ``"assembled"`` stages
        and folds the CSR matrix every Picard step (the bitwise
        oracle), ``"matfree"`` re-derives the operator action on the
        fly (bitwise identical phi/rho, ``Mat.assemble`` never called),
        ``"auto"`` (default) is matfree on a float64 sim under
        ``Runtime("auto")`` and assembled otherwise.  The matfree
        path requires ``float64`` (its quadrature tables replicate the
        float64 assembly arithmetic).
    """

    def __init__(
        self,
        mesh: Optional[UnstructuredMesh] = None,
        dtype=np.float64,
        runtime: Optional[Runtime] = None,
        constants: AeroConstants = DEFAULT_CONSTANTS,
        chained: bool = True,
        tiling=None,
        cg_tol: float = 1e-10,
        cg_maxiter: int = 200,
        operator: str = "auto",
    ) -> None:
        #: The run happens on a locality-friendly *internal* numbering
        #: (``self.mesh``, ``self.state``, ``self.bc_mask``); ``phi`` /
        #: ``rho`` answer in the caller's.
        self._numbering = localize(
            mesh if mesh is not None else make_airfoil_mesh(24, 12)
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
        self.cg_tol = float(cg_tol)
        self.cg_maxiter = int(cg_maxiter)
        if operator not in OPERATOR_MODES:
            raise ValueError(
                f"operator must be one of {OPERATOR_MODES}, "
                f"got {operator!r}"
            )
        #: Whether the matfree realization is available: the
        #: quadrature tables replicate float64 assembly arithmetic.
        self.operator_axis = np.dtype(dtype) == np.float64
        if operator == "matfree" and not self.operator_axis:
            raise ValueError(
                "operator='matfree' requires dtype=float64 (the "
                "quadrature tables replicate the float64 assembly "
                "arithmetic bit for bit)"
            )
        if operator == "auto":
            operator = ("matfree" if self.operator_axis
                        and self._runtime().auto else "assembled")
        #: The realization steps execute with.
        self.operator_mode = operator
        self.kernels: Dict[str, object] = dict(make_kernels(constants))
        self.state = self._init_state()
        #: Padded-row SpMV operator over the assembled matrix (built
        #: once — the sparsity is pure connectivity).
        self.operator = MatOperator(self.state.mat)
        self.kernels["spmv"] = self.operator.kernel
        #: Matrix-free twin over the same sparsity (matfree mode only).
        self.matfree = (self._make_matfree()
                        if self.operator_mode == "matfree" else None)
        self.cg_results: List[CGResult] = []
        self.delta_history: List[float] = []
        self.iterations_run = 0

    def _runtime(self) -> Runtime:
        from ...core.runtime import default_runtime

        return self.runtime if self.runtime is not None else default_runtime()

    def _make_matfree(self) -> MatFreeOperator:
        """Build the matrix-free twin of the assembled operator.

        Static per-element quadrature tables come from the float64 mesh
        coordinates (matching ``res_calc``'s arithmetic exactly), once
        per internal mesh; the operator re-reads ``p_rho`` on every
        coefficient refresh, so Picard updates flow through with no
        rebuild.
        """
        m, s = self.mesh, self.state
        quad = m.derived("aero_quadrature", lambda: element_quadrature_tables(
            np.asarray(m.coords, dtype=np.float64)[m.map("cell2node").values]
        ))
        with dat_layout(getattr(self.runtime, "layout", None)):
            op = MatFreeOperator(s.mat, quad, s.p_rho, s.p_bc)
        self.kernels["mf_coeffs"] = op.kernels["coeffs"]
        self.kernels["mf_kg"] = op.kernels["apply"]
        return op

    # ------------------------------------------------------------------
    def _init_state(self) -> AeroState:
        m = self.mesh
        dx, dy = self.constants.direction
        #: Far-field (Dirichlet) node mask from the boundary-edge flags.
        bc_mask = np.zeros(m.nodes.size, dtype=bool)
        far = m.meta["bound"] == 2
        bc_mask[np.unique(m.map("bedge2node").values[far])] = True
        self.bc_mask = bc_mask
        # Free-stream potential: the Dirichlet data on far-field nodes
        # and the initial guess everywhere.
        phi_inf = m.coords[:, 0] * dx + m.coords[:, 1] * dy
        lift = np.where(bc_mask, phi_inf, 0.0)
        with dat_layout(getattr(self.runtime, "layout", None)):
            state = AeroState(
                p_x=Dat(m.nodes, 2, m.coords, self.dtype, name="p_x"),
                p_phi=Dat(m.nodes, 1, phi_inf, self.dtype, name="p_phi"),
                p_rho=Dat(m.cells, 1, 1.0, self.dtype, name="p_rho"),
                p_lift=Dat(m.nodes, 1, lift, self.dtype, name="p_lift"),
                p_bc=Dat(
                    m.nodes, 1, bc_mask.astype(float), self.dtype,
                    name="p_bc",
                ),
                p_kg=Dat(m.nodes, 1, dtype=self.dtype, name="p_kg"),
                p_b=Dat(m.nodes, 1, dtype=self.dtype, name="p_b"),
            )
            c2n = m.map("cell2node")
            state.mat = Mat(c2n, c2n, dtype=self.dtype, name="K")
        return state

    # ------------------------------------------------------------------
    def _loop_args(self) -> Dict[str, tuple]:
        """The aero parallel-loop signatures (set, args...), memoized."""
        cached = getattr(self, "_loop_args_cache", None)
        if cached is not None:
            return cached
        m, s = self.mesh, self.state
        c2n = m.map("cell2node")
        self._loop_args_cache = {
            "rho_calc": (
                m.cells,
                arg_dat(s.p_x, IDX_ALL, c2n, READ),
                arg_dat(s.p_phi, IDX_ALL, c2n, READ),
                arg_dat(s.p_rho, IDX_ID, None, WRITE),
            ),
            "res_calc": (
                m.cells,
                arg_dat(s.p_x, IDX_ALL, c2n, READ),
                arg_dat(s.p_rho, IDX_ID, None, READ),
                arg_mat(s.mat, INC),
            ),
            "rhs_calc": (
                m.nodes,
                arg_dat(s.p_kg, IDX_ID, None, READ),
                arg_dat(s.p_lift, IDX_ID, None, READ),
                arg_dat(s.p_bc, IDX_ID, None, READ),
                arg_dat(s.p_b, IDX_ID, None, WRITE),
            ),
            "apply_bc": (
                m.nodes,
                arg_dat(s.p_lift, IDX_ID, None, READ),
                arg_dat(s.p_bc, IDX_ID, None, READ),
                arg_dat(s.p_phi, IDX_ID, None, RW),
            ),
        }
        if self.matfree is not None:
            self._loop_args_cache.update(
                mf_coeffs=self.matfree.coeffs_args(),
                mf_kg=self.matfree.apply_args(s.p_lift, s.p_kg, raw=True),
            )
        return self._loop_args_cache

    def _run_loop(self, name: str) -> None:
        set_, *args = self._loop_args()[name]
        par_loop(self.kernels[name], set_, *args, runtime=self.runtime)

    # ------------------------------------------------------------------
    def _assemble_system(self) -> None:
        """Density, stiffness, RHS — the pre-solve half of one step.

        The host folds inside (``Mat.assemble``, ``set_dirichlet``) read
        the Dats they depend on, which flushes any pending chain at
        exactly the right points.
        """
        s = self.state
        self._run_loop("rho_calc")
        s.mat.zero()
        self._run_loop("res_calc")
        s.mat.assemble()
        # RHS from the Dirichlet lift *before* the rows/cols are
        # eliminated: b_free = -(K g)_free, b_bc = g.
        self.operator.apply(s.p_lift, s.p_kg, runtime=self.runtime)
        self._run_loop("rhs_calc")
        s.mat.set_dirichlet(self.bc_mask)
        self._run_loop("apply_bc")

    def _matfree_system(self) -> None:
        """The matrix-free pre-solve half of one step.

        Pure par_loops — no staging, no host folds, ``Mat.assemble``
        never called — so under chained dispatch the entire phase
        traces into one unbroken chain that only flushes when CG first
        reads a scalar.
        """
        self._run_loop("rho_calc")
        self._run_loop("mf_coeffs")
        # RHS from the Dirichlet lift through the *raw* operator
        # (pre-elimination coupling): b_free = -(K g)_free, b_bc = g.
        self._run_loop("mf_kg")
        self._run_loop("rhs_calc")
        self._run_loop("apply_bc")

    def step(self) -> float:
        """One Picard iteration; returns ``max |phi_new - phi_old|``."""
        rt = self._runtime()
        s = self.state
        matfree = self.operator_mode == "matfree"
        build = self._matfree_system if matfree else self._assemble_system
        phi_old = s.p_phi.data[: self.mesh.nodes.size, 0].copy()
        if self.chained:
            with rt.chain(tiling=self.tiling):
                build()
        else:
            build()
        result = cg(
            self.matfree if matfree else self.operator,
            s.p_b, s.p_phi, runtime=self.runtime,
            tol=self.cg_tol, maxiter=self.cg_maxiter,
            chained=self.chained, tiling=self.tiling,
        )
        self.cg_results.append(result)
        delta = float(
            np.max(np.abs(s.p_phi.data[: self.mesh.nodes.size, 0] - phi_old))
        )
        self.delta_history.append(delta)
        self.iterations_run += 1
        return delta

    def run(self, niter: int) -> float:
        """Run ``niter`` Picard iterations; returns the final delta."""
        delta = float("nan")
        for _ in range(niter):
            delta = self.step()
        return delta

    def solve(
        self, picard: int = 3, delta_tol: float = 0.0
    ) -> "AeroResult":
        """Run Picard iterations until ``delta <= delta_tol`` (or the
        iteration budget runs out); returns the convergence record."""
        delta = float("inf")
        for _ in range(picard):
            delta = self.step()
            if delta <= delta_tol:
                break
        return AeroResult(
            picard_iterations=self.iterations_run,
            delta=delta,
            cg_results=list(self.cg_results),
            residual=self.cg_results[-1].residual if self.cg_results
            else float("nan"),
            converged=bool(
                self.cg_results and self.cg_results[-1].converged
            ),
        )

    # ------------------------------------------------------------------
    @property
    def phi(self) -> np.ndarray:
        """Current velocity potential, ``(n_nodes,)``, in the caller's
        node numbering."""
        return self._numbering.to_caller(
            "nodes", self.state.p_phi.data[: self.mesh.nodes.size, 0]
        )

    @property
    def rho(self) -> np.ndarray:
        """Current cell density, ``(n_cells,)``, in the caller's cell
        numbering."""
        return self._numbering.to_caller(
            "cells", self.state.p_rho.data[: self.mesh.cells.size, 0]
        )


@dataclass
class AeroResult:
    """Convergence record of one :meth:`AeroSim.solve`."""

    picard_iterations: int
    delta: float
    cg_results: List[CGResult]
    residual: float
    converged: bool
