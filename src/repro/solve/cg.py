"""Conjugate gradients over par_loops (the aero pipeline's solve stage).

The solver is *matrix-free friendly*: :func:`cg` takes any operator
object exposing ``apply(x, y, runtime=...)`` (compute ``y = A x`` with
parallel loops) plus the right-hand side and initial guess as ``Dat``\\ s.
:class:`MatOperator` adapts an assembled :class:`~repro.core.mat.Mat`
through its padded fixed-arity row view, making SpMV one gather-heavy
``par_loop`` over rows; a custom operator can instead apply the action
element-wise without ever materializing the matrix.

A solve is a loop chain with a back edge
----------------------------------------
One CG iteration is one *trip*: ``operator.apply``, the ``p.Ap`` loop,
``cg_update``, ``cg_direction`` and one scalar loop (``cg_rotate``) —
five par_loops and no host code.  Under ``chained=True`` the trip is
traced **once** (``runtime.chain(repeat=Repeat(maxiter, until=flag,
record=resid))``) and replayed until the flag is raised: by the native
backend inside one C call, by every other backend trip by trip from the
compiled chain, and — when the operator does host work, so the trip
cannot be captured — by calling the trip once per iteration.
``chained=False`` runs the very same trip eagerly in a Python loop.

Determinism contract
--------------------
Every mesh-sized operation is a par_loop over race-free (direct or
gather-only) loops, so per-element arithmetic is bitwise identical on
every backend, layout, and execution mode.  The reductions — the dot
products — are *in-chain left folds*: ``INC`` Globals incremented once
per element, which every backend folds in ascending element order
(``backends.base.fold_lanes``), i.e. the sum the sequential interpreter
forms — not one host ``np.dot`` (whose blocked BLAS sum differs from it
by rounding).  ``alpha``/``beta`` are IEEE quotients of those sums,
formed in-kernel.  ``x``, ``history`` and ``iterations`` are therefore
bitwise equal across backends, layouts, dispatch modes, units and
processes; against a BLAS-summed CG they agree to rounding only.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass, field
from typing import List, NamedTuple, Optional

import numpy as np

from ..core.access import (
    IDX_ALL,
    IDX_ID,
    INC,
    READ,
    RW,
    WRITE,
    arg_dat,
    arg_gbl,
)
from ..core.chain import Repeat
from ..core.dat import Dat, dat_layout
from ..core.glob import Global
from ..core.loop import par_loop
from ..core.mat import Mat
from ..core.runtime import Runtime, default_runtime
from ..core.set import Set
from .kernels import make_cg_kernels, make_spmv_kernel


class MatOperator:
    """Apply an assembled :class:`~repro.core.mat.Mat` as a par_loop.

    Wraps the matrix's padded row view (``row_slots``/``row_cols``) and
    a width-specialized SpMV kernel; ``apply`` reads whatever the CSR
    value Dat currently holds, so re-assembly and Dirichlet edits need
    no new operator.
    """

    def __init__(self, mat: Mat) -> None:
        self.mat = mat
        self.row_slots, self.row_cols = mat.solver_view()
        self.kernel = make_spmv_kernel(self.row_slots.arity)
        self.set = mat.row_set

    def apply(self, x: Dat, y: Dat, runtime: Optional[Runtime] = None) -> None:
        """``y = A x`` — one gather-gather-dot ``par_loop`` over rows."""
        par_loop(
            self.kernel, self.set,
            arg_dat(self.mat.values, IDX_ALL, self.row_slots, READ),
            arg_dat(x, IDX_ALL, self.row_cols, READ),
            arg_dat(y, IDX_ID, None, WRITE),
            runtime=runtime,
        )


@dataclass
class CGResult:
    """Outcome of one :func:`cg` solve."""

    iterations: int
    residual: float
    converged: bool
    #: ||r||_2 after every iteration (entry 0 is the initial residual).
    history: List[float] = field(default_factory=list)


#: The iteration set of the solver's scalar loops.
_ONE = Set(1, "cg_scalar")


class _Workspace(NamedTuple):
    """Solver scratch: the r/p/Ap Dats and the scalars of the trip."""

    r: Dat
    p: Dat
    ap: Dat
    rs: Global       # r.r of the current iterate
    rs_new: Global   # r.r accumulator (zero between trips)
    pap: Global      # p.Ap accumulator (zero between trips)
    resid: Global    # ||r||_2
    tol: Global
    flag: Global     # 0 running, 1 converged, 2 p.Ap <= 0


#: Memoized per-(set, dtype, layout) solver scratch: consecutive solves
#: allocate nothing and flush their chains over the same Dats, so each
#: chain's bound view (``Runtime.compiled_chain_for``) is rebound only
#: when ``b`` or ``x`` change.  Bounded LRU; cg() is not reentrant over
#: the same (set, dtype, layout), which nothing in this single-threaded
#: library does.
_WORKSPACES: "OrderedDict[tuple, _Workspace]" = OrderedDict()
_MAX_WORKSPACES = 8


def _workspace(set_, dtype, layout) -> _Workspace:
    from ..core.dat import get_default_layout

    effective = layout if layout is not None else get_default_layout()
    key = (set_._uid, np.dtype(dtype).str, effective)
    ws = _WORKSPACES.get(key)
    if ws is None:
        with dat_layout(layout):
            ws = _Workspace(
                Dat(set_, 1, dtype=dtype, name="cg_r"),
                Dat(set_, 1, dtype=dtype, name="cg_p"),
                Dat(set_, 1, dtype=dtype, name="cg_ap"),
                *(Global(1, 0.0, dtype, name=f"cg_{name}")
                  for name in _Workspace._fields[3:]),
            )
        _WORKSPACES[key] = ws
        while len(_WORKSPACES) > _MAX_WORKSPACES:
            _WORKSPACES.popitem(last=False)
    else:
        _WORKSPACES.move_to_end(key)
    return ws


def cg(
    operator,
    b: Dat,
    x: Dat,
    runtime: Optional[Runtime] = None,
    tol: float = 1e-10,
    maxiter: int = 500,
    chained: bool = False,
    tiling=None,
) -> CGResult:
    """Solve ``A x = b`` by conjugate gradients, ``x`` as initial guess.

    Parameters
    ----------
    operator:
        Anything with ``apply(x, y, runtime=...)`` computing ``y = A x``
        via par_loops (e.g. :class:`MatOperator`, or a matrix-free
        element operator).  ``A`` must be symmetric positive definite on
        the solved subspace.
    b, x:
        Right-hand side and initial guess / solution (dim-1 Dats on the
        row set).  ``x`` is updated in place.
    tol:
        Absolute convergence threshold on ``||r||_2``.
    chained:
        Trace the solve as loop chains — the start-up, and one trip
        replayed through a back edge (module docstring); ``tiling``
        additionally lowers them through the sparse-tiling inspector.
        Results are bitwise identical in every mode.
    """
    rt = runtime if runtime is not None else default_runtime()
    if tiling is not None and not chained:
        raise ValueError("tiling requires chained=True (there is no chain "
                         "to tile under eager dispatch)")
    set_ = b.set
    k = make_cg_kernels()
    ws = _workspace(set_, b.dtype, getattr(rt, "layout", None))
    r, p, ap = ws.r, ws.p, ws.ap
    # One trip program serves every tolerance: tol is data.  The
    # accumulators start from zero whatever a failed solve left behind.
    ws.tol.value = tol
    ws.rs_new.value = 0.0

    def direct(dat, access):
        return arg_dat(dat, IDX_ID, None, access)

    def scalars(kernel):
        par_loop(
            kernel, _ONE,
            arg_gbl(ws.tol, READ), arg_gbl(ws.rs_new, RW),
            arg_gbl(ws.rs, RW), arg_gbl(ws.pap, RW),
            arg_gbl(ws.resid, WRITE), arg_gbl(ws.flag, WRITE),
            runtime=rt,
        )

    def start():
        operator.apply(x, ap, runtime=rt)
        par_loop(
            k["cg_init"], set_,
            direct(b, READ), direct(ap, READ),
            direct(r, WRITE), direct(p, WRITE), arg_gbl(ws.rs_new, INC),
            runtime=rt,
        )
        scalars(k["cg_begin"])

    def trip():
        operator.apply(p, ap, runtime=rt)
        par_loop(
            k["cg_pap"], set_,
            direct(p, READ), direct(ap, READ), arg_gbl(ws.pap, INC),
            runtime=rt,
        )
        par_loop(
            k["cg_update"], set_,
            arg_gbl(ws.rs, READ), arg_gbl(ws.pap, READ),
            direct(p, READ), direct(ap, READ),
            direct(x, RW), direct(r, RW), arg_gbl(ws.rs_new, INC),
            runtime=rt,
        )
        par_loop(
            k["cg_direction"], set_,
            arg_gbl(ws.rs_new, READ), arg_gbl(ws.rs, READ),
            direct(r, READ), direct(p, RW),
            runtime=rt,
        )
        scalars(k["cg_rotate"])

    if chained:
        with rt.chain(tiling=tiling):
            start()
    else:
        start()
    history = [float(ws.resid.value)]
    iterations = 0
    if not ws.flag.value and maxiter >= 1:
        if chained:
            solve = rt.chain(
                tiling=tiling,
                repeat=Repeat(maxiter, until=ws.flag, record=ws.resid),
            ).run(trip)
            iterations = solve.trips
            history.extend(float(v) for v in solve.recorded)
        else:
            while iterations < maxiter and not ws.flag.value:
                trip()
                iterations += 1
                history.append(float(ws.resid.value))
    if ws.flag.value == 2.0:
        raise ValueError(
            "cg: operator is not positive definite on this "
            f"subspace (p.Ap = {float(ws.pap.value)})"
        )
    return CGResult(iterations, history[-1], bool(ws.flag.value), history)
