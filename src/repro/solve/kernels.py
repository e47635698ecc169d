"""Solver kernels — scalar sources only, like every application kernel.

The batched forms are derived by :mod:`repro.kernelc`; nothing here is
hand-vectorized.  ``make_spmv_kernel`` closes over the padded row width
of one operator (:meth:`repro.core.mat.Mat.solver_view`), so the
generated vector kernel unrolls a fixed-length multiply-accumulate per
row — the ELLPACK SpMV shape SIMD hardware favours.
"""

from __future__ import annotations

from typing import Dict

import numpy as np

from ..core.kernel import Kernel, KernelInfo

#: Kernel objects are memoized (per width / singleton) so repeated
#: solves share one identity: the chain cache and the kernelc compile
#: cache both key on the Kernel object, and a fresh kernel per solve
#: would force a re-trace and re-compile every time.
_SPMV_KERNELS: Dict[int, Kernel] = {}
_CG_KERNELS: Dict[str, Kernel] = {}


def make_spmv_kernel(width: int) -> Kernel:
    """Padded fixed-width row SpMV kernel: ``y[row] = Σ_k a_k · x_k``.

    ``a`` is the row's padded CSR value gather, ``x`` the matching
    column gather (both ``(width, 1)`` vector arguments); padding slots
    carry a 0.0 value, so they contribute exactly nothing.  The
    accumulation order is the fixed ``k = 0..width-1`` sweep — per-row
    arithmetic is identical on every backend, which is what makes the
    CG iterate sequence bitwise reproducible.
    """
    if width < 1:
        raise ValueError(f"spmv row width must be >= 1, got {width}")
    cached = _SPMV_KERNELS.get(width)
    if cached is not None:
        return cached

    def spmv_row(a, x, y):
        acc = a[0][0] * x[0][0]
        for k in range(1, width):
            acc += a[k][0] * x[k][0]
        y[0] = acc

    kern = Kernel(
        f"spmv_w{width}",
        spmv_row,
        info=KernelInfo(
            flops=2 * width, description="Padded-row sparse matrix-vector"
        ),
    )
    _SPMV_KERNELS[width] = kern
    return kern


def make_cg_kernels() -> Dict[str, Kernel]:
    """The conjugate-gradient kernels: vector updates with their dot
    products folded in, and the scalar algebra between them.

    Nothing the solver computes leaves the loops.  The dot products
    are ``INC`` Globals (``r.r`` accumulated where ``r`` is formed,
    ``p.Ap`` by one loop of its own), each incremented once per
    element so that every backend forms the sequential interpreter's
    ascending left fold (``backends.base.fold_lanes``); ``alpha`` and
    ``beta`` are the IEEE quotient of two ``READ`` Globals, formed where
    they are used; and the two scalar kernels — single-element loops
    that store into Globals — take the residual norm, test
    convergence, rotate ``rs <- rs_new`` and zero the accumulators.
    ``flag`` ends a solve: 1.0 converged, 2.0 ``p.Ap <= 0`` (``pap``
    then keeps the offending value).
    """
    if _CG_KERNELS:
        return _CG_KERNELS

    def cg_init(b, ap, r, p, rs_new):
        r[0] = b[0] - ap[0]
        p[0] = r[0]
        rs_new[0] += r[0] * r[0]

    def cg_begin(tol, rs_new, rs, pap, resid, flag):
        rs[0] = rs_new[0]
        rs_new[0] = 0.0
        pap[0] = 0.0
        resid[0] = np.sqrt(rs[0])
        flag[0] = 1.0 if resid[0] <= tol[0] else 0.0

    def cg_pap(p, ap, pap):
        pap[0] += p[0] * ap[0]

    def cg_update(rs, pap, p, ap, x, r, rs_new):
        alpha = rs[0] / pap[0]
        x[0] += alpha * p[0]
        r[0] -= alpha * ap[0]
        rs_new[0] += r[0] * r[0]

    def cg_direction(rs_new, rs, r, p):
        beta = rs_new[0] / rs[0]
        p[0] = r[0] + beta * p[0]

    def cg_rotate(tol, rs_new, rs, pap, resid, flag):
        resid[0] = np.sqrt(rs_new[0])
        if pap[0] <= 0.0:
            flag[0] = 2.0
        else:
            flag[0] = 1.0 if resid[0] <= tol[0] else 0.0
            pap[0] = 0.0
        rs[0] = rs_new[0]
        rs_new[0] = 0.0

    _CG_KERNELS.update({
        "cg_init": Kernel(
            "cg_init", cg_init,
            info=KernelInfo(flops=3, description="r = b - Ax; p = r; r.r"),
        ),
        "cg_begin": Kernel(
            "cg_begin", cg_begin,
            info=KernelInfo(flops=1, description="scalar: |r|, test, reset"),
        ),
        "cg_pap": Kernel(
            "cg_pap", cg_pap,
            info=KernelInfo(flops=2, description="p.Ap"),
        ),
        "cg_update": Kernel(
            "cg_update", cg_update,
            info=KernelInfo(
                flops=7, description="x += a p; r -= a Ap; r.r (a = rs/pAp)"
            ),
        ),
        "cg_direction": Kernel(
            "cg_direction", cg_direction,
            info=KernelInfo(flops=3, description="p = r + b p (b = rs'/rs)"),
        ),
        "cg_rotate": Kernel(
            "cg_rotate", cg_rotate,
            info=KernelInfo(
                flops=1, description="scalar: |r|, test, guard, rotate"
            ),
        ),
    })
    return _CG_KERNELS
