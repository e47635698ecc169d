"""The aero kernels — scalar sources only (the PR-4 contract).

A 2-D nonlinear potential-flow finite-element solver on bilinear quads:
``rho_calc`` evaluates the isentropic density from the current velocity
potential, ``res_calc`` assembles the density-weighted stiffness matrix
(a ``(4, 4)`` local block per cell, scattered through
:func:`~repro.core.mat.arg_mat`), and two small nodal kernels impose the
far-field Dirichlet data.  The batched incarnations — including the
local-matrix stores ``K[4 * i + j] += ...``, which the vector emitter
lowers to lane-sliced index arithmetic — are all generated by
:mod:`repro.kernelc`; inspect them with
``python -m repro.bench --dump-kernel res_calc_aero``.

Shape-function constants (module level, lane-free closures)
-----------------------------------------------------------
Bilinear reference square ``[-1, 1]^2`` with corner order matching the
mesh's ``cell2node`` ordering; ``_DXI_G``/``_DETA_G`` hold the shape
derivatives at the four 2x2 Gauss points (weights 1), ``_DXI_C`` /
``_DETA_C`` at the element center.
"""

from __future__ import annotations

from typing import Dict

import numpy as np

from ...core.kernel import Kernel, KernelInfo
from .constants import AeroConstants, DEFAULT_CONSTANTS

#: Reference-square corner coordinates, in cell2node corner order.
_XI_N = np.array([-1.0, 1.0, 1.0, -1.0])
_ETA_N = np.array([-1.0, -1.0, 1.0, 1.0])

#: 2x2 Gauss points (each with unit weight).
_G = 1.0 / np.sqrt(3.0)
_XI_G = np.array([-_G, _G, _G, -_G])
_ETA_G = np.array([-_G, -_G, _G, _G])

#: Shape-function derivatives d N_i / d xi|eta at each Gauss point:
#: ``_DXI_G[g][i]``, ``_DETA_G[g][i]``.
_DXI_G = 0.25 * _XI_N[None, :] * (1.0 + _ETA_N[None, :] * _ETA_G[:, None])
_DETA_G = 0.25 * _ETA_N[None, :] * (1.0 + _XI_N[None, :] * _XI_G[:, None])

#: Same derivatives at the element center (density evaluation point).
_DXI_C = 0.25 * _XI_N
_DETA_C = 0.25 * _ETA_N


def element_quadrature_tables(xs):
    """Per-element Gauss-point factor tables for the matrix-free path.

    Splits every ``res_calc`` stiffness contribution ``w * (dxi*dxj +
    dyi*dyj)`` (``w = rho * abs(det)``) into its density-independent
    factors, evaluated host-side with *exactly* ``res_calc``'s floating
    point operation sequence (same expressions, same order, IEEE
    correctly-rounded elementwise NumPy):

    ``geom[e, g]``
        ``abs(det J)`` at Gauss point ``g`` of element ``e``.
    ``quad[e, g, 4*i + j]``
        ``dxi*dxj + dyi*dyj`` — the local-basis gradient dot product
        for entry ``(i, j)``.

    A kernel recombining them as ``(rho * geom) * quad`` therefore
    reproduces the staged element contribution bit for bit, which is
    what lets :class:`repro.solve.matfree.MatFreeOperator` match the
    assembled oracle without ever staging or folding a global matrix.

    ``xs`` is the gathered corner-coordinate array ``(n_elements, 4,
    2)`` in ``cell2node`` corner order (float64).
    """
    xs = np.asarray(xs, dtype=np.float64)
    n = xs.shape[0]
    quad = np.empty((n, 4, 16), dtype=np.float64)
    geom = np.empty((n, 4), dtype=np.float64)
    for g in range(4):
        xxi = np.zeros(n)
        yxi = np.zeros(n)
        xeta = np.zeros(n)
        yeta = np.zeros(n)
        for i in range(4):
            xxi = xxi + _DXI_G[g][i] * xs[:, i, 0]
            yxi = yxi + _DXI_G[g][i] * xs[:, i, 1]
            xeta = xeta + _DETA_G[g][i] * xs[:, i, 0]
            yeta = yeta + _DETA_G[g][i] * xs[:, i, 1]
        det = xxi * yeta - yxi * xeta
        geom[:, g] = np.abs(det)
        for i in range(4):
            dxi = (yeta * _DXI_G[g][i] - yxi * _DETA_G[g][i]) / det
            dyi = (xxi * _DETA_G[g][i] - xeta * _DXI_G[g][i]) / det
            for j in range(4):
                dxj = (yeta * _DXI_G[g][j] - yxi * _DETA_G[g][j]) / det
                dyj = (xxi * _DETA_G[g][j] - xeta * _DXI_G[g][j]) / det
                quad[:, g, 4 * i + j] = dxi * dxj + dyi * dyj
    return quad, geom


#: Kernel sets per flow configuration (:func:`make_kernels`).
_KERNELS: Dict[AeroConstants, Dict[str, Kernel]] = {}


def make_kernels(const: AeroConstants = DEFAULT_CONSTANTS) -> dict:
    """The aero kernel set for one flow configuration.

    Returns a name -> :class:`~repro.core.kernel.Kernel` dict with keys
    ``rho_calc``, ``res_calc``, ``rhs_calc``, ``apply_bc``; the same
    objects for equal constants (treat the dict as read-only), so a
    fresh sim's loops key on kernels whose source digest and parsed IR
    the caches already hold.
    """
    kernels = _KERNELS.get(const)
    if kernels is None:
        kernels = _KERNELS[const] = _build_kernels(const)
    return kernels


def _build_kernels(const: AeroConstants) -> Dict[str, Kernel]:
    gm1 = const.gm1
    minf2 = const.mach * const.mach
    rho_min = const.rho_min
    expo = 1.0 / gm1
    # gam = 1.4 makes the isentropic exponent 2.5 *mathematically*, but
    # 1.0 / (1.4 - 1.0) rounds to 2.5000000000000004 in binary; snap to
    # the intended half-integer so the exact-arithmetic form below (and
    # the bitwise guarantee that rides on it) engages.
    if abs(expo - 2.5) < 1e-12:
        expo = 2.5

    # ------------------------------------------------------------------
    # rho_calc: isentropic density from the cell-center potential
    # gradient (4 corner gathers, direct write — the nonlinearity).
    #
    # For the default gam = 1.4 the isentropic exponent 1/(gam-1) is
    # exactly 2.5, so the power is written as b*b*sqrt(b): add, mul and
    # sqrt are IEEE correctly rounded, identical between NumPy's scalar
    # and vectorized paths — whereas `**` diverges by one ulp between
    # them, which would break the aero bitwise-reproducibility
    # guarantee.  Other gammas fall back to the generic power (still
    # deterministic per backend, just not bitwise *across* the
    # scalar/batched divide).
    # ------------------------------------------------------------------
    if expo == 2.5:

        def rho_calc(x, phi, rho):
            xxi = 0.0
            yxi = 0.0
            xeta = 0.0
            yeta = 0.0
            pxi = 0.0
            peta = 0.0
            for i in range(4):
                xxi += _DXI_C[i] * x[i][0]
                yxi += _DXI_C[i] * x[i][1]
                xeta += _DETA_C[i] * x[i][0]
                yeta += _DETA_C[i] * x[i][1]
                pxi += _DXI_C[i] * phi[i][0]
                peta += _DETA_C[i] * phi[i][0]
            det = xxi * yeta - yxi * xeta
            u = (yeta * pxi - yxi * peta) / det
            v = (xxi * peta - xeta * pxi) / det
            base = 1.0 + 0.5 * gm1 * minf2 * (1.0 - u * u - v * v)
            b = max(base, rho_min)
            rho[0] = b * b * np.sqrt(b)
    else:

        def rho_calc(x, phi, rho):
            xxi = 0.0
            yxi = 0.0
            xeta = 0.0
            yeta = 0.0
            pxi = 0.0
            peta = 0.0
            for i in range(4):
                xxi += _DXI_C[i] * x[i][0]
                yxi += _DXI_C[i] * x[i][1]
                xeta += _DETA_C[i] * x[i][0]
                yeta += _DETA_C[i] * x[i][1]
                pxi += _DXI_C[i] * phi[i][0]
                peta += _DETA_C[i] * phi[i][0]
            det = xxi * yeta - yxi * xeta
            u = (yeta * pxi - yxi * peta) / det
            v = (xxi * peta - xeta * pxi) / det
            base = 1.0 + 0.5 * gm1 * minf2 * (1.0 - u * u - v * v)
            rho[0] = max(base, rho_min) ** expo

    # ------------------------------------------------------------------
    # res_calc: density-weighted bilinear stiffness assembly — the
    # element -> matrix scatter.  K is the flat (16,) local block the
    # Mat argument hands the kernel (entry (i, j) at 4*i + j); 2x2
    # Gauss quadrature, |det J| weights keep the block SPD regardless
    # of mesh orientation.
    # ------------------------------------------------------------------
    def res_calc(x, rho, K):
        for g in range(4):
            xxi = 0.0
            yxi = 0.0
            xeta = 0.0
            yeta = 0.0
            for i in range(4):
                xxi += _DXI_G[g][i] * x[i][0]
                yxi += _DXI_G[g][i] * x[i][1]
                xeta += _DETA_G[g][i] * x[i][0]
                yeta += _DETA_G[g][i] * x[i][1]
            det = xxi * yeta - yxi * xeta
            w = rho[0] * abs(det)
            for i in range(4):
                dxi = (yeta * _DXI_G[g][i] - yxi * _DETA_G[g][i]) / det
                dyi = (xxi * _DETA_G[g][i] - xeta * _DXI_G[g][i]) / det
                for j in range(4):
                    dxj = (yeta * _DXI_G[g][j] - yxi * _DETA_G[g][j]) / det
                    dyj = (xxi * _DETA_G[g][j] - xeta * _DXI_G[g][j]) / det
                    K[4 * i + j] += w * (dxi * dxj + dyi * dyj)

    # ------------------------------------------------------------------
    # rhs_calc: right-hand side from the Dirichlet lift — b = g on
    # far-field nodes, b = -(K g) on free nodes (the symmetric
    # elimination's moved coupling).  The branch lowers to lane masks.
    # ------------------------------------------------------------------
    def rhs_calc(kg, g, bc, b):
        if bc[0] > 0.5:
            b[0] = g[0]
        else:
            b[0] = -kg[0]

    # ------------------------------------------------------------------
    # apply_bc: pin the potential to the far-field data (idempotent).
    # ------------------------------------------------------------------
    def apply_bc(g, bc, phi):
        if bc[0] > 0.5:
            phi[0] = g[0]

    return {
        "rho_calc": Kernel(
            "rho_calc",
            rho_calc,
            info=KernelInfo(flops=40, transcendentals=1,
                            description="Gather, direct write"),
            vectorizable_simt=True,
        ),
        "res_calc": Kernel(
            "res_calc_aero",
            res_calc,
            info=KernelInfo(flops=600,
                            description="Gather, local-matrix scatter"),
            vectorizable_simt=False,
        ),
        "rhs_calc": Kernel(
            "rhs_calc_aero",
            rhs_calc,
            info=KernelInfo(flops=1, description="Direct, branch"),
            vectorizable_simt=True,
        ),
        "apply_bc": Kernel(
            "apply_bc",
            apply_bc,
            info=KernelInfo(flops=0, description="Direct, branch"),
            vectorizable_simt=True,
        ),
    }
