"""The five Airfoil kernels (paper Table II) — scalar sources only.

These are direct transcriptions of the OP2 Airfoil user kernels.  The
batched (cross-element SIMD) forms are **generated** from these scalar
bodies by the kernel compiler (:mod:`repro.kernelc`): backends request
them per argument shape through :meth:`Kernel.vector_for`, branches such
as ``bres_calc``'s wall/far-field conditional are lowered to lane masks
automatically — exactly the rewrite Section 4.2 describes, performed by
the emitter instead of by hand.  Inspect the generated code with
``python -m repro.bench --dump-kernel res_calc``.

Arithmetic metadata mirrors Table II (FLOPs per element, transcendentals
counted as one each); ``vectorizable_simt`` encodes which kernels the
Intel OpenCL compiler vectorized *on the CPU* (Table VI: ``adt_calc`` and
``bres_calc`` yes; ``save_soln``, ``res_calc``, ``update`` no).
"""

from __future__ import annotations

import numpy as np

from ...core.kernel import Kernel, KernelInfo
from .constants import AirfoilConstants, DEFAULT_CONSTANTS


def make_kernels(const: AirfoilConstants = DEFAULT_CONSTANTS) -> dict:
    """Build the kernel set for one constants configuration.

    Returns a name → :class:`~repro.core.kernel.Kernel` dict with keys
    ``save_soln``, ``adt_calc``, ``res_calc``, ``bres_calc``, ``update``.
    """
    gam, gm1, cfl, eps = const.gam, const.gm1, const.cfl, const.eps
    qinf = const.qinf()

    # ------------------------------------------------------------------
    # save_soln: direct copy of the state vector (Table II row 1).
    # ------------------------------------------------------------------
    def save_soln(q, qold):
        for n in range(4):
            qold[n] = q[n]

    # ------------------------------------------------------------------
    # adt_calc: local timestep from cell geometry + state (4 corner-node
    # gathers, direct write; 5 sqrts make it compute-heavy when scalar).
    # ------------------------------------------------------------------
    def adt_calc(x, q, adt):
        # x: (4, 2) corner coordinates via the cell2node vector argument.
        ri = 1.0 / q[0]
        u = ri * q[1]
        v = ri * q[2]
        c = np.sqrt(gam * gm1 * (ri * q[3] - 0.5 * (u * u + v * v)))
        acc = 0.0
        for k in range(4):
            x1 = x[k]
            x2 = x[(k + 1) % 4]
            dx = x2[0] - x1[0]
            dy = x2[1] - x1[1]
            acc += abs(u * dy - v * dx) + c * np.sqrt(dx * dx + dy * dy)
        adt[0] = acc / cfl

    # ------------------------------------------------------------------
    # res_calc: edge flux with artificial dissipation; the INC scatter to
    # both adjacent cells is the paper's canonical race (Fig 2a).
    # ------------------------------------------------------------------
    def res_calc(x1, x2, q1, q2, adt1, adt2, res1, res2):
        dx = x1[0] - x2[0]
        dy = x1[1] - x2[1]

        ri = 1.0 / q1[0]
        p1 = gm1 * (q1[3] - 0.5 * ri * (q1[1] * q1[1] + q1[2] * q1[2]))
        vol1 = ri * (q1[1] * dy - q1[2] * dx)

        ri = 1.0 / q2[0]
        p2 = gm1 * (q2[3] - 0.5 * ri * (q2[1] * q2[1] + q2[2] * q2[2]))
        vol2 = ri * (q2[1] * dy - q2[2] * dx)

        mu = 0.5 * (adt1[0] + adt2[0]) * eps

        f = 0.5 * (vol1 * q1[0] + vol2 * q2[0]) + mu * (q1[0] - q2[0])
        res1[0] += f
        res2[0] -= f
        f = 0.5 * (vol1 * q1[1] + p1 * dy + vol2 * q2[1] + p2 * dy) + mu * (
            q1[1] - q2[1]
        )
        res1[1] += f
        res2[1] -= f
        f = 0.5 * (vol1 * q1[2] - p1 * dx + vol2 * q2[2] - p2 * dx) + mu * (
            q1[2] - q2[2]
        )
        res1[2] += f
        res2[2] -= f
        f = 0.5 * (vol1 * (q1[3] + p1) + vol2 * (q2[3] + p2)) + mu * (
            q1[3] - q2[3]
        )
        res1[3] += f
        res2[3] -= f

    # ------------------------------------------------------------------
    # bres_calc: boundary flux with the wall / far-field branch.  The
    # vector emitter lowers this conditional to lane masks (Section
    # 4.2's one rewrite) — no hand-written select() version needed.
    # ------------------------------------------------------------------
    def bres_calc(x1, x2, q1, adt1, res1, bound):
        dx = x1[0] - x2[0]
        dy = x1[1] - x2[1]
        ri = 1.0 / q1[0]
        p1 = gm1 * (q1[3] - 0.5 * ri * (q1[1] * q1[1] + q1[2] * q1[2]))
        if bound[0] == 1:  # solid wall: pressure force only
            res1[1] += +p1 * dy
            res1[2] += -p1 * dx
        else:  # far field: flux against the free stream
            vol1 = ri * (q1[1] * dy - q1[2] * dx)
            ri = 1.0 / qinf[0]
            p2 = gm1 * (qinf[3] - 0.5 * ri * (qinf[1] ** 2 + qinf[2] ** 2))
            vol2 = ri * (qinf[1] * dy - qinf[2] * dx)
            mu = adt1[0] * eps
            f = 0.5 * (vol1 * q1[0] + vol2 * qinf[0]) + mu * (q1[0] - qinf[0])
            res1[0] += f
            f = 0.5 * (
                vol1 * q1[1] + p1 * dy + vol2 * qinf[1] + p2 * dy
            ) + mu * (q1[1] - qinf[1])
            res1[1] += f
            f = 0.5 * (
                vol1 * q1[2] - p1 * dx + vol2 * qinf[2] - p2 * dx
            ) + mu * (q1[2] - qinf[2])
            res1[2] += f
            f = 0.5 * (vol1 * (q1[3] + p1) + vol2 * (qinf[3] + p2)) + mu * (
                q1[3] - qinf[3]
            )
            res1[3] += f

    # ------------------------------------------------------------------
    # update: flow-field update + RMS residual reduction (direct loop).
    # ------------------------------------------------------------------
    def update(qold, q, res, adt, rms):
        # The cell's squared update is summed locally and added to the
        # reduction once: with one increment per element every backend
        # folds the same left-to-right sum (``backends.base.fold_lanes``).
        adti = 1.0 / adt[0]
        dsq = 0.0
        for n in range(4):
            delta = adti * res[n]
            q[n] = qold[n] - delta
            res[n] = 0.0
            dsq += delta * delta
        rms[0] += dsq

    return {
        "save_soln": Kernel(
            "save_soln",
            save_soln,
            info=KernelInfo(flops=4, description="Direct copy"),
            vectorizable_simt=False,
        ),
        "adt_calc": Kernel(
            "adt_calc",
            adt_calc,
            info=KernelInfo(flops=64, transcendentals=5,
                            description="Gather, direct write"),
            vectorizable_simt=True,
        ),
        "res_calc": Kernel(
            "res_calc",
            res_calc,
            info=KernelInfo(flops=73, description="Gather, colored scatter"),
            vectorizable_simt=False,
        ),
        "bres_calc": Kernel(
            "bres_calc",
            bres_calc,
            info=KernelInfo(flops=73, description="Boundary"),
            vectorizable_simt=True,
        ),
        "update": Kernel(
            "update",
            update,
            info=KernelInfo(flops=17, description="Direct, reduction"),
            vectorizable_simt=False,
        ),
    }
