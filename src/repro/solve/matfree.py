"""Matrix-free operator action — A·p without assembling a global matrix.

The assembled pipeline pays, every Picard step, for element staging, the
canonical CSR fold (``Mat.assemble``) and a host-side Dirichlet pass —
memory traffic and host/chain round trips the solver itself never needs.
:class:`MatFreeOperator` eliminates all of it: the element bilinear form
is re-evaluated *on the fly* by generated par_loop kernels, so the whole
pre-solve phase (density update included) traces into one unbroken loop
chain with zero host folds, and ``Mat.assemble()`` is never called.

Three generated kernels (scalar sources below, batched/native forms
derived by :mod:`repro.kernelc` like every other kernel):

``matfree_coeffs_w{W}c{C}``
    The per-step operator *setup*: for each row, re-evaluate the 2x2
    Gauss bilinear form of every incident element contribution from the
    gathered density and the static per-element quadrature tables, and
    fold the contributions **in the CSR-slot-major, element-minor order
    of ``Mat.assemble``** into the row's ``W`` padded action
    coefficients.  Emitted twice per slot: the raw operator (for the
    Dirichlet-lift right-hand side) and the boundary-masked operator
    (what CG applies), with the mask applied branch-free — bitwise the
    values ``assemble() + set_dirichlet()`` would have produced.
``matfree_apply_w{W}``
    The per-iteration action ``y = A x``: a fixed-width multiply-
    accumulate over the refreshed coefficients and the gathered ``x`` —
    the same fold order as the assembled SpMV kernel, minus its CSR
    value-slot indirection (one stream less per row).
``matfree_action_w{W}c{C}``
    The fused single-kernel action: quadrature re-evaluation *and* the
    ``x`` contraction in one pass — A·p straight from mesh geometry and
    density, no coefficient state at all.  Used for one-shot products
    (the ``K·lift`` right-hand side term) and as the conformance
    reference for the staged pair.

Why the fold orders can match bit for bit
-----------------------------------------
``Mat.assemble`` folds each CSR slot's contributions left to right from
``0.0`` over the explicit :attr:`Mat.fold_table` (CSR slot major,
element minor, padded entries contributing an exact ``+0.0``).  The
kernels below gather their per-row contribution tables from that same
fold table and accumulate in exactly that order — term for term the
same IEEE additions — so every slot value, and therefore every A·p,
every CG scalar, and the final solution, is bitwise identical to the
assembled oracle (up to the sign of exact zeros, which the ``==``-based
reproducibility contract treats as equal).  The constructor bounds the
per-slot contribution count at :data:`MAX_FOLD_CONTRIBUTIONS` to keep
the fully-unrolled generated kernels compact.
"""

from __future__ import annotations

from typing import Dict, Optional

import numpy as np

from ..core.access import IDX_ALL, IDX_ID, Access, arg_dat
from ..core.dat import Dat
from ..core.kernel import Kernel, KernelInfo
from ..core.loop import par_loop
from ..core.map import Map
from ..core.mat import Mat
from ..core.runtime import Runtime
from ..core.set import Set

#: Upper bound on contributions per CSR slot: the generated kernels
#: unroll ``width * maxc * ngauss`` gather/multiply terms per row, so an
#: unusually connected sparsity would explode the emitted code.  A
#: bilinear quad mesh needs 4.
MAX_FOLD_CONTRIBUTIONS = 7

#: Kernel singletons per (width, contributions, gauss points) — the
#: chain cache and the kernelc compile cache key on Kernel identity,
#: so operators over the same mesh family must share one kernel object.
_MF_KERNELS: Dict[tuple, Dict[str, Kernel]] = {}


def make_matfree_kernels(width: int, maxc: int, ngauss: int = 4
                         ) -> Dict[str, Kernel]:
    """The three matrix-free kernels for one ``(W, C, G)`` operator shape.

    ``width`` is the padded row arity of the solver view, ``maxc`` the
    padded per-slot contribution count, ``ngauss`` the quadrature points
    per contribution.  All three are closure constants: the emitters
    unroll every loop, so the generated forms are straight-line code
    specialized to the mesh family — the cross-element analogue of the
    paper's per-kernel specialization.
    """
    if width < 1 or maxc < 1 or ngauss < 1:
        raise ValueError(
            f"matfree kernel shape must be positive, got "
            f"({width}, {maxc}, {ngauss})"
        )
    key = (width, maxc, ngauss)
    cached = _MF_KERNELS.get(key)
    if cached is not None:
        return cached
    W, C, G = width, maxc, ngauss

    # NOTE on arithmetic order (the bitwise contract): each contribution
    # re-derives res_calc's staged value as (rho * ad) * q — the same
    # two multiplies res_calc performs (w = rho * |det|; w * q).  The
    # g-fold from 0.0 matches the staged accumulation into the zeroed
    # staging Dat; the c-fold from 0.0 matches Mat.assemble's explicit
    # left-to-right fold-table sum, padding included (a padded term is
    # (rho * geom) * 0.0 = +0.0, exactly assemble's padded +0.0).  The
    # Dirichlet mask is branch-free over exact {0.0, 1.0} flags,
    # reproducing set_dirichlet's assignments value for value.

    def matfree_coeffs(rho, ad, q, bc, dsel, araw, abc):
        bcr = 0.0
        for k in range(W):
            bcr += dsel[k] * bc[k][0]
        for k in range(W):
            a = 0.0
            for c in range(C):
                kv = 0.0
                for g in range(G):
                    kv += (rho[C * k + c][0] * ad[C * k + c][g]) \
                        * q[C * k + c][g]
                a += kv
            araw[k] = a
            abc[k] = (a * (1.0 - bcr)) * (1.0 - bc[k][0]) + dsel[k] * bcr

    def matfree_apply(a, x, y):
        acc = a[0] * x[0][0]
        for k in range(1, W):
            acc += a[k] * x[k][0]
        y[0] = acc

    def matfree_action(rho, ad, q, x, y):
        acc = 0.0
        for k in range(W):
            a = 0.0
            for c in range(C):
                kv = 0.0
                for g in range(G):
                    kv += (rho[C * k + c][0] * ad[C * k + c][g]) \
                        * q[C * k + c][g]
                a += kv
            acc += a * x[k][0]
        y[0] = acc

    kernels = {
        "coeffs": Kernel(
            f"matfree_coeffs_w{W}c{C}",
            matfree_coeffs,
            info=KernelInfo(
                flops=2 * W + W * (C * (3 * G + 1) + 6),
                description="On-the-fly bilinear form -> action "
                            "coefficients (raw + Dirichlet-masked)",
            ),
        ),
        "apply": Kernel(
            f"matfree_apply_w{W}",
            matfree_apply,
            info=KernelInfo(
                flops=2 * W,
                description="Fixed-width action multiply-accumulate",
            ),
        ),
        "action": Kernel(
            f"matfree_action_w{W}c{C}",
            matfree_action,
            info=KernelInfo(
                flops=W * (C * (3 * G + 1) + 2),
                description="Fused on-the-fly operator action y = A x",
            ),
        ),
    }
    _MF_KERNELS[key] = kernels
    return kernels


class MatFreeOperator:
    """Apply a density-weighted stiffness operator without assembling it.

    Borrows only *connectivity* from a :class:`~repro.core.mat.Mat` (the
    padded solver-view maps and the canonical fold order — guaranteeing
    the identical CSR-slot-major accumulation), never its values: the
    staging Dat stays untouched, ``assemble()`` is never called, and no
    global matrix is ever materialized.

    Parameters
    ----------
    mat:
        The (possibly never-assembled) operator declaration whose
        sparsity fixes row widths and fold order.  Square operators
        only, like the solver view itself.
    quad_tables:
        ``(quad, geom)`` static per-element quadrature factor tables —
        for aero, :func:`repro.apps.aero.kernels.
        element_quadrature_tables` over the gathered corner
        coordinates.  ``quad`` is ``(n_elements, G, a1*a2)``, ``geom``
        ``(n_elements, G)``.
    rho:
        The element coefficient Dat (dim 1) the bilinear form is
        weighted by — re-read on every :meth:`refresh`, so Picard
        updates flow through with no rebuild.
    bc:
        Row-set Dat of exact ``{0.0, 1.0}`` Dirichlet flags.
    diag:
        Diagonal value imposed on Dirichlet rows (``set_dirichlet``'s
        ``diag``).
    """

    def __init__(
        self,
        mat: Mat,
        quad_tables,
        rho: Dat,
        bc: Dat,
        diag: float = 1.0,
    ) -> None:
        sp = mat._ensure_sparsity()
        self.mat = mat
        self.set = mat.row_set
        self.rho = rho
        self.bc = bc
        self.row_slots, self.row_cols = mat.solver_view()
        self.width = W = self.row_slots.arity
        a1, a2 = mat.local_shape
        n_elem = mat.elem_set.size
        n_staged = mat.n_staged
        maxc = mat.fold_width
        if maxc > MAX_FOLD_CONTRIBUTIONS:
            raise ValueError(
                f"matrix-free fold supports at most "
                f"{MAX_FOLD_CONTRIBUTIONS} contributions per matrix "
                f"entry (the generated kernels unroll every "
                f"contribution); this sparsity has {maxc}"
            )
        self.maxc = C = maxc
        # The contribution maps and the Dirichlet diagonal selector are
        # connectivity: built once per map pair, with its sparsity.
        key = ("matfree", float(diag))
        if key not in sp.derived:
            sp.derived[key] = _connectivity(mat, float(diag))
        contrib_set, self.row2contrib, self.row2elem, dsel = sp.derived[key]
        # Static factor Dats: per-contribution gradient products (dim G,
        # zero padding row => padded terms contribute an exact 0.0) and
        # per-element |det J| at each Gauss point.
        quad, geom = quad_tables
        quad = np.asarray(quad, dtype=np.float64)
        geom = np.asarray(geom, dtype=np.float64)
        G = quad.shape[1]
        if quad.shape != (n_elem, G, a1 * a2) or geom.shape != (n_elem, G):
            raise ValueError(
                f"quadrature tables do not match the operator: quad "
                f"{quad.shape}, geom {geom.shape}, expected "
                f"({n_elem}, G, {a1 * a2}) and ({n_elem}, G)"
            )
        self.ngauss = G
        dtype = mat.dtype
        # Contribution-major, plus the zero padding row: kept with the
        # sparsity for the tables it was made from (one set at a time —
        # a sim's tables are a function of its mesh).
        cached = sp.derived.get("matfree_quad")
        if cached is None or cached[0] is not quad:
            qflat = quad.transpose(0, 2, 1).reshape(n_staged, G)
            cached = sp.derived["matfree_quad"] = (
                quad, np.concatenate([qflat, np.zeros((1, G))]),
            )
        self.quad = Dat(
            contrib_set, G, cached[1], dtype, name=f"{mat.name}_mf_quad",
        )
        self.geom = Dat(
            mat.elem_set, G, geom, dtype, name=f"{mat.name}_mf_geom",
        )
        self.dsel = Dat(self.set, W, dsel, dtype, name=f"{mat.name}_mf_dsel")
        #: Refreshed per-row action coefficients: the raw operator and
        #: the Dirichlet-masked one CG applies.
        self.coeffs_raw = Dat(
            self.set, W, dtype=dtype, name=f"{mat.name}_mf_raw"
        )
        self.coeffs_bc = Dat(
            self.set, W, dtype=dtype, name=f"{mat.name}_mf_bc"
        )
        self.kernels = make_matfree_kernels(W, C, G)
        self.kernel = self.kernels["apply"]

    # ------------------------------------------------------------------
    # Loop-signature tables (the AeroSim._loop_args entries of the
    # matrix-free system build).
    # ------------------------------------------------------------------
    def coeffs_args(self) -> tuple:
        return (
            self.set,
            arg_dat(self.rho, IDX_ALL, self.row2elem, Access.READ),
            arg_dat(self.geom, IDX_ALL, self.row2elem, Access.READ),
            arg_dat(self.quad, IDX_ALL, self.row2contrib, Access.READ),
            arg_dat(self.bc, IDX_ALL, self.row_cols, Access.READ),
            arg_dat(self.dsel, IDX_ID, None, Access.READ),
            arg_dat(self.coeffs_raw, IDX_ID, None, Access.WRITE),
            arg_dat(self.coeffs_bc, IDX_ID, None, Access.WRITE),
        )

    def apply_args(self, x: Dat, y: Dat, raw: bool = False) -> tuple:
        coeffs = self.coeffs_raw if raw else self.coeffs_bc
        return (
            self.set,
            arg_dat(coeffs, IDX_ID, None, Access.READ),
            arg_dat(x, IDX_ALL, self.row_cols, Access.READ),
            arg_dat(y, IDX_ID, None, Access.WRITE),
        )

    def action_args(self, x: Dat, y: Dat) -> tuple:
        return (
            self.set,
            arg_dat(self.rho, IDX_ALL, self.row2elem, Access.READ),
            arg_dat(self.geom, IDX_ALL, self.row2elem, Access.READ),
            arg_dat(self.quad, IDX_ALL, self.row2contrib, Access.READ),
            arg_dat(x, IDX_ALL, self.row_cols, Access.READ),
            arg_dat(y, IDX_ID, None, Access.WRITE),
        )

    # ------------------------------------------------------------------
    # Execution.
    # ------------------------------------------------------------------
    def refresh(self, runtime: Optional[Runtime] = None) -> None:
        """Re-derive the action coefficients from the current density.

        One race-free par_loop over rows (each row owns its
        coefficients); everything else about the operator is static
        connectivity, so this is the *entire* per-step operator update —
        the matrix-free replacement for staging + assemble +
        set_dirichlet.
        """
        set_, *args = self.coeffs_args()
        par_loop(self.kernels["coeffs"], set_, *args, runtime=runtime)

    def apply(self, x: Dat, y: Dat, runtime: Optional[Runtime] = None,
              raw: bool = False) -> None:
        """``y = A x`` from the refreshed coefficients (CG's hot loop).

        ``raw=True`` applies the unmasked operator (the ``K·lift``
        right-hand side product); the default applies the
        Dirichlet-masked operator CG iterates with.
        """
        set_, *args = self.apply_args(x, y, raw=raw)
        par_loop(self.kernels["apply"], set_, *args, runtime=runtime)

    def action(self, x: Dat, y: Dat,
               runtime: Optional[Runtime] = None) -> None:
        """``y = A x`` fused and fully on the fly (raw operator).

        No coefficient state: density gather, quadrature re-evaluation
        and the ``x`` contraction run in one generated kernel — the
        single-kernel embodiment of the matrix-free idea, and the
        conformance reference the staged pair is tested against.
        """
        set_, *args = self.action_args(x, y)
        par_loop(self.kernels["action"], set_, *args, runtime=runtime)


def _connectivity(mat: Mat, diag: float):
    """``(contrib_set, row2contrib, row2elem, dsel)`` of a matrix-free
    operator over ``mat``'s sparsity: a function of the map pair (and
    ``diag``) alone."""
    row_slots, _ = mat.solver_view()
    nrows, W = mat.nrows, row_slots.arity
    a1, a2 = mat.local_shape
    n_staged, nnz, C = mat.n_staged, mat.nnz, mat.fold_width
    # Per-row contribution tables gathered straight from the Mat's
    # canonical fold table (row = CSR slot, padded with the synthetic
    # zero contribution n_staged) — identical order by construction.
    contribs = mat.fold_table[row_slots.values]  # (nrows, W, C)
    elems = np.where(contribs == n_staged, 0, contribs // (a1 * a2))
    contrib_set = Set(n_staged + 1, f"{mat.name}_mf_contrib")
    row2contrib = Map(
        mat.row_set, contrib_set, W * C, contribs.reshape(nrows, W * C),
        f"{mat.name}_mf_row2contrib",
    )
    row2elem = Map(
        mat.row_set, mat.elem_set, W * C, elems.reshape(nrows, W * C),
        f"{mat.name}_mf_row2elem",
    )
    # Dirichlet diagonal selector: `diag` at the row's diagonal slot
    # position, 0.0 elsewhere (pad slots carry the nnz sentinel, so a
    # padded position can never select).
    degrees = np.diff(mat.indptr)
    rows_of_slot = np.repeat(np.arange(nrows, dtype=np.int64), degrees)
    diag_mask = rows_of_slot == mat.indices
    diag_slot = np.full(nrows, nnz, dtype=np.int64)
    diag_slot[rows_of_slot[diag_mask]] = np.flatnonzero(diag_mask)
    dsel = np.where(row_slots.values == diag_slot[:, None], diag, 0.0)
    return contrib_set, row2contrib, row2elem, dsel
