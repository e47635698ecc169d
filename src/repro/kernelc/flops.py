"""Static per-element flop estimates from the parsed kernel IR.

The transfer model (:mod:`repro.perfmodel`) prices loops purely in
bytes moved, which cannot distinguish a bandwidth-bound stream (SpMV)
from a compute-bound one (the matrix-free quadrature re-evaluation,
whose arithmetic dwarfs its traffic).  This module supplies the missing
axis: walk a kernel's IR once, count the floating-point operators in
its expressions, multiply loop bodies by their constant trip counts,
and report flops *per iteration-set element*.  The estimate feeds
``Runtime.stats()["profile"]`` (``est_flops`` / ``est_gflops`` /
``bound``).

Address arithmetic inside subscripts (``rho[C * k + c]``) is *not*
counted — it prices to gather/scatter traffic, not arithmetic — and a
kernel outside the parseable subset falls back to its author-declared
:class:`~repro.core.kernel.KernelInfo` figures.
"""

from __future__ import annotations

import ast

from .ir import SAssign, SAug, SFor, SIf
from .lower import (
    BINOPS,
    TRANSCENDENTAL_FLOPS,
    UnvectorizableKernel,
    callee,
    fold,
    helper,
    op_for,
    pow_op,
)


def _expr_flops(node: ast.expr, ns, bound) -> float:
    """Floating-point operations in one expression subtree, priced by
    :mod:`repro.kernelc.lower`'s op table; what the lowering folds to a
    literal is free.  ``bound``: the names local to the function."""
    def flops(child) -> float:
        return _expr_flops(child, ns, bound)

    def value_of(name):
        return None if name in bound else ns.get(name)

    if isinstance(node, ast.BinOp):
        if fold(node, value_of) is not None:
            return 0.0
        op = BINOPS[type(node.op)]
        if isinstance(node.op, ast.Pow):
            op, expo = pow_op(node.right, value_of)
            if op is None:  # x ** 0 is the literal 1, x ** 1 is x
                return flops(node.left) if expo else 0.0
        return op.flops + flops(node.left) + flops(node.right)
    if isinstance(node, ast.UnaryOp):
        cost = 1.0 if isinstance(node.op, ast.USub) else 0.0
        return cost + flops(node.operand)
    if isinstance(node, ast.Compare):
        return float(len(node.comparators)) + flops(node.left) + sum(
            flops(c) for c in node.comparators
        )
    if isinstance(node, ast.Call):
        fn = callee(node.func, ns)
        op = op_for(fn)
        h = helper(fn) if op is None else None
        cost = (op.flops if op is not None
                else _helper_flops(h) if h is not None
                else TRANSCENDENTAL_FLOPS)
        return cost + sum(flops(a) for a in node.args)
    if isinstance(node, ast.Subscript):
        # Index expressions are address math, not arithmetic.
        return flops(node.value)
    if isinstance(node, ast.IfExp):
        return 1.0 + flops(node.test) + flops(node.body) + flops(node.orelse)
    if isinstance(node, (ast.Tuple, ast.List)):
        return sum(flops(e) for e in node.elts)
    return 0.0


def _helper_flops(h) -> float:
    """A helper call costs its body."""
    bound = set(h.params) | {
        n.id for st in h.body for n in ast.walk(st.targets[0])
        if isinstance(n, ast.Name)
    }
    return sum(_expr_flops(e, h.ns, bound)
               for e in [st.value for st in h.body] + list(h.returns))


def _body_flops(body, ns, bound) -> float:
    total = 0.0
    for stmt in body:
        if isinstance(stmt, SAssign):
            total += _expr_flops(stmt.value, ns, bound)
        elif isinstance(stmt, SAug):
            total += 1.0 + _expr_flops(stmt.value, ns, bound)
        elif isinstance(stmt, SFor):
            trips = len(range(stmt.start, stmt.stop, stmt.step))
            total += trips * _body_flops(stmt.body, ns, bound)
        elif isinstance(stmt, SIf):
            # Batched backends evaluate both arms under masks; price the
            # union (also the safe upper bound for the scalar path).
            total += (
                _expr_flops(stmt.test, ns, bound)
                + _body_flops(stmt.body, ns, bound)
                + _body_flops(stmt.orelse, ns, bound)
            )
    return total


def estimate_flops(kernel) -> float:
    """Estimated flops per iteration-set element for one kernel.

    Counts arithmetic operators in the kernel's parsed IR (constant
    trip counts unrolled, subscript address math excluded, calls priced
    by the op table and helper calls by their bodies).  Kernels outside the parseable subset fall back to
    the author-declared ``kernel.info.flops`` (plus weighted
    ``transcendentals``); a bare callable with neither estimates 0.
    """
    try:
        from .cache import kernel_ir

        ir = kernel_ir(kernel)
        return float(_body_flops(ir.body, ir.namespace, ir.local_names))
    except (UnvectorizableKernel, AttributeError, TypeError):
        info = getattr(kernel, "info", None)
        if info is None:
            return 0.0
        return float(getattr(info, "flops", 0)) + TRANSCENDENTAL_FLOPS * float(
            getattr(info, "transcendentals", 0)
        )
