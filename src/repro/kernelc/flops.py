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

from .ir import SAssign, SAug, SFor, SIf, UnvectorizableKernel

#: Operation weights for non-trivial intrinsics: ``sqrt`` is a (slow)
#: hardware instruction; generic powers and other transcendentals
#: expand to polynomial evaluations.
SQRT_FLOPS = 4.0
TRANSCENDENTAL_FLOPS = 8.0

#: Calls priced as one flop (selection / sign ops).
_UNIT_CALLS = {"abs", "min", "max", "fabs", "fmin", "fmax", "copysign"}
_SQRT_CALLS = {"sqrt"}


def _call_name(func: ast.expr) -> str:
    """Rightmost identifier of a call target (``np.sqrt`` -> ``sqrt``)."""
    if isinstance(func, ast.Attribute):
        return str(func.attr)
    if isinstance(func, ast.Name):
        return func.id
    return ""


def _expr_flops(node: ast.expr) -> float:
    """Floating-point operations in one expression subtree."""
    if isinstance(node, ast.BinOp):
        return 1.0 + _expr_flops(node.left) + _expr_flops(node.right)
    if isinstance(node, ast.UnaryOp):
        cost = 1.0 if isinstance(node.op, ast.USub) else 0.0
        return cost + _expr_flops(node.operand)
    if isinstance(node, ast.Compare):
        return float(len(node.comparators)) + _expr_flops(node.left) + sum(
            _expr_flops(c) for c in node.comparators
        )
    if isinstance(node, ast.Call):
        name = _call_name(node.func)
        if name in _SQRT_CALLS:
            cost = SQRT_FLOPS
        elif name in _UNIT_CALLS:
            cost = 1.0
        else:
            cost = TRANSCENDENTAL_FLOPS
        return cost + sum(_expr_flops(a) for a in node.args)
    if isinstance(node, ast.Subscript):
        # Index expressions are address math, not arithmetic.
        return _expr_flops(node.value)
    if isinstance(node, ast.IfExp):
        return (
            1.0
            + _expr_flops(node.test)
            + _expr_flops(node.body)
            + _expr_flops(node.orelse)
        )
    if isinstance(node, (ast.Tuple, ast.List)):
        return sum(_expr_flops(e) for e in node.elts)
    return 0.0


def _body_flops(body) -> float:
    total = 0.0
    for stmt in body:
        if isinstance(stmt, SAssign):
            total += _expr_flops(stmt.value)
        elif isinstance(stmt, SAug):
            total += 1.0 + _expr_flops(stmt.value)
        elif isinstance(stmt, SFor):
            trips = len(range(stmt.start, stmt.stop, stmt.step))
            total += trips * _body_flops(stmt.body)
        elif isinstance(stmt, SIf):
            # Batched backends evaluate both arms under masks; price the
            # union (also the safe upper bound for the scalar path).
            total += (
                _expr_flops(stmt.test)
                + _body_flops(stmt.body)
                + _body_flops(stmt.orelse)
            )
    return total


def estimate_flops(kernel) -> float:
    """Estimated flops per iteration-set element for one kernel.

    Counts arithmetic operators in the kernel's parsed IR (constant
    trip counts unrolled, subscript address math excluded, intrinsic
    calls weighted).  Kernels outside the parseable subset fall back to
    the author-declared ``kernel.info.flops`` (plus weighted
    ``transcendentals``); a bare callable with neither estimates 0.
    """
    try:
        from .cache import kernel_ir

        ir = kernel_ir(kernel)
        return float(_body_flops(ir.body))
    except (UnvectorizableKernel, AttributeError, TypeError):
        info = getattr(kernel, "info", None)
        if info is None:
            return 0.0
        return float(getattr(info, "flops", 0)) + TRANSCENDENTAL_FLOPS * float(
            getattr(info, "transcendentals", 0)
        )
