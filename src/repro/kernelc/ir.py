"""Kernel IR: parse a scalar Python kernel into a small validated IR.

The paper's code generator consumes one high-level kernel description and
emits specialized scalar *and* vectorized implementations (Fig 2b's
generated stubs, Section 4's cross-element SIMD kernels).  Our "high-level
description" is the scalar Python function itself: :func:`parse_kernel`
reads its source with :mod:`ast` and lowers it into a deliberately small
IR —

* straight-line statements (assignments, augmented assignments),
* per-argument loads and stores,
* scalar arithmetic expressions over the vocabulary of
  :mod:`repro.kernelc.lower` (operators, comparisons, ``np.*``
  functions, the :mod:`repro.simd` intrinsics, branchless helpers),
* structured branches (``if``/``elif``/``else``, conditional
  expressions), and
* bounded ``for _ in range(k)`` loops over an argument's ``dim``.

Anything outside that subset raises :class:`UnvectorizableKernel` — the
situation the paper's compiler auto-vectorizer gives up on — and the
backends fall back to scalar execution, so an over-eager parse can never
turn a correct kernel into a wrong one.

Expressions are kept as (validated) ``ast`` nodes inside the IR
statements: the emitters rewrite them structurally, which preserves the
exact floating-point operation order of the scalar source — the property
the bitwise-equivalence test suite rests on.
"""

from __future__ import annotations

import ast
import inspect
import textwrap
from dataclasses import dataclass, field
from functools import cached_property
from typing import Dict, List, Sequence, Set, Tuple

import numpy as np

from .lower import (
    AUGOPS,
    BINOPS,
    UnvectorizableKernel,
    callee,
    const_int,
    function_namespace,
    helper,
    is_docstring,
    op_for,
    plain_params,
    target_names,
)

_UNARYOPS = (ast.USub, ast.UAdd)

#: Recursion bound for branchless-helper validation (_hll_flux calling
#: _velocities calling ... must bottom out).
_HELPER_DEPTH_LIMIT = 4


# ----------------------------------------------------------------------
# IR statements.  Expressions stay as validated ast nodes.
# ----------------------------------------------------------------------
@dataclass
class SAssign:
    """``target(s) = value`` — Name, Tuple-of-Name or Subscript targets."""

    targets: List[ast.expr]
    value: ast.expr


@dataclass
class SAug:
    """``target op= value`` with ``op`` in ``+ - * /``."""

    target: ast.expr
    op: ast.operator
    value: ast.expr


@dataclass
class SFor:
    """``for var in range(start, stop, step)`` with constant bounds."""

    var: str
    start: int
    stop: int
    step: int
    body: List[object]


@dataclass
class SIf:
    """Structured branch; lowered to masks by the vector emitter."""

    test: ast.expr
    body: List[object]
    orelse: List[object]


def stmt_nodes(st):
    """Every AST node of one IR statement, nested statements included."""
    if isinstance(st, SAssign):
        roots = [*st.targets, st.value]
    elif isinstance(st, SAug):
        roots = [st.target, st.value]
    elif isinstance(st, SIf):
        roots = [st.test]
    else:
        roots = []
    for root in roots:
        yield from ast.walk(root)
    for inner in [*getattr(st, "body", ()), *getattr(st, "orelse", ())]:
        yield from stmt_nodes(inner)


@dataclass
class KernelIR:
    """A parsed kernel: parameters, statements, the names it binds."""

    name: str
    params: Tuple[str, ...]
    body: List[object]
    #: Name-resolution namespace (function globals + closure cells) the
    #: emitters compile generated code against.
    namespace: Dict[str, object]
    #: Dedented source of the scalar function (for diagnostics/golden).
    source: str
    #: Every name bound in the kernel: parameters, locals, loop variables.
    local_names: Set[str] = field(default_factory=set)

    @cached_property
    def names(self) -> Set[str]:
        """Every name the kernel binds or reads: what a printer's
        generated identifiers (:class:`~repro.kernelc.lower.Names`)
        must not take."""
        return self.local_names | {
            node.id for st in self.body for node in stmt_nodes(st)
            if isinstance(node, ast.Name)
        }


# ----------------------------------------------------------------------
# Helper-function validation.
# ----------------------------------------------------------------------
def is_lane_safe_helper(fn, _depth: int = 0) -> bool:
    """Can ``fn`` be called unchanged on batched ``(lanes,)`` operands?

    True for straight-line pure functions (assignments and a return) whose
    expressions stay inside the IR vocabulary — Volna's ``_hll_flux`` /
    ``_velocities`` pattern: all conditionals already expressed through
    ``select``-style intrinsics, so the *same* body serves scalars and
    lane arrays.  The answer is cached on the function object.
    """
    cached = getattr(fn, "_kernelc_lane_safe", None)
    if cached is not None:
        return cached
    safe = _check_helper(fn, _depth)
    # A True verdict validated every nested call within the remaining
    # depth budget and holds at any depth; a False computed mid-recursion
    # may only mean the budget ran out, so cache negatives only from a
    # full-budget (depth 0) check.
    if safe or _depth == 0:
        try:
            fn._kernelc_lane_safe = safe
        except (AttributeError, TypeError):  # pragma: no cover - builtins
            pass
    return safe


def _check_helper(fn, depth: int) -> bool:
    h = helper(fn)
    if h is None or depth >= _HELPER_DEPTH_LIMIT:
        return False
    local = set(h.params)
    try:
        for st in h.body:
            _check_expr(st.value, h.ns, local, set(), depth + 1)
            local.update(target_names(st.targets[0]))
        for value in h.returns:
            _check_expr(value, h.ns, local, set(), depth + 1)
    except UnvectorizableKernel:
        return False
    return True


# ----------------------------------------------------------------------
# Expression validation.
# ----------------------------------------------------------------------
def _refuse(node: ast.AST, why: str) -> UnvectorizableKernel:
    snippet = ast.unparse(node) if isinstance(node, ast.AST) else str(node)
    return UnvectorizableKernel(f"{why}: {snippet!r}")


def _check_expr(node, ns, local_names, loop_vars, depth=0) -> None:
    """Validate one expression against the IR vocabulary."""
    if isinstance(node, ast.Constant):
        if not isinstance(node.value, (int, float, bool)):
            raise _refuse(node, "non-numeric constant")
        return
    if isinstance(node, ast.Name):
        return
    if isinstance(node, ast.Subscript):
        _check_expr(node.value, ns, local_names, loop_vars, depth)
        _check_index(node.slice, ns, local_names, loop_vars)
        return
    if isinstance(node, ast.Call):
        _check_call(node, ns, local_names, loop_vars, depth)
        return
    if isinstance(node, ast.BinOp) and type(node.op) not in BINOPS:
        raise _refuse(node, "unsupported binary operator")
    if isinstance(node, ast.UnaryOp) and not isinstance(node.op, _UNARYOPS):
        raise _refuse(node, "unsupported unary operator")
    if isinstance(node, ast.Compare) and len(node.ops) != 1:
        raise _refuse(node, "chained comparisons are lane-ambiguous")
    if isinstance(node, ast.BoolOp):
        raise _refuse(
            node, "and/or have no lane-wise meaning; use select()"
        )
    if not isinstance(node, (ast.BinOp, ast.UnaryOp, ast.Compare, ast.IfExp,
                             ast.Tuple)):
        raise _refuse(node, "unsupported expression")
    for child in ast.iter_child_nodes(node):
        if isinstance(child, ast.expr):
            _check_expr(child, ns, local_names, loop_vars, depth)


def _check_index(node, ns, local_names, loop_vars) -> None:
    """Subscript indices must be lane-invariant (constants / loop vars)."""
    if isinstance(node, ast.Constant):
        if not isinstance(node.value, int):
            raise _refuse(node, "non-integer subscript")
        return
    if isinstance(node, ast.Name):
        if node.id in loop_vars:
            return
        resolved = ns.get(node.id)
        if isinstance(resolved, (int, np.integer)) and node.id not in local_names:
            return
        raise _refuse(
            node,
            "subscript index must be a constant or range() loop variable "
            "(lane-dependent indexing cannot be vectorized)",
        )
    if isinstance(node, ast.BinOp) and type(node.op) not in BINOPS:
        raise _refuse(node, "unsupported operator in subscript")
    if not isinstance(node, (ast.Tuple, ast.Slice, ast.BinOp, ast.UnaryOp)):
        raise _refuse(node, "unsupported subscript index")
    for child in ast.iter_child_nodes(node):
        if isinstance(child, ast.expr):
            _check_index(child, ns, local_names, loop_vars)


def _check_call(node: ast.Call, ns, local_names, loop_vars, depth) -> None:
    if node.keywords:
        raise _refuse(node, "keyword arguments in kernel calls")
    func = node.func
    if isinstance(func, ast.Name) and func.id in local_names:
        raise _refuse(node, "call through a local variable")
    fn = callee(func, ns)
    op = op_for(fn)
    if op is not None:
        if op.arity is not None and len(node.args) != op.arity:
            raise _refuse(node, f"{op.name}() takes {op.arity} operands")
    elif not is_lane_safe_helper(fn, depth):
        raise _refuse(
            node,
            "call target is neither a numpy function, a "
            "repro.simd intrinsic, nor a branchless helper",
        )
    for arg in node.args:
        _check_expr(arg, ns, local_names, loop_vars, depth)


# ----------------------------------------------------------------------
# Statement building.
# ----------------------------------------------------------------------
class _Builder:
    """Lowers a FunctionDef body into IR statements, validating as it goes."""

    def __init__(self, params: Sequence[str], ns: Dict[str, object]) -> None:
        self.params = tuple(params)
        self.ns = ns
        #: Every name bound inside the kernel (params + locals) — used to
        #: refuse calls through locals and index-by-local.
        self.local_names: Set[str] = set(params)
        self.loop_vars: Set[str] = set()
        #: local name -> root parameter it aliases (``x1 = x[k]``).
        self.alias_root: Dict[str, str] = {}

    # -- bookkeeping ---------------------------------------------------
    def _mark_alias_root(self, name: str, value: ast.expr) -> None:
        cur = value
        while isinstance(cur, ast.Subscript):
            cur = cur.value
        if isinstance(cur, ast.Name):
            root = self.alias_root.get(cur.id, cur.id)
            if root in self.params and isinstance(
                value, (ast.Name, ast.Subscript)
            ):
                self.alias_root[name] = root
                return
        self.alias_root.pop(name, None)

    # -- statements ----------------------------------------------------
    def build_block(self, stmts) -> List[object]:
        out: List[object] = []
        for stmt in stmts:
            built = self.build_stmt(stmt)
            if built is not None:
                out.append(built)
        return out

    def build_stmt(self, stmt):
        if is_docstring(stmt) or isinstance(stmt, ast.Pass):
            return None
        if isinstance(stmt, ast.Assign):
            return self._build_assign(stmt)
        if isinstance(stmt, ast.AugAssign):
            return self._build_aug(stmt)
        if isinstance(stmt, ast.For):
            return self._build_for(stmt)
        if isinstance(stmt, ast.If):
            return self._build_if(stmt)
        raise _refuse(stmt, "unsupported statement")

    def _check(self, node: ast.expr) -> None:
        _check_expr(node, self.ns, self.local_names, self.loop_vars)

    def _check_store_target(self, target: ast.expr) -> None:
        if not isinstance(target, ast.Subscript):
            raise _refuse(target, "unsupported store target")
        cur = target
        while isinstance(cur, ast.Subscript):
            _check_index(cur.slice, self.ns, self.local_names, self.loop_vars)
            cur = cur.value
        if not isinstance(cur, ast.Name):
            raise _refuse(target, "stores must index a named array")
        if cur.id not in self.local_names:
            raise _refuse(
                target, "stores must target a parameter or local array"
            )

    def _build_assign(self, stmt: ast.Assign):
        if len(stmt.targets) != 1:
            raise _refuse(stmt, "chained assignment")
        target = stmt.targets[0]
        self._check(stmt.value)
        if isinstance(target, ast.Name):
            if target.id in self.params:
                raise _refuse(stmt, "rebinding a kernel parameter")
            self.local_names.add(target.id)
            self._mark_alias_root(target.id, stmt.value)
            return SAssign([target], stmt.value)
        if isinstance(target, ast.Tuple):
            if not all(isinstance(t, ast.Name) for t in target.elts):
                raise _refuse(stmt, "tuple targets must be plain names")
            values = (
                stmt.value.elts
                if isinstance(stmt.value, ast.Tuple)
                and len(stmt.value.elts) == len(target.elts)
                else [None] * len(target.elts)
            )
            for t, v in zip(target.elts, values):
                if t.id in self.params:
                    raise _refuse(stmt, "rebinding a kernel parameter")
                self.local_names.add(t.id)
                if v is not None:
                    self._mark_alias_root(t.id, v)
                else:
                    self.alias_root.pop(t.id, None)
            return SAssign([target], stmt.value)
        if isinstance(target, ast.Subscript):
            self._check_store_target(target)
            return SAssign([target], stmt.value)
        raise _refuse(stmt, "unsupported assignment target")

    def _build_aug(self, stmt: ast.AugAssign):
        if type(stmt.op) not in AUGOPS:
            raise _refuse(stmt, "unsupported augmented assignment operator")
        self._check(stmt.value)
        if isinstance(stmt.target, ast.Name):
            if stmt.target.id in self.params:
                raise _refuse(stmt, "rebinding a kernel parameter")
            if stmt.target.id not in self.local_names:
                raise _refuse(stmt, "augmented assignment to unbound name")
            if stmt.target.id in self.alias_root:
                # ``x1 = x[k]; x1 += v`` mutates the parameter through a
                # view in the scalar form; the emitter's local-rebind
                # lowering would drop that in-place store, so refuse and
                # let the kernel run scalar.
                raise _refuse(
                    stmt, "augmented assignment through a parameter view"
                )
            return SAug(stmt.target, stmt.op, stmt.value)
        if isinstance(stmt.target, ast.Subscript):
            self._check_store_target(stmt.target)
            return SAug(stmt.target, stmt.op, stmt.value)
        raise _refuse(stmt, "unsupported augmented assignment target")

    def _build_for(self, stmt: ast.For):
        if stmt.orelse:
            raise _refuse(stmt, "for/else")
        if not isinstance(stmt.target, ast.Name):
            raise _refuse(stmt, "loop target must be a plain name")
        it = stmt.iter
        if not (
            isinstance(it, ast.Call)
            and isinstance(it.func, ast.Name)
            and it.func.id == "range"
            and not it.keywords
            and 1 <= len(it.args) <= 3
        ):
            raise _refuse(stmt, "only range() loops with constant bounds")
        bounds = [const_int(a, self.ns.get) for a in it.args]
        if any(b is None for b in bounds):
            raise _refuse(
                stmt, "range() bounds must be integer constants (a dim)"
            )
        if len(bounds) == 1:
            start, stop, step = 0, bounds[0], 1
        elif len(bounds) == 2:
            start, stop, step = bounds[0], bounds[1], 1
        else:
            start, stop, step = bounds
        var = stmt.target.id
        if var in self.params:
            raise _refuse(stmt, "loop variable shadows a parameter")
        self.local_names.add(var)
        self.loop_vars.add(var)
        body = self.build_block(stmt.body)
        return SFor(var, start, stop, step, body)

    def _build_if(self, stmt: ast.If):
        self._check(stmt.test)
        body = self.build_block(stmt.body)
        orelse = self.build_block(stmt.orelse)
        return SIf(stmt.test, body, orelse)


# ----------------------------------------------------------------------
# Entry point.
# ----------------------------------------------------------------------
def parse_kernel(fn) -> KernelIR:
    """Parse a scalar kernel function into a :class:`KernelIR`.

    Raises :class:`UnvectorizableKernel` for anything outside the
    vectorizable subset; callers treat that as "no vector form" and run
    the scalar path, so the parse is allowed to be strict.
    """
    try:
        source = textwrap.dedent(inspect.getsource(fn))
    except (OSError, TypeError) as exc:
        raise UnvectorizableKernel(f"kernel source unavailable: {exc}")
    try:
        tree = ast.parse(source)
    except SyntaxError as exc:  # pragma: no cover - dedent artifacts
        raise UnvectorizableKernel(f"kernel source unparsable: {exc}")
    if not (tree.body and isinstance(tree.body[0], ast.FunctionDef)):
        raise UnvectorizableKernel("kernel source is not a function")
    fd = tree.body[0]
    params = plain_params(fd.args)
    if params is None:
        raise UnvectorizableKernel(
            "kernels must take plain positional parameters"
        )
    ns = function_namespace(fn)
    builder = _Builder(params, ns)
    body = builder.build_block(fd.body)
    return KernelIR(
        name=fd.name,
        params=params,
        body=body,
        namespace=ns,
        source=source,
        local_names=builder.local_names,
    )
