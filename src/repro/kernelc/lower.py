"""What each kernel operation means — the one lowering both printers share.

The paper derives a kernel's scalar and vectorized forms from one
description (Fig 2b, Section 4).  This module says what the operations
of that description mean; the C printer (:mod:`repro.kernelc.native`)
and the NumPy printer (:mod:`repro.kernelc.vector`) keep only their
statement structure, and :mod:`repro.kernelc.flops` prices from it:

* :data:`OPS` (callables, by identity) and :data:`BINOPS` — each
  :class:`Op` has the interpreter's scalar semantics, a C spelling (none:
  :class:`NativeUnsupported`), a NumPy lane form (none:
  :class:`UnvectorizableKernel`, the loop runs scalar) and a flop price;
* :class:`Literals` — how a constant meets the loop's compute dtype;
* :func:`fold`, :func:`pow_op`, :func:`const_int` — compile-time values;
* :func:`helper` — a branchless helper function, parsed once;
* :class:`Names` — the identifiers a printer generates, disjoint from
  the kernel's own;
* :func:`reduction_updates` — which statement updates each reduction
  component, how: the native column fold and the vectorized lane fold
  replay it.
"""

from __future__ import annotations

import ast
import builtins
import inspect
import operator
import re
import textwrap
from dataclasses import dataclass
from typing import Callable, Dict, Iterable, Mapping, Optional, Tuple

import numpy as np

from ..simd import intrinsics as _intrinsics


class UnvectorizableKernel(Exception):
    """The scalar kernel falls outside the IR's vectorizable subset."""


class NativeUnsupported(Exception):
    """Kernel or chain outside the native emitter's C-translatable subset."""


#: Flop prices: ``sqrt`` is a (slow) hardware instruction; powers and
#: other transcendentals expand to polynomial evaluations.
SQRT_FLOPS = 4.0
TRANSCENDENTAL_FLOPS = 8.0

#: Lane form "the call as the kernel spells it": NumPy applies it to
#: lane arrays with the scalar call's semantics.
AS_WRITTEN = "as written"


@dataclass(frozen=True, eq=False)
class Op:
    """One kernel operation.  ``c`` formats operands ``{0}, {1}, ...``,
    the float suffix ``{f}`` and the literal ``{one}``; ``test``: operand
    0 is a condition.  ``lanes`` is :data:`AS_WRITTEN`, ``None``, or a
    callable printed ``_kc_<name>``, bitwise at ``lane_dtypes``, whose
    lane-free operands are first cast (:meth:`Literals.cast`) if
    ``typed``."""

    name: str
    scalar: Optional[Callable]
    arity: Optional[int]
    c: Optional[str]
    lanes: object = AS_WRITTEN
    flops: float = 1.0
    typed: bool = False
    test: bool = False
    lane_dtypes: Tuple[str, ...] = ("float64", "float32")


def _lane_min(a, b):
    """Builtin ``min(a, b)`` per lane: ``b`` only where strictly less
    (``np.minimum`` would propagate NaN and order ``±0`` its own way)."""
    return np.where(b < a, b, a)


def _lane_max(a, b):
    """Builtin ``max(a, b)`` per lane: ``b`` only where strictly greater."""
    return np.where(b > a, b, a)


def _lane_pow(base, exp):
    """Lane-wise ``**`` as NumPy *scalar* ``**`` (C ``pow()``): array
    ``**`` fast-paths small exponents (``np.square``, ``sqrt``), one ulp
    off on some inputs; ``np.float_power`` calls ``pow()``.  Integer
    ``**`` stays integer.  float32 has no ``powf`` primitive (array
    ``**`` differs), so the op has no float32 lane form."""
    if np.result_type(base, exp) == np.float64:
        return np.float_power(base, exp)
    return base ** exp


SQRT = Op("sqrt", np.sqrt, 1, "sqrt{f}({0})", flops=SQRT_FLOPS)
ABS = Op("abs", np.abs, 1, "fabs{f}({0})")
#: NumPy's NaN-propagating, first-wins min/max (``kc_fmin``).
FMIN = Op("fmin", np.minimum, 2, "kc_fmin{f}({0}, {1})")
FMAX = Op("fmax", np.maximum, 2, "kc_fmax{f}({0}, {1})")
#: Python's: ``b`` wins only when strictly less/greater (``kc_pymin``).
MIN = Op("min", builtins.min, 2, "kc_pymin{f}({0}, {1})", _lane_min,
         typed=True)
MAX = Op("max", builtins.max, 2, "kc_pymax{f}({0}, {1})", _lane_max,
         typed=True)
SELECT = Op("select", _intrinsics.select, 3, "({0} ? {1} : {2})", test=True)
FMA = Op("fma", _intrinsics.vfma, 3, "(({0} * {1}) + {2})", flops=2.0)
RECIP = Op("recip", _intrinsics.vrecip, 1, "({one} / {0})")
#: Any other NumPy callable: lane-wise as written, no C lowering.
NUMPY_CALL = Op("numpy", None, None, None, flops=TRANSCENDENTAL_FLOPS)

#: Callables by identity.
OPS: Dict[object, Op] = {
    np.sqrt: SQRT, _intrinsics.vsqrt: SQRT,
    np.abs: ABS, builtins.abs: ABS, _intrinsics.vabs: ABS,
    np.minimum: FMIN, _intrinsics.vmin: FMIN,
    np.maximum: FMAX, _intrinsics.vmax: FMAX,
    builtins.min: MIN, builtins.max: MAX,
    _intrinsics.select: SELECT, _intrinsics.vfma: FMA,
    _intrinsics.vrecip: RECIP,
}

#: ``**`` by a runtime exponent, and by a compile-time one: numpy
#: scalar ``**`` is libm ``pow()`` (``-fno-builtin-pow`` keeps gcc from
#: rewriting it), never the array fast paths.
POW = Op("pow", operator.pow, 2, "kc_pow{f}({0}, {1})", _lane_pow,
         flops=TRANSCENDENTAL_FLOPS, lane_dtypes=("float64",))
POW_CONST = Op("pow", operator.pow, 2, "pow{f}({0}, {1})", _lane_pow,
               flops=TRANSCENDENTAL_FLOPS, lane_dtypes=("float64",))

#: Binary operators by AST type (``%`` and ``//`` only at compile time).
BINOPS: Dict[type, Op] = {
    ast.Add: Op("add", operator.add, 2, "({0} + {1})"),
    ast.Sub: Op("sub", operator.sub, 2, "({0} - {1})"),
    ast.Mult: Op("mul", operator.mul, 2, "({0} * {1})"),
    ast.Div: Op("div", operator.truediv, 2, "({0} / {1})"),
    ast.Pow: POW,
    ast.Mod: Op("mod", operator.mod, 2, None),
    ast.FloorDiv: Op("floordiv", operator.floordiv, 2, None),
}
AUGOPS = {ast.Add: "+=", ast.Sub: "-=", ast.Mult: "*=", ast.Div: "/="}
CMPOPS = {ast.Lt: "<", ast.LtE: "<=", ast.Gt: ">", ast.GtE: ">=",
          ast.Eq: "==", ast.NotEq: "!="}
#: Operators an index expression may use (integers stay integers).
_INDEX_OPS = (ast.Add, ast.Sub, ast.Mult, ast.Mod, ast.FloorDiv)

#: Reserved names of the lane forms in generated NumPy source.
LANE_FORMS = {f"_kc_{op.name}": op.lanes for op in (MIN, MAX, POW)}
#: The functions the C spellings call, float twins included (``sqrt``,
#: ``sqrtf``, ...): a C local of one of these names would shadow it.
C_CALLS = frozenset(
    name + sfx
    for op in (*OPS.values(), *BINOPS.values(), POW_CONST) if op.c
    for name, f in re.findall(r"([A-Za-z_]\w*)(\{f\})?\(", op.c)
    for sfx in (("", "f") if f else ("",))
)
#: The reductions :func:`reduction_updates` recognises as calls.
MIN_MAX = (FMIN, FMAX, MIN, MAX)


def callee(func: ast.expr, ns: Dict[str, object]):
    """The object a call target names: a name of the kernel's namespace,
    else a builtin; attributes resolved left to right; ``None`` when
    unresolvable."""
    if isinstance(func, ast.Name):
        return ns[func.id] if func.id in ns else getattr(builtins, func.id,
                                                         None)
    if isinstance(func, ast.Attribute):
        base = callee(func.value, ns)
        return None if base is None else getattr(base, func.attr, None)
    return None


def op_for(fn) -> Optional[Op]:
    """The operation a callable performs, or ``None`` (a helper, or
    outside the vocabulary)."""
    try:
        op = OPS.get(fn)
    except TypeError:  # an unhashable namespace object
        return None
    module = getattr(fn, "__module__", None) or ""
    if op is None and (isinstance(fn, np.ufunc) or callable(fn)
                       and module.split(".")[0] == "numpy"):
        return NUMPY_CALL
    return op


# ----------------------------------------------------------------------
# Literals and compile-time values.
# ----------------------------------------------------------------------
class Literals:
    """How a constant meets a loop of compute dtype ``dtype``: a Python
    number is weak and takes it.  C spells it as an exact ``double`` or
    ``f``-suffixed ``float`` literal (compile-time subtrees folded in
    Python arithmetic first, :func:`fold`); a strong float64 NumPy scalar
    would promote a float32 kernel, which uniform-type C cannot mirror.
    NumPy keeps weak scalars weak in arithmetic, but ``np.where`` gives
    a lane-free select operand its own type, so it is cast."""

    def __init__(self, dtype) -> None:
        self.dtype = np.dtype(dtype).name
        self.single = self.dtype == "float32"
        self.sfx = "f" if self.single else ""

    def c(self, v) -> str:
        """An exact C literal of ``v`` at the compute dtype."""
        if self.single and isinstance(v, np.floating) \
                and v.dtype == np.float64:
            raise NativeUnsupported(
                "float64 numpy constant inside a float32 kernel")
        f = float(np.float32(v)) if self.single else float(v)
        if f != f:
            return "NAN"
        if f in (float("inf"), float("-inf")):
            return "INFINITY" if f > 0 else "(-INFINITY)"
        if f == int(f) and abs(f) < (1e7 if self.single else 1e16):
            return repr(f) + self.sfx  # "3.0" — exact and readable
        return float.hex(f) + self.sfx  # C99 hex float, exact round-trip

    def spell(self, op: Op, *args: str) -> str:
        """``op``'s C spelling over operands ``args`` at the dtype."""
        return op.c.format(*args, f=self.sfx, one=self.c(1.0))

    def cast(self, node: ast.expr) -> ast.expr:
        """``node`` as a NumPy scalar of the compute dtype."""
        func = ast.Attribute(value=ast.Name(id="_kc_np", ctx=ast.Load()),
                             attr=self.dtype, ctx=ast.Load())
        return ast.Call(func=func, args=[node], keywords=[])


def _is_number(v) -> bool:
    return isinstance(v, (int, float, np.integer, np.floating)) \
        and not isinstance(v, bool)


def fold(node: ast.expr, value_of: Callable):
    """A constant subtree evaluated as the scalar kernel does — in Python
    arithmetic, before any narrowing — or ``None`` when a leaf is runtime
    data or a (strong) NumPy scalar.  ``value_of(name)``: what a name
    denotes at compile time (``None`` for a kernel local)."""
    if isinstance(node, ast.Constant):
        v = node.value
    elif isinstance(node, ast.Name):
        v = value_of(node.id)
    elif isinstance(node, ast.UnaryOp) and isinstance(node.op, ast.USub):
        v = fold(node.operand, value_of)
        return None if v is None else -v
    elif isinstance(node, ast.BinOp) and type(node.op) in BINOPS:
        lv = fold(node.left, value_of)
        rv = None if lv is None else fold(node.right, value_of)
        if rv is None:
            return None
        try:
            return BINOPS[type(node.op)].scalar(lv, rv)
        except (ZeroDivisionError, OverflowError):
            return None
    else:
        return None
    return v if type(v) in (int, float) else None


def pow_op(expo: ast.expr, value_of: Callable):
    """How ``base ** expo`` lowers: ``(None, 0.0)`` is the literal 1 and
    ``(None, 1.0)`` the base — the only exponents where ``pow()`` is
    exact by IEEE; ``(POW_CONST, e)`` another compile-time exponent;
    ``(POW, None)`` a runtime one."""
    if isinstance(expo, ast.Constant):
        v = expo.value
    elif isinstance(expo, ast.Name):
        v = value_of(expo.id)
    elif isinstance(expo, ast.UnaryOp) and isinstance(expo.op, ast.USub) \
            and isinstance(expo.operand, ast.Constant):
        v = expo.operand.value
        v = -v if _is_number(v) else None
    else:
        v = None
    if not _is_number(v):
        return POW, None
    return (None, float(v)) if v in (0, 1) else (POW_CONST, v)


def const_int(node: ast.expr, value_of: Callable) -> Optional[int]:
    """The compile-time integer of a subscript index or a ``range()``
    bound: integer literals and names, and ``+ - * % //`` and unary
    minus over them; ``None`` otherwise."""
    if isinstance(node, ast.Constant):
        v = node.value
    elif isinstance(node, ast.Name):
        v = value_of(node.id)
    elif isinstance(node, ast.UnaryOp) and isinstance(node.op, ast.USub):
        v = const_int(node.operand, value_of)
        return None if v is None else -v
    elif isinstance(node, ast.BinOp) and isinstance(node.op, _INDEX_OPS):
        lv = const_int(node.left, value_of)
        rv = const_int(node.right, value_of)
        if lv is None or rv is None:
            return None
        try:
            return BINOPS[type(node.op)].scalar(lv, rv)
        except ZeroDivisionError:
            return None
    else:
        return None
    if isinstance(v, (int, np.integer)) and not isinstance(v, bool):
        return int(v)
    return None


# ----------------------------------------------------------------------
# Helper functions, parsed once.
# ----------------------------------------------------------------------
def function_namespace(fn) -> Dict[str, object]:
    """Globals plus closure cells — how the function's names resolve."""
    ns = dict(getattr(fn, "__globals__", {}))
    freevars = getattr(fn.__code__, "co_freevars", ())
    closure = getattr(fn, "__closure__", None) or ()
    for name, cell in zip(freevars, closure):
        try:
            ns[name] = cell.cell_contents
        except ValueError:  # pragma: no cover - empty cell
            pass
    return ns


def is_docstring(stmt) -> bool:
    return (
        isinstance(stmt, ast.Expr)
        and isinstance(stmt.value, ast.Constant)
        and isinstance(stmt.value.value, str)
    )


def plain_params(args: ast.arguments) -> Optional[Tuple[str, ...]]:
    """Parameter names of a signature of plain positional parameters."""
    if args.vararg or args.kwarg or args.kwonlyargs or args.defaults \
            or args.kw_defaults:
        return None
    return tuple(a.arg for a in args.posonlyargs + args.args)


def target_names(target: ast.expr) -> Optional[list]:
    """The names a plain ``name`` or ``a, b`` assignment target binds."""
    elts = target.elts if isinstance(target, ast.Tuple) else [target]
    if all(isinstance(t, ast.Name) for t in elts):
        return [t.id for t in elts]
    return None


@dataclass(frozen=True)
class Helper:
    """A branchless helper: plain positional parameters, assignments to
    names, one final ``return`` (``returns``: its values)."""

    name: str
    params: Tuple[str, ...]
    body: Tuple[ast.Assign, ...]
    returns: Tuple[ast.expr, ...]
    ns: Dict[str, object]


def helper(fn) -> Optional[Helper]:
    """``fn`` parsed as a :class:`Helper` (cached on the function), or
    ``None`` when it is not one."""
    if not inspect.isfunction(fn):
        return None
    cached = fn.__dict__.get("_kernelc_helper")
    if cached is None:
        cached = fn._kernelc_helper = _parse_helper(fn) or False
    return cached or None


def _parse_helper(fn) -> Optional[Helper]:
    try:
        tree = ast.parse(textwrap.dedent(inspect.getsource(fn)))
    except (OSError, TypeError, SyntaxError):
        return None
    fd = tree.body[0] if tree.body else None
    if not isinstance(fd, ast.FunctionDef):
        return None
    params = plain_params(fd.args)
    stmts = [st for st in fd.body if not is_docstring(st)]
    if params is None or not stmts or not isinstance(stmts[-1], ast.Return) \
            or stmts[-1].value is None:
        return None
    for st in stmts[:-1]:
        if not (isinstance(st, ast.Assign) and len(st.targets) == 1
                and target_names(st.targets[0])):
            return None
    ret = stmts[-1].value
    returns = ret.elts if isinstance(ret, ast.Tuple) else [ret]
    return Helper(fd.name, params, tuple(stmts[:-1]), tuple(returns),
                  function_namespace(fn))


def runs_as_written(h: Helper) -> bool:
    """Whether a helper means on lane arrays what it means on scalars:
    every operation in it, nested helpers included, has the lane form
    :data:`AS_WRITTEN` (builtin ``min``/``max`` and ``**`` do not)."""
    for value in [*(st.value for st in h.body), *h.returns]:
        for node in ast.walk(value):
            if isinstance(node, ast.BinOp):
                op = BINOPS[type(node.op)]
            elif isinstance(node, ast.Call):
                fn = callee(node.func, h.ns)
                op = op_for(fn)
                if op is None and not runs_as_written(helper(fn)):
                    return False
            else:
                continue
            if op is not None and op.lanes is not AS_WRITTEN:
                return False
    return True


# ----------------------------------------------------------------------
# Generated identifiers.
# ----------------------------------------------------------------------
class Names:
    """The identifiers a printer gives out for one kernel: disjoint from
    every name the kernel binds or reads (``kernel``), from ``reserved``
    (what the printer spells itself) and from each other.  ``generated``:
    a pattern of names the printer spells from slot numbers (``d3``),
    which :meth:`local` keeps kernel locals out of."""

    def __init__(self, kernel: Iterable[str], reserved=frozenset(),
                 start: int = 0, generated=None) -> None:
        self.kernel = frozenset(kernel)
        self.reserved = reserved
        self.generated = generated
        self.given: set = set()
        self._start = start
        self._next: Dict[str, int] = {}

    def _taken(self, name: str, prefix: bool) -> bool:
        if prefix:
            return any(n.startswith(name) for n in (*self.kernel, *self.given))
        return name in self.kernel or name in self.reserved \
            or name in self.given

    def fresh(self, fmt: str, family: str = "", prefix: bool = False) -> str:
        """The next free ``fmt.format(n)`` of ``family``'s count — so a
        kernel with no clash gets what a plain counter would give; with
        ``prefix``, one no name starts with, so all names under it are
        free too."""
        n = self._next.get(family, self._start)
        while self._taken(fmt.format(n), prefix):
            n += 1
        self._next[family] = n + 1
        self.given.add(fmt.format(n))
        return fmt.format(n)

    def local(self, name: str) -> str:
        """The target-language name of kernel local ``name``: itself,
        ``_l``-suffixed when reserved or generated-shaped, ``_``-padded
        past names already given."""
        base = name if re.match(r"^[A-Za-z_]\w*$", name) else "loc"
        if base in self.reserved or (self.generated is not None
                                     and self.generated.match(base)):
            base += "_l"
        while base in self.given:
            base += "_"
        self.given.add(base)
        return base


# ----------------------------------------------------------------------
# Reduction updates.
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class Update:
    """How one top-level statement updates a reduction component:
    ``g[comp] op= operand`` (``op`` an :data:`AUGOPS` spelling, ``+=``
    or ``-=``), or ``g[comp] = op(g[comp], operand)`` with ``op`` one of
    :data:`MIN_MAX` — ``op(operand, g[comp])`` when ``operand_first``."""

    param: str
    comp: int
    op: object
    operand: ast.expr
    operand_first: bool = False


def reduction_updates(ir, params: Mapping[str, int]
                      ) -> Optional[Dict[int, Update]]:
    """``index of a top-level statement -> Update`` for the reduction
    parameters of kernel ``ir`` (``params``: name -> dim), when each of
    their components is updated by one top-level statement and they
    appear nowhere else; ``None`` otherwise.  Only then is "one operand
    per element, replayed in element order" the same sequence of
    operations as the serial loop's.  A component is ``0..dim-1``
    (``g[-1]`` is ``g[dim-1]``; an index out of range is not an update).
    Memoised on ``ir`` per parameter set."""
    memo = ir.__dict__.setdefault("_reduction_updates", {})
    key = frozenset(params.items())
    if key not in memo:
        memo[key] = _reduction_updates(ir.body, dict(params), ir.namespace)
    return memo[key]


def _reduction_updates(body, dims, ns):
    from .ir import SAssign, SAug, stmt_nodes

    def component(node) -> Optional[Tuple[str, int]]:
        if isinstance(node, ast.Subscript) and isinstance(
                node.value, ast.Name) and node.value.id in dims:
            dim = dims[node.value.id]
            comp = const_int(node.slice, ns.get)
            if comp is not None and -dim <= comp < dim:
                return node.value.id, comp % dim
        return None

    found: Dict[int, Update] = {}
    expected = 0
    for i, st in enumerate(body):
        update = None
        if isinstance(st, SAug) and isinstance(st.op, (ast.Add, ast.Sub)):
            target = component(st.target)
            if target is not None:
                update = Update(*target, AUGOPS[type(st.op)], st.value)
                refs = 1
        elif isinstance(st, SAssign) and len(st.targets) == 1 \
                and isinstance(st.value, ast.Call) \
                and len(st.value.args) == 2 and not st.value.keywords:
            op = op_for(callee(st.value.func, ns))
            target = component(st.targets[0])
            a, b = st.value.args
            if op in MIN_MAX and target is not None and (
                    component(a), component(b)) in ((target, None),
                                                    (None, target)):
                first = component(a) is None
                update = Update(*target, op, a if first else b, first)
                refs = 2
        if update is not None:
            if any((u.param, u.comp) == (update.param, update.comp)
                   for u in found.values()):
                return None
            found[i] = update
            expected += refs
    uses = sum(
        1 for st in body for node in stmt_nodes(st)
        if isinstance(node, ast.Name) and node.id in dims
    )
    return found if uses == expected else None
